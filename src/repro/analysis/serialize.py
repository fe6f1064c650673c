"""DSCG serialization for interchange and archival.

Reconstructed graphs can be exported to a self-contained JSON document
(structure + identities + annotations, no raw probe records) and loaded
back into lightweight node objects — enough for viewers, diffing and the
CLI, without re-reading the monitoring database.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from repro.analysis.cpu import CpuAnalysis, CpuVector, self_cpu
from repro.analysis.dscg import CallNode, ChainTree, Dscg
from repro.analysis.latency import end_to_end_latency
from repro.core.events import CallKind, Domain


#: Keys every node carries, in document order, ahead of ``children``.
_NODE_KEYS = (
    "interface", "operation", "object_id", "component", "call_kind",
    "collocated", "domain", "oneway_side", "partial",
)


class _Quoted(dict):
    """JSON string literals, escaped once per distinct string."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = encode_basestring_ascii(text)
        return literal


def _flag(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)  # a truthy non-bool prints as what it is


def _layout(depth: int) -> tuple[str, ...]:
    """The fixed text of a node object at call-tree ``depth``: its head as
    a ``%`` template up to the ``children`` value, what precedes the first
    and each further node of an array, what precedes an optional key, and
    what closes the node and the array."""
    brace = " " * (8 + 4 * depth)
    key = brace + "  "
    head = "{\n" + "".join(f'{key}"{name}": %s,\n' for name in _NODE_KEYS)
    return (
        head + f'{key}"children": ', "[\n" + brace, ",\n" + brace,
        ",\n" + key, "\n" + brace + "}", "\n" + brace[2:] + "]",
    )


def _write_nodes(nodes, depth: int, write, quoted: _Quoted, layouts: list, cpu) -> None:
    """Emit one ``children`` / ``roots`` array. A module-level function
    taking its state as arguments: a recursive closure is a reference cycle
    that would strand the whole document until the next full collection."""
    if not nodes:
        write("[]")
        return
    if depth == len(layouts):
        layouts.append(_layout(depth))
    head, before, before_next, before_key, end_node, end_array = layouts[depth]
    for node in nodes:
        write(before)
        before = before_next
        write(head % (
            quoted[node.interface], quoted[node.operation],
            quoted[node.object_id], quoted[node.component],
            quoted[node.call_kind.value], _flag(node.collocated),
            quoted[node.domain.value], quoted[node.oneway_side],
            _flag(node.partial),
        ))
        _write_nodes(node.children, depth + 1, write, quoted, layouts, cpu)
        if node.forked_chain_uuid:
            write(f'{before_key}"forked_chain_uuid": {quoted[node.forked_chain_uuid]}')
        latency = end_to_end_latency(node)
        if latency is not None:
            write(f'{before_key}"latency_ns": {latency}')
        if cpu is not None:
            self_ns = self_cpu(node)
            if self_ns is not None:
                write(f'{before_key}"self_cpu_ns": {self_ns}')
            by_processor = cpu.descendant_cpu(node).by_processor
            if by_processor:
                item = before_key[1:] + "  "
                write(f'{before_key}"descendant_cpu_ns": {{')
                write(",".join(
                    f"{item}{quoted[processor]}: {ns}"
                    for processor, ns in by_processor.items()
                ))
                write(before_key[1:] + "}")
        write(end_node)
    write(end_array)


def dscg_to_json(dscg: Dscg, include_cpu: bool = True) -> str:
    """Serialize a DSCG (with annotations) to a JSON document.

    The text is written straight from the nodes, with no dict per node in
    between, and is byte-identical to ``json.dumps(document, indent=2)``
    of the equivalent nested-dict document — which
    ``tests/property/test_serialize_oracle.py`` builds as the oracle.
    Annotations are read through the nodes' memo slots, so the text is
    the same whether or not the annotators ran first.
    """
    quoted = _Quoted()
    layouts: list[tuple[str, ...]] = []
    out: list[str] = []
    write = out.append

    write('{\n  "format": "repro-dscg",\n  "version": 1,\n  "stats": {\n')
    write(",\n".join(
        f"    {quoted[key]}: {value}" for key, value in dscg.stats().items()
    ))
    write('\n  },\n  "chains": ')
    before = "[\n    {\n"
    cpu = CpuAnalysis(dscg) if include_cpu else None
    for tree in dscg.chains.values():
        parent = tree.parent_chain_uuid
        write(
            f'{before}      "chain_uuid": {quoted[tree.chain_uuid]},\n'
            f'      "parent_chain_uuid": {"null" if parent is None else quoted[parent]},\n'
            '      "abnormal": '
        )
        before = ",\n    {\n"
        if tree.abnormal:
            write("[\n        {\n" + "\n        },\n        {\n".join(
                f'          "event_seq": {abnormal.event_seq},\n'
                f'          "reason": {quoted[abnormal.reason]}'
                for abnormal in tree.abnormal
            ) + "\n        }\n      ]")
        else:
            write("[]")
        write(',\n      "roots": ')
        _write_nodes(tree.roots, 0, write, quoted, layouts, cpu)
        write("\n    }")
    write("\n  ]\n}" if dscg.chains else "[]\n}")
    return "".join(out)


def _node_from_dict(payload: dict[str, Any], chain_uuid: str) -> CallNode:
    node = CallNode(
        interface=payload["interface"],
        operation=payload["operation"],
        object_id=payload["object_id"],
        component=payload["component"],
        chain_uuid=chain_uuid,
        call_kind=CallKind(payload["call_kind"]),
        collocated=payload["collocated"],
        domain=Domain(payload["domain"]),
        oneway_side=payload.get("oneway_side", ""),
        forked_chain_uuid=payload.get("forked_chain_uuid"),
        partial=payload.get("partial", False),
    )
    node.latency_ns = payload.get("latency_ns")
    node.self_cpu_ns = payload.get("self_cpu_ns")
    node.descendant_cpu = CpuVector(payload.get("descendant_cpu_ns", {}))
    for child_payload in payload["children"]:
        node.add_child(_node_from_dict(child_payload, chain_uuid))
    return node


def dscg_from_json(document: str) -> Dscg:
    """Load a serialized DSCG (structure + annotations; no probe records)."""
    payload = json.loads(document)
    if payload.get("format") != "repro-dscg":
        raise ValueError("not a repro DSCG document")
    dscg = Dscg()
    for chain_payload in payload["chains"]:
        tree = ChainTree(chain_payload["chain_uuid"])
        tree.parent_chain_uuid = chain_payload.get("parent_chain_uuid")
        for root_payload in chain_payload["roots"]:
            tree.roots.append(_node_from_dict(root_payload, tree.chain_uuid))
        dscg.add_chain(tree)
    dscg.link_chains()
    return dscg
