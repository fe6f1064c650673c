"""Property: ``dscg_to_json`` writes what ``json.dumps(document, indent=2)`` writes.

The emitter formats text straight from the ``CallNode``s. Its oracle is
the serializer it replaced, kept here: build the nested-dict document
(``reference_document``) and hand it to the standard encoder. Two
generators feed it — call forests run through the real probes and the
real analyzer, with records dropped so partial nodes and abnormal events
appear; and forests built node by node, where identifiers and abnormal
``reason`` texts hold quotes, backslashes, control characters, non-ASCII
and lone surrogates, readings come and go (CPU-less hosts), chains are
empty, and oneway stubs name forked chains that may or may not exist.
"""

import json

from hypothesis import given, strategies as st

from repro.analysis import (
    CpuAnalysis,
    dscg_from_json,
    dscg_to_json,
    reconstruct_from_records,
)
from repro.analysis.dscg import AbnormalEvent, CallNode, ChainTree, Dscg
from repro.analysis.latency import end_to_end_latency
from repro.core import CallKind, Domain, MonitorMode, TracingEvent
from tests.helpers import Call, simulate
from tests.unit.store.test_segment_codec import make_record


def _node_to_dict(node, cpu):
    payload = {
        "interface": node.interface,
        "operation": node.operation,
        "object_id": node.object_id,
        "component": node.component,
        "call_kind": node.call_kind.value,
        "collocated": node.collocated,
        "domain": node.domain.value,
        "oneway_side": node.oneway_side,
        "partial": node.partial,
        "children": [_node_to_dict(child, cpu) for child in node.children],
    }
    if node.forked_chain_uuid:
        payload["forked_chain_uuid"] = node.forked_chain_uuid
    latency = end_to_end_latency(node)
    if latency is not None:
        payload["latency_ns"] = latency
    if cpu is not None:
        self_cpu = cpu.self_cpu(node)
        if self_cpu is not None:
            payload["self_cpu_ns"] = self_cpu
        descendant = cpu.descendant_cpu(node)
        if descendant.by_processor:
            payload["descendant_cpu_ns"] = dict(descendant.by_processor)
    return payload


def reference_document(dscg, include_cpu=True):
    cpu = CpuAnalysis(dscg) if include_cpu else None
    return {
        "format": "repro-dscg",
        "version": 1,
        "stats": dscg.stats(),
        "chains": [
            {
                "chain_uuid": tree.chain_uuid,
                "parent_chain_uuid": tree.parent_chain_uuid,
                "abnormal": [
                    {"event_seq": a.event_seq, "reason": a.reason}
                    for a in tree.abnormal
                ],
                "roots": [_node_to_dict(root, cpu) for root in tree.roots],
            }
            for tree in dscg.chains.values()
        ],
    }


def assert_matches_oracle(dscg):
    for include_cpu in (True, False):
        text = dscg_to_json(dscg, include_cpu=include_cpu)
        assert text == json.dumps(reference_document(dscg, include_cpu), indent=2)
    restored = dscg_from_json(text)
    assert list(restored.chains) == list(dscg.chains)
    assert restored.stats()["nodes"] == dscg.stats()["nodes"]


# ----------------------------------------------------------------------
# Forests through the real probes and the real analyzer


@st.composite
def calls(draw, depth=2):
    children = ()
    if depth > 0:
        children = tuple(draw(st.lists(calls(depth=depth - 1), max_size=2)))
    shape = draw(st.sampled_from(["sync", "sync", "collocated", "oneway"]))
    return Call(
        draw(st.sampled_from(["X::a", "X::b", "Y::c"])),
        cpu_ns=draw(st.integers(0, 500)), idle_ns=draw(st.integers(0, 500)),
        children=children, oneway=shape == "oneway", collocated=shape == "collocated",
    )
@given(
    top_calls=st.lists(calls(), min_size=1, max_size=3),
    mode=st.sampled_from([MonitorMode.FULL, MonitorMode.LATENCY, MonitorMode.CPU]),
    dropped=st.sets(st.integers(0, 60), max_size=6),
)
def test_reconstructed_forests_match_oracle(top_calls, mode, dropped):
    records = simulate(top_calls, mode=mode, fresh_chain_per_top_call=True).records
    kept = [r for i, r in enumerate(records) if i not in dropped]
    assert_matches_oracle(reconstruct_from_records(kept))


# ----------------------------------------------------------------------
# Forests built node by node, hostile text everywhere

_hostile = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\n\t\x7f é€\U0001f600𐏿'),
        st.characters(),
    ),
    max_size=8,
)
_reading = st.one_of(st.none(), st.integers(0, 10**6))
_CHAIN_IDS = ["c0", "c1", "c2", 'c"3\\']
_PROCESSORS = ["x86", "PA-RISC", 'p"\\\ud800']


@st.composite
def probe_records(draw, processor_type):
    """A node's records: any subset of the four events, any readings."""
    records = {}
    for event in draw(st.sets(st.sampled_from(list(TracingEvent)))):
        records[event] = make_record(
            event=event, processor_type=processor_type,
            wall_start=draw(_reading), wall_end=draw(_reading),
            cpu_start=draw(_reading), cpu_end=draw(_reading),
        )
    return records


@st.composite
def nodes(draw, chain_uuid, depth=2):
    call_kind = draw(st.sampled_from(list(CallKind)))
    node = CallNode(
        interface=draw(_hostile), operation=draw(_hostile),
        object_id=draw(_hostile), component=draw(_hostile),
        chain_uuid=chain_uuid, call_kind=call_kind,
        collocated=draw(st.booleans()), domain=draw(st.sampled_from(list(Domain))),
        oneway_side=draw(st.sampled_from(["", "stub", "skel"])),
        records=draw(probe_records(draw(st.sampled_from(_PROCESSORS)))),
        # Forks point down the chain list only: a fork cycle has no
        # inclusive CPU, in the oracle no more than in the emitter.
        forked_chain_uuid=draw(st.sampled_from(
            [None, "", "nowhere"] + _CHAIN_IDS[_CHAIN_IDS.index(chain_uuid) + 1:]
        )),
        partial=draw(st.booleans()),
    )
    if depth > 0:
        for child in draw(st.lists(nodes(chain_uuid, depth - 1), max_size=3)):
            node.add_child(child)
    return node


@st.composite
def forests(draw):
    dscg = Dscg()
    for chain_uuid in draw(st.lists(st.sampled_from(_CHAIN_IDS), unique=True)):
        tree = ChainTree(chain_uuid=chain_uuid)
        tree.roots = draw(st.lists(nodes(chain_uuid), max_size=2))
        tree.abnormal = [
            AbnormalEvent(chain_uuid, seq, reason)
            for seq, reason in draw(st.lists(
                st.tuples(st.integers(-5, 2**40), _hostile), max_size=3))
        ]
        dscg.add_chain(tree)
    if draw(st.booleans()):
        dscg.link_chains()  # forks that resolve get a parent_chain_uuid
    return dscg
@given(forests())
def test_built_forests_match_oracle(dscg):
    assert_matches_oracle(dscg)
