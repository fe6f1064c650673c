"""The Dynamic System Call Graph (DSCG).

Each causal chain (one Function UUID) unfolds into a tree of
:class:`CallNode` invocations; the DSCG groups the chain trees {Ti} under
a virtual root and cross-links oneway forks (parent chain → child chain),
"capturing all component object invocation and preserving the complete
call chains the application ever experienced" (Section 3.1) — full call
paths, not the depth-1 caller/callee pairs of GPROF-style profilers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.events import CallKind, Domain, TracingEvent
from repro.core.records import ProbeRecord, Site

#: Index of each field of a *reading*: what one probe record says that its
#: frame does not already hold. A reading is an exact ``tuple`` of atoms
#: (``semantics`` aside), which the collector untracks at its first young
#: pass — a ``NamedTuple`` is a subclass and would stay tracked for good.
(
    EVENT_SEQ, PROCESS, PID, HOST, THREAD_ID, PROCESSOR_TYPE, PLATFORM,
    WALL_START, WALL_END, CPU_START, CPU_END, CHILD_CHAIN_UUID, SEMANTICS,
) = range(13)

#: ``CallNode`` slot holding each event's reading, by ``event - 1``.
_READING_SLOTS = ("stub_start", "skel_start", "skel_end", "stub_end")


def reading_of(record: ProbeRecord) -> tuple:
    """The reading of one record, in the index order above."""
    site = record.site
    return (
        record.event_seq, site.process, site.pid, site.host, record.thread_id,
        site.processor_type, site.platform, record.wall_start, record.wall_end,
        record.cpu_start, record.cpu_end, record.child_chain_uuid, record.semantics,
    )


#: What an annotation slot holds until its first read fills it; ``None``
#: there means "not measurable".
UNSET = object()


class CallNode:
    """One function invocation in the reconstructed call hierarchy.

    The one GC-tracked object a call costs: identity and flags, the tree
    links (``children`` is the shared empty tuple until :meth:`add_child`
    allocates a list), one reading slot per :class:`TracingEvent` (``None``
    until that probe's record is applied) and the three annotation slots
    — L(F), SC_F, DC_F — the only memo of each value: :data:`UNSET` until
    the first read (``end_to_end_latency``, ``self_cpu``,
    ``CpuAnalysis.descendant_cpu``) computes and fills it. ``records=``
    snapshots the readings of the given records.
    """

    __slots__ = (
        "interface", "operation", "object_id", "component", "chain_uuid",
        "call_kind", "collocated", "domain", "oneway_side",
        "forked_chain_uuid", "partial", "parent", "children",
        *_READING_SLOTS,
        "latency_ns", "self_cpu_ns", "descendant_cpu",
    )

    def __init__(
        self, interface: str, operation: str, object_id: str, component: str,
        chain_uuid: str, call_kind: CallKind = CallKind.SYNC,
        collocated: bool = False, domain: Domain = Domain.CORBA,
        oneway_side: str = "",
        records: "dict[TracingEvent, ProbeRecord] | None" = None,
        children: "list[CallNode] | tuple[()]" = (),
        parent: "CallNode | None" = None,
        forked_chain_uuid: str | None = None, partial: bool = False,
    ):
        self.interface = interface
        self.operation = operation
        self.object_id = object_id
        self.component = component
        self.chain_uuid = chain_uuid
        self.call_kind = call_kind
        self.collocated = collocated
        self.domain = domain
        #: Which side(s) of a oneway call this node represents.
        self.oneway_side = oneway_side  # "" | "stub" | "skel"
        #: UUID of the chain forked by this oneway stub-side call, if any.
        self.forked_chain_uuid = forked_chain_uuid
        #: Set when some probe records are missing (e.g. unmonitored peer).
        self.partial = partial
        self.parent = parent
        self.children = children
        self.stub_start = self.skel_start = self.skel_end = self.stub_end = None
        self.latency_ns = self.self_cpu_ns = self.descendant_cpu = UNSET
        if records:
            for event, record in records.items():
                setattr(self, _READING_SLOTS[event - 1], reading_of(record))

    @property
    def function(self) -> str:
        return f"{self.interface}::{self.operation}"

    def reading(self, event: TracingEvent) -> tuple | None:
        """The reading of ``event``'s record, or None while it is missing."""
        return getattr(self, _READING_SLOTS[event - 1])

    def record(self, event: TracingEvent) -> ProbeRecord | None:
        """The probe record of ``event``, rebuilt from the frame and the
        reading: equal to the one applied, not identical to it, and
        changing it changes nothing here. Identity fields read back with
        the frame's value. For tests, one-off lookups and user code — the
        analyzers read the reading slots."""
        reading = self.reading(event)
        if reading is None:
            return None
        site = Site(
            self.interface, self.operation, self.object_id, self.component,
            reading[PROCESS], reading[PID], reading[HOST], reading[PROCESSOR_TYPE],
            reading[PLATFORM], self.domain,
        )
        return ProbeRecord(
            site, self.chain_uuid, reading[EVENT_SEQ], event, reading[THREAD_ID],
            self.call_kind, self.collocated, *reading[WALL_START:],
        )

    @property
    def records(self) -> dict[TracingEvent, ProbeRecord]:
        """Read-only view of every record present (see :meth:`record`)."""
        return {e: self.record(e) for e in TracingEvent if self.reading(e) is not None}

    def add_child(self, child: "CallNode") -> None:
        child.parent = self
        if self.children:
            self.children.append(child)
        else:
            self.children = [child]

    def depth(self) -> int:
        depth, node = 0, self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def walk(self) -> Iterator["CallNode"]:
        """This node's subtree in pre-order (no generator per node)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(reversed(node.children))

    #: Execution locality helpers -------------------------------------

    @property
    def client_process(self) -> str | None:
        reading = self.stub_start
        return reading[PROCESS] if reading else None

    @property
    def server_process(self) -> str | None:
        reading = self.skel_start
        return reading[PROCESS] if reading else None

    @property
    def server_processor_type(self) -> str | None:
        reading = self.skel_start
        return reading[PROCESSOR_TYPE] if reading else None

    @property
    def server_thread(self) -> tuple[str, int] | None:
        reading = self.skel_start
        return (reading[PROCESS], reading[THREAD_ID]) if reading else None

    def __repr__(self) -> str:
        return (
            f"CallNode({self.function}, kind={self.call_kind.value},"
            f" children={len(self.children)})"
        )


@dataclass
class AbnormalEvent:
    """A log record that violated the Figure-4 state machine."""

    chain_uuid: str
    event_seq: int
    reason: str
    record: ProbeRecord | None = None


class ChainTree:
    """One causal chain unfolded into a tree (Ti in the paper)."""

    __slots__ = ("chain_uuid", "roots", "abnormal", "parent_chain_uuid")

    def __init__(self, chain_uuid: str):
        self.chain_uuid = chain_uuid
        self.roots: list[CallNode] = []
        #: The shared empty tuple until :meth:`flag` allocates a list.
        self.abnormal: "list[AbnormalEvent] | tuple[()]" = ()
        #: Chain that forked this one via a oneway call (if any).
        self.parent_chain_uuid: str | None = None

    def flag(self, event: AbnormalEvent) -> None:
        if self.abnormal:
            self.abnormal.append(event)
        else:
            self.abnormal = [event]

    def walk(self) -> Iterator[CallNode]:
        for root in self.roots:
            yield from root.walk()

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    @property
    def is_clean(self) -> bool:
        return not self.abnormal


class Dscg:
    """The grouped forest of chain trees plus oneway cross-links."""

    def __init__(self):
        self.chains: dict[str, ChainTree] = {}
        #: (parent chain uuid, forking node) -> child chain uuid
        self.links: list[tuple[str, CallNode, str]] = []

    def add_chain(self, tree: ChainTree) -> None:
        """Add one chain tree (insertion order defines iteration order)."""
        self.chains[tree.chain_uuid] = tree

    def link_chains(self) -> None:
        """Wire oneway forks: parent stub-side node → child chain tree."""
        self.links.clear()
        for tree in self.chains.values():
            for node in tree.walk():
                if node.forked_chain_uuid and node.forked_chain_uuid in self.chains:
                    child = self.chains[node.forked_chain_uuid]
                    child.parent_chain_uuid = tree.chain_uuid
                    self.links.append((tree.chain_uuid, node, child.chain_uuid))

    # ------------------------------------------------------------------

    def root_chains(self) -> list[ChainTree]:
        """Chains not forked from any other chain (the forest's top level)."""
        return [t for t in self.chains.values() if t.parent_chain_uuid is None]

    def walk(self) -> Iterator[CallNode]:
        for tree in self.chains.values():
            yield from tree.walk()

    def node_count(self) -> int:
        return sum(tree.node_count() for tree in self.chains.values())

    def abnormal_events(self) -> list[AbnormalEvent]:
        return [event for tree in self.chains.values() for event in tree.abnormal]

    def nodes_for_function(self, interface: str, operation: str) -> list[CallNode]:
        return [
            node for node in self.walk()
            if node.interface == interface and node.operation == operation
        ]

    def max_depth(self) -> int:
        best = 0
        for tree in self.chains.values():
            stack = [(root, 1) for root in tree.roots]
            while stack:
                node, depth = stack.pop()
                best = max(best, depth)
                stack.extend((child, depth + 1) for child in node.children)
        return best

    def stats(self) -> dict[str, int]:
        """Summary counters used by the Figure-5 benchmark report."""
        functions: set[str] = set()
        interfaces: set[str] = set()
        components: set[str] = set()
        objects: set[str] = set()
        partial_chains: set[str] = set()
        nodes = 0
        partial_nodes = 0
        for node in self.walk():
            nodes += 1
            functions.add(node.function)
            interfaces.add(node.interface)
            components.add(node.component)
            objects.add(node.object_id)
            if node.partial:
                partial_nodes += 1
                partial_chains.add(node.chain_uuid)
        return {
            "chains": len(self.chains),
            "nodes": nodes,
            "unique_methods": len(functions),
            "unique_interfaces": len(interfaces),
            "unique_components": len(components),
            "unique_objects": len(objects),
            "oneway_links": len(self.links),
            "abnormal_events": len(self.abnormal_events()),
            "partial_nodes": partial_nodes,
            "partial_chains": len(partial_chains),
            "max_depth": self.max_depth(),
        }
