"""System-wide CPU consumption characterization (Section 3.2).

Three phases, following the paper:

1. **Self (exclusive) CPU** of each invocation F:
   ``SC_F = (P(F,3,start) − P(F,2,end)) − Σ_i (P(i,4,end) − P(i,1,start))``
   — the CPU the server thread charged between the skeleton start and end
   probes, minus the CPU windows spanned by F's immediate child calls
   (probe 1 start to probe 4 end, read on F's own thread, which is the
   client thread of each child).

2. **Descendent (inherited) CPU**:
   ``DC_F = Σ_{f ∈ immediate children} (SC_f + DC_f)`` — represented as a
   vector ``<C1 … CM>`` over processor types, because children may execute
   on different processor families.

3. The CCSG synthesis lives in :mod:`repro.analysis.ccsg`.

Oneway forks: the stub side of a oneway call has no skeleton probes in
its own chain; the forked chain's inclusive CPU is charged to the forking
node's descendent vector, so CPU propagation crosses chain boundaries the
same way causality does. Hosts without per-thread CPU counters (the
paper's VxWorks case) yield ``None`` self-CPU, which propagates as an
uncovered contribution.

SC_F and DC_F are memoized in the node's own ``self_cpu_ns`` and
``descendant_cpu`` slots: the first read computes and stores, every later
reader gets the stored value (see :class:`~repro.analysis.dscg.CallNode`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.events import CallKind
from repro.analysis.dscg import CPU_END, CPU_START, UNSET, CallNode, Dscg


def _child_cpu_window(child: CallNode) -> int | None:
    """CPU charged to the caller's thread across one child call."""
    start, end = child.stub_start, child.stub_end
    if start is None or end is None:
        return None
    if start[CPU_START] is None or end[CPU_END] is None:
        return None
    return end[CPU_END] - start[CPU_START]


def self_cpu(node: CallNode) -> int | None:
    """SC_F in nanoseconds; None when the readings are unavailable."""
    total = node.self_cpu_ns
    if total is not UNSET:
        return total
    skel_start, skel_end = node.skel_start, node.skel_end
    if (
        skel_start is None or skel_end is None
        or skel_start[CPU_END] is None or skel_end[CPU_START] is None
    ):
        total = None
    else:
        total = skel_end[CPU_START] - skel_start[CPU_END]
        for child in node.children:
            window = _child_cpu_window(child)
            if window is not None:
                total -= window
        total = max(total, 0)
    node.self_cpu_ns = total
    return total


@dataclass
class CpuVector:
    """CPU nanoseconds per processor type, with coverage accounting."""

    by_processor: dict[str, int] = field(default_factory=dict)
    #: Number of invocations whose CPU could not be read (e.g. VxWorks).
    uncovered: int = 0

    def add(self, processor_type: str | None, ns: int | None) -> None:
        if ns is None or processor_type is None:
            self.uncovered += 1
            return
        self.by_processor[processor_type] = self.by_processor.get(processor_type, 0) + ns

    def merge(self, other: "CpuVector") -> None:
        for processor, ns in other.by_processor.items():
            self.by_processor[processor] = self.by_processor.get(processor, 0) + ns
        self.uncovered += other.uncovered

    def total_ns(self) -> int:
        return sum(self.by_processor.values())

    def copy(self) -> "CpuVector":
        return CpuVector(by_processor=dict(self.by_processor), uncovered=self.uncovered)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.by_processor.items()))
        return f"CpuVector({body}, uncovered={self.uncovered})"


#: DC_F of every node with neither children nor a fork.
_NO_DESCENDANTS = CpuVector()


class CpuAnalysis:
    """SC/DC over one DSCG, memoized in the nodes' annotation slots."""

    def __init__(self, dscg: Dscg):
        self.dscg = dscg

    # ------------------------------------------------------------------

    self_cpu = staticmethod(self_cpu)

    def descendant_cpu(self, node: CallNode) -> CpuVector:
        """DC_F as a per-processor-type vector (shared: copy to change)."""
        vector = node.descendant_cpu
        if vector is not UNSET:
            return vector
        if not node.children and not node.forked_chain_uuid:
            node.descendant_cpu = _NO_DESCENDANTS
            return _NO_DESCENDANTS
        vector = CpuVector()
        for child in node.children:
            if self._accountable(child):
                # Oneway stub-side children have no skeleton probes here;
                # their execution is accounted through the forked chain.
                vector.add(child.server_processor_type, self_cpu(child))
            vector.merge(self.descendant_cpu(child))
        # A oneway stub-side node owns the chain it forked: the fork's
        # inclusive CPU lands in this node's DC and is inherited upward
        # through the ordinary child sums.
        forked = self.dscg.chains.get(node.forked_chain_uuid)
        if forked is not None:
            for root in forked.roots:
                vector.add(root.server_processor_type, self_cpu(root))
                vector.merge(self.descendant_cpu(root))
        node.descendant_cpu = vector
        return vector

    def inclusive_cpu(self, node: CallNode) -> CpuVector:
        """SC_F + DC_F (the paper's total/inherited CPU of a function)."""
        vector = self.descendant_cpu(node).copy()
        vector.add(node.server_processor_type, self_cpu(node))
        return vector

    # ------------------------------------------------------------------

    def annotate(self) -> None:
        """Fill ``self_cpu_ns`` and ``descendant_cpu`` on every node."""
        for node in self.dscg.walk():
            self_cpu(node)
            self.descendant_cpu(node)

    def total_by_processor(self) -> CpuVector:
        """Sum of self CPU over every node, grouped by processor type.

        Equals the root-level inclusive totals when chains are well formed
        — the conservation invariant the property tests check.
        """
        vector = CpuVector()
        for node in self.dscg.walk():
            if self._accountable(node):
                vector.add(node.server_processor_type, self_cpu(node))
        return vector

    def per_function_self_cpu(self) -> dict[str, CpuVector]:
        result: dict[str, CpuVector] = defaultdict(CpuVector)
        for node in self.dscg.walk():
            if self._accountable(node):
                result[node.function].add(node.server_processor_type, self_cpu(node))
        return dict(result)

    @staticmethod
    def _accountable(node: CallNode) -> bool:
        """Oneway stub-side nodes execute nothing themselves."""
        return not (node.call_kind is CallKind.ONEWAY and node.oneway_side == "stub")
