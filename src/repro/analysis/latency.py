"""End-to-end timing latency (Section 3.2).

The latency of one invocation F is computed from the probe wall readings:

- ``L(F) = P(F,4,start) − P(F,1,end) − O_F`` for synchronous calls and the
  stub side of oneway calls (probe 4 start minus probe 1 end — both taken
  on the client host, so no clock synchronization is needed);
- ``L(F) = P(F,3,start) − P(F,2,end) − O_F`` for collocated calls and the
  skeleton side of oneway calls (both readings on the server host).

``O_F`` compensates the causality-capture overhead spent inside F's
measured window: the summed probe self-intervals of F's immediate child
invocations, where the probe set R is {1,2,3,4} for synchronous children
and {1,4} for oneway children (which have no skeleton probes in this
chain). All O_F terms are *durations*, so mixing hosts is safe.

L(F) is memoized in the node's ``latency_ns`` slot: the first read
computes and stores it, every later reader gets the stored value.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.events import CallKind
from repro.analysis.dscg import UNSET, WALL_END, WALL_START, CallNode, ChainTree, Dscg


def causality_overhead(node: CallNode) -> int:
    """O_F — total probe self-time of F's immediate children.

    A child contributes only when its full probe set R survived capture:
    under lossy capture, compensating with a partial R would subtract an
    arbitrary fraction of the child's true probe cost and bias L(F).
    """
    total = 0
    for child in node.children:
        # R(F): probes {1,4} of a oneway child, {1,2,3,4} of a synchronous one.
        if child.call_kind is CallKind.ONEWAY and child.oneway_side == "stub":
            readings = (child.stub_start, child.stub_end)
        else:
            readings = (
                child.stub_start, child.skel_start, child.skel_end, child.stub_end
            )
        if None not in readings:
            for reading in readings:  # each probe's own wall-clock interval
                if reading[WALL_START] is not None and reading[WALL_END] is not None:
                    total += reading[WALL_END] - reading[WALL_START]
    return total


def end_to_end_latency(node: CallNode) -> int | None:
    """L(F) in nanoseconds, or None when the needed readings are missing."""
    latency = node.latency_ns
    if latency is not UNSET:
        return latency
    if node.collocated or (
        node.call_kind is CallKind.ONEWAY and node.oneway_side == "skel"
    ):
        start, end = node.skel_start, node.skel_end
    else:
        start, end = node.stub_start, node.stub_end
    if (
        start is None or end is None
        or start[WALL_END] is None or end[WALL_START] is None
    ):
        latency = None
    else:
        latency = end[WALL_START] - start[WALL_END] - causality_overhead(node)
    node.latency_ns = latency
    return latency


def annotate_latency(scope: "Dscg | ChainTree") -> None:
    """Fill ``latency_ns`` on every node of a DSCG, or of one chain tree
    (None when not measurable).

    "Latency can be annotated to the DSCG's nodes to help perceive latency
    dispersed throughout the system-wide call hierarchy." L(F) reads only
    the node's own readings and its immediate children's — all within one
    chain — so chains annotate independently.
    """
    for node in scope.walk():
        end_to_end_latency(node)


@dataclass
class FunctionLatency:
    """Latency statistics for one function (interface::operation)."""

    function: str
    samples: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total_ns(self) -> int:
        return sum(self.samples)

    @property
    def mean_ns(self) -> float:
        return statistics.fmean(self.samples) if self.samples else 0.0

    @property
    def min_ns(self) -> int:
        return min(self.samples) if self.samples else 0

    @property
    def max_ns(self) -> int:
        return max(self.samples) if self.samples else 0


def latency_report(dscg: Dscg) -> dict[str, FunctionLatency]:
    """Per-function latency statistics over the whole DSCG."""
    report: dict[str, FunctionLatency] = defaultdict(
        lambda: FunctionLatency(function="")
    )
    for node in dscg.walk():
        latency = end_to_end_latency(node)
        if latency is None:
            continue
        entry = report[node.function]
        entry.function = node.function
        entry.samples.append(latency)
    return dict(report)
