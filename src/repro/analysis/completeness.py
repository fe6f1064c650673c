"""Chain-completeness accounting under lossy capture.

The Figure-4 reconstruction never refuses a record set: whatever faults
ate — dropped messages, crashed components, lossy probe delivery — the
analyzer salvages what remains and flags what it could not finish
(``CallNode.partial``, abnormal events). This module turns those flags
into one canonical loss report so a chaotic run's damage can be stated,
compared and (in the chaos matrix) asserted byte-identical across
replays of the same fault seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import CallKind, TracingEvent
from repro.analysis.dscg import CallNode, Dscg

_EXPECTED_SYNC = tuple(TracingEvent)
_EXPECTED_ONEWAY_STUB = (TracingEvent.STUB_START, TracingEvent.STUB_END)
_EXPECTED_ONEWAY_SKEL = (TracingEvent.SKEL_START, TracingEvent.SKEL_END)


def expected_events(node: CallNode) -> tuple[TracingEvent, ...]:
    """Which probe records a fully captured node of this shape carries."""
    if node.call_kind is CallKind.ONEWAY:
        if node.oneway_side == "skel":
            return _EXPECTED_ONEWAY_SKEL
        return _EXPECTED_ONEWAY_STUB
    return _EXPECTED_SYNC


def missing_events(node: CallNode) -> tuple[TracingEvent, ...]:
    """The probe records this node should have but does not."""
    return tuple(e for e in expected_events(node) if node.reading(e) is None)


@dataclass
class LossReport:
    """What lossy capture cost one reconstructed run."""

    chains: int = 0
    partial_chains: int = 0
    nodes: int = 0
    partial_nodes: int = 0
    abnormal_events: int = 0
    missing_records: int = 0
    #: function -> count of partial invocations of it.
    partial_by_function: dict[str, int] = field(default_factory=dict)

    @property
    def complete_chains(self) -> int:
        return self.chains - self.partial_chains

    def to_dict(self) -> dict:
        """Canonical (sorted, JSON-ready) form for replay comparison."""
        return {
            "chains": self.chains,
            "complete_chains": self.complete_chains,
            "partial_chains": self.partial_chains,
            "nodes": self.nodes,
            "partial_nodes": self.partial_nodes,
            "abnormal_events": self.abnormal_events,
            "missing_records": self.missing_records,
            "partial_by_function": dict(sorted(self.partial_by_function.items())),
        }


def loss_report(dscg: Dscg) -> LossReport:
    """Account for every partial node and missing probe record in a DSCG.

    A chain counts as partial when any of its nodes is partial or it
    produced abnormal events; a node's missing records are counted
    against the probe set its shape implies (four for sync, two per side
    for oneway).
    """
    report = LossReport(chains=len(dscg.chains))
    for tree in dscg.chains.values():
        chain_partial = bool(tree.abnormal)
        report.abnormal_events += len(tree.abnormal)
        for node in tree.walk():
            report.nodes += 1
            if node.partial:
                chain_partial = True
                report.partial_nodes += 1
                report.partial_by_function[node.function] = (
                    report.partial_by_function.get(node.function, 0) + 1
                )
            report.missing_records += len(missing_events(node))
        if chain_partial:
            report.partial_chains += 1
    return report
