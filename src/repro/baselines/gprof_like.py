"""GPROF-style depth-1 profiling baseline.

GPROF [3] "merely reports the callee-caller propagation of CPU
utilization within the same thread context" and keeps relationships at
call-depth 1 (like QUANTIFY [16]). This module builds that view from our
monitoring records so the benchmarks can quantify what the DSCG adds:
full multi-hop call paths versus flattened caller/callee rows, and
system-wide CPU propagation versus same-thread-only attribution.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.callpath import call_path_profiles
from repro.analysis.cpu import CpuAnalysis
from repro.analysis.dscg import Dscg


@dataclass
class GprofRow:
    """One caller/callee row of a flat depth-1 profile."""

    caller: str
    callee: str
    calls: int = 0
    self_cpu_ns: int = 0


@dataclass
class GprofProfile:
    """Depth-1, same-thread-context profile."""

    rows: dict[tuple[str, str], GprofRow] = field(default_factory=dict)

    def add(self, caller: str, callee: str, self_cpu_ns: int | None) -> None:
        key = (caller, callee)
        row = self.rows.get(key)
        if row is None:
            row = GprofRow(caller=caller, callee=callee)
            self.rows[key] = row
        row.calls += 1
        if self_cpu_ns is not None:
            row.self_cpu_ns += self_cpu_ns

    def edge_count(self) -> int:
        return len(self.rows)


def gprof_profile(dscg: Dscg, cpu: CpuAnalysis | None = None) -> GprofProfile:
    """Flatten the DSCG into a depth-1 profile, same-thread edges only.

    Edges whose caller and callee executed on different threads are
    attributed to ``<spontaneous>`` — GPROF cannot see across the thread
    boundary, so remote children appear as fresh roots.
    """
    if cpu is None:
        cpu = CpuAnalysis(dscg)
    profile = GprofProfile()
    for node in dscg.walk():
        if node.parent is None:
            caller = "<spontaneous>"
        else:
            parent_entity = node.parent.server_thread
            child_entity = node.server_thread
            same_thread = (
                parent_entity is not None
                and child_entity is not None
                and parent_entity == child_entity
            )
            caller = node.parent.function if same_thread else "<spontaneous>"
        profile.add(caller, node.function, cpu.self_cpu(node))
    return profile


@dataclass
class PathLossReport:
    """How many distinct call paths collapse in the depth-1 view."""

    distinct_call_paths: int
    depth1_edges: int
    spontaneous_roots: int


def path_loss(dscg: Dscg) -> PathLossReport:
    """Quantify the DSCG-vs-GPROF information gap."""
    paths = call_path_profiles(dscg)
    profile = gprof_profile(dscg)
    spontaneous = sum(
        1 for (caller, _), row in profile.rows.items() if caller == "<spontaneous>"
    )
    return PathLossReport(
        distinct_call_paths=len(paths),
        depth1_edges=profile.edge_count(),
        spontaneous_roots=spontaneous,
    )
