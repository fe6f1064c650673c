"""Off-line analyzer: DSCG reconstruction, latency, CPU, CCSG, views."""

from repro.analysis.ccsg import Ccsg, CcsgNode, build_ccsg
from repro.analysis.completeness import (
    LossReport,
    expected_events,
    loss_report,
    missing_events,
)
from repro.analysis.cpu import CpuAnalysis, CpuVector, self_cpu
from repro.analysis.critical_path import (
    CriticalPath,
    critical_path,
    critical_paths,
    render_critical_path,
)
from repro.analysis.impact import ImpactEstimator, ImpactReport, render_impact
from repro.analysis.online import Alert, OnlineMonitor, OpenInvocation
from repro.analysis.serialize import dscg_from_json, dscg_to_json
from repro.analysis.dscg import AbnormalEvent, CallNode, ChainTree, Dscg
from repro.analysis.hyperbolic import (
    HyperbolicLayout,
    LayoutNode,
    layout_to_json,
    layout_to_svg,
)
from repro.analysis.latency import (
    annotate_latency,
    causality_overhead,
    end_to_end_latency,
    latency_report,
)
from repro.analysis.callpath import call_path_profiles, depth1_profile, path_of
from repro.analysis.semantics import semantics_report
from repro.analysis.sequence_chart import render_sequence_chart, spans_from_records
from repro.analysis.statemachine import (
    reconstruct,
    reconstruct_chain,
    reconstruct_from_records,
)
from repro.analysis.parallel import reconstruct_sharded
from repro.analysis.xmlview import render_ccsg_xml, split_sec_usec

__all__ = [
    "AbnormalEvent",
    "Alert",
    "CriticalPath",
    "ImpactEstimator",
    "ImpactReport",
    "OnlineMonitor",
    "render_impact",
    "OpenInvocation",
    "critical_path",
    "critical_paths",
    "dscg_from_json",
    "dscg_to_json",
    "render_critical_path",
    "CallNode",
    "Ccsg",
    "CcsgNode",
    "ChainTree",
    "CpuAnalysis",
    "CpuVector",
    "Dscg",
    "HyperbolicLayout",
    "LayoutNode",
    "LossReport",
    "annotate_latency",
    "expected_events",
    "loss_report",
    "missing_events",
    "build_ccsg",
    "call_path_profiles",
    "causality_overhead",
    "depth1_profile",
    "end_to_end_latency",
    "latency_report",
    "layout_to_json",
    "layout_to_svg",
    "path_of",
    "reconstruct",
    "reconstruct_chain",
    "reconstruct_from_records",
    "reconstruct_sharded",
    "render_ccsg_xml",
    "render_sequence_chart",
    "self_cpu",
    "semantics_report",
    "spans_from_records",
    "split_sec_usec",
]
