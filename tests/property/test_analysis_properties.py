"""Property tests over the analysis extensions."""

import math

from hypothesis import given, strategies as st

from repro.analysis import (
    CpuAnalysis,
    HyperbolicLayout,
    dscg_from_json,
    dscg_to_json,
    reconstruct_from_records,
)
from repro.analysis.impact import ImpactEstimator
from repro.core import MonitorMode
from tests.helpers import Call, simulate

_NAMES = ["X::a", "X::b", "Y::c"]


@st.composite
def call_trees(draw, depth=2):
    name = draw(st.sampled_from(_NAMES))
    children = ()
    if depth > 0:
        children = tuple(draw(st.lists(call_trees(depth=depth - 1), max_size=2)))
    return Call(name, cpu_ns=draw(st.integers(0, 500)), children=children)


def build_dscg(top_calls):
    sim = simulate(top_calls, mode=MonitorMode.FULL, fresh_chain_per_top_call=True)
    return reconstruct_from_records(sim.records)


@given(st.lists(call_trees(), min_size=1, max_size=3))
def test_serialize_roundtrip_preserves_structure(top_calls):
    dscg = build_dscg(top_calls)
    restored = dscg_from_json(dscg_to_json(dscg))
    assert restored.stats()["nodes"] == dscg.stats()["nodes"]
    assert restored.stats()["chains"] == dscg.stats()["chains"]
    assert restored.stats()["max_depth"] == dscg.stats()["max_depth"]

    def shape(dscg_):
        return sorted(
            tuple((n.function, n.depth()) for n in tree.walk())
            for tree in dscg_.chains.values()
        )

    assert shape(restored) == shape(dscg)


@given(st.lists(call_trees(), min_size=1, max_size=3),
       st.sampled_from(_NAMES),
       st.floats(0.0, 1.0))
def test_impact_estimation_is_consistent(top_calls, function, scale):
    dscg = build_dscg(top_calls)
    estimator = ImpactEstimator(dscg)
    report = estimator.estimate(function, scale=scale)
    system = report.system
    # Saving is bounded by the function's own self CPU and by the system.
    assert 0 <= system.saving_ns <= system.total_self_cpu_ns
    assert system.total_self_cpu_ns <= system.system_total_ns
    # Per-chain savings sum to the system saving (within int truncation).
    chain_saving = sum(chain.saving_ns for chain in report.chains)
    assert abs(chain_saving - system.saving_ns) <= len(report.chains)
    # scale=1 is a no-op.
    noop = estimator.estimate(function, scale=1.0)
    assert noop.system.saving_ns == 0


@given(st.lists(call_trees(), min_size=1, max_size=3),
       st.floats(0.2, 0.8))
def test_hyperbolic_layout_always_inside_disk(top_calls, step):
    dscg = build_dscg(top_calls)
    root = HyperbolicLayout(step=step).layout_dscg(dscg)
    nodes = list(root.walk())
    assert len(nodes) == dscg.node_count() + 1  # virtual root
    for node in nodes:
        assert math.hypot(node.x, node.y) < 1.0


@given(st.lists(call_trees(), min_size=1, max_size=3))
def test_descendant_cpu_monotone_down_the_tree(top_calls):
    """A parent's inclusive CPU always >= any child's inclusive CPU."""
    dscg = build_dscg(top_calls)
    cpu = CpuAnalysis(dscg)
    for node in dscg.walk():
        parent_total = cpu.inclusive_cpu(node).total_ns()
        for child in node.children:
            assert parent_total >= cpu.inclusive_cpu(child).total_ns()
