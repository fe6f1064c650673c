"""Property tests: reconstruction inverts probe emission on any call tree.

Hypothesis generates arbitrary call trees (nesting, siblings, collocated
and oneway calls); the simulator drives the *real* probes; the Figure-4
state machine must rebuild a structure isomorphic to what was executed,
with zero abnormal transitions.
"""

from hypothesis import given, strategies as st

from repro.analysis import CpuAnalysis, reconstruct_from_records
from repro.analysis.latency import end_to_end_latency
from repro.core import CallKind, MonitorMode
from tests.helpers import Call, simulate

_NAMES = ["A::f", "A::g", "B::h", "B::k", "C::m"]


@st.composite
def call_trees(draw, depth=3):
    name = draw(st.sampled_from(_NAMES))
    cpu = draw(st.integers(0, 1_000))
    collocated = draw(st.booleans())
    oneway = draw(st.booleans()) if depth < 3 else False
    children = ()
    if depth > 0:
        children = tuple(
            draw(st.lists(call_trees(depth=depth - 1), max_size=3))
        )
    return Call(
        name,
        cpu_ns=cpu,
        children=children,
        collocated=collocated and not oneway,
        oneway=oneway,
    )


def shape(call: Call):
    return (call.name, call.oneway, tuple(shape(c) for c in call.children))


def node_shape(node, dscg):
    if node.oneway_side == "stub":
        forked = dscg.chains.get(node.forked_chain_uuid)
        children = tuple(
            node_shape(c, dscg) for root in (forked.roots if forked else []) for c in root.children
        ) if forked else ()
        # the forked chain root *is* this call's execution
        return (node.function, True, children)
    return (
        node.function,
        node.call_kind is CallKind.ONEWAY,
        tuple(node_shape(c, dscg) for c in node.children),
    )


@given(st.lists(call_trees(), min_size=1, max_size=4))
def test_reconstruction_is_inverse_of_execution(top_calls):
    sim = simulate(top_calls, mode=MonitorMode.FULL)
    dscg = reconstruct_from_records(sim.records)
    assert dscg.abnormal_events() == []
    roots = []
    for tree in dscg.root_chains():
        roots.extend(tree.roots)
    assert [node_shape(n, dscg) for n in roots] == [shape(c) for c in top_calls]


@given(st.lists(call_trees(), min_size=1, max_size=3))
def test_cpu_conservation(top_calls):
    """Sum of self CPU over all nodes equals the total CPU charged."""
    sim = simulate(top_calls, mode=MonitorMode.CPU)
    dscg = reconstruct_from_records(sim.records)
    analysis = CpuAnalysis(dscg)
    total = analysis.total_by_processor().total_ns()

    def charged(call):
        return call.cpu_ns + sum(charged(c) for c in call.children)

    assert total == sum(charged(c) for c in top_calls)


@given(st.lists(call_trees(), min_size=1, max_size=3))
def test_latency_non_negative_and_root_covers_children(top_calls):
    sim = simulate(top_calls, mode=MonitorMode.LATENCY)
    dscg = reconstruct_from_records(sim.records)
    for node in dscg.walk():
        latency = end_to_end_latency(node)
        if latency is None:
            continue
        assert latency >= 0
        for child in node.children:
            child_latency = end_to_end_latency(child)
            if child_latency is not None and child.call_kind is not CallKind.ONEWAY:
                assert latency >= child_latency


@given(st.lists(call_trees(), min_size=1, max_size=3))
def test_event_numbering_dense_per_chain(top_calls):
    """Each chain's event numbers are exactly 0..N-1 (no gaps, no dupes)."""
    sim = simulate(top_calls, mode=MonitorMode.CAUSALITY)
    from collections import defaultdict

    per_chain = defaultdict(list)
    for record in sim.records:
        per_chain[record.chain_uuid].append(record.event_seq)
    for seqs in per_chain.values():
        assert sorted(seqs) == list(range(len(seqs)))
