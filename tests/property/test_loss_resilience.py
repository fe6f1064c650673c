"""Property tests: the analyzer is total under lossy capture.

Whatever subset of probe records survives — arbitrary hypothesis-chosen
deletions or seed-logged FaultPlan record loss — reconstruction must
never raise, and any chain that lost a record must be flagged: partial
nodes, abnormal events, or both. That is the resilience contract the
fault-injection subsystem exercises end to end.
"""

from hypothesis import given, strategies as st

from repro.analysis import loss_report, reconstruct_from_records
from repro.core import MonitorMode
from repro.faults import FaultPlan
from tests.helpers import Call, simulate

_NAMES = ["A::f", "A::g", "B::h", "C::m"]


@st.composite
def call_trees(draw, depth=2):
    name = draw(st.sampled_from(_NAMES))
    collocated = draw(st.booleans())
    oneway = draw(st.booleans()) if depth < 2 else False
    children = ()
    if depth > 0 and not oneway:
        children = tuple(draw(st.lists(call_trees(depth=depth - 1), max_size=2)))
    return Call(
        name,
        cpu_ns=draw(st.integers(0, 500)),
        children=children,
        oneway=oneway,
        collocated=collocated and not oneway,
    )


def _records(tree_seed_calls):
    sim = simulate(
        tree_seed_calls, mode=MonitorMode.LATENCY, fresh_chain_per_top_call=True
    )
    return sim.records


@given(
    calls=st.lists(call_trees(), min_size=1, max_size=3),
    data=st.data(),
)
def test_reconstruction_never_raises_on_any_subset(calls, data):
    records = _records(calls)
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(records), max_size=len(records))
    )
    surviving = [r for r, k in zip(records, keep) if k]
    dscg = reconstruct_from_records(surviving)  # must not raise
    report = loss_report(dscg)
    # The loss report is internally consistent on whatever survived.
    assert report.partial_chains <= report.chains
    assert report.partial_nodes <= report.nodes
    assert report.to_dict() == loss_report(dscg).to_dict()


@given(
    calls=st.lists(call_trees(), min_size=1, max_size=3),
    dropped_index=st.integers(min_value=0, max_value=10_000),
)
def test_single_missing_record_flags_its_chain(calls, dropped_index):
    records = _records(calls)
    victim = records[dropped_index % len(records)]
    surviving = [r for r in records if r is not victim]
    dscg = reconstruct_from_records(surviving)
    tree = dscg.chains.get(victim.chain_uuid)
    if tree is None:
        # The chain's only record was the one dropped: nothing to flag.
        assert not any(r.chain_uuid == victim.chain_uuid for r in surviving)
        return
    flagged = bool(tree.abnormal) or any(node.partial for node in tree.walk())
    assert flagged, (
        f"chain {victim.chain_uuid} lost {victim.event.name}"
        f" (seq {victim.event_seq}) but was not flagged"
    )


@given(
    calls=st.lists(call_trees(), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32),
    rate=st.floats(min_value=0.05, max_value=0.9),
)
def test_seed_logged_loss_is_reproducible(calls, seed, rate):
    """FaultPlan-scheduled deletions: never raise, identical loss twice."""
    records = _records(calls)
    plan = FaultPlan(seed=seed, record_loss_rate=rate)

    def run():
        surviving = [
            r for i, r in enumerate(records) if not plan.loses_record("sim", i)
        ]
        return loss_report(reconstruct_from_records(surviving)).to_dict()

    assert run() == run()


@given(calls=st.lists(call_trees(), min_size=1, max_size=3))
def test_full_record_set_reports_no_loss(calls):
    dscg = reconstruct_from_records(_records(calls))
    report = loss_report(dscg)
    assert report.partial_nodes == 0
    assert report.missing_records == 0
    assert report.abnormal_events == 0
    assert report.complete_chains == report.chains
