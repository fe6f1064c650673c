"""Oracle tests: the online monitor against the batch DSCG.

The monitor no longer owns a Figure-4 machine — it consumes the
streaming reconstructor, which runs the batch analyzer's
``ChainBuilder``. So the batch DSCG over the same records is an oracle
for it: on any arrival order of a well-formed capture the two agree
call for call; with a record lost the monitor may know less than the
batch analyzer, never more; with a record replayed it says so exactly
once and its live state is unharmed.
"""

from collections import Counter

from hypothesis import given, strategies as st

from repro.analysis import OnlineMonitor, reconstruct_from_records
from repro.core import MonitorMode
from tests.helpers import Call, simulate

_NAMES = ["A::f", "A::g", "B::h", "B::k"]


@st.composite
def call_trees(draw, depth=2):
    oneway = draw(st.booleans())
    children = ()
    if depth > 0:
        children = tuple(draw(st.lists(call_trees(depth=depth - 1), max_size=3)))
    return Call(
        draw(st.sampled_from(_NAMES)),
        cpu_ns=draw(st.integers(1, 1_000)),
        children=children,
        collocated=draw(st.booleans()) and not oneway,
        oneway=oneway,
    )


@st.composite
def captures(draw):
    """(records in emission order, the same records in an arrival order)."""
    forest = draw(st.lists(call_trees(), min_size=1, max_size=4))
    records = simulate(
        forest,
        mode=MonitorMode.LATENCY,
        fresh_chain_per_top_call=draw(st.booleans()),
    ).records
    return records, draw(st.permutations(records))


def _abnormal(monitor):
    return [alert for alert in monitor.alerts() if alert.kind == "abnormal"]


@given(captures())
def test_any_arrival_order_matches_batch(capture):
    records, arrival = capture
    dscg = reconstruct_from_records(records)
    monitor = OnlineMonitor()
    monitor.ingest_many(arrival)
    assert monitor.completed_calls() == dscg.node_count()
    assert monitor.alerts() == []
    assert monitor.pending_records() == 0
    assert monitor.open_invocations() == []
    assert monitor.live_chain_count() == 0
    completed = {fn: stats.count for fn, stats in monitor.latency_stats().items()}
    assert completed == Counter(node.function for node in dscg.walk())


@given(captures(), st.data())
def test_dropped_record_never_invents_a_completion(capture, data):
    _, arrival = capture
    lost = data.draw(st.integers(0, len(arrival) - 1))
    survivors = arrival[:lost] + arrival[lost + 1:]
    dscg = reconstruct_from_records(survivors)
    monitor = OnlineMonitor()
    monitor.ingest_many(survivors)
    in_batch = Counter(node.function for node in dscg.walk())
    for function, stats in monitor.latency_stats().items():
        assert stats.count <= in_batch[function]
    assert monitor.completed_calls() <= dscg.node_count()
    # The chain stalls at the gap; nothing past it reaches the machine,
    # so nothing can be misread as abnormal either.
    assert _abnormal(monitor) == []


@given(captures(), st.data())
def test_duplicated_record_alerts_once_and_leaves_nothing_open(capture, data):
    records, arrival = capture
    arrival = list(arrival)
    duplicates = data.draw(st.integers(1, 3))
    for _ in range(duplicates):
        replayed = arrival[data.draw(st.integers(0, len(arrival) - 1))]
        arrival.insert(data.draw(st.integers(0, len(arrival))), replayed)
    monitor = OnlineMonitor()
    monitor.ingest_many(arrival)
    assert len(_abnormal(monitor)) == duplicates
    assert len(monitor.alerts()) == duplicates
    assert monitor.open_invocations() == []
    assert monitor.pending_records() == 0
    # A replay is flagged, never applied: the call count is the clean one.
    assert monitor.completed_calls() == reconstruct_from_records(records).node_count()
