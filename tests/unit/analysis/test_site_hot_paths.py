"""No per-record path reads a site field through a record property.

A ``ProbeRecord`` holds the ten site fields through its ``Site``; the
delegating properties (``record.interface`` ...) cost two attribute reads
and a descriptor call each, and the analyzers read five to ten of them
per record — measured at -15 ... -24 % on ``stream_records_per_s`` and
``online_monitor_records_per_s`` when ``reading_of``, ``_node_from_record``
and ``ChainBuilder.apply`` went through them. They read ``record.site``
once instead. Like the probe budget's frame count, this is a tripwire, not
a timing: with the ten properties patched to raise, every per-record
consumer under ``repro.analysis``, ``repro.store`` and the SQLite row
codec must still run — over a mixed forest of sync, oneway, collocated
and nested calls.
"""

from __future__ import annotations

import pytest

from repro.analysis import OnlineMonitor, dscg_to_json, reconstruct
from repro.analysis.sequence_chart import spans_from_records
from repro.analysis.streaming import StreamingDetector
from repro.collector import MonitoringDatabase
from repro.core import MonitorMode, ProbeRecord, RunMetadata
from repro.core.records import SITE_FIELDS
from repro.store import ScanPredicate, SegmentStore, run_query

from tests.helpers import Call, simulate

FOREST = [
    Call("A::f", cpu_ns=100, children=(
        Call("B::g", cpu_ns=50, children=(Call("C::h", cpu_ns=25, collocated=True),)),
        Call("D::k", oneway=True, cpu_ns=5),
    )),
    Call("A::f", cpu_ns=10, children=(Call("C::h", cpu_ns=5, collocated=True),)),
    Call("E::m", oneway=True, cpu_ns=7),
]
NODES = 9  # a oneway call is two: its stub side, and its skeleton side in the child chain


@pytest.fixture
def records(monkeypatch):
    """The forest's records, with every delegating property a tripwire."""
    captured = simulate(FOREST, mode=MonitorMode.FULL, fresh_chain_per_top_call=True).records

    def tripwire(name):
        def read(self):
            raise AssertionError(f"record.{name} read on a per-record path: use record.site")
        return property(read)

    for name in SITE_FIELDS:
        monkeypatch.setattr(ProbeRecord, name, tripwire(name))
    with pytest.raises(AssertionError, match="record.site"):
        captured[0].operation
    return captured


def test_reconstruct_over_a_segment_run_and_its_sqlite_reference(records, tmp_path):
    database = MonitoringDatabase()
    database.create_run(RunMetadata(run_id="r1"))
    database.insert_records("r1", records)
    assert list(database.all_records("r1")) == records
    reference = dscg_to_json(reconstruct(database, "r1"))
    store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
    try:
        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", records[:20])
        store.insert_records("r1", records[20:])
        predicate = ScanPredicate(interfaces={"A", "C"}, ts_min=0)
        for state in ("spooled", "compacted"):
            dscg = reconstruct(store, "r1")
            assert dscg.node_count() == NODES and not dscg.abnormal_events()
            assert dscg_to_json(dscg) == reference
            narrowed = reconstruct(store, "r1", predicate=predicate)
            assert {node.interface for node in narrowed.walk()} == {"A", "C"}
            assert run_query(store, "r1", predicate)["records"] == sum(
                predicate.matches(record) for record in records
            )
            assert store.population_stats("r1")["unique_interfaces"] == 5
            assert store.population_stats("r1", predicate)["unique_interfaces"] == 2
            assert store.compact("r1") is (state == "spooled")
    finally:
        store.close()


def test_streaming_detector_and_online_monitor(records):
    detector = StreamingDetector()
    assert detector.ingest_many(records) == len(records)
    assert detector.finalize().node_count() == NODES
    monitor = OnlineMonitor(latency_slo_ns=1)
    monitor.ingest_many(records)
    assert monitor.completed_calls() == NODES and monitor.latency_stats()
    assert monitor.alerts()  # a 1 ns objective: the alert path ran too


def test_interceptor_style_span_pairing(records):
    assert spans_from_records(records)
