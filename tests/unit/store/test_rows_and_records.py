"""Probe rows and ProbeRecords store the same way.

A collection hands both stores the rows it drained; ``insert_records``
given the same run as records turns them into rows as they enter. The
sealed segment must be the same bytes and SQLite must hold the same
records either way. Delivery faults and bounded-buffer drops, which now
act on rows, must lose what they lost on records. On the way out, both
backends' ``chains_for_run`` yield rows (tuples) that describe exactly the
records ``all_records`` yields.
"""

from __future__ import annotations

import os
from operator import attrgetter

import pytest

from repro.collector import LogCollector
from repro.core import MonitoringRuntime, MonitorMode, OperationInfo, RunMetadata
from repro.core.records import from_row
from repro.faults import FaultInjector, FaultPlan, LossyLogBuffer
from repro.faults.plan import FaultKind
from repro.platform import Host, LocalLogBuffer, SimProcess
from repro.store import MonitoringDatabase, SegmentStore
from tests.helpers import Call, simulate


def _probe_run(calls: int = 6):
    """A monitored process whose buffer holds one run of real probe rows."""
    sim = simulate(
        [
            Call("App::handle", cpu_ns=500, children=(
                Call("Db::query", cpu_ns=200, idle_ns=100),
                Call("Log::write", cpu_ns=50, oneway=True),
                Call("Cache::get", cpu_ns=20, collocated=True),
            ))
            for _ in range(calls)
        ],
        mode=MonitorMode.FULL,
        fresh_chain_per_top_call=True,
    )
    return sim.process


def _sealed_bytes(root: str, run_id: str) -> dict[str, bytes]:
    run_dir = os.path.join(root, "runs", run_id)
    return {
        name: open(os.path.join(run_dir, name), "rb").read()
        for name in sorted(os.listdir(run_dir)) if name.endswith(".seg")
    }


def test_rows_and_records_seal_byte_identical_segments(tmp_path):
    process = _probe_run()
    records = process.log_buffer.snapshot()
    assert len(records) > 20

    by_rows = SegmentStore(str(tmp_path / "rows"), auto_compact=0)
    by_records = SegmentStore(str(tmp_path / "records"), auto_compact=0)
    try:
        LogCollector(by_rows).collect([process], run_id="run")
        by_records.create_run(RunMetadata(run_id="run"))
        with by_records.bulk_ingest():
            by_records.insert_records("run", records)
        rows_files = _sealed_bytes(by_rows.path, "run")
        assert list(rows_files) == ["000001.sealed.seg"]
        assert rows_files == _sealed_bytes(by_records.path, "run")
        assert list(by_rows.all_records("run")) == records
    finally:
        by_rows.close()
        by_records.close()


def test_rows_and_records_fill_sqlite_identically():
    process = _probe_run()
    records = process.log_buffer.snapshot()
    by_rows, by_records = MonitoringDatabase(), MonitoringDatabase()
    try:
        LogCollector(by_rows).collect([process], run_id="run")
        by_records.create_run(RunMetadata(run_id="run"))
        by_records.insert_records("run", records)
        stored = list(by_rows.all_records("run"))
        assert stored == list(by_records.all_records("run")) == records
    finally:
        by_rows.close()
        by_records.close()


def test_lossy_delivery_loses_the_planned_indexes():
    plan = FaultPlan(seed=11, record_loss_rate=0.3)
    process = _probe_run()
    records = process.log_buffer.snapshot()
    injector = FaultInjector(plan)
    delivered = LossyLogBuffer(process.log_buffer, injector, "sim").drain_rows()
    lost = [i for i in range(len(records)) if plan.loses_record("sim", i)]
    assert 0 < len(lost) < len(records)
    assert [
        event.index for event in injector.events() if event.kind is FaultKind.RECORD_LOSS
    ] == lost
    database = MonitoringDatabase()
    database.create_run(RunMetadata(run_id="run"))
    database.insert_records("run", delivered)
    assert list(database.all_records("run")) == [
        record for i, record in enumerate(records) if i not in lost
    ]


def test_bounded_buffer_drops_the_same_count():
    calls, capacity = 10, 7
    runtime = MonitoringRuntime(SimProcess("bounded", Host("h")))
    runtime.process.log_buffer = bounded = LocalLogBuffer(capacity=capacity)
    op = OperationInfo("App::Svc", "work", "svc.obj-1", "SvcImpl")
    for _ in range(calls):
        runtime.collocated_call_end(*runtime.collocated_call_start(op))
        runtime.unbind_ftl()
    assert len(bounded) == capacity
    assert bounded.dropped == 4 * calls - capacity
    database = MonitoringDatabase()
    run_id = LogCollector(database, backoff_s=0.0).collect([runtime.process])
    loss = database.runs()[0].extra["loss"]
    assert loss["records_dropped_at_probe"] == 4 * calls - capacity
    assert database.record_count(run_id) == capacity


@pytest.mark.parametrize("backend", ["segment", "sqlite"])
@pytest.mark.parametrize("layout", ["sealed", "spool", "sealed+spool"])
def test_chain_rows_are_the_records_regrouped(tmp_path, backend, layout):
    """One ``chains_for_run`` contract on both backends, whatever the run's
    segments: every row a 13-tuple, each describing the record
    ``all_records`` holds at its place once the arrival order is regrouped
    by chain (uuid order) and stably sorted by event number."""
    records = _probe_run().log_buffer.snapshot()
    half = len(records) // 2
    if backend == "segment":
        store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
    else:
        store = MonitoringDatabase()
    try:
        store.create_run(RunMetadata(run_id="run"))
        if layout == "spool":
            store.insert_records("run", records[:half])
            store.insert_records("run", records[half:])
        else:
            cut = len(records) if layout == "sealed" else half
            with store.bulk_ingest():
                store.insert_records("run", records[:cut])
            store.insert_records("run", records[cut:])
        if backend == "segment":
            assert store.compaction_state("run")["spool_segments"] == {
                "sealed": 0, "spool": 2, "sealed+spool": 1,
            }[layout]
        stored = list(store.all_records("run"))
        assert stored == records
        by_chain: dict = {}
        for record in stored:
            by_chain.setdefault(record.chain_uuid, []).append(record)
        expected = [
            (uuid, sorted(by_chain[uuid], key=attrgetter("event_seq")))
            for uuid in sorted(by_chain)
        ]
        groups = list(store.chains_for_run("run"))
        assert [uuid for uuid, _rows in groups] == [uuid for uuid, _group in expected]
        for (_uuid, rows), (_same, group) in zip(groups, expected):
            assert all(type(row) is tuple and len(row) == 13 for row in rows)
            assert [from_row(row) for row in rows] == group
    finally:
        store.close()
