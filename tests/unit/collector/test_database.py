"""Unit tests for the monitoring database and collector."""

import os
import subprocess
import sys

import repro
import repro.collector
from repro.collector import LogCollector, collect_run
from repro.core import (
    CallKind,
    Domain,
    ProbeRecord,
    RunMetadata,
    Site,
    TracingEvent,
)
from repro.core.records import SITE_FIELDS
from repro.platform import Host, PlatformKind, SimProcess, VirtualClock
from repro.store import MonitoringDatabase, open_store
from tests.helpers import rows_of


def make_record(chain="aa" * 16, seq=0, event=TracingEvent.STUB_START, **overrides):
    fields = dict(
        chain_uuid=chain,
        event_seq=seq,
        event=event,
        interface="M::I",
        operation="op",
        object_id="p.obj-1",
        component="Comp",
        process="p",
        pid=1,
        host="h",
        thread_id=111,
        processor_type="PA-RISC",
        platform="HPUX 11",
        call_kind=CallKind.SYNC,
        collocated=False,
        domain=Domain.CORBA,
        wall_start=10,
        wall_end=12,
        cpu_start=None,
        cpu_end=None,
        child_chain_uuid=None,
        semantics={"args": ["1"]},
    )
    fields.update(overrides)
    site = Site(**{name: fields.pop(name) for name in SITE_FIELDS})
    return ProbeRecord(site, **fields)


class TestDatabase:
    def test_insert_and_roundtrip(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1", description="test", monitor_mode="latency"))
        record = make_record()
        assert db.insert_records("r1", [record]) == 1
        (restored,) = db.events_for_chain("r1", record.chain_uuid)
        assert restored == record

    def test_unique_chain_uuids_sorted(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        db.insert_records(
            "r1",
            [make_record(chain="bb" * 16), make_record(chain="aa" * 16)],
        )
        assert db.unique_chain_uuids("r1") == ["aa" * 16, "bb" * 16]

    def test_events_sorted_by_seq(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        records = [make_record(seq=s) for s in (2, 0, 1)]
        db.insert_records("r1", records)
        seqs = [r.event_seq for r in db.events_for_chain("r1", "aa" * 16)]
        assert seqs == [0, 1, 2]

    def test_runs_isolated(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        db.create_run(RunMetadata(run_id="r2"))
        db.insert_records("r1", [make_record()])
        assert db.record_count("r1") == 1
        assert db.record_count("r2") == 0
        assert db.unique_chain_uuids("r2") == []

    def test_population_stats(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        db.insert_records(
            "r1",
            [
                make_record(seq=0, event=TracingEvent.STUB_START),
                make_record(seq=1, event=TracingEvent.SKEL_START, process="q", pid=2),
                make_record(
                    chain="cc" * 16, seq=0, event=TracingEvent.STUB_START,
                    operation="other",
                ),
            ],
        )
        stats = db.population_stats("r1")
        assert stats["calls"] == 2  # two stub_start events
        assert stats["unique_methods"] == 2
        assert stats["chains"] == 2
        assert stats["processes"] == 2

    def test_run_metadata_roundtrip(self):
        db = MonitoringDatabase()
        meta = RunMetadata(run_id="r9", description="d", monitor_mode="cpu",
                           extra={"k": 1})
        db.create_run(meta)
        (restored,) = db.runs()
        assert restored == meta

    def test_semantics_json_roundtrip(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        db.insert_records("r1", [make_record(semantics={"status": "ok"})])
        (restored,) = db.events_for_chain("r1", "aa" * 16)
        assert restored.semantics == {"status": "ok"}

    def test_all_records_in_insert_order(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        db.insert_records("r1", [make_record(seq=5), make_record(seq=1)])
        seqs = [r.event_seq for r in db.all_records("r1")]
        assert seqs == [5, 1]

    def test_all_records_streams_across_fetch_batches(self):
        from repro.store import sqlite as database_module

        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        count = database_module._FETCH_BATCH + 7
        db.insert_records("r1", [make_record(seq=s) for s in range(count)])
        seqs = [r.event_seq for r in db.all_records("r1")]
        assert seqs == list(range(count))

    def test_chains_for_run_groups_sorted(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        db.insert_records(
            "r1",
            [
                make_record(chain="bb" * 16, seq=1),
                make_record(chain="aa" * 16, seq=0),
                make_record(chain="bb" * 16, seq=0),
                make_record(chain="cc" * 16, seq=0),
            ],
        )
        groups = list(db.chains_for_run("r1"))
        assert [uuid for uuid, _ in groups] == ["aa" * 16, "bb" * 16, "cc" * 16]
        assert [row[2] for row in dict(groups)["bb" * 16]] == [0, 1]

    def test_chains_for_run_shard_bounds_inclusive(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        for chain in ("aa" * 16, "bb" * 16, "cc" * 16, "dd" * 16):
            db.insert_records("r1", [make_record(chain=chain)])
        shard = list(db.chains_for_run("r1", first_chain="bb" * 16,
                                       last_chain="cc" * 16))
        assert [uuid for uuid, _ in shard] == ["bb" * 16, "cc" * 16]

    def test_chains_for_run_matches_per_chain_queries(self, tmp_path):
        db = MonitoringDatabase(str(tmp_path / "chains.db"))
        db.create_run(RunMetadata(run_id="r1"))
        db.insert_records(
            "r1",
            [make_record(chain=f"{i:032x}", seq=s)
             for i in range(5) for s in (1, 0)],
        )
        fused = {uuid: rows for uuid, rows in db.chains_for_run("r1")}
        assert set(fused) == set(db.unique_chain_uuids("r1"))
        for uuid, rows in fused.items():
            assert rows == rows_of(db.events_for_chain("r1", uuid))

    def test_file_backed_reads_from_other_threads(self, tmp_path, monkeypatch):
        # The path reconstruct_sharded takes over SQLite: every shard scan
        # shares the one connection, the lock taken per fetchmany batch —
        # here while a fifth thread holds a bulk_ingest() of another run
        # open. Small batches force the scans to interleave mid-chain (and
        # must not change what a scan yields).
        import threading

        from repro.analysis.parallel import shard_bounds
        from repro.store import sqlite as database_module

        db = MonitoringDatabase(str(tmp_path / "wal.db"))
        db.create_run(RunMetadata(run_id="r1"))
        db.create_run(RunMetadata(run_id="r2"))
        db.insert_records(
            "r1",
            [make_record(chain=f"{i % 12:032x}", seq=i) for i in range(300)],
        )
        serial = list(db.chains_for_run("r1"))  # one default-size batch
        monkeypatch.setattr(database_module, "_FETCH_BATCH", 7)
        bounds = shard_bounds([uuid for uuid, _ in serial], 4)
        assert len(bounds) == 4
        shards = [None] * len(bounds)
        start = threading.Barrier(len(bounds) + 1)

        def read(index):
            first, last = bounds[index]
            start.wait()
            shards[index] = list(
                db.chains_for_run("r1", first_chain=first, last_chain=last)
            )

        def ingest():
            start.wait()
            with db.bulk_ingest():
                for s in range(40):
                    db.insert_records("r2", [make_record(seq=s)])

        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=ingest))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [group for shard in shards for group in shard] == serial
        assert db.record_count("r2") == 40
        db.close()

    def test_insert_records_chunks(self):
        db = MonitoringDatabase()
        db.create_run(RunMetadata(run_id="r1"))
        inserted = db.insert_records(
            "r1", (make_record(seq=s) for s in range(25))
        )
        assert inserted == 25
        assert db.record_count("r1") == 25

    def test_bulk_ingest_commits_once_at_exit(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "bulk.db")
        db = MonitoringDatabase(path)
        observer = sqlite3.connect(path)
        with db.bulk_ingest():
            db.create_run(RunMetadata(run_id="r1"))
            db.insert_records("r1", [make_record(seq=s) for s in range(3)])
            # Not yet committed: invisible to an independent connection.
            visible = observer.execute("SELECT COUNT(*) FROM records").fetchone()[0]
            assert visible == 0
        visible = observer.execute("SELECT COUNT(*) FROM records").fetchone()[0]
        assert visible == 3
        observer.close()
        db.close()

    def test_reads_inside_bulk_ingest_see_the_open_transaction(self, tmp_path):
        # One connection: a read issued inside bulk_ingest() sees the
        # transaction's own rows, file-backed exactly as :memory:.
        for path in (":memory:", str(tmp_path / "own.db")):
            db = MonitoringDatabase(path)
            with db.bulk_ingest():
                db.create_run(RunMetadata(run_id="r1"))
                db.insert_records("r1", [make_record(seq=s) for s in range(3)])
                assert db.record_count("r1") == 3, path
                assert len(list(db.all_records("r1"))) == 3, path
            db.close()


class TestCollector:
    def make_process(self, name):
        return SimProcess(name, Host("h", PlatformKind.HPUX_11, clock=VirtualClock()))

    def test_collect_drains_buffers(self):
        p1 = self.make_process("p1")
        p2 = self.make_process("p2")
        p1.log_buffer.append(make_record(process="p1"))
        p2.log_buffer.append(make_record(process="p2", seq=1))
        db, run = collect_run([p1, p2])
        assert db.record_count(run) == 2
        assert len(p1.log_buffer) == 0

    def test_collect_without_drain_keeps_buffers(self):
        p1 = self.make_process("p1")
        p1.log_buffer.append(make_record())
        collector = LogCollector()
        collector.collect([p1], run_id="keep", drain=False)
        assert len(p1.log_buffer) == 1

    def test_consecutive_runs_partition(self):
        p1 = self.make_process("p1")
        collector = LogCollector()
        p1.log_buffer.append(make_record(seq=0))
        run1 = collector.collect([p1])
        p1.log_buffer.append(make_record(seq=1))
        run2 = collector.collect([p1])
        assert collector.database.record_count(run1) == 1
        assert collector.database.record_count(run2) == 1
        assert run1 != run2


class TestStoreSeam:
    """SQLite is a store; the collector re-exports it only for callers
    that import it from there (the ledger's ``bench/pipeline.py``)."""

    def test_collector_reexport_is_the_store_class(self):
        assert repro.collector.MonitoringDatabase is MonitoringDatabase

    def test_open_store_returns_the_sqlite_class(self, tmp_path):
        for path in (":memory:", str(tmp_path / "m.db")):
            db = open_store(path)
            try:
                assert type(db) is MonitoringDatabase
            finally:
                db.close()

    def test_ledger_modules_import_in_a_fresh_interpreter(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-c", "import bench.pipeline, bench.layers"],
            cwd=os.path.dirname(src), env=env, check=True,
        )
