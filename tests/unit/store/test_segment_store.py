"""SegmentStore backend: parity with SQLite, compaction, durability."""

import os
import struct
import threading

import pytest

from repro.core import RunMetadata
from repro.errors import StoreError
from repro.store import MonitoringDatabase, SegmentStore, detect_backend, open_store
from repro.store import segment as segment_module
from repro.store.segment import SegmentReader

from tests.unit.store.test_segment_codec import make_record


@pytest.fixture
def store(tmp_path):
    store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
    yield store
    store.close()


def seeded_records():
    """Interleaved chains across several apparent processes."""
    records = []
    for i in range(120):
        chain = f"{i % 7:032x}"
        records.append(make_record(
            chain=chain, seq=i, process=f"p{i % 3}", pid=100 + i % 3,
            thread_id=7 + i % 4,
            wall_start=10**12 + 17 * i, wall_end=10**12 + 17 * i + 5,
            cpu_start=900 + 3 * i, cpu_end=900 + 3 * i + 2,
            child_chain_uuid=f"{(i + 1) % 7:032x}" if i % 5 == 0 else None,
            semantics={"i": i} if i % 4 == 0 else None,
        ))
    return records


def mirrored(store, records, batches=4):
    """Ingest the same records into the store and a SQLite reference."""
    reference = MonitoringDatabase()
    meta = RunMetadata(run_id="r1", description="parity", monitor_mode="cpu")
    store.create_run(meta)
    reference.create_run(meta)
    step = max(1, len(records) // batches)
    for lo in range(0, len(records), step):
        batch = records[lo:lo + step]
        with store.bulk_ingest():
            store.insert_records("r1", batch)
        with reference.bulk_ingest():
            reference.insert_records("r1", batch)
    return reference


def assert_parity(store, reference, run_id="r1"):
    assert store.record_count(run_id) == reference.record_count(run_id)
    assert store.unique_chain_uuids(run_id) == reference.unique_chain_uuids(run_id)
    assert list(store.chains_for_run(run_id)) == list(reference.chains_for_run(run_id))
    assert list(store.all_records(run_id)) == list(reference.all_records(run_id))
    assert store.population_stats(run_id) == reference.population_stats(run_id)


class TestSegmentStoreParity:
    def test_queries_match_sqlite(self, store):
        reference = mirrored(store, seeded_records())
        assert_parity(store, reference)

    def test_queries_match_sqlite_after_compaction(self, store):
        reference = mirrored(store, seeded_records())
        assert store.compact("r1") is True
        assert_parity(store, reference)

    def test_bounded_scan_matches_sqlite(self, store):
        reference = mirrored(store, seeded_records())
        for backend_state in ("spooled", "compacted"):
            bounds = ("0" * 31 + "2", "0" * 31 + "5")
            assert (
                list(store.chains_for_run("r1", *bounds))
                == list(reference.chains_for_run("r1", *bounds))
            )
            assert (
                store.events_for_chain("r1", "0" * 31 + "3")
                == reference.events_for_chain("r1", "0" * 31 + "3")
            )
            store.compact("r1")

    def test_bulk_ingest_spanning_flush_blocks(self, store, monkeypatch):
        # One collection transaction bigger than the flush threshold
        # spills into several records blocks within one spool segment;
        # timestamps must survive the block boundaries.
        import repro.store.segment as segment

        monkeypatch.setattr(segment, "_FLUSH_BYTES", 512)
        records = seeded_records()
        store.create_run(RunMetadata(run_id="r1"))
        with store.bulk_ingest():
            for lo in range(0, len(records), 10):
                store.insert_records("r1", records[lo:lo + 10])
        assert store.compaction_state("r1")["segments"] == 1
        assert list(store.all_records("r1")) == records

    def test_scan_survives_compaction_swap(self, store):
        # A scan holding the old sealed segment's mmap must keep decoding
        # after compaction unlinks and replaces that segment.
        records = seeded_records()
        mirrored(store, records)
        assert store.compact("r1") is True
        expected = list(store.chains_for_run("r1"))
        scan = store.chains_for_run("r1")
        first = next(scan)  # fast path: lazily decoding the sealed mmap
        store.insert_records("r1", [make_record(chain="ff" * 16, seq=999)])
        assert store.compact("r1") is True  # swaps the scanned segment out
        assert [first] + list(scan) == expected

    def test_insert_order_survives_compaction(self, store):
        # all_records must replay arrival order even after the sealed
        # segment regrouped everything by chain.
        records = seeded_records()
        mirrored(store, records)
        store.compact("r1")
        assert [r.event_seq for r in store.all_records("r1")] == [
            r.event_seq for r in records
        ]


class TestSegmentStoreLifecycle:
    def test_reopen_from_disk(self, tmp_path):
        path = str(tmp_path / "store")
        store = SegmentStore(path, auto_compact=0)
        meta = RunMetadata(run_id="r1", description="d", monitor_mode="cpu",
                           extra={"k": 1})
        store.create_run(meta)
        records = seeded_records()
        store.insert_records("r1", records)
        store.close()

        reopened = SegmentStore(path)
        assert reopened.runs() == [meta]
        assert list(reopened.all_records("r1")) == records
        reopened.close()

    def crashed_after_rename(self, tmp_path, sealed_bytes=None):
        """The directory a kill between compaction's rename and its
        unlinks leaves: the spools beside the sealed segment made of them
        (``sealed_bytes`` keeps only that much of it)."""
        import shutil

        path = str(tmp_path / "store")
        store = SegmentStore(path, auto_compact=0)
        store.create_run(RunMetadata(run_id="r1"))
        records = seeded_records()
        store.insert_records("r1", records[:70])
        store.insert_records("r1", records[70:])
        run_dir = os.path.join(path, "runs", "r1")
        spools = sorted(os.listdir(run_dir))
        shutil.copytree(run_dir, str(tmp_path / "before"))
        assert store.compact("r1") is True
        store.close()
        for name in spools:
            shutil.copy(str(tmp_path / "before" / name), run_dir)
        sealed = os.path.join(run_dir, "000003.sealed.seg")
        if sealed_bytes is not None:
            os.truncate(sealed, sealed_bytes)
        assert sorted(os.listdir(run_dir)) == sorted(spools + ["000003.sealed.seg"])
        return path, run_dir, records

    def test_sealed_segment_supersedes_leftover_sources(self, tmp_path, caplog):
        import logging

        path, run_dir, records = self.crashed_after_rename(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.store.store"):
            reopened = SegmentStore(path, auto_compact=0)
        assert "000001.spool.seg" in caplog.text and "superseded" in caplog.text
        assert sorted(os.listdir(run_dir)) == ["000003.sealed.seg", "meta.json"]
        assert list(reopened.all_records("r1")) == records
        assert sum(len(g) for _c, g in reopened.chains_for_run("r1")) == len(records)
        (run,) = reopened.store_info()["runs"]
        assert run["records"] == len(records)
        # Later spools are numbered above the sealed segment and survive.
        reopened.insert_records("r1", [make_record(chain="ff" * 16)])
        reopened.close()
        again = SegmentStore(path, auto_compact=0)
        assert again.record_count("r1") == len(records) + 1
        again.close()

    def test_partial_sealed_segment_supersedes_nothing(self, tmp_path):
        path, run_dir, records = self.crashed_after_rename(tmp_path, sealed_bytes=600)
        reopened = SegmentStore(path, auto_compact=0)
        assert "000001.spool.seg" in os.listdir(run_dir)
        assert "000002.spool.seg" in os.listdir(run_dir)
        # A torn sealed copy is not trusted to replace anything: every
        # record is still served from the spools it was made of.
        served = list(reopened.all_records("r1"))
        assert all(record in served for record in records)
        reopened.close()

    def test_torn_merge_beside_intact_sources_is_dropped(
        self, tmp_path, caplog, monkeypatch
    ):
        """A merge torn after its rename, with a prefix that salvages
        (several records blocks): served beside its sources, that prefix
        would come back twice."""
        import logging

        monkeypatch.setattr(segment_module, "_FLUSH_BYTES", 1024)
        path, run_dir, records = self.crashed_after_rename(tmp_path)
        sealed = os.path.join(run_dir, "000003.sealed.seg")
        os.truncate(sealed, int(os.path.getsize(sealed) * 0.7))
        torn = SegmentReader(sealed)
        assert torn.partial and 0 < torn.record_count < len(records)
        torn.close()
        with caplog.at_level(logging.WARNING, logger="repro.store.store"):
            reopened = SegmentStore(path, auto_compact=0)
        assert "000003.sealed.seg" in caplog.text and "torn merge" in caplog.text
        assert sorted(os.listdir(run_dir)) == [
            "000001.spool.seg", "000002.spool.seg", "meta.json",
        ]
        assert list(reopened.all_records("r1")) == records
        assert reopened.record_count("r1") == len(records)
        # The merge can be made again, above the number it had.
        assert reopened.compact("r1") is True
        assert list(reopened.all_records("r1")) == records
        reopened.close()

    def test_torn_collection_is_kept_and_salvaged(self, tmp_path, monkeypatch):
        """A sealed segment without its footer that no lower-numbered
        segment covers is a collection damaged later, not a failed merge."""
        monkeypatch.setattr(segment_module, "_FLUSH_BYTES", 1024)
        path = str(tmp_path / "store")
        store = SegmentStore(path, auto_compact=0)
        records = seeded_records()
        mirrored(store, records, batches=2)
        store.close()
        second = os.path.join(path, "runs", "r1", "000002.sealed.seg")
        os.truncate(second, int(os.path.getsize(second) * 0.7))
        reopened = SegmentStore(path, auto_compact=0)
        try:
            state = reopened.compaction_state("r1")
            assert (state["segments"], state["sealed_segments"]) == (2, 2)
            (run,) = reopened.store_info()["runs"]
            assert run["partial_segments"] == 1
            served = list(reopened.all_records("r1"))
            assert served[:60] == records[:60]
            assert 60 < len(served) < 120
            assert all(record in records[60:] for record in served[60:])
        finally:
            reopened.close()

    def test_a_lone_torn_sealed_segment_is_not_compacted(self, tmp_path):
        """``compacted`` means ``compact()`` has nothing to do: one sealed
        segment that lost its trailer is still to be rewritten whole."""
        path = str(tmp_path / "store")
        store = SegmentStore(path, auto_compact=0)
        records = seeded_records()
        with store.bulk_ingest():
            store.insert_records("r1", records)
        chains = list(store.chains_for_run("r1"))
        store.close()
        sealed = os.path.join(path, "runs", "r1", "000001.sealed.seg")
        os.truncate(sealed, os.path.getsize(sealed) - 9)
        reopened = SegmentStore(path, auto_compact=0)
        try:
            state = reopened.compaction_state("r1")
            assert (state["segments"], state["compacted"]) == (1, False)
            assert list(reopened.chains_for_run("r1")) == chains
            assert reopened.compact("r1") is True
            state = reopened.compaction_state("r1")
            assert (state["segments"], state["compacted"]) == (1, True)
            assert reopened.compact("r1") is False
            assert list(reopened.chains_for_run("r1")) == chains
        finally:
            reopened.close()

    def test_two_collections_survive_reopen_like_sqlite(self, tmp_path):
        """A second collection is a second sealed segment — it supersedes
        nothing, and the first must not be taken for its leftover."""
        path = str(tmp_path / "store")
        store = SegmentStore(path, auto_compact=0)
        reference = mirrored(store, seeded_records(), batches=2)
        assert_parity(store, reference)
        store.close()
        reopened = SegmentStore(path, auto_compact=0)
        try:
            state = reopened.compaction_state("r1")
            assert (state["sealed_segments"], state["spool_segments"]) == (2, 0)
            assert_parity(reopened, reference)
            assert reopened.compact("r1") is True
            assert_parity(reopened, reference)
        finally:
            reopened.close()

    def test_merged_collections_supersede_their_leftovers(self, tmp_path):
        """Sealed sources left under the merge made of them are dropped
        like spools: its arrival range covers theirs."""
        import shutil

        path = str(tmp_path / "store")
        store = SegmentStore(path, auto_compact=0)
        records = seeded_records()
        mirrored(store, records, batches=3)
        run_dir = os.path.join(path, "runs", "r1")
        shutil.copytree(run_dir, str(tmp_path / "before"))
        assert store.compact("r1") is True
        store.close()
        for name in ("000001.sealed.seg", "000002.sealed.seg", "000003.sealed.seg"):
            shutil.copy(str(tmp_path / "before" / name), run_dir)
        reopened = SegmentStore(path, auto_compact=0)
        assert sorted(os.listdir(run_dir)) == ["000004.sealed.seg", "meta.json"]
        assert list(reopened.all_records("r1")) == records
        reopened.close()

    @pytest.mark.parametrize("stage", ["encode", "write", "rename"])
    def test_failed_commit_is_absent_as_a_whole(self, tmp_path, monkeypatch, stage):
        path = str(tmp_path / "store")
        store = SegmentStore(path, auto_compact=0)
        store.create_run(RunMetadata(run_id="r1"))
        records = seeded_records()
        run_dir = os.path.join(path, "runs", "r1")

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if stage == "encode":
            # No frame holds a thread id past i64.
            records[100] = make_record(chain="ee" * 16, thread_id=2**70)
            expected = struct.error
        elif stage == "write":
            monkeypatch.setattr(segment_module.SegmentWriter, "_flush_records", disk_full)
            expected = OSError
        else:
            monkeypatch.setattr(os, "rename", disk_full)
            expected = OSError
        with pytest.raises(expected):
            with store.bulk_ingest():
                store.insert_records("r1", records[:50])
                store.insert_records("r1", records[50:])
        monkeypatch.undo()
        # Nothing at a final name, nothing left aside, nothing half-visible.
        assert os.listdir(run_dir) == ["meta.json"]
        assert store.record_count("r1") == 0
        assert store.drop_segments("r1") == 0  # no transaction left open
        # The store goes on, and reopens.
        good = seeded_records()
        with store.bulk_ingest():
            store.insert_records("r1", good)
        store.close()
        reopened = SegmentStore(path, auto_compact=0)
        assert list(reopened.all_records("r1")) == good
        reopened.close()

    def test_open_transaction_blocks_compaction_and_dropping(self, store):
        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", seeded_records()[:60])
        store.insert_records("r1", seeded_records()[60:90])
        with store.bulk_ingest():
            store.insert_records("r1", seeded_records()[90:])
            assert store.record_count("r1") == 90  # held, not yet visible
            assert store.compact("r1") is False
            with pytest.raises(StoreError, match="open ingest transaction"):
                store.drop_segments("r1")
        assert store.record_count("r1") == 120
        assert store.compact("r1") is True
        assert list(store.all_records("r1")) == seeded_records()

    def test_compaction_yields_to_a_commit_that_lands_meanwhile(
        self, store, monkeypatch
    ):
        records = seeded_records()
        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", records[:40])
        store.insert_records("r1", records[40:80])
        load_ranked = segment_module.SegmentReader.load_ranked
        landed = []

        def load_while_a_collection_commits(reader, out):
            if not landed:
                landed.append(True)
                with store.bulk_ingest():
                    store.insert_records("r1", records[80:])
            load_ranked(reader, out)

        monkeypatch.setattr(
            segment_module.SegmentReader, "load_ranked", load_while_a_collection_commits
        )
        assert store.compact("r1") is False  # its sources are no longer the run
        monkeypatch.undo()
        run_dir = os.path.join(store.path, "runs", "r1")
        assert not [n for n in os.listdir(run_dir) if n.startswith(".tmp")]
        assert list(store.all_records("r1")) == records
        assert store.compact("r1") is True
        assert list(store.all_records("r1")) == records

    def test_failed_unlink_is_logged(self, store, caplog, monkeypatch):
        import logging

        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", seeded_records())

        def refuse(path):
            raise PermissionError(13, "read-only", path)

        monkeypatch.setattr(os, "unlink", refuse)
        with caplog.at_level(logging.WARNING, logger="repro.store.store"):
            assert store.compact("r1") is True
        monkeypatch.undo()
        assert "could not remove segment" in caplog.text
        assert "000001.spool.seg" in caplog.text
        assert store.record_count("r1") == 120

    def test_close_seals_open_transaction(self, tmp_path):
        path = str(tmp_path / "store")
        store = SegmentStore(path, auto_compact=0)
        store.create_run(RunMetadata(run_id="r1"))
        ctx = store.bulk_ingest()
        ctx.__enter__()
        store.insert_records("r1", [make_record()])
        store.close()  # never __exit__ed: close must commit what it holds
        reopened = SegmentStore(path)
        assert reopened.record_count("r1") == 1
        reopened.close()

    def test_runs_isolated(self, store):
        store.create_run(RunMetadata(run_id="r1"))
        store.create_run(RunMetadata(run_id="r2"))
        store.insert_records("r1", [make_record()])
        assert store.record_count("r1") == 1
        assert store.record_count("r2") == 0
        assert store.unique_chain_uuids("r2") == []

    def test_unknown_run_raises(self, store):
        with pytest.raises(StoreError, match="unknown run"):
            store.record_count("nope")

    def test_unsafe_run_id_rejected(self, store):
        with pytest.raises(StoreError, match="filesystem-safe"):
            store.insert_records("../escape", [make_record()])

    def test_empty_transaction_leaves_no_segment(self, store):
        store.create_run(RunMetadata(run_id="r1"))
        with store.bulk_ingest():
            store.insert_records("r1", [])
        run_dir = os.path.join(store.path, "runs", "r1")
        assert [n for n in os.listdir(run_dir) if n.endswith(".seg")] == []

    def test_auto_compact_threshold(self, tmp_path):
        threads = set(threading.enumerate())
        store = SegmentStore(str(tmp_path / "s"), auto_compact=3)
        store.create_run(RunMetadata(run_id="r1"))
        counts = []
        for i in range(3):
            store.insert_records("r1", [make_record(seq=i)])
            counts.append(store.compaction_state("r1")["segments"])
        # The third write merged its run before it returned.
        assert counts == [1, 2, 1]
        assert store.compaction_state("r1")["compacted"]
        assert store.record_count("r1") == 3
        assert set(threading.enumerate()) <= threads
        store.close()

    def test_compaction_failure_is_surfaced(self, tmp_path, caplog, monkeypatch):
        import logging

        store = SegmentStore(str(tmp_path / "s"), auto_compact=2)
        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", [make_record(seq=0)])

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store, "_publish_sealed", disk_full)
        with caplog.at_level(logging.ERROR, logger="repro.store.store"):
            # The merge fails; the write it followed stands.
            assert store.insert_records("r1", [make_record(seq=1)]) == 1
        assert "disk full" in caplog.text
        assert [r.event_seq for r in store.all_records("r1")] == [0, 1]
        state = store.compaction_state("r1")
        assert (state["segments"], state["spool_segments"]) == (2, 2)
        assert state["last_error"] == "OSError: disk full"
        # The next successful compaction clears the sticky error.
        monkeypatch.undo()
        assert store.compact("r1") is True
        assert store.compaction_state("r1")["last_error"] is None
        store.close()

    def test_compaction_bug_propagates_out_of_the_write(self, tmp_path, monkeypatch):
        store = SegmentStore(str(tmp_path / "s"), auto_compact=2)
        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", [make_record(seq=0)])

        def bug(*args, **kwargs):
            raise TypeError("not a disk failure")

        monkeypatch.setattr(store, "_publish_sealed", bug)
        with pytest.raises(TypeError, match="not a disk failure"):
            store.insert_records("r1", [make_record(seq=1)])
        # The spool landed before the merge ran.
        assert store.record_count("r1") == 2
        state = store.compaction_state("r1")
        assert (state["spool_segments"], state["last_error"]) == (2, None)
        monkeypatch.undo()
        store.close()

    def test_compact_noop_when_already_sealed(self, store):
        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", [make_record()])
        assert store.compact("r1") is True
        assert store.compact("r1") is False

    def test_store_info_shape(self, store):
        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", seeded_records())
        info = store.store_info()
        assert info["backend"] == "segment"
        (run,) = info["runs"]
        assert run["records"] == 120
        assert run["chains"] == 7
        assert run["segments"][0]["kind"] == "spool"

    def test_store_info_says_what_each_segment_holds(self, store):
        store.create_run(RunMetadata(run_id="r1"))
        store.insert_records("r1", seeded_records()[:60])
        store.insert_records("r1", seeded_records()[60:])
        for kinds in (["spool", "spool"], ["sealed"]):
            (run,) = store.store_info()["runs"]
            assert [s["kind"] for s in run["segments"]] == kinds
            # Three processes call one operation: three sites per segment.
            assert [(s["schema_version"], s["sites"]) for s in run["segments"]] == [
                (2, 3) for _ in kinds
            ]
            store.compact("r1")


class TestBackendSelection:
    def test_detects_directory_as_segment(self, tmp_path):
        store = SegmentStore(str(tmp_path / "seg"))
        store.close()
        assert detect_backend(str(tmp_path / "seg")) == "segment"

    def test_detects_file_as_sqlite(self, tmp_path):
        db = MonitoringDatabase(str(tmp_path / "m.db"))
        db.close()
        assert detect_backend(str(tmp_path / "m.db")) == "sqlite"
        assert detect_backend(":memory:") == "sqlite"

    def test_open_store_roundtrip(self, tmp_path):
        segment = open_store(str(tmp_path / "seg"), backend="segment")
        assert isinstance(segment, SegmentStore)
        segment.close()
        assert isinstance(open_store(str(tmp_path / "seg")), SegmentStore)
        sqlite = open_store(str(tmp_path / "m.db"))
        assert isinstance(sqlite, MonitoringDatabase)
        sqlite.close()

    def test_open_store_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="unknown storage backend"):
            open_store(str(tmp_path / "x"), backend="parquet")

    def test_marker_schema_version_checked(self, tmp_path):
        import json

        path = tmp_path / "seg"
        store = SegmentStore(str(path))
        store.close()
        marker = path / "repro-store.json"
        meta = json.loads(marker.read_text())
        meta["schema_version"] = 999
        marker.write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="schema"):
            SegmentStore(str(path))

    def test_backends_satisfy_protocol(self, tmp_path):
        from repro.store import StorageBackend

        store = SegmentStore(str(tmp_path / "seg"))
        db = MonitoringDatabase()
        assert isinstance(store, StorageBackend)
        assert isinstance(db, StorageBackend)
        store.close()
        db.close()
