"""Predicate-pushdown scans: semantics, pruning, salvage, swap safety.

The contract under test: a predicated scan returns exactly the records
``ScanPredicate.matches`` accepts, in exactly the order the unpredicated
scan would have yielded them — whatever the store's physical state
(spooled, compacted, salvaged, or swapped mid-scan) — while the pruning
counters prove the engine skipped work instead of filtering after the
fact.
"""

import os

import pytest

from repro.analysis import reconstruct
from repro.core import RunMetadata
from repro.core.records import from_row
from repro.errors import StoreError
from repro.store import ScanPredicate, ScanStats, SegmentStore, run_query
from repro.store import segment as segment_module
from repro.store.segment import SegmentReader, SegmentWriter, segment_info

from tests.helpers import cut_into_blocks, rows_of
from tests.unit.store.test_segment_codec import make_record


@pytest.fixture
def store(tmp_path):
    store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
    yield store
    store.close()


def seeded_records():
    """Eight chains, five operations, two interfaces, a spread of times."""
    records = []
    for i in range(240):
        records.append(make_record(
            chain=f"{i % 8:032x}", seq=i,
            interface="M::A" if i % 2 else "M::B",
            operation=f"op{i % 5}",
            wall_start=10**12 + 100 * i, wall_end=10**12 + 100 * i + 40,
            semantics={"i": i} if i % 4 == 0 else None,
        ))
    # A few records with no wall interval at all: they must never match
    # a time-range predicate, on either backend.
    for i in range(240, 250):
        records.append(make_record(
            chain=f"{i % 8:032x}", seq=i, operation="op0",
            wall_start=None, wall_end=None,
        ))
    return records


def ingest(store, records, run_id="r1", sealed=True):
    """One collection: a transaction commits a sealed segment, a plain
    ``insert_records`` writes a spool."""
    store.create_run(RunMetadata(run_id=run_id))
    if sealed:
        with store.bulk_ingest():
            store.insert_records(run_id, records)
    else:
        store.insert_records(run_id, records)
    state = store.compaction_state(run_id)
    assert (state["segments"], state["compacted"]) == (1, sealed)


def brute_chains(store, run_id, predicate):
    """Reference semantics: unpredicated scan + in-Python filter."""
    out = []
    for chain, group in store.chains_for_run(run_id):
        kept = [row for row in group if predicate.matches(from_row(row))]
        if kept:
            out.append((chain, kept))
    return out


PREDICATES = [
    ScanPredicate(operations=frozenset({"op2"})),
    ScanPredicate(interfaces=frozenset({"M::A"})),
    ScanPredicate(chain_prefix="0" * 31 + "3"),
    ScanPredicate(chain_prefix="0" * 30),
    ScanPredicate(ts_min=10**12 + 5_000, ts_max=10**12 + 12_000),
    ScanPredicate(ts_min=10**12 + 20_000),
    ScanPredicate(
        operations=frozenset({"op1", "op4"}),
        interfaces=frozenset({"M::B"}),
        ts_max=10**12 + 18_000,
    ),
    ScanPredicate(operations=frozenset({"not-there"})),
]


class TestPredicateSemantics:
    def test_empty_string_sets_rejected(self):
        with pytest.raises(StoreError):
            ScanPredicate(operations=frozenset())
        with pytest.raises(StoreError):
            ScanPredicate(interfaces=[])

    def test_inverted_time_range_rejected(self):
        with pytest.raises(StoreError):
            ScanPredicate(ts_min=10, ts_max=9)

    def test_anchor_falls_back_to_wall_end(self):
        predicate = ScanPredicate(ts_min=100, ts_max=200)
        only_end = make_record(wall_start=None, wall_end=150)
        assert predicate.matches(only_end)
        neither = make_record(wall_start=None, wall_end=None)
        assert not predicate.matches(neither)

    def test_empty_predicate(self):
        assert ScanPredicate().is_empty
        assert ScanPredicate().matches(make_record())


class TestPredicatedScans:
    @pytest.mark.parametrize("compacted", [False, True], ids=["spool", "sealed"])
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_chains_match_brute_force(self, store, compacted, predicate):
        ingest(store, seeded_records(), sealed=compacted)
        expected = brute_chains(store, "r1", predicate)
        assert list(store.chains_for_run("r1", predicate=predicate)) == expected

    @pytest.mark.parametrize("compacted", [False, True], ids=["spool", "sealed"])
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_all_records_is_arrival_subsequence(self, store, compacted, predicate):
        ingest(store, seeded_records(), sealed=compacted)
        full = list(store.all_records("r1"))
        expected = [r for r in full if predicate.matches(r)]
        assert list(store.all_records("r1", predicate=predicate)) == expected

    def test_predicate_composes_with_shard_bounds(self, store):
        ingest(store, seeded_records())
        store.compact("r1")
        predicate = ScanPredicate(operations=frozenset({"op1", "op3"}))
        bounds = ("0" * 31 + "2", "0" * 31 + "6")
        expected = [
            (chain, group)
            for chain, group in brute_chains(store, "r1", predicate)
            if bounds[0] <= chain <= bounds[1]
        ]
        assert list(store.chains_for_run("r1", *bounds, predicate=predicate)) \
            == expected


class TestPruning:
    def test_unknown_operation_prunes_whole_segment(self, store):
        ingest(store, seeded_records())
        store.compact("r1")
        stats = ScanStats()
        predicate = ScanPredicate(operations=frozenset({"not-there"}))
        assert list(store.chains_for_run("r1", predicate=predicate,
                                         stats=stats)) == []
        assert stats.segments_pruned == stats.segments > 0
        assert stats.frames_decoded == 0

    def test_disjoint_time_range_prunes_whole_segment(self, store):
        ingest(store, seeded_records())
        store.compact("r1")
        stats = ScanStats()
        predicate = ScanPredicate(ts_min=10**15)
        assert list(store.chains_for_run("r1", predicate=predicate,
                                         stats=stats)) == []
        assert stats.segments_pruned == stats.segments > 0

    def test_chain_prefix_prunes_groups(self, store):
        ingest(store, seeded_records())
        store.compact("r1")
        stats = ScanStats()
        predicate = ScanPredicate(chain_prefix="0" * 31 + "3")
        chains = list(store.chains_for_run("r1", predicate=predicate,
                                           stats=stats))
        assert [chain for chain, _ in chains] == ["0" * 31 + "3"]
        assert stats.groups_pruned > 0
        # Only the one matching chain group was decoded.
        assert stats.frames_decoded == sum(len(g) for _, g in chains)

    def test_predicated_never_decodes_more(self, store):
        ingest(store, seeded_records())
        store.compact("r1")
        baseline = ScanStats()
        list(store.chains_for_run("r1", stats=baseline))
        for predicate in PREDICATES:
            stats = ScanStats()
            list(store.chains_for_run("r1", predicate=predicate, stats=stats))
            assert stats.frames_decoded <= baseline.frames_decoded

    def test_segment_info_reports_footer_bounds(self, store):
        ingest(store, seeded_records())
        store.compact("r1")
        run_dir = os.path.join(store.path, "runs", "r1")
        (name,) = [n for n in os.listdir(run_dir) if n.endswith(".seg")]
        reader = SegmentReader(os.path.join(run_dir, name))
        info = segment_info(reader)
        reader.close()
        assert info["salvaged"] is False
        # Bounds track the record anchor (wall_start when present).
        assert info["ts_min"] == 10**12
        assert info["ts_max"] == 10**12 + 100 * 239
        assert info["index"]["coverage"] == "footer"
        assert info["index"]["group_ts_bounds"] is True


def sliced_records():
    """Twelve chains of twenty records, each chain in its own slice of
    the timeline and on one of three interfaces: a time window, a
    function and a uuid prefix each rule most chain groups out."""
    return [
        make_record(
            chain=f"{c:032x}", seq=20 * c + i, interface=f"M::I{c % 3}",
            operation=f"op{i % 4}", wall_start=10**12 + 1000 * c + 10 * i,
            wall_end=10**12 + 1000 * c + 10 * i + 5, semantics=None,
        )
        for c in range(12) for i in range(20)
    ]


class _StatsTap:
    """A backend whose ``chains_for_run`` records the scan's counters —
    for consumers (``reconstruct``) that do not pass ``stats`` on."""

    def __init__(self, store):
        self.store, self.stats = store, ScanStats()

    def chains_for_run(self, run_id, **kwargs):
        return self.store.chains_for_run(run_id, stats=self.stats, **kwargs)


class TestSealedPlusSpool:
    """Compacted history plus a fresh drain — the commonest live layout.
    The sealed part's chain groups are pruned under every consumer, not
    only under ``all_records``."""

    SEALED, SPOOL = 12 * 18, 12 * 2

    @pytest.fixture
    def layout(self, store):
        records = sliced_records()
        late = [r for r in records if r.event_seq % 20 >= 18]
        ingest(store, [r for r in records if r.event_seq % 20 < 18])
        assert store.compact("r1") is False  # committed sealed
        store.insert_records("r1", late)  # every chain grows by two
        state = store.compaction_state("r1")
        assert (state["sealed_segments"], state["spool_segments"]) == (1, 1)
        return store

    @pytest.mark.parametrize("predicate, groups_left", [
        (ScanPredicate(chain_prefix=f"{3:032x}"), 1),
        (ScanPredicate(interfaces={"M::I1"}, operations={"op2"}), 4),
        (ScanPredicate(ts_min=10**12 + 4000, ts_max=10**12 + 5999), 2),
    ], ids=["chain-prefix", "function", "time-window"])
    def test_every_consumer_prunes_the_sealed_groups(
        self, layout, predicate, groups_left
    ):
        store = layout
        expected = brute_chains(store, "r1", predicate)
        matching = [r for r in store.all_records("r1") if predicate.matches(r)]
        assert matching

        by_chain, by_query, flat = ScanStats(), ScanStats(), ScanStats()
        tap = _StatsTap(store)
        assert list(
            store.chains_for_run("r1", predicate=predicate, stats=by_chain)
        ) == expected
        answer = run_query(store, "r1", predicate, stats=by_query)
        assert (answer["records"], answer["chains"]) == (len(matching), len(expected))
        dscg = reconstruct(tap, "r1", predicate=predicate)
        assert list(dscg.chains) == [chain for chain, _group in expected]
        assert list(
            store.all_records("r1", predicate=predicate, stats=flat)
        ) == matching

        assert by_chain == by_query == tap.stats == flat
        assert (by_chain.groups, by_chain.groups_pruned) == (12, 12 - groups_left)
        assert by_chain.segments_pruned == 0
        assert by_chain.records_matched == len(matching)
        # The surviving sealed groups plus the (unindexed) spool.
        assert by_chain.frames_decoded == 18 * groups_left + self.SPOOL
        assert by_chain.frames_decoded < store.record_count("r1")

    def test_shard_bounds_reach_the_sealed_part(self, layout):
        store = layout
        first, last = f"{2:032x}", f"{4:032x}"
        stats = ScanStats()
        assert list(store.chains_for_run("r1", first, last, stats=stats)) == [
            (chain, group) for chain, group in store.chains_for_run("r1")
            if first <= chain <= last
        ]
        assert stats.frames_decoded == 3 * 18 + self.SPOOL


class TestMergedDecodeLoop:
    """The one frame loop, filtering: ranks stay positional over all
    frames, and a decoded group without a match is dropped."""

    PREDICATE = ScanPredicate(interfaces={"M::I1"}, operations={"op2"})

    def many_blocks(self, path, monkeypatch):
        """A store at ``path`` whose run is one spool of several column
        blocks."""
        monkeypatch.setattr(segment_module, "_BLOCK_ROWS", 30)
        records = sliced_records()
        run_dir = os.path.join(path, "runs", "r1")
        os.makedirs(run_dir)
        writer = SegmentWriter(os.path.join(run_dir, "000001.spool.seg"))
        for lo in range(0, len(records), 30):
            writer.append(records[lo:lo + 30])
        writer.seal()
        return SegmentStore(path, auto_compact=0), records

    def blocks(self, store):
        (info,) = store.store_info()["runs"]
        (segment,) = info["segments"]
        run_dir = os.path.join(store.path, "runs", "r1")
        reader = SegmentReader(os.path.join(run_dir, segment["path"]))
        try:
            return len(reader._blocks), reader.partial
        finally:
            reader.close()

    def test_ranks_stay_positional_across_spool_blocks(self, tmp_path, monkeypatch):
        store, records = self.many_blocks(str(tmp_path / "blocks"), monkeypatch)
        try:
            assert self.blocks(store) == (8, False)
            assert list(store.all_records("r1")) == records
            assert list(store.all_records("r1", predicate=self.PREDICATE)) == [
                r for r in records if self.PREDICATE.matches(r)
            ]
        finally:
            store.close()

    def test_ranks_stay_positional_in_a_salvaged_sealed_segment(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "torn")
        store, _records = self.many_blocks(path, monkeypatch)
        assert store.compact("r1") is True
        store.close()
        (name,) = [n for n in os.listdir(os.path.join(path, "runs", "r1"))
                   if n.endswith(".seg")]
        victim = os.path.join(path, "runs", "r1", name)
        cut_into_blocks(victim, 0.7)
        store = SegmentStore(path, auto_compact=0)
        try:
            regions, partial = self.blocks(store)
            assert partial and regions > 1
            full = list(store.all_records("r1"))
            assert 0 < len(full) < 240
            stats = ScanStats()
            assert list(
                store.all_records("r1", predicate=self.PREDICATE, stats=stats)
            ) == [r for r in full if self.PREDICATE.matches(r)]
            # Salvaged: frame-filtered, never pruned.
            assert (stats.groups, stats.frames_decoded) == (0, len(full))
        finally:
            store.close()

    def test_decoded_group_without_a_match_is_not_yielded(self, store):
        # Both chains' bounds overlap the window; only one has a record in it.
        records = [
            make_record(chain=f"{c:032x}", seq=10 * c + i,
                        wall_start=1000 * i + 100 * c, wall_end=None)
            for c in range(2) for i in range(10)
        ]
        ingest(store, records)
        store.compact("r1")
        predicate, stats = ScanPredicate(ts_min=2050, ts_max=2150), ScanStats()
        assert list(store.chains_for_run("r1", predicate=predicate, stats=stats)) \
            == [(f"{1:032x}", rows_of([records[12]]))]
        assert (stats.groups, stats.groups_pruned) == (2, 0)
        assert (stats.frames_decoded, stats.records_matched) == (20, 1)
        assert list(store.all_records("r1", predicate=predicate)) == [records[12]]


class TestSalvagedScans:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(segment_module, "_BLOCK_ROWS", 16)

    def truncated_store(self, tmp_path):
        path = str(tmp_path / "sv")
        store = SegmentStore(path, auto_compact=0)
        # A spool: its tables precede the column blocks that use them, so
        # a cut file salvages a prefix of blocks.
        ingest(store, seeded_records(), sealed=False)
        store.close()
        run_dir = os.path.join(path, "runs", "r1")
        (name,) = [n for n in os.listdir(run_dir) if n.endswith(".seg")]
        cut_into_blocks(os.path.join(run_dir, name), 0.6)
        return SegmentStore(path, auto_compact=0)

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_salvaged_segment_predicate_scan(self, tmp_path, predicate):
        # A salvaged segment has no footer bounds ("unknown", not
        # "empty"): predicates must filter frame-by-frame, never prune.
        store = self.truncated_store(tmp_path)
        try:
            assert 0 < store.record_count("r1") < 250
            expected = brute_chains(store, "r1", predicate)
            assert list(store.chains_for_run("r1", predicate=predicate)) \
                == expected
            full = list(store.all_records("r1"))
            assert list(store.all_records("r1", predicate=predicate)) \
                == [r for r in full if predicate.matches(r)]
        finally:
            store.close()

    def test_salvaged_flag_in_segment_info(self, tmp_path):
        store = self.truncated_store(tmp_path)
        try:
            run_dir = os.path.join(store.path, "runs", "r1")
            (name,) = [n for n in os.listdir(run_dir) if n.endswith(".seg")]
            reader = SegmentReader(os.path.join(run_dir, name))
            info = segment_info(reader)
            reader.close()
            assert info["salvaged"] is True
            assert info["ts_min"] is None
            assert info["index"]["coverage"] == "salvaged"
        finally:
            store.close()


class TestSwapSafety:
    def test_predicated_scan_survives_compaction_swap(self, store):
        ingest(store, seeded_records())
        assert store.compact("r1") is False  # committed sealed
        predicate = ScanPredicate(interfaces=frozenset({"M::A"}))
        expected = list(store.chains_for_run("r1", predicate=predicate))
        scan = store.chains_for_run("r1", predicate=predicate)
        first = next(scan)
        store.insert_records("r1", [make_record(chain="ff" * 16, seq=999,
                                                interface="M::A")])
        assert store.compact("r1") is True  # swaps the mmap'd segment out
        assert [first] + list(scan) == expected

    def test_no_resurrected_records_after_swap(self, store):
        # A fresh predicated scan after the swap sees the new record and
        # exactly one copy of everything else — compaction neither drops
        # matching records nor duplicates arrival ranks.
        ingest(store, seeded_records())
        store.compact("r1")
        predicate = ScanPredicate(operations=frozenset({"op0"}))
        before = list(store.all_records("r1", predicate=predicate))
        extra = make_record(chain="ff" * 16, seq=1000, operation="op0")
        store.insert_records("r1", [extra])
        store.compact("r1")
        after = list(store.all_records("r1", predicate=predicate))
        assert after == before + [extra]
        seqs = [r.event_seq for r in after]
        assert len(seqs) == len(set(seqs))


class TestRunQuery:
    def test_aggregates_per_operation_latency(self, store):
        ingest(store, seeded_records())
        store.compact("r1")
        stats = ScanStats()
        result = run_query(store, "r1",
                           ScanPredicate(operations=frozenset({"op2"})),
                           stats=stats)
        assert result["run_id"] == "r1"
        assert set(result["operations"]) == {"M::A::op2", "M::B::op2"}
        for row in result["operations"].values():
            assert row["wall_ns"]["min"] == 40
            assert row["wall_ns"]["p99"] == 40
        assert result["records"] == sum(
            row["records"] for row in result["operations"].values()
        )
        assert result["scan"]["records_matched"] == result["records"]

    def test_a_full_run_query_builds_no_record(self, store, monkeypatch):
        # Counts and intervals come straight from the frames: the loop that
        # builds records is never entered.
        ingest(store, seeded_records())
        assert store.compact("r1") is False  # one sealed segment
        calls = []
        decode = SegmentReader._rows

        def counting(self, *args, **kwargs):
            calls.append(args)
            return decode(self, *args, **kwargs)

        monkeypatch.setattr(SegmentReader, "_rows", counting)
        stats = ScanStats()
        answer = run_query(store, "r1", stats=stats)
        assert calls == []
        assert (answer["records"], answer["chains"]) == (250, 8)
        assert stats.frames_decoded == stats.records_matched == 250
        list(store.chains_for_run("r1"))
        assert calls  # ...which a record scan does enter
