"""Function zone map (``FXFN``) and rank width of sealed segments.

The contract under test: a sealed segment records, per chain group, the
set of (interface, operation) pairs its frames carry, and predicated
scans prune groups on it — without ever changing an answer. Files that
lack the map (spools, salvaged segments, a sealed segment whose map was
cut off at its magic) are frame-filtered as before; a damaged map ends in the salvage
path or is ignored, never in an untyped exception or a wrong answer.
"""

import os
import shutil
import struct

import pytest

from repro.core import RunMetadata
from repro.store import ScanPredicate, ScanStats, SegmentStore
from repro.store.segment import (
    KIND_SEALED,
    SegmentReader,
    SegmentWriter,
    segment_info,
)

from tests.helpers import reseal, rows_of
from tests.unit.store.test_segment_codec import make_record

_TRAILER_SIZE = 16


def old_format_records():
    return [
        make_record(
            chain=f"{i % 6:032x}", seq=i,
            interface="M::A" if i % 6 < 3 else "M::B",
            operation=f"op{i % 6 % 4}",
            wall_start=10**12 + 100 * i, wall_end=10**12 + 100 * i + 40,
            semantics={"i": i} if i % 5 == 0 else None,
        )
        for i in range(72)
    ]


def store_around(tmp_path, segment_bytes):
    """A store whose run ``r1`` is exactly one given sealed-segment file
    (checksums recomputed: a damaged file meets the footer parser)."""
    root = tmp_path / "around"
    shutil.rmtree(root, ignore_errors=True)
    run_dir = root / "runs" / "r1"
    run_dir.mkdir(parents=True)
    (run_dir / "000001.sealed.seg").write_bytes(reseal(segment_bytes))
    return SegmentStore(str(root), auto_compact=0)


def sealed_bytes(tmp_path, records):
    """``records`` ingested as one spool and compacted; the file's bytes."""
    store = SegmentStore(str(tmp_path / "build"), auto_compact=0)
    store.create_run(RunMetadata(run_id="r1"))
    store.insert_records("r1", records)
    assert store.compact("r1") is True
    (reader,) = store._segments(store._run("r1"))
    data = open(reader.path, "rb").read()
    store.close()
    shutil.rmtree(tmp_path / "build")
    return data


def only_reader(store):
    (reader,) = store._segments(store._run("r1"))
    return reader


def brute(records, predicate):
    """(chains_for_run, all_records) answers by ``ScanPredicate.matches``:
    row groups and records."""
    kept = [r for r in records if predicate.matches(r)]
    chains = {}
    for record in sorted(kept, key=lambda r: r.event_seq):
        chains.setdefault(record.chain_uuid, []).append(record)
    return [(chain, rows_of(group)) for chain, group in sorted(chains.items())], kept


FUNCTION_PREDICATES = [
    ScanPredicate(operations={"op1"}),
    ScanPredicate(interfaces={"M::B"}),
    ScanPredicate(interfaces={"M::A"}, operations={"op0", "op2"}),
    ScanPredicate(interfaces={"M::B"}, operations={"op2"}),  # never together
    ScanPredicate(operations={"op3"}, ts_min=10**12 + 2_000),
    ScanPredicate(operations={"op0"}, chain_prefix="0" * 31),
]


class TestWriter:
    def test_chain_fed_across_appends_keeps_its_full_function_set(self, tmp_path):
        path = str(tmp_path / "direct.sealed.seg")
        writer = SegmentWriter(path, kind=KIND_SEALED)
        first, second = "0a" * 16, "0b" * 16
        writer.append([make_record(chain=first, seq=0, operation="early")])
        writer.append([make_record(chain=first, seq=1, operation="middle")])
        writer.append([make_record(chain=first, seq=2, operation="late"),
                       make_record(chain=second, seq=0, operation="other")])
        writer.seal()
        reader = SegmentReader(path)
        try:
            names = {reader.strings[i] for i in reader.fn_table}
            assert {"early", "middle", "late", "other"} <= names
            assert len(reader.fn_table) // 2 == 4
            by_operation = {
                reader.strings[reader.fn_table[2 * fn + 1]]: fn for fn in range(4)
            }
            for operation in ("early", "middle", "late"):
                assert list(reader.groups_holding({by_operation[operation]})) == [1, 0]
            assert list(reader.groups_holding({by_operation["other"]})) == [0, 1]
        finally:
            reader.close()

    def test_spool_segments_carry_no_map(self, tmp_path):
        path = str(tmp_path / "plain.spool.seg")
        writer = SegmentWriter(path)
        writer.append([make_record()])
        writer.seal()
        reader = SegmentReader(path)
        info = segment_info(reader)
        reader.close()
        assert b"FXFN" not in open(path, "rb").read()
        assert info["index"]["group_functions"] is False
        assert info["index"]["functions"] == 0

    def test_empty_sealed_segment_reads_back(self, tmp_path):
        path = str(tmp_path / "empty.sealed.seg")
        SegmentWriter(path, kind=KIND_SEALED).seal()
        reader = SegmentReader(path)
        try:
            assert not reader.partial
            assert len(reader.fn_table) == 0
        finally:
            reader.close()


class TestRankWidth:
    def ranked_segment(self, tmp_path, ranks):
        path = str(tmp_path / "ranked.sealed.seg")
        writer = SegmentWriter(path, kind=KIND_SEALED)
        writer.append(
            [make_record(seq=i) for i in range(len(ranks))], ranks=ranks
        )
        writer.seal()
        reader = SegmentReader(path)
        out = []
        reader.load_ranked(out)
        data = reader._mm[:]
        reader.close()
        footer_off = struct.unpack_from("<Q", data, len(data) - _TRAILER_SIZE)[0]
        return data[footer_off + 8], [rank for rank, _record in out]

    def test_ranks_are_u32_when_they_fit(self, tmp_path):
        ranks = [7, 0, 2**32 - 1]
        assert self.ranked_segment(tmp_path, ranks) == (2, ranks)

    def test_a_rank_past_u32_falls_back_to_u64(self, tmp_path):
        ranks = [7, 2**32, 3]
        assert self.ranked_segment(tmp_path, ranks) == (1, ranks)

    def test_compacted_store_writes_u32_ranks(self, tmp_path):
        data = sealed_bytes(tmp_path, old_format_records())
        footer_off = struct.unpack_from("<Q", data, len(data) - _TRAILER_SIZE)[0]
        assert data[footer_off + 8] == 2


class TestOldFormat:
    """A sealed segment without the zone map — the extension cut at its
    magic, as :meth:`TestDamagedMap.test_truncated_extension` leaves it —
    answers everything, pruning on what its footer still holds."""

    @pytest.fixture
    def store(self, tmp_path):
        good = sealed_bytes(tmp_path, old_format_records())
        ext = good.rindex(b"FXFN")
        store = store_around(tmp_path, good[:ext] + good[-_TRAILER_SIZE:])
        yield store
        store.close()

    def test_opens_with_no_map(self, store):
        reader = only_reader(store)
        info = segment_info(reader)
        assert reader.sealed and not reader.partial
        assert info["records"] == 72
        assert info["index"]["group_ts_bounds"] is True
        assert info["index"]["group_functions"] is False
        assert list(store.all_records("r1")) == old_format_records()

    @pytest.mark.parametrize("predicate", FUNCTION_PREDICATES)
    def test_function_predicates_are_frame_filtered(self, store, predicate):
        chains, flat = brute(old_format_records(), predicate)
        stats = ScanStats()
        assert list(
            store.chains_for_run("r1", predicate=predicate, stats=stats)
        ) == chains
        assert list(store.all_records("r1", predicate=predicate)) == flat
        if predicate.chain_prefix is None and not predicate.has_time_range:
            assert stats.groups_pruned == 0  # no zone map: nothing to prune on

    def test_still_prunes_on_timestamp_bounds(self, store):
        stats = ScanStats()
        predicate = ScanPredicate(ts_min=10**12, ts_max=10**12 + 500)
        got = list(store.chains_for_run("r1", predicate=predicate, stats=stats))
        assert got == brute(old_format_records(), predicate)[0]
        assert stats.groups_pruned == 0 and stats.frames_decoded == 72
        late = ScanStats()
        list(store.chains_for_run("r1", predicate=ScanPredicate(ts_min=10**13),
                                  stats=late))
        assert late.segments_pruned == 1 and late.frames_decoded == 0

    def test_recompacts_into_a_segment_with_the_map(self, store):
        extra = make_record(chain="ff" * 16, seq=500, operation="fresh")
        store.insert_records("r1", [extra])
        assert store.compact("r1") is True
        info = segment_info(only_reader(store))
        assert info["index"]["group_functions"] is True
        assert info["index"]["functions"] == 7
        assert list(store.all_records("r1")) == old_format_records() + [extra]
        stats = ScanStats()
        predicate = ScanPredicate(operations={"fresh"})
        assert list(
            store.chains_for_run("r1", predicate=predicate, stats=stats)
        ) == [("ff" * 16, rows_of([extra]))]
        assert (stats.groups_pruned, stats.frames_decoded) == (6, 1)


class TestPruning:
    @pytest.fixture
    def store(self, tmp_path):
        store = store_around(tmp_path, sealed_bytes(tmp_path, old_format_records()))
        yield store
        store.close()

    @pytest.mark.parametrize("predicate", FUNCTION_PREDICATES)
    def test_answers_equal_brute_force(self, store, predicate):
        chains, flat = brute(old_format_records(), predicate)
        assert list(store.chains_for_run("r1", predicate=predicate)) == chains
        assert list(store.all_records("r1", predicate=predicate)) == flat

    def test_groups_without_the_function_are_not_decoded(self, store):
        # Chain c holds exactly one function: op(c % 4) of M::A (c < 3)
        # or M::B — so op1 lives in chains 1 and 5 only.
        for scan in (store.chains_for_run, store.all_records):
            stats = ScanStats()
            matched = list(
                scan("r1", predicate=ScanPredicate(operations={"op1"}), stats=stats)
            )
            assert matched
            assert (stats.groups, stats.groups_pruned) == (6, 4)
            assert stats.frames_decoded == stats.records_matched == 24

    def test_predicate_accepting_every_function_tests_nothing(self, store):
        from repro.store.query import segment_filter

        predicate = ScanPredicate(interfaces={"M::A", "M::B", "M::Elsewhere"})
        assert segment_filter(only_reader(store), predicate).is_pass
        stats = ScanStats()
        assert list(
            store.chains_for_run("r1", predicate=predicate, stats=stats)
        ) == list(store.chains_for_run("r1"))
        assert list(store.all_records("r1", predicate=predicate)) \
            == old_format_records()
        assert (stats.groups_pruned, stats.frames_decoded) == (0, 72)

    def test_interface_and_operation_never_together_prune_the_segment(self, store):
        # M::B exists (chains 3-5) and op2 exists (chain 2, on M::A), but
        # no frame carries the pair: the function table proves it, where
        # two independent dictionary lookups could not.
        stats = ScanStats()
        predicate = ScanPredicate(interfaces={"M::B"}, operations={"op2"})
        assert list(
            store.chains_for_run("r1", predicate=predicate, stats=stats)
        ) == []
        assert (stats.segments_pruned, stats.frames_decoded) == (1, 0)

    def test_group_past_254_functions_is_never_pruned(self, tmp_path):
        wide = [
            make_record(chain="0a" * 16, seq=i, operation=f"wide{i}")
            for i in range(300)
        ]
        narrow = [make_record(chain="0b" * 16, seq=0, operation="narrow")]
        store = store_around(tmp_path, sealed_bytes(tmp_path, wide + narrow))
        try:
            info = segment_info(only_reader(store))
            assert info["index"]["functions"] == 301  # the table stays complete
            stats = ScanStats()
            predicate = ScanPredicate(operations={"narrow"})
            assert list(
                store.chains_for_run("r1", predicate=predicate, stats=stats)
            ) == [("0b" * 16, rows_of(narrow))]
            # The overflowed group is decoded and frame-filtered.
            assert (stats.groups_pruned, stats.frames_decoded) == (0, 301)
            assert list(store.all_records(
                "r1", predicate=ScanPredicate(operations={"wide299"})
            )) == [wide[299]]
            none = ScanStats()
            list(store.chains_for_run(
                "r1", predicate=ScanPredicate(operations={"absent"}), stats=none
            ))
            assert none.segments_pruned == 1
        finally:
            store.close()

    @pytest.mark.parametrize("functions, pruned", [(254, 1), (255, 0)])
    def test_overflow_marker_boundary(self, tmp_path, functions, pruned):
        wide = [
            make_record(chain="0a" * 16, seq=i, operation=f"wide{i}")
            for i in range(functions)
        ]
        narrow = [make_record(chain="0b" * 16, seq=0, operation="narrow")]
        store = store_around(tmp_path, sealed_bytes(tmp_path, wide + narrow))
        try:
            stats = ScanStats()
            assert list(store.chains_for_run(
                "r1", predicate=ScanPredicate(operations={"narrow"}), stats=stats
            )) == [("0b" * 16, rows_of(narrow))]
            assert stats.groups_pruned == pruned
            assert stats.frames_decoded == (1 if pruned else functions + 1)
        finally:
            store.close()

    def test_store_info_reports_the_map(self, store):
        (run,) = store.store_info()["runs"]
        (segment,) = run["segments"]
        assert segment["index"]["group_functions"] is True
        assert segment["index"]["functions"] == 6


class TestDamagedMap:
    """Byte-level damage to the extension: salvage or ignore, never lie."""

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        return sealed_bytes(tmp_path_factory.mktemp("good"), old_format_records())

    def check(self, tmp_path, data):
        """Open ``data`` as the run's only segment; every predicate must
        answer as brute force does, whatever state the reader ended in."""
        store = store_around(tmp_path, data)
        try:
            reader = only_reader(store)
            for predicate in FUNCTION_PREDICATES:
                chains, flat = brute(old_format_records(), predicate)
                assert list(store.chains_for_run("r1", predicate=predicate)) == chains
                assert sorted(
                    store.all_records("r1", predicate=predicate),
                    key=lambda r: r.event_seq,
                ) == flat
            return reader.partial, reader.fn_table is not None
        finally:
            store.close()

    @staticmethod
    def layout(data):
        """(extension offset, n_functions, n_chains) of a good file."""
        ext = data.rindex(b"FXFN")
        (n_functions,) = struct.unpack_from("<I", data, ext + 4)
        return ext, n_functions, 6

    def test_undamaged_baseline(self, tmp_path, good):
        assert self.check(tmp_path, good) == (False, True)

    def test_truncated_extension(self, tmp_path, good):
        ext, _n, _c = self.layout(good)
        trailer = good[-_TRAILER_SIZE:]
        body_len = len(good) - _TRAILER_SIZE - ext
        for keep in range(body_len):
            partial, has_map = self.check(tmp_path, good[:ext + keep] + trailer)
            # Cut inside the magic: the extension is simply absent; cut
            # anywhere later: the footer is corrupt, the frames salvage.
            assert (partial, has_map) == ((False, False) if keep < 4 else (True, False))

    @pytest.mark.parametrize("n_functions", [1 << 20, 0xFFFFFFFF])
    def test_table_count_past_the_file(self, tmp_path, good, n_functions):
        ext, _n, _c = self.layout(good)
        data = bytearray(good)
        struct.pack_into("<I", data, ext + 4, n_functions)
        assert self.check(tmp_path, bytes(data)) == (True, False)

    def test_table_count_slightly_off(self, tmp_path, good):
        # The rest of the extension then misparses; whatever it yields
        # must fail validation or still answer correctly.
        ext, n_functions, _c = self.layout(good)
        for off in set(range(n_functions + 4)) - {n_functions}:
            data = bytearray(good)
            struct.pack_into("<I", data, ext + 4, off)
            self.check(tmp_path, bytes(data))

    def test_group_counts_past_the_file(self, tmp_path, good):
        ext, n_functions, n_chains = self.layout(good)
        counts_off = ext + 8 + 8 * n_functions
        for gi in range(n_chains):
            data = bytearray(good)
            data[counts_off + gi] = 254
            assert self.check(tmp_path, bytes(data)) == (True, False)

    def test_zeroed_extension_body(self, tmp_path, good):
        # A zero-filled page parses (no functions, no indexes) and would
        # prune every function query; a group with no function is corrupt.
        ext, n_functions, n_chains = self.layout(good)
        body = len(good) - _TRAILER_SIZE - (ext + 4)
        data = good[:ext + 4] + bytes(body) + good[-_TRAILER_SIZE:]
        assert self.check(tmp_path, data) == (True, False)
        for gi in range(n_chains):
            data = bytearray(good)
            data[ext + 8 + 8 * n_functions + gi] = 0
            assert self.check(tmp_path, bytes(data)) == (True, False)

    def test_index_past_the_table(self, tmp_path, good):
        ext, n_functions, n_chains = self.layout(good)
        index_off = ext + 8 + 8 * n_functions + n_chains
        for gi in range(n_chains):
            for bad in (n_functions, 0xFFFF):
                data = bytearray(good)
                struct.pack_into("<H", data, index_off + 2 * gi, bad)
                assert self.check(tmp_path, bytes(data)) == (True, False)

    def test_table_id_past_the_dictionary(self, tmp_path, good):
        ext, _n, _c = self.layout(good)
        data = bytearray(good)
        struct.pack_into("<I", data, ext + 8, 0x7FFFFFFF)
        assert self.check(tmp_path, bytes(data)) == (True, False)

    def test_unknown_rank_width_code(self, tmp_path, good):
        footer_off = struct.unpack_from("<Q", good, len(good) - _TRAILER_SIZE)[0]
        data = bytearray(good)
        data[footer_off + 8] = 3
        assert self.check(tmp_path, bytes(data)) == (True, False)
