"""Schema v1 segments stay readable: open, scan, prune, recompact into v2.

The three ``data/v1_*.seg`` files were written by the last v1 tree's own
``SegmentWriter`` / ``SegmentStore.compact`` (the commit before record
format v2): a sealed segment (``FXTS`` + ``FXFN``, u32 ranks 0-39), a
spool (arrival base 40) and a spool cut mid-frame (arrival base 70, 11 of
its 20 frames left) — three processes on two hosts, one of them in CPU
mode, all four domains, collocated calls, oneway forks, semantics, an
event number past ``i32`` and a wall-clock jump that needs a wide frame.
``data/v1_expected.json`` is what that tree's ``load_ranked`` read back
from each: ``[rank, the 22 fields]`` pairs.

What v1 support consists of is ``SegmentReader.scan`` alone: a v1
segment is pruned whole by its footer or decoded whole and tested record
by record, its aggregates are folded from the rows it decodes, and a run
holding one compacts through rows, as every run does.
"""

import json
import os
import shutil

import pytest

from repro.core import CallKind, Domain, ProbeRecord, Site, TracingEvent
from repro.core.records import SITE_FIELDS, as_row
from repro.store import ScanPredicate, ScanStats, SegmentStore
from repro.store.query import (
    fold_operations,
    fold_population_stats,
    merge_operations,
    merge_population,
    segment_filter,
)
from repro.store.segment import SegmentReader, segment_info
from tests.helpers import rows_of

DATA = os.path.join(os.path.dirname(__file__), "data")
FILES = ("v1_sealed.seg", "v1_spool.seg", "v1_spool_cut.seg")


def expected_pairs(name):
    with open(os.path.join(DATA, "v1_expected.json")) as handle:
        rows = json.load(handle)[name]
    pairs = []
    for rank, fields in rows:
        fields["event"] = TracingEvent(fields["event"])
        fields["call_kind"] = CallKind(fields["call_kind"])
        fields["domain"] = Domain(fields["domain"])
        site = Site(**{field: fields.pop(field) for field in SITE_FIELDS})
        pairs.append((rank, ProbeRecord(site, **fields)))
    return pairs


def row_pairs(pairs):
    """``(rank, record)`` pairs as a scan yields them: ``(rank, row)``."""
    return [(rank, tuple(as_row(record))) for rank, record in pairs]


def scan_pairs(reader, predicate=None, stats=None):
    flt = None if predicate is None else segment_filter(reader, predicate)
    assert predicate is None or flt is not None
    return [
        (rank, row)
        for _cid, ranks, rows in reader.scan(flt, stats or ScanStats())
        for rank, row in zip(ranks, rows)
    ]


@pytest.fixture(params=FILES)
def v1(request):
    reader = SegmentReader(os.path.join(DATA, request.param))
    yield request.param, reader
    reader.close()


class TestReader:
    def test_opens_and_scans_to_exactly_the_records_v1_read(self, v1):
        name, reader = v1
        expected = expected_pairs(name)
        assert reader.schema_version == 1
        assert reader.partial is (name == "v1_spool_cut.seg")
        assert reader.record_count == len(expected)
        assert scan_pairs(reader) == row_pairs(expected)
        info = segment_info(reader)
        assert (info["schema_version"], info["sites"]) == (1, 0)

    def test_one_site_object_per_distinct_site_of_a_scan_unit(self, v1):
        _name, reader = v1
        for _cid, _ranks, rows in reader.scan(None, ScanStats()):
            by_value = {}
            for site, *_fields in rows:
                assert by_value.setdefault(site, site) is site

    def test_pruned_whole_by_a_disjoint_window_or_an_unknown_operation(self, v1):
        name, reader = v1
        if name != "v1_spool_cut.seg":  # a salvaged segment has no bounds left
            assert segment_filter(reader, ScanPredicate(ts_min=10**15)) is None
        assert segment_filter(reader, ScanPredicate(operations={"never"})) is None
        assert segment_filter(reader, ScanPredicate(chain_prefix="f")) is None

    @pytest.mark.parametrize("predicate", [
        ScanPredicate(interfaces={"Fx::Printer"}, operations={"op1", "op3"}),
        ScanPredicate(ts_min=10**12 + 5_000, ts_max=10**12 + 75_000),
        ScanPredicate(chain_prefix="0" * 31 + "3"),
        ScanPredicate(operations={"op2"}, ts_min=10**12),
    ])
    def test_answers_a_matching_predicate_record_by_record(self, v1, predicate):
        name, reader = v1
        wanted = [(k, r) for k, r in expected_pairs(name) if predicate.matches(r)]
        assert wanted
        stats = ScanStats()
        assert scan_pairs(reader, predicate, stats) == row_pairs(wanted)
        # No frame-level pushdown: every frame of a decoded unit is built.
        assert stats.frames_decoded >= stats.records_matched == len(wanted)

    def test_folds_the_records_it_decodes(self, v1):
        # No site table to fold frames by: the fold is its records' fold.
        name, reader = v1
        records = [record for _rank, record in expected_pairs(name)]
        chains = {}
        for record in records:
            chains.setdefault(record.chain_uuid, []).append(tuple(as_row(record)))
        fold = reader.fold(None, ScanStats(), anchors=True, threads=True)
        assert merge_operations([fold])[1] == fold_operations(chains.items())[1]
        assert {
            key: (op.records, op.timed, op.wall_sum, sorted(op.durations))
            for key, op in merge_operations([fold])[0].items()
        } == {
            key: (op.records, op.timed, op.wall_sum, sorted(op.durations))
            for key, op in fold_operations(chains.items())[0].items()
        }
        assert merge_population([fold]) == fold_population_stats(records)
        anchors = [r.wall_start if r.wall_start is not None else r.wall_end
                   for r in records]
        anchors = [a for a in anchors if a is not None]
        assert fold.bounds == (min(anchors), max(anchors))


class TestStore:
    @pytest.fixture
    def store(self, tmp_path):
        run_dir = tmp_path / "runs" / "r1"
        run_dir.mkdir(parents=True)
        for number, name in enumerate(FILES, start=1):
            kind = "sealed" if name == "v1_sealed.seg" else "spool"
            shutil.copy(os.path.join(DATA, name), run_dir / f"{number:06d}.{kind}.seg")
        (tmp_path / "repro-store.json").write_text(json.dumps(
            {"format": "repro-segment-store", "version": 1, "schema_version": 1}
        ))
        store = SegmentStore(str(tmp_path), auto_compact=0)
        yield store
        store.close()

    @staticmethod
    def all_expected():
        """Every file's pairs, in arrival order (ranks 0-80)."""
        pairs = [pair for name in FILES for pair in expected_pairs(name)]
        return sorted(pairs, key=lambda pair: pair[0])

    def test_a_v1_store_opens_and_answers(self, store):
        expected = [record for _rank, record in self.all_expected()]
        assert list(store.all_records("r1")) == expected
        (run,) = store.store_info()["runs"]
        assert [s["schema_version"] for s in run["segments"]] == [1, 1, 1]
        chains = {}
        for record in sorted(expected, key=lambda r: r.event_seq):
            chains.setdefault(record.chain_uuid, []).append(record)
        assert list(store.chains_for_run("r1")) == [
            (chain, rows_of(group)) for chain, group in sorted(chains.items())
        ]
        predicate = ScanPredicate(interfaces={"Fx::Spooler"})
        assert list(store.all_records("r1", predicate=predicate)) == [
            r for r in expected if predicate.matches(r)
        ]
        assert store.population_stats("r1")["calls"] == sum(
            r.event is TracingEvent.STUB_START for r in expected
        )

    def test_compacts_into_a_v2_sealed_segment_same_records_same_ranks(self, store):
        expected = self.all_expected()
        assert store.compact("r1") is True
        (reader,) = store._segments(store._run("r1"))
        assert (reader.schema_version, reader.sealed, reader.partial) == (2, True, False)
        assert sorted(scan_pairs(reader), key=lambda pair: pair[0]) == row_pairs(expected)
        info = segment_info(reader)
        assert info["schema_version"] == 2
        assert info["sites"] == len({record.site for _rank, record in expected})
        assert info["index"]["group_functions"] is True
        # ... and, a v2 segment now, it merges with a later spool.
        late = [r for _k, r in expected[:5]]
        store.insert_records("r1", late)
        assert store.compact("r1") is True
        assert list(store.all_records("r1")) == [r for _k, r in expected] + late
        with open(os.path.join(store.path, "repro-store.json")) as handle:
            assert json.load(handle)["schema_version"] == 2
