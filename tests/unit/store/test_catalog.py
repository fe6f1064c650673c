"""RunCatalog: cached summaries, cross-run queries, TTL downsampling.

Determinism is the load-bearing property: a cross-run query must keep
answering (at histogram resolution) after retention replaced old runs'
segments with their summaries, and must fold a run's operations exactly
as ``run_query`` does.
"""

import json
import os

import pytest

from repro.core import RunMetadata
from repro.store import (
    RetentionPolicy,
    RunCatalog,
    ScanPredicate,
    SegmentStore,
    run_query,
)

from tests.unit.store.test_segment_codec import make_record


def run_records(offset, count=90):
    """One run's records: 3 chains, 3 operations, distinct durations."""
    records = []
    for i in range(count):
        start = 10**12 + offset * 10**9 + 1000 * i
        records.append(make_record(
            chain=f"{offset:02x}{i % 3:030x}", seq=i,
            operation=f"op{i % 3}",
            wall_start=start, wall_end=start + 100 * (i % 3 + 1) + offset,
        ))
    return records


@pytest.fixture
def store(tmp_path):
    store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
    for n, run_id in enumerate(["run-a", "run-b", "run-c"]):
        store.create_run(RunMetadata(run_id=run_id))
        with store.bulk_ingest():
            store.insert_records(run_id, run_records(offset=n))
        # Distinct, strictly increasing meta.json mtimes: run-a is the
        # oldest. (Real deployments get this for free from the clock.)
        meta = os.path.join(store.path, "runs", run_id, "meta.json")
        os.utime(meta, (1_000_000 + 100 * n, 1_000_000 + 100 * n))
    yield store
    store.close()


@pytest.fixture
def catalog(store):
    return RunCatalog(store)


class TestSummaries:
    def test_summary_built_and_cached(self, catalog, store):
        summary = catalog.summary("run-a")
        assert summary.records == 90
        assert summary.chains == 3
        assert summary.ts_min == 10**12
        assert len(summary.operations) == 3
        path = os.path.join(store.path, "runs", "run-a", "summary.json")
        assert os.path.exists(path)
        # Cached: identical payload on re-read.
        assert catalog.summary("run-a").to_dict() == summary.to_dict()

    def test_summary_invalidated_by_growth(self, catalog, store):
        before = catalog.summary("run-b")
        store.insert_records("run-b", [make_record(chain="ee" * 16, seq=999,
                                                   operation="op0")])
        after = catalog.summary("run-b")
        assert after.records == before.records + 1

    def test_run_ids_age_ordered(self, catalog):
        assert catalog.run_ids() == ["run-a", "run-b", "run-c"]
        assert catalog.run_ids(last_n=2) == ["run-b", "run-c"]


class TestCrossRunQueries:
    @pytest.mark.parametrize("predicate", [
        None, ScanPredicate(operations=frozenset({"op1", "op2"})),
    ], ids=["all", "two-operations"])
    def test_one_run_folds_as_run_query_does(self, catalog, store, predicate):
        single = run_query(store, "run-b", predicate)["operations"]
        across = catalog.query(predicate, run_ids=["run-b"]).operations
        assert list(across) == list(single) and single
        for key, row in single.items():
            # Same fold, two documented shapes: ``count`` inside
            # ``wall_ns`` here, ``timed`` beside it there.
            wall = dict(row["wall_ns"])
            assert across[key] == {
                "records": row["records"], "timed": wall.pop("count"),
                "wall_ns": wall,
            }

    def test_exact_quantiles_over_live_runs(self, catalog):
        result = catalog.query(ScanPredicate(operations=frozenset({"op2"})))
        assert result.quantile_source == "exact"
        # op2 durations per run n: 300 + n, 30 records each.
        row = result.operations["M::I::op2"]
        assert row["records"] == 90
        assert row["wall_ns"]["min"] == 300
        assert row["wall_ns"]["max"] == 302
        assert row["wall_ns"]["p50"] == 301

    def test_last_n_selects_newest(self, catalog):
        result = catalog.query(last_n=1)
        assert [row["run_id"] for row in result.runs] == ["run-c"]
        assert result.records == 90

    def test_time_window_prunes_runs(self, catalog):
        # Only run-b's window (offset 1 → anchors around 10**12 + 10**9).
        result = catalog.query(ScanPredicate(
            ts_min=10**12 + 10**9, ts_max=10**12 + 2 * 10**9 - 1
        ))
        per_run = {row["run_id"]: row["records"] for row in result.runs}
        assert per_run == {"run-a": 0, "run-b": 90, "run-c": 0}


class TestLifecycle:
    def test_downsample_preserves_query_answers(self, catalog, store):
        exact = catalog.query(ScanPredicate(operations=frozenset({"op0"})))
        catalog.downsample_run("run-a")
        assert store.record_count("run-a") == 0  # segments gone
        after = catalog.query(ScanPredicate(operations=frozenset({"op0"})))
        assert after.quantile_source == "histogram"
        assert after.records == exact.records
        row_exact = exact.operations["M::I::op0"]
        row_after = after.operations["M::I::op0"]
        # Counts and extrema are exact even from summaries; quantiles
        # come back at log2 resolution (bin upper bound ≥ true value).
        assert row_after["records"] == row_exact["records"]
        assert row_after["wall_ns"]["min"] == row_exact["wall_ns"]["min"]
        assert row_after["wall_ns"]["max"] == row_exact["wall_ns"]["max"]
        assert row_after["wall_ns"]["p99"] >= row_exact["wall_ns"]["p99"]
        assert row_after["wall_ns"]["p99"] <= 2 * row_exact["wall_ns"]["p99"]

    def test_downsample_is_idempotent(self, catalog, store):
        first = catalog.downsample_run("run-a")
        again = catalog.downsample_run("run-a")
        assert first.downsampled and again.downsampled
        assert again.records == first.records

    def test_chain_prefix_skips_downsampled_runs(self, catalog):
        catalog.downsample_run("run-a")
        result = catalog.query(ScanPredicate(chain_prefix="00"))
        assert [row["run_id"] for row in result.runs] == ["run-b", "run-c"]
        assert [skip["run_id"] for skip in result.skipped] == ["run-a"]

    def test_retention_by_max_runs(self, catalog, store):
        report = catalog.apply_retention(RetentionPolicy(max_runs=2))
        assert report["downsampled"] == ["run-a"]
        assert report["kept_full"] == 2
        assert store.record_count("run-a") == 0
        assert store.record_count("run-b") == 90

    def test_retention_by_ttl(self, catalog):
        # mtimes are 1_000_000 / 1_000_100 / 1_000_200; a TTL of 150s at
        # "now" = 1_000_250 expires run-a only.
        report = catalog.apply_retention(
            RetentionPolicy(ttl_seconds=150), now=1_000_250
        )
        assert report["downsampled"] == ["run-a"]

    def test_retention_survives_restart(self, catalog, store, tmp_path):
        catalog.apply_retention(RetentionPolicy(max_runs=1))
        store.close()
        reopened = SegmentStore(str(tmp_path / "store"), auto_compact=0)
        try:
            result = RunCatalog(reopened).query()
            assert result.records == 270
            sources = {row["run_id"]: row["source"] for row in result.runs}
            assert sources == {"run-a": "summary", "run-b": "summary",
                               "run-c": "scan"}
        finally:
            reopened.close()

    def test_compact_all_runs(self, catalog, store):
        # A committed collection is sealed already; only a run that grew
        # since has anything to merge.
        store.insert_records("run-b", [make_record(chain="bb" * 16, seq=1)])
        report = store.compact_all()
        assert report == {"run-a": False, "run-b": True, "run-c": False}
        for run_id in report:
            assert store.compaction_state(run_id)["compacted"]

    def test_catalog_info(self, catalog):
        catalog.summary("run-a")
        catalog.downsample_run("run-b")
        info = catalog.catalog_info()
        assert info["count"] == 3
        by_id = {row["run_id"]: row for row in info["runs"]}
        assert by_id["run-a"]["summary_cached"] is True
        assert by_id["run-a"]["downsampled"] is False
        assert by_id["run-b"]["downsampled"] is True
        assert by_id["run-c"]["summary_cached"] is False

    def test_catalog_info_is_json(self, catalog):
        catalog.summaries()
        json.dumps(catalog.catalog_info())
