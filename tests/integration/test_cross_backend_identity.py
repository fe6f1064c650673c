"""Cross-backend identity: SQLite and the segment store are interchangeable.

The acceptance contract of the storage seam: for the same captured
records, ``reconstruct()`` — nodes, chains, annotations, serialized
JSON, loss accounting — must be bit-identical whichever backend held the
run, including under record loss and for the sharded parallel analyzer.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    CpuAnalysis,
    build_ccsg,
    dscg_to_json,
    loss_report,
    reconstruct,
    reconstruct_sharded,
    render_ccsg_xml,
)
from repro.collector import LogCollector
from repro.store import MonitoringDatabase, SegmentStore


def _embedded_processes():
    from repro.apps.embedded import EmbeddedConfig, EmbeddedSystem

    system = EmbeddedSystem(EmbeddedConfig())
    system.run(total_calls=600, roots=6)
    system.quiesce()
    return system


@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    """One embedded-system capture collected into both backends."""
    system = _embedded_processes()
    try:
        sqlite = MonitoringDatabase()
        segment = SegmentStore(
            str(tmp_path_factory.mktemp("xbackend") / "store"), auto_compact=0
        )
        # snapshot first (drain=False) so the second collector sees the
        # very same buffers; run ids pinned so the runs are comparable.
        LogCollector(sqlite).collect(
            system.processes, run_id="xb", description="x", drain=False
        )
        LogCollector(backend=segment).collect(
            system.processes, run_id="xb", description="x"
        )
    finally:
        system.shutdown()
    yield sqlite, segment
    sqlite.close()
    segment.close()


class TestCrossBackendIdentity:
    def test_raw_queries_identical(self, backends):
        sqlite, segment = backends
        assert segment.record_count("xb") == sqlite.record_count("xb") > 0
        assert segment.unique_chain_uuids("xb") == sqlite.unique_chain_uuids("xb")
        assert list(segment.chains_for_run("xb")) == list(sqlite.chains_for_run("xb"))
        assert list(segment.all_records("xb")) == list(sqlite.all_records("xb"))
        assert segment.population_stats("xb") == sqlite.population_stats("xb")

    def test_run_metadata_identical(self, backends):
        sqlite, segment = backends
        (meta_a,) = sqlite.runs()
        (meta_b,) = segment.runs()
        assert meta_a == meta_b
        assert meta_a.extra["loss"] == meta_b.extra["loss"]
        assert meta_a.extra["schema_version"] == meta_b.extra["schema_version"]

    def test_reconstruct_identical(self, backends):
        sqlite, segment = backends
        dscg_a = reconstruct(sqlite, "xb")
        dscg_b = reconstruct(segment, "xb")
        assert dscg_a.stats() == dscg_b.stats()
        assert dscg_to_json(dscg_a) == dscg_to_json(dscg_b)
        assert loss_report(dscg_a).to_dict() == loss_report(dscg_b).to_dict()
        xml_a = render_ccsg_xml(build_ccsg(dscg_a, CpuAnalysis(dscg_a)), description="xb")
        xml_b = render_ccsg_xml(build_ccsg(dscg_b, CpuAnalysis(dscg_b)), description="xb")
        assert xml_a == xml_b

    def test_sharded_segment_equals_serial_sqlite(self, backends, tmp_path):
        sqlite, segment = backends
        serial = dscg_to_json(reconstruct(sqlite, "xb"))
        # The same records as two spools: the sharded pass compacts a run
        # of several segments before its shards read byte ranges.
        spools = SegmentStore(str(tmp_path / "spools"), auto_compact=0)
        (meta,) = sqlite.runs()
        spools.create_run(meta)
        records = list(sqlite.all_records("xb"))
        half = len(records) // 2
        spools.insert_records("xb", records[:half])
        spools.insert_records("xb", records[half:])
        assert spools.compaction_state("xb")["segments"] == 2
        try:
            for store in (segment, spools):
                for workers in (2, 4):
                    sharded = reconstruct_sharded(store, "xb", workers=workers)
                    assert dscg_to_json(sharded) == serial
                # The run is one sealed segment now: the fast path agrees too.
                assert store.compaction_state("xb")["compacted"]
                assert dscg_to_json(reconstruct(store, "xb")) == serial
        finally:
            spools.close()


def _identity_predicates(sqlite):
    """Predicates derived from the capture itself, so every pushdown
    level (dictionary, chain index, time bounds) actually engages."""
    from repro.store import ScanPredicate

    records = list(sqlite.all_records("xb"))
    operations = sorted({r.operation for r in records})
    interfaces = sorted({r.interface for r in records})
    anchors = sorted(
        r.wall_start if r.wall_start is not None else r.wall_end
        for r in records
        if r.wall_start is not None or r.wall_end is not None
    )
    chains = sqlite.unique_chain_uuids("xb")
    predicates = [
        ScanPredicate(operations=frozenset({operations[0]})),
        ScanPredicate(interfaces=frozenset({interfaces[-1]})),
        ScanPredicate(chain_prefix=chains[0][:6]),
        ScanPredicate(operations=frozenset({"no-such-operation"})),
    ]
    if anchors:  # capture mode recorded wall timestamps
        mid = anchors[len(anchors) // 2]
        predicates += [
            ScanPredicate(ts_min=anchors[0], ts_max=mid),
            ScanPredicate(ts_min=mid),
            ScanPredicate(
                operations=frozenset(operations[:2]),
                interfaces=frozenset(interfaces),
                ts_max=mid,
            ),
        ]
    else:
        # Anchor-less records must fall out of any time window — on
        # both backends identically.
        predicates.append(ScanPredicate(ts_min=0))
    return predicates


class TestCrossBackendPredicates:
    """Predicated scans are bit-identical across backends.

    The segment store answers via pushdown (footer pruning + integer-id
    frame filters), SQLite via WHERE clauses over its indexes — the
    results must be indistinguishable, spooled or compacted.
    """

    def test_predicated_scans_identical(self, backends):
        sqlite, segment = backends
        for state in ("as-is", "compacted"):
            for predicate in _identity_predicates(sqlite):
                assert (
                    list(segment.chains_for_run("xb", predicate=predicate))
                    == list(sqlite.chains_for_run("xb", predicate=predicate))
                ), (state, predicate)
                assert (
                    list(segment.all_records("xb", predicate=predicate))
                    == list(sqlite.all_records("xb", predicate=predicate))
                ), (state, predicate)
            segment.compact("xb")

    def test_predicated_reconstruct_identical(self, backends):
        from repro.store import ScanPredicate

        sqlite, segment = backends
        operations = sorted({r.operation for r in sqlite.all_records("xb")})
        predicate = ScanPredicate(operations=frozenset(operations[:-1]))
        dscg_a = reconstruct(sqlite, "xb", predicate=predicate)
        dscg_b = reconstruct(segment, "xb", predicate=predicate)
        assert dscg_to_json(dscg_a) == dscg_to_json(dscg_b)
        # Sharded predicated reconstruction merges to the same DSCG.
        sharded = reconstruct_sharded(
            segment, "xb", workers=3, predicate=predicate
        )
        assert dscg_to_json(sharded) == dscg_to_json(dscg_a)

    def test_run_query_identical(self, backends):
        from repro.store import run_query

        sqlite, segment = backends
        for predicate in _identity_predicates(sqlite):
            result_a = run_query(sqlite, "xb", predicate)
            result_b = run_query(segment, "xb", predicate)
            result_b.pop("scan", None)  # pruning stats are backend-specific
            result_a.pop("scan", None)
            assert result_a == result_b

    def test_predicated_population_stats_identical(self, backends):
        """population_stats honors predicates, identically on both
        backends, spooled and compacted (folded from a filtered scan on
        the segment store, a WHERE clause on SQLite)."""
        sqlite, segment = backends
        for state in ("as-is", "compacted"):
            for predicate in _identity_predicates(sqlite):
                assert segment.population_stats(
                    "xb", predicate=predicate
                ) == sqlite.population_stats("xb", predicate=predicate), (
                    state,
                    predicate,
                )
            segment.compact("xb")

    def test_predicated_population_stats_subset_of_full(self, backends):
        from repro.store import ScanPredicate

        sqlite, segment = backends
        full = sqlite.population_stats("xb")
        operations = sorted({r.operation for r in sqlite.all_records("xb")})
        narrowed = ScanPredicate(operations=frozenset(operations[:1]))
        for backend in (sqlite, segment):
            stats = backend.population_stats("xb", predicate=narrowed)
            assert 0 < stats["calls"] < full["calls"]
            # one operation name, possibly on several interfaces
            assert 0 < stats["unique_methods"] <= full["unique_interfaces"]
            empty = backend.population_stats(
                "xb", predicate=ScanPredicate(operations=frozenset({"nope"}))
            )
            assert all(value == 0 for value in empty.values())
            assert set(empty) == set(full)


# ----------------------------------------------------------------------
# Faulted and lossy captures, via the declarative suite runner
#
# suites/cross_backend.yaml declares the scenario loops that used to be
# hand-rolled here: two-process CORBA under drop/duplicate/reorder and a
# lossy embedded-system capture, each run on BOTH backends with the
# cross_backend_identity invariant mirroring the capture into the other
# backend and asserting the full analyzer surface matches bit-for-bit.

SUITE_PATH = Path(__file__).resolve().parents[2] / "suites" / "cross_backend.yaml"


@pytest.fixture(scope="module")
def xb_suite_report():
    from repro.scenarios import load_suite, run_suite

    return run_suite(load_suite(str(SUITE_PATH)), workers=4)


def _xb_scenario_ids():
    from repro.scenarios import expand_grid, load_suite

    return [s.scenario_id for s in expand_grid(load_suite(str(SUITE_PATH)))]


class TestCrossBackendSuite:
    """The committed cross-backend grid holds on every cell."""

    @pytest.mark.parametrize("scenario_id", _xb_scenario_ids())
    def test_scenario_identical_across_backends(self, xb_suite_report, scenario_id):
        (outcome,) = [
            o for o in xb_suite_report.outcomes if o.scenario_id == scenario_id
        ]
        failed = [r.name for r in outcome.invariants if not r.passed]
        assert outcome.passed, f"{scenario_id}: failed invariants {failed}"

    def test_identity_checks_cover_analyzer_surface(self, xb_suite_report):
        """Every cell's identity invariant compared the whole surface:
        raw scans, predicated scans, stats, DSCG JSON, loss report and
        CCSG XML — not some subset."""
        for outcome in xb_suite_report.outcomes:
            (identity,) = [
                r for r in outcome.invariants if r.name == "cross_backend_identity"
            ]
            checks = identity.details["checks"]
            assert {
                "record_count",
                "chain_uuids",
                "arrival_stream",
                "chain_groups",
                "population_stats",
                "predicated_scans",
                "predicated_population_stats",
                "dscg_json",
                "loss_report",
                "ccsg_xml",
            } <= set(checks)
            assert all(checks.values()), (outcome.scenario_id, checks)

    def test_grid_spans_both_backends_and_faults(self, xb_suite_report):
        backends_seen = {o.axes["backend"] for o in xb_suite_report.outcomes}
        faults_seen = {o.axes["fault"] for o in xb_suite_report.outcomes}
        assert backends_seen == {"sqlite", "segment"}
        assert {"drop", "duplicate", "reorder", "lossy"} <= faults_seen

    def test_lossy_cells_account_for_loss(self, xb_suite_report):
        lossy = [
            o for o in xb_suite_report.outcomes if o.axes["fault"] == "lossy"
        ]
        assert lossy
        for outcome in lossy:
            assert outcome.accounting["faults"]["by_kind"].get("record_loss")
            assert outcome.accounting["collection"]["records_lost_in_delivery"] > 0
