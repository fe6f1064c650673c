"""Unit tests for the declarative suite runner's moving parts.

Covers the pieces the committed suites rely on but don't isolate:
registry agreement between the config constants and the actual
implementations, grid expansion and validation, seed derivation, hook
behavior against live backends, and report assembly.
"""

import dataclasses
import json

import pytest

from repro.scenarios import (
    BACKEND_NAMES,
    CHECKERS,
    HOOK_KINDS,
    INVARIANT_NAMES,
    UNSUPPORTED_POLICIES,
    WORKLOAD_NAMES,
    WORKLOADS,
    FaultSpec,
    GridConfig,
    HookSpec,
    InvariantSpec,
    PolicySpec,
    ScenarioContext,
    SuiteConfig,
    SuiteError,
    WorkloadSpec,
    derive_seed,
    dump_yaml,
    expand_grid,
    load_suite,
    loads,
    run_scenario,
    run_suite,
)
from repro.scenarios.hooks import make_hook


def _suite(**overrides):
    base = dict(
        name="unit",
        seed=7,
        grids=(
            GridConfig(
                name="g",
                workloads=(WorkloadSpec("corba", {"style": "sync", "calls": 4}),),
                backends=("sqlite",),
                invariants=(InvariantSpec("loss_accounting"),),
            ),
        ),
    )
    base.update(overrides)
    return SuiteConfig(**base)


class TestRegistries:
    """The declarative names and the implementations cannot drift."""

    def test_every_workload_name_has_an_implementation(self):
        assert set(WORKLOAD_NAMES) == set(WORKLOADS)

    def test_every_hook_kind_constructs(self):
        for kind in HOOK_KINDS:
            params = {"scope": "a->b"} if kind == "windowed_delay" else {}
            hook = make_hook(HookSpec(kind, params=params))
            assert hook.spec.kind == kind

    def test_every_checker_is_a_registered_invariant(self):
        # deterministic_accounting is implemented by the executor (it
        # re-runs the scenario), so it is a name without a checker.
        assert set(CHECKERS) == set(INVARIANT_NAMES) - {"deterministic_accounting"}

    def test_unsupported_policies_reference_real_axes(self):
        for workload, cells in UNSUPPORTED_POLICIES.items():
            assert workload in WORKLOAD_NAMES
            for channel, threading in cells:
                PolicySpec(channel=channel, threading=threading)  # validates


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(SuiteError, match="unknown workload"):
            WorkloadSpec("nosuch")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SuiteError, match="unknown backend"):
            GridConfig(name="g", workloads=(WorkloadSpec("corba"),),
                       backends=("oracle",))

    def test_fault_rates_validated(self):
        with pytest.raises(SuiteError, match="unknown kind"):
            FaultSpec("f", rates={"melt": 0.5})
        with pytest.raises(SuiteError, match="out of"):
            FaultSpec("f", rates={"drop": 1.5})

    def test_collector_failover_needs_drain_failures(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("corba"),),
            hooks=(HookSpec("collector_failover"),),
        ),))
        with pytest.raises(SuiteError, match="collect_fail_attempts"):
            expand_grid(config)

    def test_windowed_delay_needs_scope(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("corba"),),
            hooks=(HookSpec("windowed_delay"),),
        ),))
        with pytest.raises(SuiteError, match="scope"):
            expand_grid(config)

    def test_embedded_mux_per_connection_rejected(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("embedded"),),
            policies=(PolicySpec(channel="mux", threading="per-connection"),),
        ),))
        with pytest.raises(SuiteError, match="does not support"):
            expand_grid(config)

    def test_duplicate_grid_names_rejected(self):
        grid = GridConfig(name="g", workloads=(WorkloadSpec("corba"),))
        with pytest.raises(SuiteError, match="duplicate grid names"):
            SuiteConfig(name="s", grids=(grid, grid))


class TestExpansion:
    def test_nested_axis_order(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("corba", {"style": "sync"}),
                       WorkloadSpec("corba", {"style": "oneway"}),),
            backends=("sqlite", "segment"),
            faults=(FaultSpec("a"), FaultSpec("b")),
        ),))
        ids = [s.scenario_id for s in expand_grid(config)]
        # workload slowest, fault fastest
        assert ids[0].endswith("|a") and ids[1].endswith("|b")
        assert ids[0].split("|")[1] == "sqlite" and ids[2].split("|")[1] == "segment"
        assert len(ids) == 8
        assert [s.index for s in expand_grid(config)] == list(range(8))

    def test_seed_derivation_is_stable_and_spread(self):
        assert derive_seed(2003, 0) == derive_seed(2003, 0)
        seeds = {derive_seed(2003, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(2003, 0) != derive_seed(2004, 0)

    def test_seed_override_rederives_every_cell(self):
        config = _suite()
        a = expand_grid(config)
        b = expand_grid(config, seed=999)
        assert [s.scenario_id for s in a] == [s.scenario_id for s in b]
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_hooks_scoped_by_fault_name(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("corba"),),
            faults=(FaultSpec("quiet"),
                    FaultSpec("outage", collect_fail_attempts=2)),
            hooks=(HookSpec("collector_failover", when_faults=("outage",)),),
        ),))
        by_fault = {s.fault.name: s.hooks for s in expand_grid(config)}
        assert by_fault["quiet"] == ()
        assert [h.kind for h in by_fault["outage"]] == ["collector_failover"]


class TestYaml:
    def test_round_trip(self):
        config = _suite()
        assert loads(dump_yaml(config)) == config

    def test_malformed_yaml_raises_suite_error(self):
        with pytest.raises(SuiteError, match="invalid suite YAML"):
            loads("{ name: [unclosed ")
        with pytest.raises(SuiteError, match="mapping with a 'name'"):
            loads("- just\n- a\n- list\n")

    def test_load_suite_reads_files(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(dump_yaml(_suite()))
        assert load_suite(str(path)) == _suite()


class TestExecutor:
    def test_single_scenario_runs_and_reports(self):
        (spec,) = expand_grid(_suite())
        outcome = run_scenario(spec)
        assert outcome.passed
        assert outcome.scenario_id == spec.scenario_id
        assert outcome.accounting["results"] == [0, 2, 4, 6]
        assert [r.name for r in outcome.invariants] == ["loss_accounting"]

    def test_only_filter_and_no_match(self):
        config = _suite()
        report = run_suite(config, only="corba")
        assert len(report.outcomes) == 1
        with pytest.raises(SuiteError, match="no scenarios"):
            run_suite(config, only="nope")

    def test_report_json_is_stable_across_workers(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("corba", {"style": "sync", "calls": 4}),
                       WorkloadSpec("corba", {"style": "oneway", "calls": 4}),),
            backends=("sqlite", "segment"),
            invariants=(InvariantSpec("loss_accounting"),
                        InvariantSpec("streaming_batch_equivalence"),),
        ),))
        serial = run_suite(config, workers=1).to_json()
        pooled = run_suite(config, workers=3).to_json()
        assert serial == pooled
        parsed = json.loads(serial)
        assert parsed["passed"] is True
        assert parsed["scenarios"] == 4

    def test_failing_invariant_fails_the_scenario(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("corba", {"style": "sync", "calls": 4}),),
            invariants=(InvariantSpec("latency_slo",
                                      {"max_p95_ms": 0.000001}),),
        ),))
        report = run_suite(config)
        assert not report.passed
        assert [o.scenario_id for o in report.failures()] == [
            "g/corba(calls=4,style=sync)|sqlite|mux/per-connection|none"
        ]

    @pytest.mark.parametrize("fault, timeout", [
        (FaultSpec("none"), 5.0),
        (FaultSpec("dup", rates={"duplicate": 0.3}), 5.0),
        (FaultSpec("delay", rates={"delay": 0.2, "duplicate": 0.1}), 5.0),
        (FaultSpec("off", rates={"drop": 0.0, "duplicate": 0.2}), 5.0),
        (FaultSpec("loss", record_loss_rate=0.5, collect_fail_attempts=2), 5.0),
        (FaultSpec("drop", rates={"drop": 0.1, "duplicate": 0.1}), 0.1),
        (FaultSpec("reset", rates={"reset": 0.05}), 0.1),
        (FaultSpec("crash", crash_calls={"add": 2}), 0.1),
    ], ids=lambda v: v.name if isinstance(v, FaultSpec) else None)
    def test_only_a_fault_that_can_swallow_a_message_shortens_the_timeout(
        self, fault, timeout
    ):
        (spec,) = expand_grid(_suite())
        ctx = ScenarioContext(
            spec=dataclasses.replace(spec, fault=fault),
            injector=None, network=None, clock=None,
        )
        assert ctx.request_timeout == timeout


class TestHooks:
    def _outcome(self, workload, fault, hook, backend="sqlite"):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(workload,),
            backends=(backend,),
            faults=(fault,) if fault is not None else (),
            hooks=(hook,),
        ),))
        report = run_suite(config)
        (outcome,) = report.outcomes
        return outcome

    def test_compaction_hook_verifies_scan_identity(self):
        outcome = self._outcome(
            WorkloadSpec("corba", {"style": "sync", "calls": 4}),
            None, HookSpec("compaction"), backend="segment",
        )
        (event,) = outcome.hook_events
        assert event["hook"] == "compaction"
        # One collection commits sealed: nothing merges in the store, and
        # the scan is held against a forced merge of the same records.
        assert event["already_sealed"] and not event["compacted"]
        assert event["identical_scan"]
        assert outcome.passed

    def test_compaction_hook_merges_a_run_of_several_segments(self, tmp_path):
        from repro.store import SegmentStore

        from tests.unit.store.test_segment_store import seeded_records

        store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
        try:
            for lo in (0, 60):  # two collections: two sealed segments
                with store.bulk_ingest():
                    store.insert_records("r1", seeded_records()[lo:lo + 60])
            hook = make_hook(HookSpec("compaction"))
            hook.after_collect(store, "r1")
            (event,) = hook.events
            assert event["compacted"] and not event["already_sealed"]
            assert event["identical_scan"] and not hook.failed
            assert store.compaction_state("r1")["compacted"]
        finally:
            store.close()

    def test_compaction_hook_catches_a_commit_unlike_a_merge(self, tmp_path, monkeypatch):
        """``identical_scan`` is not vacuous on a sealed run: a commit that
        breaks an event-number tie the other way round is told apart from
        the merge of the same records."""
        from repro.store import SegmentStore
        from repro.store import store as store_module

        from tests.unit.store.test_segment_codec import make_record

        real = store_module.SegmentStore._publish_sealed

        def reversed_commit(store, run, number, records, ranks, base=0, replaces=None):
            if replaces is None:  # a commit; a merge has sources it replaces
                records, ranks = records[::-1], ranks[::-1]
            return real(store, run, number, records, ranks, base, replaces)

        monkeypatch.setattr(store_module.SegmentStore, "_publish_sealed", reversed_commit)
        store = SegmentStore(str(tmp_path / "store"), auto_compact=0)
        try:
            with store.bulk_ingest():
                store.insert_records("r1", [
                    make_record(seq=1, thread_id=1), make_record(seq=1, thread_id=2),
                ])
            hook = make_hook(HookSpec("compaction"))
            hook.after_collect(store, "r1")
            (event,) = hook.events
            assert event["already_sealed"] and not event["identical_scan"]
            assert hook.failed
        finally:
            store.close()

    def test_compaction_hook_skips_sqlite(self):
        outcome = self._outcome(
            WorkloadSpec("corba", {"style": "sync", "calls": 4}),
            None, HookSpec("compaction"), backend="sqlite",
        )
        (event,) = outcome.hook_events
        assert event["skipped"]

    def test_collector_failover_records_primary_failure(self):
        outcome = self._outcome(
            WorkloadSpec("corba", {"style": "sync", "calls": 4}),
            FaultSpec("outage", collect_fail_attempts=2),
            HookSpec("collector_failover"),
        )
        (event,) = outcome.hook_events
        assert event["hook"] == "collector_failover"
        assert event["primary_failed_drains"]
        assert event["primary_uncollected"] > 0
        assert outcome.passed  # standby drained everything

    def test_windowed_delay_emits_window(self):
        outcome = self._outcome(
            WorkloadSpec("corba", {"style": "sync", "calls": 8}),
            FaultSpec("windowed"),
            HookSpec("windowed_delay",
                     params={"scope": "client->server", "width": 3}),
        )
        (event,) = outcome.hook_events
        assert event["hook"] == "windowed_delay"
        assert event["width"] == 3
        assert event["window_start"] >= 4  # after warmup
        assert outcome.passed


class TestAsyncioPolicyAxis:
    """The asyncio channel/threading axes: accepted, gated, runnable."""

    def test_asyncio_policy_spec_validates(self):
        spec = PolicySpec(channel="asyncio", threading="asyncio")
        assert spec.label == "asyncio/asyncio"

    def test_asyncio_corba_grid_expands(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("corba", {"style": "sync", "calls": 4}),),
            policies=(
                PolicySpec(channel="asyncio", threading="asyncio"),
                PolicySpec(channel="asyncio", threading="pool", pool_threads=2),
            ),
            invariants=(InvariantSpec("loss_accounting"),),
        ),))
        scenarios = expand_grid(config)
        assert {s.policy.label for s in scenarios} == {
            "asyncio/asyncio", "asyncio/pool"
        }

    def test_embedded_asyncio_rejected(self):
        for channel, threading in (
            ("asyncio", "asyncio"),
            ("asyncio", "pool"),
            ("mux", "asyncio"),
        ):
            config = _suite(grids=(GridConfig(
                name="g",
                workloads=(WorkloadSpec("embedded"),),
                policies=(PolicySpec(channel=channel, threading=threading),),
            ),))
            with pytest.raises(SuiteError, match="does not support"):
                expand_grid(config)

    def test_asyncio_corba_cell_runs_and_holds_invariants(self):
        config = _suite(grids=(GridConfig(
            name="g",
            workloads=(WorkloadSpec("corba", {"style": "sync", "calls": 6}),),
            policies=(PolicySpec(channel="asyncio", threading="asyncio"),),
            invariants=(InvariantSpec("loss_accounting"),),
        ),))
        (scenario,) = expand_grid(config)
        outcome = run_scenario(scenario)
        assert outcome.passed, [r.name for r in outcome.invariants if not r.passed]
        assert not outcome.accounting["collection"]["failed_drains"]
        assert outcome.accounting["stats"]["chains"] > 0
