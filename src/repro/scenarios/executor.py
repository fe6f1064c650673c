"""The suite executor: expand, run, check, report.

``run_suite`` expands a :class:`SuiteConfig` into its deterministic
scenario grid, executes scenarios over a bounded worker pool, evaluates
every registered invariant checker against every run, and assembles a
machine-readable :class:`SuiteReport`.

Determinism contract: the report's JSON is **byte-identical** across
executions of the same suite file with the same seed — regardless of
worker count. Everything embedded in it is derived from seeded plans,
virtual clocks and canonical (sorted) aggregations; wall-clock readings
and filesystem paths never enter the report. CI runs the committed
smoke grid twice and diffs the two reports.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.analysis import loss_report, reconstruct
from repro.collector import LogCollector, MonitoringDatabase
from repro.faults import FaultInjector
from repro.platform import VirtualClock
from repro.scenarios.config import (
    ScenarioSpec,
    SuiteConfig,
    SuiteError,
    expand_grid,
)
from repro.scenarios.hooks import make_hook
from repro.scenarios.invariants import (
    CHECKERS,
    InvariantResult,
    ScenarioState,
)
from repro.scenarios.workloads import WORKLOADS, ScenarioContext
from repro.store import SegmentStore

#: Run id every scenario collects under (fresh backend per execution).
SCENARIO_RUN_ID = "scenario"
#: Report schema version (bump when the JSON shape changes).
REPORT_VERSION = 1


@dataclass
class ScenarioOutcome:
    """One scenario's row in the suite report."""

    index: int
    scenario_id: str
    seed: int
    axes: dict
    passed: bool
    invariants: list
    hook_events: list
    accounting: dict

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "scenario_id": self.scenario_id,
            "seed": self.seed,
            "axes": self.axes,
            "passed": self.passed,
            "invariants": [r.to_dict() for r in self.invariants],
            "hook_events": self.hook_events,
            "accounting": self.accounting,
        }


@dataclass
class SuiteReport:
    """The machine-readable result of one suite execution."""

    suite: str
    description: str
    seed: int
    outcomes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def failures(self) -> list:
        return [o for o in self.outcomes if not o.passed]

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "suite": self.suite,
            "description": self.description,
            "seed": self.seed,
            "scenarios": len(self.outcomes),
            "passed": self.passed,
            "failed_scenarios": [o.scenario_id for o in self.failures()],
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self, indent: int | None = 2) -> str:
        # sort_keys + no timestamps/paths anywhere == byte-identical
        # reports for identical (suite, seed) runs; CI diffs two of them.
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Single-scenario execution


class _Execution:
    """One live run of a scenario: backend + state, closable."""

    def __init__(self, state: ScenarioState, hooks: list, workdir: str | None):
        self.state = state
        self.hooks = hooks
        self.workdir = workdir

    def close(self) -> None:
        try:
            self.state.backend.close()
        finally:
            if self.workdir is not None:
                shutil.rmtree(self.workdir, ignore_errors=True)


def _make_backend(kind: str, base_dir: str | None):
    """A fresh scenario-private backend; segment stores live in a
    throwaway directory (paths never reach the report)."""
    if kind == "sqlite":
        return MonitoringDatabase(), None
    workdir = tempfile.mkdtemp(prefix="repro-suite-", dir=base_dir)
    return SegmentStore(workdir, auto_compact=0), workdir


def _mirror_factory(spec: ScenarioSpec, base_dir: str | None, owned: list):
    """Factory for the *other* backend kind (cross-backend invariant)."""

    def make():
        other = "segment" if spec.backend == "sqlite" else "sqlite"
        backend, workdir = _make_backend(other, base_dir)
        if workdir is not None:
            owned.append(workdir)
        return backend

    return make


def _execute_scenario(spec: ScenarioSpec, base_dir: str | None) -> _Execution:
    """Run one scenario end to end: workload, hooks, collection,
    canonical accounting. Invariants are evaluated by the caller."""
    hooks = [make_hook(hook_spec) for hook_spec in spec.hooks]
    collectors = [hook for hook in hooks if hook.is_collector]
    if len(collectors) > 1:
        raise SuiteError(
            f"{spec.scenario_id}: at most one collection hook per scenario"
        )

    plan = spec.fault.to_plan(spec.seed)
    for hook in hooks:
        plan = hook.wrap_plan(plan)
    injector = FaultInjector(plan)
    ctx = ScenarioContext(
        spec=spec,
        injector=injector,
        network=injector.network(),
        clock=VirtualClock(),
        hooks=hooks,
    )

    harness = WORKLOADS[spec.workload.name](ctx)
    backend = workdir = None
    try:
        # Delivery faults apply uniformly: every process's probe->collector
        # path goes lossy (a plan without delivery faults passes through).
        for process in harness.processes:
            injector.lossy_delivery(process)

        backend, workdir = _make_backend(spec.backend, base_dir)
        if collectors:
            collectors[0].collect(backend, harness.processes, SCENARIO_RUN_ID)
        else:
            LogCollector(backend=backend, retries=2, backoff_s=0.0).collect(
                harness.processes, run_id=SCENARIO_RUN_ID,
                description=spec.scenario_id,
            )
        for hook in hooks:
            hook.after_collect(backend, SCENARIO_RUN_ID)

        # The canonical accounting dict — the same shape the chaos matrix
        # always asserted determinism over: what happened, what was
        # injected, what was captured, what was lost.
        dscg = reconstruct(backend, SCENARIO_RUN_ID)
        meta = next(
            m for m in backend.runs() if m.run_id == SCENARIO_RUN_ID
        )
        accounting = {
            "client_errors": harness.errors,
            "results": harness.results,
            "faults": injector.summary(),
            "capture": loss_report(dscg).to_dict(),
            "stats": dscg.stats(),
            "collection": meta.extra["loss"],
        }
        owned_mirror_dirs: list = []
        state = ScenarioState(
            spec=spec,
            backend=backend,
            run_id=SCENARIO_RUN_ID,
            accounting=accounting,
            hook_events=[e for hook in hooks for e in hook.events],
            mirror_factory=_mirror_factory(spec, base_dir, owned_mirror_dirs),
            _dscg=dscg,
        )
        execution = _Execution(state, hooks, workdir)
        # Mirror dirs ride along so close() reaps them too.
        execution._mirror_dirs = owned_mirror_dirs
        _real_close = execution.close

        def close():
            _real_close()
            for path in owned_mirror_dirs:
                shutil.rmtree(path, ignore_errors=True)

        execution.close = close
        return execution
    except BaseException:
        if backend is not None:
            backend.close()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        raise
    finally:
        harness.shutdown()


def run_scenario(spec: ScenarioSpec, base_dir: str | None = None) -> ScenarioOutcome:
    """Execute one scenario and evaluate its invariants."""
    wants_determinism = any(
        inv.name == "deterministic_accounting" for inv in spec.invariants
    )
    execution = _execute_scenario(spec, base_dir)
    try:
        state = execution.state
        results: list[InvariantResult] = []
        for inv in spec.invariants:
            if inv.name == "deterministic_accounting":
                continue
            results.append(CHECKERS[inv.name](state, inv.params))
        if wants_determinism:
            # The chaos determinism gate: the whole scenario re-executes
            # from the same seed and the canonical accounting must match
            # exactly — chaotic failures stay replayable from their seed.
            second = _execute_scenario(spec, base_dir)
            try:
                identical = second.state.accounting == state.accounting
            finally:
                second.close()
            results.append(
                InvariantResult(
                    "deterministic_accounting",
                    identical,
                    {"reruns": 1, "identical": identical},
                )
            )
        hooks_ok = not any(hook.failed for hook in execution.hooks)
        passed = hooks_ok and all(r.passed for r in results)
        return ScenarioOutcome(
            index=spec.index,
            scenario_id=spec.scenario_id,
            seed=spec.seed,
            axes=spec.axes(),
            passed=passed,
            invariants=results,
            hook_events=state.hook_events,
            accounting=state.accounting,
        )
    finally:
        execution.close()


# ----------------------------------------------------------------------
# Suite execution


def run_suite(
    config: SuiteConfig,
    workers: int = 1,
    seed: int | None = None,
    only: str | None = None,
    base_dir: str | None = None,
) -> SuiteReport:
    """Run a whole suite; scenarios fan out over ``workers`` threads.

    ``seed`` overrides the suite file's seed (re-deriving every scenario
    seed); ``only`` keeps scenarios whose id contains the substring.
    Scenario isolation (private clocks, networks, uuid factories,
    backends) makes the outcome independent of pool width — the report
    is assembled in grid order either way.
    """
    scenarios = expand_grid(config, seed=seed)
    if only:
        scenarios = [s for s in scenarios if only in s.scenario_id]
    if not scenarios:
        raise SuiteError(
            f"suite {config.name!r}: no scenarios"
            + (f" match {only!r}" if only else "")
        )
    report = SuiteReport(
        suite=config.name,
        description=config.description,
        seed=config.seed if seed is None else seed,
    )
    if workers <= 0:
        import os

        workers = os.cpu_count() or 1
    if workers == 1:
        report.outcomes = [run_scenario(s, base_dir) for s in scenarios]
        return report
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_scenario, s, base_dir) for s in scenarios]
        report.outcomes = [future.result() for future in futures]
    return report
