"""repro.scenarios — the declarative scenario-suite runner.

One home for scenario composition: a YAML suite file declares grids of
workload x storage-backend x data-plane-policy x fault cells plus
background hooks, the executor expands them deterministically, runs them
over a bounded worker pool with per-scenario seeds derived from
``(suite_seed, scenario_index)``, and evaluates a uniform set of
invariant checkers (cross-backend DSCG identity, loss-accounting
consistency, streaming/batch equivalence, latency SLOs, seeded
determinism) against every run — emitting a byte-stable
:class:`SuiteReport` JSON.

Committed suites live under ``suites/``; ``repro suite list/run`` is the
CLI; docs/scenario-suites.md is the manual.
"""

from repro.scenarios.config import (
    BACKEND_NAMES,
    CHANNEL_MODES,
    HOOK_KINDS,
    INVARIANT_NAMES,
    THREADING_STYLES,
    UNSUPPORTED_POLICIES,
    WORKLOAD_NAMES,
    FaultSpec,
    GridConfig,
    HookSpec,
    InvariantSpec,
    PolicySpec,
    ScenarioSpec,
    SuiteConfig,
    SuiteError,
    WorkloadSpec,
    derive_seed,
    dump_yaml,
    expand_grid,
    load_suite,
    loads,
)
from repro.scenarios.executor import (
    WORKLOADS,
    ScenarioOutcome,
    SuiteReport,
    run_scenario,
    run_suite,
)
from repro.scenarios.invariants import CHECKERS, InvariantResult, ScenarioState
from repro.scenarios.workloads import ScenarioContext, WorkloadHarness

__all__ = [
    "SuiteConfig",
    "GridConfig",
    "WorkloadSpec",
    "PolicySpec",
    "FaultSpec",
    "HookSpec",
    "InvariantSpec",
    "ScenarioSpec",
    "SuiteError",
    "SuiteReport",
    "ScenarioOutcome",
    "ScenarioState",
    "ScenarioContext",
    "WorkloadHarness",
    "InvariantResult",
    "WORKLOAD_NAMES",
    "BACKEND_NAMES",
    "CHANNEL_MODES",
    "THREADING_STYLES",
    "HOOK_KINDS",
    "INVARIANT_NAMES",
    "UNSUPPORTED_POLICIES",
    "WORKLOADS",
    "CHECKERS",
    "derive_seed",
    "expand_grid",
    "load_suite",
    "loads",
    "dump_yaml",
    "run_suite",
    "run_scenario",
]
