"""Typed suite configuration and deterministic scenario-grid expansion.

A *suite* is a declarative description of a scenario matrix, modeled on
resmoke's suite YAML (``buildscripts/resmokelib/testing/suites``): each
grid composes a **workload** (embedded, three-tier, PPS, CORBA/COM
bridge, two-process CORBA), a **storage backend** (sqlite, segment),
**data-plane policies** (channel mode x server threading style), an
optional seeded **fault plan**, and background **hooks** that fire
mid-run. The executor (:mod:`repro.scenarios.executor`) expands a suite
into a flat, deterministically ordered list of :class:`ScenarioSpec`
cells and evaluates a uniform set of invariant checkers against every
one.

Everything here is pure data: dataclasses with canonical ``to_dict`` /
``from_dict`` forms, so a suite round-trips YAML -> dataclass -> YAML
unchanged (a property test holds this) and the expanded grid depends
only on the file content and the suite seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.faults import FaultKind, FaultPlan


class SuiteError(ReproError):
    """A suite file is malformed or references unknown components."""


#: Workload registry keys (the registry is repro.scenarios.executor.WORKLOADS).
WORKLOAD_NAMES = ("corba", "embedded", "three_tier", "pps", "bridge", "cluster")
#: Storage backends a scenario can collect into.
BACKEND_NAMES = ("sqlite", "segment")
#: ORB client channel modes.
CHANNEL_MODES = ("mux", "per-thread", "asyncio")
#: Server dispatch threading styles.
THREADING_STYLES = ("per-request", "per-connection", "pool", "asyncio")
#: Background hook kinds (implementations in repro.scenarios.hooks).
HOOK_KINDS = ("compaction", "collector_failover", "windowed_delay")
#: Invariant checker names (implementations in repro.scenarios.invariants).
INVARIANT_NAMES = (
    "deterministic_accounting",
    "cross_backend_identity",
    "loss_accounting",
    "streaming_batch_equivalence",
    "latency_slo",
)

_SCALARS = (str, int, float, bool)


def _check_params(owner: str, params: dict) -> dict:
    """Validate a params mapping holds YAML-safe scalars keyed by str."""
    for key, value in params.items():
        if not isinstance(key, str):
            raise SuiteError(f"{owner}: param keys must be strings, got {key!r}")
        if not isinstance(value, _SCALARS):
            raise SuiteError(
                f"{owner}: param {key!r} must be a scalar, got {type(value).__name__}"
            )
    return dict(sorted(params.items()))


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload axis entry: a registered workload plus parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in WORKLOAD_NAMES:
            raise SuiteError(
                f"unknown workload {self.name!r}; known: {WORKLOAD_NAMES}"
            )
        object.__setattr__(
            self, "params", _check_params(f"workload {self.name}", self.params)
        )

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(name=data["name"], params=dict(data.get("params", {})))

    def __eq__(self, other):
        return (
            isinstance(other, WorkloadSpec)
            and self.name == other.name
            and self.params == other.params
        )

    def __hash__(self):
        return hash((self.name, tuple(sorted(self.params.items()))))


@dataclass(frozen=True)
class PolicySpec:
    """Data-plane policy cell: client channel mode x server threading."""

    channel: str = "mux"
    threading: str = "per-connection"
    pool_threads: int = 4

    def __post_init__(self):
        if self.channel not in CHANNEL_MODES:
            raise SuiteError(f"unknown channel mode {self.channel!r}")
        if self.threading not in THREADING_STYLES:
            raise SuiteError(f"unknown threading style {self.threading!r}")
        if self.pool_threads < 1:
            raise SuiteError("pool_threads must be >= 1")

    @property
    def label(self) -> str:
        return f"{self.channel}/{self.threading}"

    def to_dict(self) -> dict:
        return {
            "channel": self.channel,
            "threading": self.threading,
            "pool_threads": self.pool_threads,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicySpec":
        return cls(
            channel=data.get("channel", "mux"),
            threading=data.get("threading", "per-connection"),
            pool_threads=int(data.get("pool_threads", 4)),
        )


@dataclass(frozen=True)
class FaultSpec:
    """A named, seedable fault-plan shape (seed comes from the grid).

    Mirrors :class:`repro.faults.FaultPlan` minus the seed: message-fault
    rates, probe-record delivery loss, transient drain failures, and
    component crash schedules. ``name`` labels the axis cell (``none``
    conventionally means an empty plan).
    """

    name: str
    rates: dict = field(default_factory=dict)
    record_loss_rate: float = 0.0
    collect_fail_attempts: int = 0
    crash_calls: dict = field(default_factory=dict)
    delay_ns: int = 1_000_000

    def __post_init__(self):
        rates = {}
        for kind, rate in self.rates.items():
            try:
                kind = FaultKind(kind).value
            except ValueError:
                raise SuiteError(f"fault {self.name!r}: unknown kind {kind!r}")
            rate = float(rate)
            if not 0.0 <= rate <= 1.0:
                raise SuiteError(
                    f"fault {self.name!r}: rate for {kind} out of [0, 1]"
                )
            rates[kind] = rate
        object.__setattr__(self, "rates", dict(sorted(rates.items())))
        if not 0.0 <= self.record_loss_rate <= 1.0:
            raise SuiteError(f"fault {self.name!r}: record_loss_rate out of [0, 1]")
        if self.collect_fail_attempts < 0:
            raise SuiteError(f"fault {self.name!r}: collect_fail_attempts < 0")
        crashes = {}
        for op, index in self.crash_calls.items():
            if not isinstance(op, str) or int(index) < 1:
                raise SuiteError(
                    f"fault {self.name!r}: crash_calls maps operation -> 1-based index"
                )
            crashes[op] = int(index)
        object.__setattr__(self, "crash_calls", dict(sorted(crashes.items())))

    @property
    def is_none(self) -> bool:
        return (
            not self.rates
            and self.record_loss_rate == 0.0
            and self.collect_fail_attempts == 0
            and not self.crash_calls
        )

    def to_plan(self, seed: int):
        """Materialize as a seeded :class:`repro.faults.FaultPlan`."""
        return FaultPlan(
            seed=seed,
            rates={FaultKind(k): v for k, v in self.rates.items()},
            record_loss_rate=self.record_loss_rate,
            collect_fail_attempts=self.collect_fail_attempts,
            crash_calls=dict(self.crash_calls),
            delay_ns=self.delay_ns,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rates": dict(self.rates),
            "record_loss_rate": self.record_loss_rate,
            "collect_fail_attempts": self.collect_fail_attempts,
            "crash_calls": dict(self.crash_calls),
            "delay_ns": self.delay_ns,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            name=data["name"],
            rates=dict(data.get("rates", {})),
            record_loss_rate=float(data.get("record_loss_rate", 0.0)),
            collect_fail_attempts=int(data.get("collect_fail_attempts", 0)),
            crash_calls=dict(data.get("crash_calls", {})),
            delay_ns=int(data.get("delay_ns", 1_000_000)),
        )

    def __eq__(self, other):
        return isinstance(other, FaultSpec) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash((self.name, tuple(self.rates.items()),
                     self.record_loss_rate, self.collect_fail_attempts,
                     tuple(self.crash_calls.items()), self.delay_ns))


@dataclass(frozen=True)
class HookSpec:
    """A background hook activation (resmoke ``testing/hooks`` style).

    ``when_faults`` restricts the hook to scenarios whose fault-axis name
    is listed (``None`` = every scenario): the collector-failover hook,
    for example, only makes sense when the plan injects drain failures.
    """

    kind: str
    params: dict = field(default_factory=dict)
    when_faults: tuple = None

    def __post_init__(self):
        if self.kind not in HOOK_KINDS:
            raise SuiteError(f"unknown hook kind {self.kind!r}; known: {HOOK_KINDS}")
        object.__setattr__(
            self, "params", _check_params(f"hook {self.kind}", self.params)
        )
        if self.when_faults is not None:
            object.__setattr__(
                self, "when_faults", tuple(str(n) for n in self.when_faults)
            )

    def applies_to(self, fault: FaultSpec) -> bool:
        return self.when_faults is None or fault.name in self.when_faults

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "when_faults": list(self.when_faults) if self.when_faults is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HookSpec":
        when = data.get("when_faults")
        return cls(
            kind=data["kind"],
            params=dict(data.get("params", {})),
            when_faults=tuple(when) if when is not None else None,
        )

    def __eq__(self, other):
        return isinstance(other, HookSpec) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash((self.kind, tuple(self.params.items()), self.when_faults))


@dataclass(frozen=True)
class InvariantSpec:
    """One registered invariant checker plus its parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in INVARIANT_NAMES:
            raise SuiteError(
                f"unknown invariant {self.name!r}; known: {INVARIANT_NAMES}"
            )
        object.__setattr__(
            self, "params", _check_params(f"invariant {self.name}", self.params)
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "InvariantSpec":
        return cls(name=data["name"], params=dict(data.get("params", {})))

    def __eq__(self, other):
        return isinstance(other, InvariantSpec) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash((self.name, tuple(self.params.items())))


#: The empty fault cell every grid without a ``faults`` axis runs under.
NO_FAULT = FaultSpec(name="none")


@dataclass(frozen=True)
class GridConfig:
    """One cross product: workloads x backends x policies x faults."""

    name: str
    workloads: tuple
    backends: tuple = ("sqlite",)
    policies: tuple = (PolicySpec(),)
    faults: tuple = ()
    hooks: tuple = ()
    invariants: tuple = ()

    def __post_init__(self):
        if not self.workloads:
            raise SuiteError(f"grid {self.name!r}: needs at least one workload")
        object.__setattr__(self, "workloads", tuple(self.workloads))
        backends = tuple(self.backends)
        for backend in backends:
            if backend not in BACKEND_NAMES:
                raise SuiteError(
                    f"grid {self.name!r}: unknown backend {backend!r}"
                )
        if not backends:
            raise SuiteError(f"grid {self.name!r}: needs at least one backend")
        object.__setattr__(self, "backends", backends)
        object.__setattr__(self, "policies", tuple(self.policies) or (PolicySpec(),))
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "hooks", tuple(self.hooks))
        object.__setattr__(self, "invariants", tuple(self.invariants))

    def cells(self):
        """The grid's cells in canonical nested order (the outermost axis
        varies slowest): workload, backend, policy, fault."""
        faults = self.faults or (NO_FAULT,)
        for workload in self.workloads:
            for backend in self.backends:
                for policy in self.policies:
                    for fault in faults:
                        yield workload, backend, policy, fault

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workloads": [w.to_dict() for w in self.workloads],
            "backends": list(self.backends),
            "policies": [p.to_dict() for p in self.policies],
            "faults": [f.to_dict() for f in self.faults],
            "hooks": [h.to_dict() for h in self.hooks],
            "invariants": [i.to_dict() for i in self.invariants],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridConfig":
        return cls(
            name=data["name"],
            workloads=tuple(
                WorkloadSpec.from_dict(w) for w in data.get("workloads", [])
            ),
            backends=tuple(data.get("backends", ("sqlite",))),
            policies=tuple(
                PolicySpec.from_dict(p) for p in data.get("policies", [])
            ) or (PolicySpec(),),
            faults=tuple(FaultSpec.from_dict(f) for f in data.get("faults", [])),
            hooks=tuple(HookSpec.from_dict(h) for h in data.get("hooks", [])),
            invariants=tuple(
                InvariantSpec.from_dict(i) for i in data.get("invariants", [])
            ),
        )


@dataclass(frozen=True)
class SuiteConfig:
    """A whole suite file: named grids sharing one seed."""

    name: str
    description: str = ""
    seed: int = 2003
    grids: tuple = ()

    def __post_init__(self):
        if not self.grids:
            raise SuiteError(f"suite {self.name!r}: needs at least one grid")
        object.__setattr__(self, "grids", tuple(self.grids))
        names = [grid.name for grid in self.grids]
        if len(set(names)) != len(names):
            raise SuiteError(f"suite {self.name!r}: duplicate grid names")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "grids": [grid.to_dict() for grid in self.grids],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict) or "name" not in data:
            raise SuiteError("suite file must be a mapping with a 'name' key")
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            seed=int(data.get("seed", 2003)),
            grids=tuple(GridConfig.from_dict(g) for g in data.get("grids", [])),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully resolved grid cell, ready to execute.

    ``seed`` is derived from ``(suite_seed, index)`` by a keyed hash —
    independent of which other cells exist, so inserting a grid reorders
    later scenarios' seeds but a fixed suite always reproduces exactly.
    """

    index: int
    suite: str
    grid: str
    seed: int
    workload: WorkloadSpec
    backend: str
    policy: PolicySpec
    fault: FaultSpec
    hooks: tuple
    invariants: tuple

    @property
    def scenario_id(self) -> str:
        return (
            f"{self.grid}/{self.workload.label}|{self.backend}"
            f"|{self.policy.label}|{self.fault.name}"
        )

    def axes(self) -> dict:
        """The cell's coordinates, as embedded in the suite report."""
        return {
            "grid": self.grid,
            "workload": self.workload.to_dict(),
            "backend": self.backend,
            "policy": self.policy.to_dict(),
            "fault": self.fault.name,
            "hooks": [h.kind for h in self.hooks],
        }


def derive_seed(suite_seed: int, index: int) -> int:
    """Per-scenario seed from ``(suite_seed, scenario_index)``.

    A keyed blake2b digest, like :meth:`FaultPlan.fraction`: well-spread,
    stable across platforms and interpreter versions.
    """
    digest = hashlib.blake2b(
        f"{suite_seed}\x1f{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest[:4], "big")


def expand_grid(config: SuiteConfig, seed: int | None = None) -> list[ScenarioSpec]:
    """Expand a suite into its flat, deterministically ordered scenarios.

    Order is purely positional — grids in file order, each grid's cells
    in canonical nested-axis order — so the same file (and seed) always
    yields the same list, byte for byte.
    """
    suite_seed = config.seed if seed is None else seed
    scenarios: list[ScenarioSpec] = []
    index = 0
    for grid in config.grids:
        for workload, backend, policy, fault in grid.cells():
            hooks = tuple(h for h in grid.hooks if h.applies_to(fault))
            _validate_cell(grid, workload, policy, fault, hooks)
            scenarios.append(
                ScenarioSpec(
                    index=index,
                    suite=config.name,
                    grid=grid.name,
                    seed=derive_seed(suite_seed, index),
                    workload=workload,
                    backend=backend,
                    policy=policy,
                    fault=fault,
                    hooks=hooks,
                    invariants=grid.invariants,
                )
            )
            index += 1
    return scenarios


#: Policy cells a workload cannot run under. The embedded system's call
#: graph re-enters processes mid-chain: with every client thread muxed
#: onto one connection per peer and the server dedicating a single
#: dispatch thread to that connection, a nested call that needs the
#: connection's thread while an outer frame still holds it can never be
#: served — requests time out or the transport resets, and which root
#: trips first is a thread race. Grid expansion rejects the combination
#: up front instead of letting a suite encode a flaky cell.
#:
#: The asyncio plane is rejected for ``embedded`` for the same
#: re-entrancy reason: the system drives *sync* servants, so under
#: AsyncioDispatch every dispatch runs inline on the single loop thread
#: (a one-thread pool), and a nested call back into a process whose loop
#: is blocked mid-frame can never be served; the asyncio client channel
#: likewise assumes the embedded driver runs inside an event loop, which
#: it does not.
UNSUPPORTED_POLICIES = {
    "embedded": (
        ("mux", "per-connection"),
        ("mux", "asyncio"),
        ("per-thread", "asyncio"),
        ("asyncio", "per-request"),
        ("asyncio", "per-connection"),
        ("asyncio", "pool"),
        ("asyncio", "asyncio"),
    ),
}


def _validate_cell(
    grid: GridConfig,
    workload: WorkloadSpec,
    policy: PolicySpec,
    fault: FaultSpec,
    hooks: tuple,
) -> None:
    """Cross-axis constraints that are cheap to state and easy to trip."""
    unsupported = UNSUPPORTED_POLICIES.get(workload.name, ())
    if (policy.channel, policy.threading) in unsupported:
        raise SuiteError(
            f"grid {grid.name!r}: workload {workload.name!r} does not support"
            f" the {policy.label} policy (re-entrant nested chains deadlock a"
            " single per-connection dispatch thread behind a shared mux"
            " channel); give the workload its own grid with supported policies"
        )
    if workload.name == "cluster":
        # The cluster workload runs a *real* multi-process deployment over
        # TCP: seeded fault plans live in the in-memory FaultyNetwork and
        # cannot inject into kernel sockets, and the worker processes fix
        # their own data plane (mux / per-request) internally.
        if not fault.is_none:
            raise SuiteError(
                f"grid {grid.name!r}: the cluster workload runs over real"
                " sockets; seeded network fault plans cannot be injected"
                f" there (got fault {fault.name!r})"
            )
        if hooks:
            raise SuiteError(
                f"grid {grid.name!r}: the cluster workload does not support"
                " background hooks (collection happens in worker processes)"
            )
        if (policy.channel, policy.threading) != ("mux", "per-request"):
            raise SuiteError(
                f"grid {grid.name!r}: the cluster workload fixes its data"
                " plane to mux/per-request inside the worker processes; got"
                f" {policy.label}"
            )
    for hook in hooks:
        if hook.kind == "collector_failover" and fault.collect_fail_attempts < 1:
            raise SuiteError(
                f"grid {grid.name!r}: collector_failover needs a fault with"
                f" collect_fail_attempts >= 1 (got fault {fault.name!r});"
                " scope the hook with when_faults"
            )
        if hook.kind == "windowed_delay" and "scope" not in hook.params:
            raise SuiteError(
                f"grid {grid.name!r}: windowed_delay hook needs a 'scope' param"
            )


# ----------------------------------------------------------------------
# YAML (de)serialization


def _require_yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - baked into the image
        raise SuiteError(
            "suite files need PyYAML (pip install pyyaml)"
        ) from exc
    return yaml


def loads(text: str) -> SuiteConfig:
    """Parse suite YAML text into a :class:`SuiteConfig`."""
    yaml = _require_yaml()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SuiteError(f"invalid suite YAML: {exc}") from exc
    return SuiteConfig.from_dict(data)


def load_suite(path: str) -> SuiteConfig:
    """Load a suite file from disk."""
    with open(path) as handle:
        return loads(handle.read())


def dump_yaml(config: SuiteConfig) -> str:
    """Canonical YAML form: ``loads(dump_yaml(c)) == c`` and dumping is
    idempotent (the round-trip property test holds both)."""
    yaml = _require_yaml()
    return yaml.safe_dump(
        config.to_dict(), sort_keys=True, default_flow_style=False
    )
