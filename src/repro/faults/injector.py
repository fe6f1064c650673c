"""The fault injector: applies a :class:`FaultPlan` across subsystems.

One :class:`FaultInjector` owns the plan plus a thread-safe event log of
every fault actually injected. The log is the replay contract: the same
seed over the same workload re-injects the same faults at the same
sites, so ``injector.summary()`` is comparable across runs (the chaos
matrix asserts exactly this).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ComponentCrash
from repro.faults.lossy import LossyLogBuffer
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultKind, FaultPlan
from repro.telemetry.metrics import NULL_COUNTER, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

# Framework self-metrics (no-ops until repro.telemetry.enable()).
_INJECTED = dict.fromkeys(FaultKind, NULL_COUNTER)


@metrics_binder
def _bind_metrics(registry) -> None:
    registry = registry or NULL_REGISTRY
    family = registry.counter(
        "repro_faults_injected_total",
        "Faults injected by repro.faults, by fault kind.",
        labels=("kind",),
    )
    for kind in FaultKind:
        _INJECTED[kind] = family.labels(kind.value)


@dataclass(frozen=True)
class FaultEvent:
    """One fault the injector actually applied."""

    kind: FaultKind
    scope: str
    index: int
    detail: str = ""


class FaultInjector:
    """Applies one plan; records every injected fault."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._events: list[FaultEvent] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Event log

    def record(self, kind: FaultKind, scope: str, index: int, detail: str = "") -> None:
        event = FaultEvent(kind=kind, scope=scope, index=index, detail=detail)
        with self._lock:
            self._events.append(event)
        _INJECTED[kind].inc()

    def events(self) -> list[FaultEvent]:
        with self._lock:
            return list(self._events)

    def counters(self) -> dict[str, int]:
        """``"kind@scope" -> count`` over everything injected so far."""
        result: dict[str, int] = {}
        with self._lock:
            for event in self._events:
                key = f"{event.kind.value}@{event.scope}"
                result[key] = result.get(key, 0) + 1
        return result

    def summary(self) -> dict:
        """Canonical, order-independent accounting of injected faults.

        Deterministic for a given (seed, workload) pair regardless of
        thread scheduling: events are aggregated into sorted counters.
        """
        by_kind: dict[str, int] = {}
        with self._lock:
            for event in self._events:
                by_kind[event.kind.value] = by_kind.get(event.kind.value, 0) + 1
        return {
            "seed": self.plan.seed,
            "total": sum(by_kind.values()),
            "by_kind": dict(sorted(by_kind.items())),
            "by_site": dict(sorted(self.counters().items())),
        }

    # ------------------------------------------------------------------
    # Attachment helpers

    def network(self):
        """A fresh fault-injecting network driven by this injector."""
        return FaultyNetwork(self)

    def lossy_delivery(self, process) -> None:
        """Make ``process``'s probe->collector record delivery lossy."""
        if not isinstance(process.log_buffer, LossyLogBuffer):
            process.log_buffer = LossyLogBuffer(process.log_buffer, self, process.name)

    def arm_crashes(self, process) -> None:
        """Arm the plan's ``crash_calls`` against components in ``process``.

        Installs a dispatch hook consulted by the CORBA skeleton, the
        collocated stub path, and the COM channel; on the configured call
        index the hook raises :class:`ComponentCrash`, which the dispatch
        layers treat as process death (no end probes, no reply).
        """
        process.fault_hook = CrashArm(self, process.name)


class CrashArm:
    """Per-process dispatch hook implementing plan-scheduled crashes."""

    def __init__(self, injector: FaultInjector, process_name: str):
        self.injector = injector
        self._process_name = process_name
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def on_dispatch(self, interface: str, operation: str) -> None:
        """Called between the start and end probes of every dispatch.

        Raises :class:`ComponentCrash` when this is the plan-scheduled
        call; counts are per (process, operation) so the schedule is
        deterministic per component regardless of sibling traffic.
        """
        qualified = f"{interface}::{operation}"
        at = self.injector.plan.crash_at(qualified)
        if at is None:
            return
        with self._lock:
            self._calls[qualified] = index = self._calls.get(qualified, 0) + 1
        if index == at:
            scope = f"{self._process_name}:{qualified}"
            self.injector.record(FaultKind.CRASH, scope, index)
            raise ComponentCrash(self._process_name, qualified, index)
