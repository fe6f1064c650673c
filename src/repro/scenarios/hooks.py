"""Background hooks that fire while a scenario runs.

Modeled on resmoke's ``testing/hooks``: a hook is attached to a grid and
gets callbacks at fixed points of every scenario's lifecycle —

- ``wrap_plan(plan)``   before the workload starts (install fault-plan
  behaviour, e.g. a windowed delay);
- ``on_tick(ctx, i)``   between workload operations;
- ``collect(...)``      replaces the default collection step (at most one
  collection hook per scenario);
- ``after_collect(...)`` once records are stored, before invariants run
  (e.g. merge a multi-segment run so invariants see one sealed segment).

Hooks append deterministic event dicts to ``self.events``; the executor
embeds them in the scenario's report entry, and a hook that sets
``self.failed`` fails the scenario like a violated invariant.
"""

from __future__ import annotations

import tempfile
from typing import TYPE_CHECKING

from repro.collector import LogCollector
from repro.faults import FaultPlan, WindowedDelayPlan
from repro.scenarios.config import HookSpec, SuiteError
from repro.store import SegmentStore

if TYPE_CHECKING:
    from repro.scenarios.workloads import ScenarioContext


class Hook:
    """Base hook: every callback is a no-op."""

    kind = "hook"

    def __init__(self, spec: HookSpec):
        self.spec = spec
        self.events: list[dict] = []
        self.failed = False

    # -- lifecycle -------------------------------------------------------

    def wrap_plan(self, plan: FaultPlan) -> FaultPlan:
        return plan

    def on_tick(self, ctx: "ScenarioContext", index: int) -> None:
        pass

    @property
    def is_collector(self) -> bool:
        return False

    def collect(self, backend, processes, run_id: str) -> None:
        raise NotImplementedError

    def after_collect(self, backend, run_id: str) -> None:
        pass

    # -- reporting -------------------------------------------------------

    def record(self, **event) -> None:
        self.events.append({"hook": self.kind, **event})


class WindowedDelayHook(Hook):
    """Inject a contiguous DELAY window on one link mid-run."""

    kind = "windowed_delay"

    def wrap_plan(self, plan: FaultPlan) -> FaultPlan:
        params = self.spec.params
        wrapped = WindowedDelayPlan(
            plan,
            scope=str(params["scope"]),
            width=int(params.get("width", 8)),
            delay_ns=int(params.get("delay_ns", 1_000_000)),
            warmup=int(params.get("warmup", 4)),
            spread=int(params.get("spread", 8)),
            draw="suite-delay-window",
        )
        self.record(
            scope=wrapped.window_scope,
            window_start=wrapped.window_start,
            width=wrapped.window_width,
            delay_ns=wrapped.delay_ns,
        )
        return wrapped


class CompactionTriggerHook(Hook):
    """Compact the segment store between collection and analysis.

    Fires after records land, before any invariant scans them — so every
    invariant (identity, streaming equivalence, SLOs) runs against the
    sealed representation. The hook itself holds the compaction contract:
    the record stream must be identical before and after a merge
    (``compacted``). A run that is one committed collection has nothing
    to merge (``already_sealed``); its stream and chain groups must then
    equal those of the same records spooled into a scratch store and
    force-merged there — the merge the commit stands in for.
    """

    kind = "compaction"

    def after_collect(self, backend, run_id: str) -> None:
        if not isinstance(backend, SegmentStore):
            self.record(backend="sqlite", compacted=False, skipped=True)
            return
        before = list(backend.all_records(run_id))
        compacted = backend.compact(run_id)
        identical = before == list(backend.all_records(run_id))
        if not compacted and before:
            with tempfile.TemporaryDirectory() as scratch:
                merged = SegmentStore(scratch, auto_compact=0)
                try:
                    merged.insert_records(run_id, before)
                    identical = (
                        merged.compact(run_id)
                        and list(merged.all_records(run_id)) == before
                        and list(merged.chains_for_run(run_id))
                        == list(backend.chains_for_run(run_id))
                    )
                finally:
                    merged.close()
        if not identical:
            self.failed = True
        self.record(
            backend="segment",
            compacted=bool(compacted),
            already_sealed=backend.compaction_state(run_id)["compacted"]
            and not compacted,
            records=len(before),
            identical_scan=identical,
            skipped=False,
        )


class CollectorFailoverHook(Hook):
    """Fail the primary collector over to a standby mid-collection.

    The primary collector runs with ``retries=0`` against buffers whose
    fault plan injects at least one transient drain failure, so every
    drain fails and the records stay in place; a standby collector then
    takes over and completes the run. The primary's empty run (loss
    metadata listing the failed drains) stays in the store as the audit
    trail; invariants evaluate the standby's run.
    """

    kind = "collector_failover"

    @property
    def is_collector(self) -> bool:
        return True

    def collect(self, backend, processes, run_id: str) -> None:
        retries = int(self.spec.params.get("retries", 2))
        primary = LogCollector(backend=backend, retries=0, backoff_s=0.0)
        primary.collect(
            processes,
            run_id=f"{run_id}-primary",
            description="primary collector (failed over)",
        )
        primary_loss = next(
            meta.extra["loss"]
            for meta in backend.runs()
            if meta.run_id == f"{run_id}-primary"
        )
        if not primary_loss["failed_drains"]:
            # The plan did not inject the drain failures this hook needs;
            # the suite validator prevents this, but fail loudly anyway.
            self.failed = True
        standby = LogCollector(backend=backend, retries=retries, backoff_s=0.0)
        standby.collect(processes, run_id=run_id, description="standby collector")
        self.record(
            primary_failed_drains=primary_loss["failed_drains"],
            primary_uncollected=primary_loss["records_uncollected"],
            standby_retries=retries,
        )


_HOOKS = {
    "windowed_delay": WindowedDelayHook,
    "compaction": CompactionTriggerHook,
    "collector_failover": CollectorFailoverHook,
}


def make_hook(spec: HookSpec) -> Hook:
    try:
        return _HOOKS[spec.kind](spec)
    except KeyError:
        raise SuiteError(f"unknown hook kind {spec.kind!r}") from None
