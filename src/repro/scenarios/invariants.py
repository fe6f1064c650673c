"""Uniform invariant checkers the executor evaluates on every scenario.

Each checker is a function ``(ScenarioState, params) -> InvariantResult``.
They are the suite-runner home of assertions that used to live in
hand-written test loops:

- ``cross_backend_identity``       mirror the run into the *other*
  storage backend and require bit-identical scans, stats, DSCG JSON,
  loss reports and CCSG XML (from the cross-backend identity tests);
- ``loss_accounting``              injected delivery faults must equal
  reported collection loss, and fault-free runs must report no loss
  (from the chaos matrix);
- ``streaming_batch_equivalence``  the incremental reconstructor over
  the stored arrival stream must finalize to the batch analyzer's DSCG;
- ``latency_slo``                  per-operation p95 wall latency stays
  under a bound (virtual-clock nanoseconds, so fully deterministic);
- ``deterministic_accounting``     evaluated by the executor itself (it
  re-runs the whole scenario and compares canonical accounting dicts).

Checkers never raise on violation — they return a failed result with
enough detail to debug from the suite report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis import (
    CpuAnalysis,
    build_ccsg,
    dscg_to_json,
    latency_report,
    loss_report,
    reconstruct,
    render_ccsg_xml,
)
from repro.analysis.streaming import StreamingReconstructor
from repro.scenarios.config import ScenarioSpec
from repro.store import ScanPredicate


@dataclass
class InvariantResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class ScenarioState:
    """One executed scenario, as the invariant checkers see it."""

    spec: ScenarioSpec
    backend: Any
    run_id: str
    accounting: dict
    hook_events: list
    #: () -> StorageBackend: a fresh instance of the *other* backend kind,
    #: owned (and closed) by the executor.
    mirror_factory: Callable[[], Any]
    _dscg: Any = None

    def dscg(self):
        """The run's DSCG, reconstructed once per scenario."""
        if self._dscg is None:
            self._dscg = reconstruct(self.backend, self.run_id)
        return self._dscg


# ----------------------------------------------------------------------


def check_loss_accounting(state: ScenarioState, params: dict) -> InvariantResult:
    """Injected vs. reported: the loss ledger must balance.

    Every probe record the plan destroyed in delivery must appear in the
    collection's ``records_lost_in_delivery``; every injected drain
    failure must be visible as a collector retry or a hook-reported
    primary failure; and a scenario that injected nothing must report a
    clean capture.
    """
    faults = state.accounting["faults"]
    collection = state.accounting["collection"]
    injected_loss = faults["by_kind"].get("record_loss", 0)
    injected_drain_failures = faults["by_kind"].get("collect_fail", 0)
    observed_drain_failures = collection["drain_retries"] + sum(
        len(event.get("primary_failed_drains", ()))
        for event in state.hook_events
        if event.get("hook") == "collector_failover"
    )
    checks = {
        "record_loss_balances": injected_loss
        == collection["records_lost_in_delivery"],
        "drain_failures_balance": injected_drain_failures
        == observed_drain_failures,
        "no_abandoned_buffers": not collection["failed_drains"],
    }
    if faults["total"] == 0:
        capture = state.accounting["capture"]
        checks["clean_run_has_full_capture"] = (
            capture["partial_chains"] == 0
            and collection["records_lost_in_delivery"] == 0
            and collection["records_uncollected"] == 0
            and state.accounting["client_errors"] == 0
        )
    return InvariantResult(
        "loss_accounting",
        all(checks.values()),
        {
            "checks": checks,
            "injected_record_loss": injected_loss,
            "reported_lost_in_delivery": collection["records_lost_in_delivery"],
            "injected_drain_failures": injected_drain_failures,
            "observed_drain_failures": observed_drain_failures,
        },
    )


def _derived_predicates(backend, run_id: str) -> list[ScanPredicate]:
    """Predicates derived from the capture itself, so every pushdown
    level (dictionary ids, chain index, time bounds) actually engages."""
    records = list(backend.all_records(run_id))
    if not records:
        return [ScanPredicate(operations=frozenset({"no-such-operation"}))]
    operations = sorted({r.operation for r in records})
    interfaces = sorted({r.interface for r in records})
    chains = sorted({r.chain_uuid for r in records})
    predicates = [
        ScanPredicate(operations=frozenset({operations[0]})),
        ScanPredicate(interfaces=frozenset({interfaces[-1]})),
        ScanPredicate(chain_prefix=chains[0][:6]),
        ScanPredicate(operations=frozenset({"no-such-operation"})),
    ]
    anchors = sorted(
        r.wall_start if r.wall_start is not None else r.wall_end
        for r in records
        if r.wall_start is not None or r.wall_end is not None
    )
    if anchors:
        mid = anchors[len(anchors) // 2]
        predicates.append(ScanPredicate(ts_min=anchors[0], ts_max=mid))
    else:
        predicates.append(ScanPredicate(ts_min=0))
    return predicates


def check_cross_backend_identity(
    state: ScenarioState, params: dict
) -> InvariantResult:
    """Mirror the run into the other backend; nothing may differ.

    The storage-seam acceptance contract, applied uniformly: raw scans,
    chain grouping, population statistics (plain and predicated),
    reconstruction JSON, loss accounting and CCSG XML must all be
    bit-identical whichever backend held the records.
    """
    backend = state.backend
    run_id = state.run_id
    mirror = state.mirror_factory()
    meta = next(m for m in backend.runs() if m.run_id == run_id)
    mirror.create_run(meta)
    with mirror.bulk_ingest():
        mirror.insert_records(run_id, backend.all_records(run_id))

    checks: dict[str, bool] = {}
    checks["record_count"] = (
        mirror.record_count(run_id) == backend.record_count(run_id)
    )
    checks["chain_uuids"] = (
        mirror.unique_chain_uuids(run_id) == backend.unique_chain_uuids(run_id)
    )
    checks["arrival_stream"] = (
        list(mirror.all_records(run_id)) == list(backend.all_records(run_id))
    )
    checks["chain_groups"] = (
        list(mirror.chains_for_run(run_id)) == list(backend.chains_for_run(run_id))
    )
    checks["population_stats"] = (
        mirror.population_stats(run_id) == backend.population_stats(run_id)
    )
    predicates = _derived_predicates(backend, run_id)
    checks["predicated_scans"] = all(
        list(mirror.all_records(run_id, predicate=p))
        == list(backend.all_records(run_id, predicate=p))
        for p in predicates
    )
    checks["predicated_population_stats"] = all(
        mirror.population_stats(run_id, predicate=p)
        == backend.population_stats(run_id, predicate=p)
        for p in predicates
    )

    dscg_a = state.dscg()
    dscg_b = reconstruct(mirror, run_id)
    checks["dscg_json"] = dscg_to_json(dscg_a) == dscg_to_json(dscg_b)
    checks["loss_report"] = (
        loss_report(dscg_a).to_dict() == loss_report(dscg_b).to_dict()
    )
    checks["ccsg_xml"] = render_ccsg_xml(
        build_ccsg(dscg_a, CpuAnalysis(dscg_a)), description=run_id
    ) == render_ccsg_xml(
        build_ccsg(dscg_b, CpuAnalysis(dscg_b)), description=run_id
    )
    mirror.close()
    return InvariantResult(
        "cross_backend_identity",
        all(checks.values()),
        {
            "checks": checks,
            "mirrored_records": backend.record_count(run_id),
            "predicates": len(predicates),
        },
    )


def check_streaming_batch_equivalence(
    state: ScenarioState, params: dict
) -> InvariantResult:
    """Streaming reconstruction over the stored arrival stream must
    finalize to the same DSCG as the batch analyzer — the equivalence
    contract that lets live monitoring stand in for offline analysis."""
    batch = dscg_to_json(reconstruct(state.backend, state.run_id))
    streaming = StreamingReconstructor()
    streaming.ingest_many(state.backend.all_records(state.run_id))
    streamed = dscg_to_json(streaming.finalize())
    return InvariantResult(
        "streaming_batch_equivalence",
        streamed == batch,
        {"pending_dropped": streaming.pending_dropped},
    )


def check_latency_slo(state: ScenarioState, params: dict) -> InvariantResult:
    """Per-function p95 end-to-end latency under a bound.

    Latencies are the paper's Section-3.2 figure — probe wall readings
    over the reconstructed DSCG, overhead-compensated — and the wall
    readings come from the virtual clock (consumed nanoseconds), so the
    check is exact and deterministic: an SLO gate on causality-captured
    latency, not on host scheduling noise. Fails if the capture yielded
    no latency samples at all (an SLO over nothing is no gate).
    """
    max_ms = float(params.get("max_p95_ms", 50.0))
    bound_ns = int(max_ms * 1_000_000)
    report = latency_report(state.dscg())
    worst_fn, worst_p95 = None, -1
    breaches = []
    for function in sorted(report):
        samples = sorted(report[function].samples)
        if not samples:
            continue
        rank = max(0, min(len(samples) - 1, math.ceil(0.95 * len(samples)) - 1))
        p95 = samples[rank]
        if p95 > worst_p95:
            worst_fn, worst_p95 = function, p95
        if p95 > bound_ns:
            breaches.append({"function": function, "p95_ns": p95})
    return InvariantResult(
        "latency_slo",
        not breaches and worst_fn is not None,
        {
            "bound_ns": bound_ns,
            "worst": {"function": worst_fn, "p95_ns": worst_p95},
            "breaches": breaches,
        },
    )


#: Registry the executor dispatches on. ``deterministic_accounting`` is
#: intentionally absent — the executor implements it by re-running the
#: scenario (a checker cannot re-enter the executor).
CHECKERS: dict[str, Callable[[ScenarioState, dict], InvariantResult]] = {
    "loss_accounting": check_loss_accounting,
    "cross_backend_identity": check_cross_backend_identity,
    "streaming_batch_equivalence": check_streaming_batch_equivalence,
    "latency_slo": check_latency_slo,
}
