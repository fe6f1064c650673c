"""Seeded fault scenario and canonical replay for streaming detection.

Two jobs live here:

- :func:`detect_run` — the canonical detection path: replay a collected
  run's records in arrival order through a :class:`StreamingDetector`.
  Arrival order in the store is deterministic for a deterministic
  workload, so the same run always yields byte-identical reports.
- :func:`run_seeded_delay_scenario` / :func:`seeded_incident_report` —
  a self-contained three-tier CORBA workload (driver → front → mid →
  back on one virtual-clock host) where a seeded
  :class:`~repro.faults.plan.FaultPlan` delays every ``mid->back``
  request inside a seed-chosen call window. The delay lands between the
  stub-start and skeleton-start probes of ``Back::work``, so the Back
  node's *self* time absorbs the spike while its ancestors merely
  inherit it — the shape the causal ranker must disentangle. This backs
  ``repro incidents --demo-faults SEED``, the CI determinism gate and
  the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.streaming.detector import DetectionConfig, StreamingDetector
from repro.analysis.streaming.incident import IncidentReport, incidents_to_json
from repro.collector import LogCollector
from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan, WindowedDelayPlan
from repro.idl import compile_idl
from repro.orb import InterfaceRegistry, Orb, ThreadPerConnection
from repro.platform import Host, PlatformKind, SimProcess, VirtualClock, quiesce
from repro.store import MonitoringDatabase
from repro.telemetry.metrics import MetricsRegistry

IDL = """
module SD {
  interface Back { long work(in long x); };
  interface Mid { long relay(in long x); };
  interface Front { long handle(in long x); };
};
"""

#: Calls before the earliest possible fault window (baseline warm-up).
_WARMUP_CALLS = 16
#: Seed-chosen spread of the window start beyond the warm-up.
_START_SPREAD = 12


@dataclass
class ScenarioResult:
    """One executed seeded-delay run, collected and ready to replay."""

    store: MonitoringDatabase
    run_id: str
    calls: int
    results: list[int]
    fault: dict
    faults_injected: dict


def run_seeded_delay_scenario(
    seed: int,
    calls: int = 48,
    delay_ns: int = 1_000_000,
    store: MonitoringDatabase | None = None,
    live_detector: StreamingDetector | None = None,
) -> ScenarioResult:
    """Run the three-tier workload with a seeded mid->back delay window.

    ``live_detector``, when given, is polled after every call (and once
    after quiescence) — the ``--watch`` feed. Live polling interleaves
    per-process buffers best-effort; canonical reports come from
    replaying the collected store with :func:`detect_run`.
    """
    plan = WindowedDelayPlan(
        FaultPlan(seed=seed), "mid->back", width=8, delay_ns=delay_ns,
        warmup=_WARMUP_CALLS, spread=_START_SPREAD, draw="incident-window",
    )
    injector = FaultInjector(plan)
    network = injector.network()
    clock = VirtualClock()
    host = Host("stream-host", PlatformKind.HPUX_11, clock=clock)
    uuid_factory = SequentialUuidFactory("5d")
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry)

    def make_process(name):
        process = SimProcess(name, host)
        MonitoringRuntime(
            process,
            MonitorConfig(mode=MonitorMode.LATENCY, uuid_factory=uuid_factory),
        )
        return process

    driver = make_process("driver")
    front = make_process("front")
    mid = make_process("mid")
    back = make_process("back")
    processes = [driver, front, mid, back]

    back_orb = Orb(
        back, network, policy=ThreadPerConnection(), registry=registry,
        request_timeout=2.0,
    )
    mid_orb = Orb(
        mid, network, policy=ThreadPerConnection(), registry=registry,
        request_timeout=2.0,
    )
    front_orb = Orb(
        front, network, policy=ThreadPerConnection(), registry=registry,
        request_timeout=2.0,
    )
    client_orb = Orb(driver, network, registry=registry, request_timeout=2.0)

    class BackImpl(compiled.Back):
        def work(self, x):
            clock.consume(2_000)
            return x * 2

    class MidImpl(compiled.Mid):
        def relay(self, x):
            clock.consume(1_000)
            return back_stub.work(x) + 1

    class FrontImpl(compiled.Front):
        def handle(self, x):
            clock.consume(500)
            return mid_stub.relay(x) + 1

    back_ref = back_orb.activate(BackImpl())
    back_stub = mid_orb.resolve(back_ref)
    mid_ref = mid_orb.activate(MidImpl())
    mid_stub = front_orb.resolve(mid_ref)
    front_ref = front_orb.activate(FrontImpl())
    front_stub = client_orb.resolve(front_ref)

    results = []
    try:
        for i in range(calls):
            results.append(front_stub.handle(i))
            if driver.monitor is not None:
                driver.monitor.unbind_ftl()
            if live_detector is not None:
                live_detector.poll(processes)
        quiesce(processes)
        if live_detector is not None:
            live_detector.poll(processes)
        run_id = f"seeded-delay-{seed}"
        collector = LogCollector(store if store is not None else MonitoringDatabase())
        collector.collect(
            processes, run_id=run_id, description="seeded mid->back delay window"
        )
        return ScenarioResult(
            store=collector.database,
            run_id=run_id,
            calls=calls,
            results=results,
            fault={
                "scope": plan.window_scope,
                "kind": FaultKind.DELAY.value,
                "delay_ns": plan.delay_ns,
                "window_start": plan.window_start,
                "window_width": plan.window_width,
            },
            faults_injected=injector.summary(),
        )
    finally:
        for process in processes:
            process.shutdown()


def detect_run(
    store,
    run_id: str,
    config: DetectionConfig | None = None,
    registry: MetricsRegistry | None = None,
    on_incident: Callable[[IncidentReport], None] | None = None,
) -> StreamingDetector:
    """Replay a collected run through a fresh detector (canonical path).

    Returns the finalized detector; ``detector.incidents`` holds the
    reports and ``detector.dscg`` the reconstructed graph.
    """
    detector = StreamingDetector(
        config=config, registry=registry, on_incident=on_incident
    )
    detector.ingest_many(store.all_records(run_id))
    detector.dscg = detector.finalize()
    return detector


def seeded_incident_report(
    seed: int,
    calls: int = 48,
    config: DetectionConfig | None = None,
    registry: MetricsRegistry | None = None,
    watch: Callable[[IncidentReport], None] | None = None,
) -> tuple[str, list[IncidentReport]]:
    """Run the seeded scenario and return (canonical JSON, incidents).

    ``watch`` receives incidents live while the workload runs; the
    returned document always comes from the deterministic store replay.
    """
    if config is None:
        config = DetectionConfig()
    live = StreamingDetector(config=config, on_incident=watch) if watch else None
    scenario = run_seeded_delay_scenario(
        seed, calls=calls, store=MonitoringDatabase(), live_detector=live
    )
    detector = detect_run(
        scenario.store, scenario.run_id, config=config, registry=registry
    )
    stats = detector.stats()
    document = incidents_to_json(
        detector.incidents,
        run_id=scenario.run_id,
        extra={
            "scenario": {
                "seed": seed,
                "calls": scenario.calls,
                "fault": scenario.fault,
                "faults_injected": scenario.faults_injected,
            },
            "config": config.to_dict(),
            "stream": {
                "records": stats["records_ingested"],
                "chains": stats["chains"],
                "completions": stats["completions_scored"],
                "anomalous_completions": stats["anomalous_completions"],
            },
        },
    )
    return document, detector.incidents
