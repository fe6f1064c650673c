"""Command-line front-end: ``python -m repro <command>``.

Commands operate on a monitoring store produced by
:class:`repro.collector.LogCollector` — a SQLite database file or a
segment-store directory, autodetected from the path — or demonstrate the
system with the bundled example applications:

- ``demo-pps``        run the PPS, collect into a store (``--store segment``)
- ``demo-embedded``   run the synthetic embedded system, collect
- ``summary``         DSCG summary of a collected run
- ``loss``            canonical loss-accounting JSON (capture + collection)
- ``latency``         per-function latency table
- ``cpu``             per-function self-CPU table
- ``ccsg``            emit the Figure-6 CCSG XML
- ``critical-path``   slowest chains' latency critical paths
- ``dscg-json``       export the annotated DSCG as JSON
- ``svg``             hyperbolic-layout SVG of the DSCG
- ``harness``         generate a replay harness script
- ``export-trace``    export a run as Chrome/Perfetto or OTLP trace JSON
- ``incidents``       streaming spike detection + causal root-cause ranking
- ``metrics``         run a demo with self-metrics on; print Prometheus text
- ``store-info``      segment/record/compaction report of a storage backend
- ``cluster``         real-socket multi-process deployments: up/run/collect/
  down a worker cluster, or verify cluster-vs-single DSCG/CCSG bit-identity
  (``cluster identity``)
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import (
    CpuAnalysis,
    HyperbolicLayout,
    build_ccsg,
    critical_paths,
    layout_to_svg,
    reconstruct,
    render_ccsg_xml,
    render_critical_path,
)
from repro.analysis.report import cpu_table, dscg_summary, latency_table, loss_summary
from repro.analysis.serialize import dscg_to_json
from repro.collector import MonitoringDatabase
from repro.store import StorageBackend, open_store
from repro.testing_harness import derive_plan, render_harness_script


def _open_run(args) -> tuple[StorageBackend, str]:
    database = open_store(args.database)
    runs = database.runs()
    if not runs:
        raise SystemExit(f"no runs in {args.database}")
    run_id = args.run or runs[-1].run_id
    if run_id not in {r.run_id for r in runs}:
        raise SystemExit(f"run {run_id!r} not found; available:"
                         f" {[r.run_id for r in runs]}")
    return database, run_id


#: Reconstructed-DSCG memo shared by every subcommand, so driving several
#: commands in one process (tests, notebooks, library use) reconstructs
#: each run once. Keyed by database path + run id; runs are immutable
#: once collected, so entries only need evicting to bound memory.
_DSCG_CACHE: dict[tuple[str, str], "object"] = {}
_DSCG_CACHE_LIMIT = 4


def load_dscg(database: StorageBackend, run_id: str):
    """Memoized ``reconstruct(database, run_id)`` for the CLI subcommands."""
    if database.path == ":memory:":
        # Distinct in-memory databases share the same path; never alias them.
        return reconstruct(database, run_id)
    key = (database.path, run_id)
    dscg = _DSCG_CACHE.get(key)
    if dscg is None:
        dscg = reconstruct(database, run_id)
        while len(_DSCG_CACHE) >= _DSCG_CACHE_LIMIT:
            _DSCG_CACHE.pop(next(iter(_DSCG_CACHE)))
        _DSCG_CACHE[key] = dscg
    return dscg


def _load_dscg(args) -> "object":
    database, run_id = _open_run(args)
    return database, run_id, load_dscg(database, run_id)


def _demo_backend(args) -> StorageBackend:
    """The collection sink a demo command writes to (``--store`` flag)."""
    return open_store(args.database, backend=getattr(args, "store", None))


def cmd_demo_pps(args) -> int:
    from repro.apps.pps import PpsSystem, four_process_deployment, monolithic_deployment
    from repro.collector import LogCollector
    from repro.core import MonitorMode

    deployment = (
        monolithic_deployment() if args.monolithic else four_process_deployment()
    )
    pps = PpsSystem(deployment, mode=MonitorMode[args.mode.upper()])
    try:
        pps.run(njobs=args.jobs, pages=args.pages, complexity=args.complexity)
        pps.quiesce()
        collector = LogCollector(backend=_demo_backend(args))
        run_id = collector.collect(pps.processes.values(),
                                   description=f"PPS {deployment.name} (CLI)")
        print(f"collected run {run_id!r} into {args.database}")
        return 0
    finally:
        pps.shutdown()


def cmd_demo_embedded(args) -> int:
    from repro.apps.embedded import EmbeddedConfig, EmbeddedSystem
    from repro.collector import LogCollector

    system = EmbeddedSystem(EmbeddedConfig())
    try:
        system.run(total_calls=args.calls, roots=args.roots)
        system.quiesce()
        collector = LogCollector(backend=_demo_backend(args))
        run_id = collector.collect(system.processes,
                                   description="embedded synthetic (CLI)")
        print(f"collected run {run_id!r} ({args.calls} calls) into {args.database}")
        return 0
    finally:
        system.shutdown()


def _collector_loss(database: StorageBackend, run_id: str) -> dict | None:
    """The ``extra["loss"]`` dict the collector stored for this run, if any."""
    for meta in database.runs():
        if meta.run_id == run_id:
            loss = meta.extra.get("loss") if meta.extra else None
            return loss if isinstance(loss, dict) else None
    return None


def cmd_summary(args) -> int:
    database, run_id, dscg = _load_dscg(args)
    print(f"run: {run_id}")
    print(dscg_summary(dscg))
    print(loss_summary(dscg, _collector_loss(database, run_id)))
    stats = database.population_stats(run_id)
    print(f"population: {stats}")
    return 0


def cmd_loss(args) -> int:
    """Canonical loss-accounting JSON: capture + collection, one object.

    Deterministic for a given database — sorted keys, no timestamps — so
    CI can diff the output of two replays of the same fault seed.
    """
    import json

    from repro.analysis import loss_report

    database, run_id, dscg = _load_dscg(args)
    accounting = {
        "capture": loss_report(dscg).to_dict(),
        "collection": _collector_loss(database, run_id),
    }
    _emit(args.output, json.dumps(accounting, indent=2, sort_keys=True))
    return 0


def cmd_latency(args) -> int:
    database, run_id, dscg = _load_dscg(args)
    print(latency_table(dscg, limit=args.limit))
    return 0


def cmd_cpu(args) -> int:
    database, run_id, dscg = _load_dscg(args)
    print(cpu_table(dscg, limit=args.limit))
    return 0


def cmd_ccsg(args) -> int:
    database, run_id, dscg = _load_dscg(args)
    xml = render_ccsg_xml(build_ccsg(dscg, CpuAnalysis(dscg)), description=run_id)
    _emit(args.output, xml)
    return 0


def cmd_critical_path(args) -> int:
    database, run_id, dscg = _load_dscg(args)
    paths = critical_paths(dscg, top=args.top)
    if not paths:
        print("(no measurable chains — was the run in latency mode?)")
        return 1
    for path in paths:
        print(render_critical_path(path))
        print()
    return 0


def cmd_impact(args) -> int:
    from repro.analysis.impact import ImpactEstimator, render_impact

    database, run_id, dscg = _load_dscg(args)
    estimator = ImpactEstimator(dscg)
    if args.function:
        print(render_impact(estimator.estimate(args.function, scale=args.scale)))
        return 0
    print(f"top functions by saving at self-CPU x{args.scale:g}:")
    for impact in estimator.rank_by_saving(scale=args.scale, top=args.top):
        if impact.saving_ns <= 0:
            continue
        print(
            f"  {impact.function:44s} saves {impact.saving_ns / 1e6:8.3f} ms"
            f" ({impact.system_share * 100:5.1f}% of system CPU)"
        )
    return 0


def cmd_dscg_json(args) -> int:
    database, run_id, dscg = _load_dscg(args)
    _emit(args.output, dscg_to_json(dscg))
    return 0


def cmd_svg(args) -> int:
    database, run_id, dscg = _load_dscg(args)
    layout = HyperbolicLayout().layout_dscg(dscg)
    _emit(args.output, layout_to_svg(layout))
    return 0


def cmd_harness(args) -> int:
    database, run_id, dscg = _load_dscg(args)
    script = render_harness_script(derive_plan(dscg),
                                   module_docstring=f"Derived from run {run_id!r}.")
    _emit(args.output, script)
    return 0


def cmd_export_trace(args) -> int:
    from repro.telemetry import render_chrome_trace, render_otlp

    incidents = None
    if args.incidents:
        from repro.analysis.streaming import incidents_from_json

        with open(args.incidents) as handle:
            incidents = incidents_from_json(handle.read())
    database, run_id, dscg = _load_dscg(args)
    indent = 2 if args.pretty else None
    if args.format == "chrome":
        text = render_chrome_trace(
            dscg, run_id=run_id, indent=indent, incidents=incidents
        )
    else:
        text = render_otlp(dscg, run_id=run_id, indent=indent, incidents=incidents)
    _emit(args.output, text)
    return 0


def cmd_incidents(args) -> int:
    """Streaming spike detection over a collected run (or the demo).

    Exits 1 when incidents fired — scriptable as a regression gate:
    ``repro incidents run.db && echo clean``.
    """
    from repro.analysis.streaming import (
        DetectionConfig,
        detect_run,
        incidents_to_json,
        seeded_incident_report,
    )

    config = DetectionConfig(
        window=args.window,
        min_samples=args.min_samples,
        z_threshold=args.z_threshold,
        persistence=args.persistence,
        cooldown=args.cooldown,
    )
    watch = None
    if args.watch:
        watch = lambda report: print(report.one_line(), flush=True)  # noqa: E731
    if args.demo_faults is not None:
        document, incidents = seeded_incident_report(
            args.demo_faults, calls=args.calls, config=config, watch=watch
        )
    else:
        if not args.database:
            raise SystemExit("incidents: provide a database or --demo-faults SEED")
        database, run_id = _open_run(args)
        detector = detect_run(database, run_id, config=config, on_incident=watch)
        document = incidents_to_json(
            detector.incidents, run_id=run_id, extra={"config": config.to_dict()}
        )
        incidents = detector.incidents
    _emit(args.output, document)
    return 1 if incidents else 0


def cmd_metrics(args) -> int:
    """Drive a demo workload with self-metrics enabled; print the scrape."""
    from repro import telemetry
    from repro.apps.pps import PpsSystem, four_process_deployment
    from repro.collector import LogCollector
    from repro.core import MonitorMode
    from repro.telemetry.pipeline import LiveMetricsPipeline

    registry = telemetry.enable(telemetry.MetricsRegistry())
    try:
        pps = PpsSystem(four_process_deployment(), mode=MonitorMode[args.mode.upper()])
        try:
            slo_ns = int(args.slo_ms * 1e6) if args.slo_ms is not None else None
            pipeline = LiveMetricsPipeline(
                pps.processes.values(), registry=registry, latency_slo_ns=slo_ns
            )
            pipeline.start(interval_s=0.02)
            pps.run(njobs=args.jobs, pages=args.pages, complexity=args.complexity)
            pps.quiesce()
            pipeline.stop()
            collector = LogCollector(
                MonitoringDatabase(args.database) if args.database else None
            )
            collector.collect(pps.processes.values(),
                              description="PPS telemetry demo (CLI)")
        finally:
            pps.shutdown()
        _emit(args.output, telemetry.render_prometheus(registry))
        return 0
    finally:
        telemetry.disable()


def _build_predicate(args):
    """A :class:`ScanPredicate` from the shared ``query`` flags (or None)."""
    from repro.store import ScanPredicate

    predicate = ScanPredicate(
        ts_min=args.since,
        ts_max=args.until,
        interfaces=frozenset(args.interface) if args.interface else None,
        operations=frozenset(args.operation) if args.operation else None,
        chain_prefix=args.chain_prefix,
    )
    return None if predicate.is_empty else predicate


def cmd_query(args) -> int:
    """Predicated store query: one run, or cross-run via the catalog."""
    import json

    from repro.store import RunCatalog, ScanStats, SegmentStore, run_query

    predicate = _build_predicate(args)
    if args.last is not None:
        # Cross-run catalog mode: the predicated scan over each of the
        # newest N runs, per-operation latency merged deterministically.
        database = open_store(args.database)
        if not isinstance(database, SegmentStore):
            raise SystemExit("query --last needs a segment store (the run"
                             " catalog lives in its directory layout)")
        result = RunCatalog(database).query(predicate, last_n=args.last).to_dict()
    else:
        database, run_id = _open_run(args)
        stats = ScanStats()
        result = run_query(database, run_id, predicate, stats=stats)
    _emit(args.output, json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_store_info(args) -> int:
    """Per-run record/segment/compaction report of a storage backend."""
    import json

    from repro.store import RunCatalog, SegmentStore

    database = open_store(args.database)
    if isinstance(database, SegmentStore):
        info = database.store_info()
        if args.catalog:
            info["catalog"] = RunCatalog(database).catalog_info()
    elif args.catalog:
        raise SystemExit("store-info --catalog needs a segment store")
    else:
        info = {
            "backend": "sqlite",
            "path": database.path,
            "runs": [
                {
                    "run_id": meta.run_id,
                    "records": database.record_count(meta.run_id),
                    "chains": len(database.unique_chain_uuids(meta.run_id)),
                    "schema_version": (meta.extra or {}).get("schema_version"),
                }
                for meta in database.runs()
            ],
        }
    _emit(args.output, json.dumps(info, indent=2, sort_keys=True))
    return 0


def cmd_suite_list(args) -> int:
    """Print a suite's expanded scenario grid without running it."""
    from repro.scenarios import expand_grid, load_suite

    config = load_suite(args.suite)
    scenarios = expand_grid(config, seed=args.seed)
    print(f"suite {config.name}: {len(scenarios)} scenarios"
          f" across {len(config.grids)} grid(s)")
    for spec in scenarios:
        invariants = ",".join(i.name for i in spec.invariants) or "-"
        print(f"  [{spec.index:3d}] seed={spec.seed:>10} {spec.scenario_id}"
              f"  invariants={invariants}")
    return 0


def cmd_suite_run(args) -> int:
    """Run a suite and emit its machine-readable report."""
    import json

    from repro.scenarios import load_suite, run_suite

    config = load_suite(args.suite)
    report = run_suite(
        config, workers=args.workers, seed=args.seed, only=args.only or None
    )
    _emit(args.output, report.to_json())
    failures = report.failures()
    summary = (
        f"suite {report.suite}: {len(report.outcomes)} scenarios,"
        f" {len(failures)} failed"
    )
    print(summary, file=sys.stderr)
    for outcome in failures:
        failed = [r.name for r in outcome.invariants if not r.passed]
        print(f"  FAIL {outcome.scenario_id}"
              f" invariants={','.join(failed) or 'hooks'}", file=sys.stderr)
    return 1 if failures else 0


def cmd_cluster_identity(args) -> int:
    """Cluster-vs-single-process bit-identity check (in-process).

    Runs the seeded ring workload twice — once on a real worker-process
    cluster over TCP with sharded spool shipping, once inside this
    interpreter — and compares the canonical DSCG/CCSG documents byte
    for byte. Exit 0 only when every field is identical. The optional
    output files get each pass's document for CI to ``diff``.
    """
    import json
    import tempfile

    from repro.cluster.identity import run_identity_check

    with tempfile.TemporaryDirectory(prefix="repro-identity-") as workdir:
        outcome = run_identity_check(
            args.workers,
            args.calls,
            workdir,
            cluster_output=args.output_cluster,
            reference_output=args.output_single,
        )
    checks = outcome["checks"]
    print(json.dumps(checks, indent=2, sort_keys=True))
    for path in (args.output_cluster, args.output_single):
        if path:
            print(f"wrote {path}", file=sys.stderr)
    return 0 if checks["identical"] else 1


def cmd_cluster_up(args) -> int:
    """Launch the cluster service daemon and wait for it to come up."""
    import json
    import os
    import subprocess
    import time

    from repro.cluster.service import state_path

    path = state_path(args.state)
    if os.path.exists(path):
        raise SystemExit(f"cluster state already exists at {path};"
                         f" run `repro cluster down --state {args.state}` first")
    os.makedirs(args.state, exist_ok=True)
    log_path = os.path.join(args.state, "service.log")
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cluster.service",
                "--state", args.state,
                "--workers", str(args.workers),
                "--plane", args.plane,
            ],
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
            start_new_session=True,
        )
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(f"cluster service exited early"
                             f" (status {process.returncode}); see {log_path}")
        if os.path.exists(path):
            with open(path) as handle:
                state = json.load(handle)
            print(f"cluster up: {args.workers} worker(s), plane={args.plane},"
                  f" control port {state['port']}, state {path}")
            return 0
        time.sleep(0.05)
    process.kill()
    raise SystemExit(f"cluster failed to come up within {args.timeout:g}s;"
                     f" see {log_path}")


def cmd_cluster_run(args) -> int:
    """Drive work on a running cluster (monitored calls or a load step)."""
    import json

    from repro.cluster.control import load_result
    from repro.cluster.loadgen import merge_results
    from repro.cluster.service import service

    with service(args.state) as cluster:
        if args.rate is not None:
            loads = cluster.run_load(
                args.rate, args.arrivals, args.seed, args.max_inflight
            )
            per_worker = [load_result(load) for load in loads]
            reply = {
                "merged": merge_results(per_worker).to_json(),
                "per_worker": [result.to_json() for result in per_worker],
            }
        else:
            errors = cluster.run_calls(args.calls)
            reply = {
                "errors": sum(errors),
                "calls": args.calls * len(errors),
                "workers": len(errors),
            }
    _emit(args.output, json.dumps(reply, indent=2, sort_keys=True))
    return 0


def cmd_cluster_collect(args) -> int:
    """Collect every worker's spool into a store as one merged run."""
    from repro.cluster.service import service

    with service(args.state) as cluster:
        records = cluster.collect(
            args.database, getattr(args, "store", None) or "", args.run_id,
            args.description,
        )
    print(f"collected run {args.run_id!r} ({records} records)"
          f" into {args.database}")
    return 0


def cmd_cluster_status(args) -> int:
    import json

    from repro.cluster.service import read_state, service

    state = read_state(args.state)
    with service(args.state, timeout=30.0) as cluster:
        liveness = cluster.status()
    reply = {
        "workers": state["workers"],
        "plane": state["plane"],
        "alive": {str(w.index): w.alive for w in liveness},
        "buffered": {
            str(w.index): {o.process: o.records for o in w.buffered}
            for w in liveness
        },
    }
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0 if all(reply["alive"].values()) else 1


def cmd_cluster_down(args) -> int:
    """Stop the cluster (and its service daemon).

    With ``--drain-into`` the workers are SIGTERMed and their final
    spools shipped into the given store before teardown.
    """
    from repro.cluster.service import service

    with service(args.state) as cluster:
        if args.drain_into:
            records = cluster.drain(
                args.drain_into, getattr(args, "store", None) or "", args.run_id
            )
            print(f"drained {records} record(s) into {args.drain_into}")
        else:
            cluster.down()
    print("cluster down")
    return 0


def _emit(output: str | None, text: str) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
        print(f"wrote {output}")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Global causality capture toolkit (ICDCS 2003)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_flag(command):
        command.add_argument(
            "--store", default=None, choices=["sqlite", "segment"],
            help="storage backend (default: autodetect from the path;"
                 " directories hold segment stores, files SQLite)",
        )

    demo_pps = sub.add_parser("demo-pps", help="run the PPS and collect a database")
    demo_pps.add_argument("database")
    demo_pps.add_argument("--mode", default="cpu",
                          choices=["causality", "latency", "cpu", "semantics", "full"])
    demo_pps.add_argument("--jobs", type=int, default=3)
    demo_pps.add_argument("--pages", type=int, default=4)
    demo_pps.add_argument("--complexity", type=int, default=2)
    demo_pps.add_argument("--monolithic", action="store_true")
    add_store_flag(demo_pps)
    demo_pps.set_defaults(func=cmd_demo_pps)

    demo_embedded = sub.add_parser("demo-embedded",
                                   help="run the synthetic embedded system")
    demo_embedded.add_argument("database")
    demo_embedded.add_argument("--calls", type=int, default=5_000)
    demo_embedded.add_argument("--roots", type=int, default=8)
    add_store_flag(demo_embedded)
    demo_embedded.set_defaults(func=cmd_demo_embedded)

    store_info = sub.add_parser(
        "store-info", help="segment/record/compaction report of a storage backend"
    )
    store_info.add_argument("database")
    store_info.add_argument("--catalog", action="store_true",
                            help="include the run-catalog report (per-run"
                                 " summaries, downsampled flags; segment"
                                 " stores only)")
    store_info.add_argument("--output", default=None)
    store_info.set_defaults(func=cmd_store_info)

    query = sub.add_parser(
        "query",
        help="predicate-pushdown store query (per-operation latency stats)",
    )
    query.add_argument("database")
    query.add_argument("--run", default=None, help="run id (default: latest)")
    query.add_argument("--since", type=int, default=None, metavar="NS",
                       help="inclusive wall-clock lower bound (ns; record"
                            " anchor is wall_start, else wall_end)")
    query.add_argument("--until", type=int, default=None, metavar="NS",
                       help="inclusive wall-clock upper bound (ns)")
    query.add_argument("--interface", action="append", default=None,
                       help="keep only this interface (repeatable)")
    query.add_argument("--operation", action="append", default=None,
                       help="keep only this operation (repeatable)")
    query.add_argument("--chain-prefix", default=None,
                       help="keep only chains whose uuid starts with this")
    query.add_argument("--last", type=int, default=None, metavar="N",
                       help="cross-run mode: aggregate over the newest N"
                            " runs via the catalog (segment stores only)")
    query.add_argument("--output", default=None)
    query.set_defaults(func=cmd_query)

    def add_run_command(name, func, help_text, extra=None):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("database")
        command.add_argument("--run", default=None, help="run id (default: latest)")
        if extra:
            extra(command)
        command.set_defaults(func=func)
        return command

    add_run_command("summary", cmd_summary, "DSCG summary of a collected run")
    add_run_command(
        "loss", cmd_loss, "canonical loss-accounting JSON for a run",
        lambda c: c.add_argument("--output", default=None),
    )
    add_run_command(
        "latency", cmd_latency, "per-function latency table",
        lambda c: c.add_argument("--limit", type=int, default=20),
    )
    add_run_command(
        "cpu", cmd_cpu, "per-function self-CPU table",
        lambda c: c.add_argument("--limit", type=int, default=20),
    )
    add_run_command(
        "ccsg", cmd_ccsg, "emit the CCSG XML (Figure 6)",
        lambda c: c.add_argument("--output", default=None),
    )
    add_run_command(
        "critical-path", cmd_critical_path, "latency critical paths",
        lambda c: c.add_argument("--top", type=int, default=3),
    )
    def impact_args(command):
        command.add_argument("--function", default=None,
                             help="qualified function (default: rank all)")
        command.add_argument("--scale", type=float, default=0.5)
        command.add_argument("--top", type=int, default=10)

    add_run_command(
        "impact", cmd_impact, "what-if CPU impact estimation", impact_args
    )
    add_run_command(
        "dscg-json", cmd_dscg_json, "export the annotated DSCG as JSON",
        lambda c: c.add_argument("--output", default=None),
    )
    add_run_command(
        "svg", cmd_svg, "hyperbolic DSCG layout as SVG (Figure 5)",
        lambda c: c.add_argument("--output", default=None),
    )
    add_run_command(
        "harness", cmd_harness, "generate a replay harness script",
        lambda c: c.add_argument("--output", default=None),
    )

    def export_trace_args(command):
        command.add_argument("--format", default="chrome",
                             choices=["chrome", "otlp"],
                             help="chrome = Perfetto-loadable trace events;"
                                  " otlp = OTLP-style span JSON")
        command.add_argument("--output", default=None)
        command.add_argument("--pretty", action="store_true",
                             help="indent the JSON output")
        command.add_argument("--incidents", default=None, metavar="FILE",
                             help="incident-report JSON (from `repro incidents"
                                  " --output`); annotates implicated chains")

    add_run_command(
        "export-trace", cmd_export_trace,
        "export a collected run as standard trace JSON", export_trace_args,
    )

    incidents = sub.add_parser(
        "incidents",
        help="streaming spike detection and causal root-cause ranking",
    )
    incidents.add_argument("database", nargs="?", default=None,
                           help="monitoring store to replay (omit with"
                                " --demo-faults)")
    incidents.add_argument("--run", default=None, help="run id (default: latest)")
    incidents.add_argument("--demo-faults", type=int, default=None, metavar="SEED",
                           help="run the seeded three-tier delay scenario"
                                " instead of reading a store")
    incidents.add_argument("--calls", type=int, default=48,
                           help="demo scenario call count")
    incidents.add_argument("--watch", action="store_true",
                           help="print incidents live as they fire")
    incidents.add_argument("--window", type=int, default=64,
                           help="rolling baseline window (completions)")
    incidents.add_argument("--min-samples", type=int, default=8,
                           help="baseline warm-up before alarming")
    incidents.add_argument("--z-threshold", type=float, default=4.0,
                           help="robust z-score spike threshold")
    incidents.add_argument("--persistence", type=int, default=3,
                           help="consecutive anomalies to open an incident")
    incidents.add_argument("--cooldown", type=int, default=8,
                           help="consecutive normals to close an incident")
    incidents.add_argument("--output", default=None)
    incidents.set_defaults(func=cmd_incidents)

    metrics = sub.add_parser(
        "metrics",
        help="run the PPS with framework self-metrics on; print Prometheus text",
    )
    metrics.add_argument("--database", default=None,
                         help="also collect the run into this database file")
    metrics.add_argument("--mode", default="latency",
                         choices=["causality", "latency", "cpu", "semantics", "full"])
    metrics.add_argument("--jobs", type=int, default=3)
    metrics.add_argument("--pages", type=int, default=4)
    metrics.add_argument("--complexity", type=int, default=2)
    metrics.add_argument("--slo-ms", type=float, default=None,
                         help="latency SLO for breach counters, in milliseconds")
    metrics.add_argument("--output", default=None)
    metrics.set_defaults(func=cmd_metrics)

    suite = sub.add_parser(
        "suite",
        help="declarative scenario suites: expand, run, check invariants",
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)

    def suite_common(command):
        command.add_argument("--suite", required=True,
                             help="path to a suite YAML file (see suites/)")
        command.add_argument("--seed", type=int, default=None,
                             help="override the suite file's seed")

    suite_list = suite_sub.add_parser(
        "list", help="print the expanded scenario grid without running it"
    )
    suite_common(suite_list)
    suite_list.set_defaults(func=cmd_suite_list)

    suite_run = suite_sub.add_parser(
        "run", help="run every scenario and emit the SuiteReport JSON"
    )
    suite_common(suite_run)
    suite_run.add_argument("--workers", type=int, default=1,
                           help="worker threads (0 = one per CPU core)")
    suite_run.add_argument("--only", default=None,
                           help="run only scenarios whose id contains this substring")
    suite_run.add_argument("--output", default=None,
                           help="write the report JSON here instead of stdout")
    suite_run.set_defaults(func=cmd_suite_run)

    cluster = sub.add_parser(
        "cluster",
        help="real-socket multi-process deployments (up/run/collect/down,"
             " bit-identity verification)",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    def cluster_state(command):
        command.add_argument("--state", required=True,
                             help="cluster state directory (one directory"
                                  " == one running cluster)")

    cluster_up = cluster_sub.add_parser(
        "up", help="launch worker processes behind a detached service daemon"
    )
    cluster_state(cluster_up)
    cluster_up.add_argument("--workers", type=int, default=2)
    cluster_up.add_argument("--plane", default="identity",
                            choices=["identity", "load"],
                            help="identity = monitored virtual-clock ring;"
                                 " load = unmonitored asyncio load plane")
    cluster_up.add_argument("--timeout", type=float, default=60.0)
    cluster_up.set_defaults(func=cmd_cluster_up)

    cluster_run = cluster_sub.add_parser(
        "run", help="drive monitored calls or one open-loop load step"
    )
    cluster_state(cluster_run)
    cluster_run.add_argument("--calls", type=int, default=8,
                             help="monitored ring calls per worker"
                                  " (identity plane)")
    cluster_run.add_argument("--rate", type=float, default=None,
                             help="open-loop arrival rate per worker"
                                  " (switches to a load step; load plane)")
    cluster_run.add_argument("--arrivals", type=int, default=1000,
                             help="arrivals per worker for the load step")
    cluster_run.add_argument("--seed", type=int, default=2027)
    cluster_run.add_argument("--max-inflight", type=int, default=4096,
                             help="shed arrivals beyond this many outstanding")
    cluster_run.add_argument("--output", default=None)
    cluster_run.set_defaults(func=cmd_cluster_run)

    cluster_collect = cluster_sub.add_parser(
        "collect", help="ship every worker's spool into a store as one run"
    )
    cluster_state(cluster_collect)
    cluster_collect.add_argument("database")
    cluster_collect.add_argument("--run-id", default="cluster")
    cluster_collect.add_argument("--description", default="cluster (CLI)")
    add_store_flag(cluster_collect)
    cluster_collect.set_defaults(func=cmd_cluster_collect)

    cluster_status = cluster_sub.add_parser(
        "status", help="liveness and buffer occupancy of a running cluster"
    )
    cluster_state(cluster_status)
    cluster_status.set_defaults(func=cmd_cluster_status)

    cluster_down = cluster_sub.add_parser(
        "down", help="stop the workers and the service daemon"
    )
    cluster_state(cluster_down)
    cluster_down.add_argument("--drain-into", default=None, metavar="DATABASE",
                              help="SIGTERM-drain final spools into this"
                                   " store before teardown")
    cluster_down.add_argument("--run-id", default="drain")
    add_store_flag(cluster_down)
    cluster_down.set_defaults(func=cmd_cluster_down)

    cluster_identity = cluster_sub.add_parser(
        "identity",
        help="verify cluster-vs-single-process DSCG/CCSG bit-identity",
    )
    cluster_identity.add_argument("--workers", type=int, default=2)
    cluster_identity.add_argument("--calls", type=int, default=4)
    cluster_identity.add_argument("--output-cluster", default=None,
                                  help="write the cluster pass's canonical"
                                       " JSON document here (CI diffs it)")
    cluster_identity.add_argument("--output-single", default=None,
                                  help="write the single-process pass's"
                                       " document here")
    cluster_identity.set_defaults(func=cmd_cluster_identity)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
