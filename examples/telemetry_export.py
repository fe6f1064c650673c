#!/usr/bin/env python3
"""Telemetry end to end: self-metrics, live pipeline, trace export.

Runs the PPS with framework self-metrics enabled and a live metrics
pipeline attached, prints a Prometheus scrape of the monitor's own hot
paths, then exports the reconstructed DSCG as both a Perfetto-loadable
Chrome trace and an OTLP-style span document.

Run:  python examples/telemetry_export.py
Then: load /tmp/repro_trace.json at https://ui.perfetto.dev
"""

import json

from repro import telemetry
from repro.analysis import reconstruct
from repro.analysis.chrome_trace import render_chrome_trace
from repro.analysis.otlp import render_otlp
from repro.analysis.pipeline import LiveMetricsPipeline
from repro.apps.pps import PpsSystem, four_process_deployment
from repro.collector import LogCollector
from repro.core import MonitorMode

CHROME_PATH = "/tmp/repro_trace.json"
OTLP_PATH = "/tmp/repro_spans.json"


def main() -> None:
    registry = telemetry.enable()
    pps = PpsSystem(four_process_deployment(), mode=MonitorMode.LATENCY)
    try:
        pipeline = LiveMetricsPipeline(
            pps.processes.values(),
            registry=registry,
            latency_slo_ns=5_000_000,  # 5 ms SLO feeds the breach counter
        )
        pipeline.start(interval_s=0.02)
        pps.run(njobs=3, pages=3, complexity=2)
        pps.quiesce()
        pipeline.stop()

        collector = LogCollector()
        run_id = collector.collect(pps.processes.values(),
                                   description="telemetry example")
        dscg = reconstruct(collector.database, run_id)
    finally:
        pps.shutdown()

    print("=== Prometheus scrape of the monitor's self-metrics ===")
    scrape = telemetry.render_prometheus(registry)
    for line in scrape.splitlines():
        if line.startswith(("repro_orb_dispatch_total",
                            "repro_probe_records_total",
                            "repro_collector_",
                            "repro_online_completed")):
            print(f"  {line}")
    telemetry.disable()

    with open(CHROME_PATH, "w") as handle:
        handle.write(render_chrome_trace(dscg, run_id=run_id))
    with open(OTLP_PATH, "w") as handle:
        handle.write(render_otlp(dscg, run_id=run_id, indent=2))

    document = json.loads(open(CHROME_PATH).read())
    print()
    print(f"=== Trace export for run {run_id!r} ===")
    print(f"  chrome trace: {CHROME_PATH}"
          f" ({document['otherData']['slices']} slices,"
          f" {document['otherData']['chains']} chains"
          " — open in ui.perfetto.dev)")
    print(f"  otlp spans  : {OTLP_PATH}")
    primary = next(e for e in document["traceEvents"]
                   if e.get("args", {}).get("primary"))
    print(f"  sample slice: {primary['name']}"
          f" dur={primary['dur']:.1f}us"
          f" overhead={primary['args']['probe_overhead_ns']}ns"
          f" L(F)={primary['args'].get('latency_compensated_ns')}ns")


if __name__ == "__main__":
    main()
