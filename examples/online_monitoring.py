#!/usr/bin/env python3
"""On-line causality monitoring (the paper's future-work direction).

Section 6 lists "apply[ing] the global causality capturing technique from
the on-line perspective for application-level system management" as
future work. This example runs the PPS while an :class:`OnlineMonitor`
polls the live per-process log buffers: it watches in-flight invocations,
accumulates running latency statistics and raises SLO alerts — the
management hook an adaptive runtime would subscribe to.

Run:  python examples/online_monitoring.py
"""

import threading
import time

from repro.analysis import OnlineMonitor
from repro.analysis.report import format_ns
from repro.apps.pps import PpsSystem, four_process_deployment
from repro.core import MonitorMode
from repro.platform import RealClock


def main() -> None:
    pps = PpsSystem(
        four_process_deployment(),
        mode=MonitorMode.LATENCY,
        clock=RealClock(),
        cost_scale=200_000,  # 0.2 ms per work unit: visible latencies
    )
    alerts = []
    monitor = OnlineMonitor(
        latency_slo_ns=3_000_000,  # 3 ms SLO
        on_alert=alerts.append,
    )

    stop = threading.Event()
    snapshots = []

    def poller():
        while not stop.is_set():
            monitor.poll(list(pps.processes.values()))
            open_calls = monitor.open_invocations()
            if open_calls:
                deepest = max(open_calls, key=lambda c: c.depth)
                snapshots.append(
                    f"live: {len(open_calls)} call(s) in flight,"
                    f" deepest {deepest.function} at depth {deepest.depth}"
                )
            time.sleep(0.002)

    thread = threading.Thread(target=poller)
    thread.start()
    try:
        pps.run(njobs=4, pages=3, complexity=2)
        pps.quiesce()
        monitor.poll(list(pps.processes.values()))
    finally:
        stop.set()
        thread.join()
        pps.shutdown()

    print("=== Live snapshots (sampled while the pipeline ran) ===")
    for line in snapshots[:8]:
        print(" ", line)
    if len(snapshots) > 8:
        print(f"  ... {len(snapshots) - 8} more")

    print()
    print("=== Running latency statistics ===")
    stats = sorted(
        monitor.latency_stats().items(), key=lambda kv: kv[1].mean_ns, reverse=True
    )
    for function, latency in stats[:8]:
        print(f"  {function:42s} n={latency.count:3d}"
              f" mean={format_ns(latency.mean_ns):>9s}"
              f" max={format_ns(latency.max_ns):>9s}")

    print()
    print(f"=== Alerts (SLO 3 ms) — {len(alerts)} raised ===")
    for alert in alerts[:5]:
        print(f"  [{alert.kind}] {alert.function}: {alert.detail}")
    print()
    print(f"completed calls observed on-line: {monitor.completed_calls()}")


if __name__ == "__main__":
    main()
