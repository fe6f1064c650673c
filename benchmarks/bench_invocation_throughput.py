"""Invocation data-plane throughput benchmark.

Measures calls/sec and per-probe overhead across the matrix
``{sync_remote, oneway_remote, collocated} x {1, 8, 32 client threads}``
for two data planes, plus an **async** plane ladder — ``sync_remote``
driven by ``{1, 64, 1024, 8192}`` pipelined asyncio tasks over one
event-loop channel, with a threaded-mux comparison cell at 1024 OS
threads and honesty fields recording requested vs observed in-flight
depth. The async plane also runs the ``collocated`` and
``oneway_remote`` kinds at ``{1, 64, 1024}`` tasks, mirroring the
threaded matrix (oneways measure send rate with the same trailing-call
record settle):

- **fast** — the current tree: multiplexed client channels (request
  pipelining over one shared connection), fused CDR marshalling plans,
  zero-copy GIOP decode, batched per-thread probe logging.
- **baseline** — the pre-PR lock-step data plane. Two baselines are
  supported, recorded honestly in the output JSON:

  * ``--baseline-src PATH`` points at a checkout of the pre-PR tree
    (e.g. a ``git worktree`` of the parent commit); the same cells run
    in a subprocess with ``PYTHONPATH`` set to that tree. This is the
    real pre-PR data plane and is what the committed
    ``BENCH_invocation_throughput.json`` uses.
  * without ``--baseline-src`` the baseline runs in-process against the
    current tree with ``channel="per-thread"`` — a *compat*
    approximation used by the CI smoke job, labelled
    ``"in-tree-compat"`` so nobody mistakes it for the real pre-PR
    numbers. Marshalling is the fused fast path on both planes: the
    per-field ``_*_slow`` entry points left ``orb/runtime.py`` (they are
    still patched in when a ``--baseline-src`` tree has them).

Probe overhead is computed at 1 client thread (no scheduler noise):
``(ns_per_call_monitored - ns_per_call_unmonitored) / records_per_call``
— i.e. the paper's O_F, amortized per probe record actually written.

Every cell runs in a fresh subprocess so import state, marshal-plan
caches and telemetry rebinding never leak between planes.

Usage::

    PYTHONPATH=src python benchmarks/bench_invocation_throughput.py \
        [--quick] [--check] [--baseline-src /path/to/prepr/src] \
        [--max-overhead-ns N] [--output BENCH_invocation_throughput.json]
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import subprocess
import sys
import threading
import time

KINDS = ("sync_remote", "oneway_remote", "collocated")
THREADS = (1, 8, 32)
#: Concurrency ladder for the asyncio plane: one driver *task* per
#: in-flight call, all pipelined on one event-loop channel. The threaded
#: mux comparison point runs the same sync_remote workload with this many
#: OS threads instead.
ASYNC_INFLIGHT = (1, 64, 1024, 8192)
#: Secondary async ladder for the collocated and oneway kinds — the
#: interesting comparisons live well below the 8192 extreme.
ASYNC_KIND_INFLIGHT = (1, 64, 1024)
ASYNC_KINDS = ("collocated", "oneway_remote")
MUX_COMPARE_THREADS = 1024

IDL = """
module Bench {
  interface Svc {
    long ping(in long x);
    oneway void cast(in long x);
  };
};
"""


# ---------------------------------------------------------------------------
# Worker mode: runs inside a subprocess against whatever tree PYTHONPATH
# selects (current tree for the fast plane, a pre-PR checkout for the
# real baseline). Uses only API that exists in both trees and
# feature-detects the rest.
# ---------------------------------------------------------------------------


def _measure_cell(kind: str, threads: int, monitored: bool, plane: str,
                  total_calls: int) -> dict:
    from repro.core import MonitorConfig, MonitoringRuntime, MonitorMode
    from repro.idl import compile_idl
    from repro.orb import InterfaceRegistry, Orb, ThreadPool
    from repro.platform import Host, Network, SimProcess

    network = Network()
    host = Host("bench-host")  # real clock: throughput is wall time
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry)

    server = SimProcess("bench-server", host)
    client = SimProcess("bench-client", host)
    if monitored:
        MonitoringRuntime(server, MonitorConfig(mode=MonitorMode.LATENCY))
        MonitoringRuntime(client, MonitorConfig(mode=MonitorMode.LATENCY))

    orb_kwargs = {}
    channel_param = "channel" in inspect.signature(Orb.__init__).parameters
    if channel_param:
        orb_kwargs["channel"] = "mux" if plane == "fast" else "per-thread"
    server_orb = Orb(server, network, policy=ThreadPool(size=8),
                     registry=registry, **orb_kwargs)

    class Impl(compiled.Svc):
        def ping(self, x):
            return x + 1

        def cast(self, x):
            pass

    ref = server_orb.activate(Impl())
    if kind == "collocated":
        caller_orb = server_orb
    else:
        caller_orb = Orb(client, network, registry=registry, **orb_kwargs)
    stub = caller_orb.resolve(ref)

    # A tree that still carries the per-field ``_*_slow`` marshallers
    # (one between the fast-path PR and their removal) also reverts
    # marshalling to them; this tree and a real pre-PR tree have none,
    # and nothing is patched.
    patched = []
    if plane == "baseline" and channel_param:
        import repro.orb.runtime as _rt

        for name in ("_marshal_args", "_unmarshal_args",
                     "_marshal_result", "_unmarshal_result"):
            slow = getattr(_rt, name + "_slow", None)
            if slow is not None:
                patched.append((name, getattr(_rt, name)))
                setattr(_rt, name, slow)

    per_thread = max(1, total_calls // threads)
    calls = per_thread * threads
    oneway = kind == "oneway_remote"
    barrier = threading.Barrier(threads + 1)

    def work():
        invoke = stub.cast if oneway else stub.ping
        barrier.wait()
        for _ in range(per_thread):
            invoke(7)

    workers = [threading.Thread(target=work, name=f"bench-client-{i}")
               for i in range(threads)]
    for thread in workers:
        thread.start()
    barrier.wait()
    start = time.perf_counter_ns()
    for thread in workers:
        thread.join()
    elapsed_ns = time.perf_counter_ns() - start

    def _records() -> int:
        return len(server.log_buffer) + len(client.log_buffer)

    records = 0
    if monitored:
        if oneway:
            # Oneways measure send rate; dispatches may still be queued.
            # One trailing sync call flushes the FIFO pool queue, then we
            # wait for the record count to go quiescent.
            stub_sync = caller_orb.resolve(ref)
            stub_sync.ping(0)
            records = _records()
            while True:
                time.sleep(0.02)
                now = _records()
                if now == records:
                    break
                records = now
            records -= 4  # the flush call's own probe records
        else:
            records = _records()

    try:
        caller_orb.shutdown()
        if caller_orb is not server_orb:
            server_orb.shutdown()
    finally:
        client.shutdown()
        server.shutdown()
        for name, original in patched:
            import repro.orb.runtime as _rt

            setattr(_rt, name, original)

    return {
        "kind": kind,
        "threads": threads,
        "plane": plane,
        "monitored": monitored,
        "calls": calls,
        "elapsed_ns": elapsed_ns,
        "calls_per_sec": round(calls / (elapsed_ns / 1e9), 1),
        "ns_per_call": round(elapsed_ns / calls, 1),
        "probe_records": records,
        "records_per_call": round(records / calls, 2) if monitored else 0.0,
    }


def _measure_async_cell(kind: str, inflight: int, monitored: bool,
                        total_calls: int) -> dict:
    """One asyncio-plane cell: ``inflight`` driver tasks pipelining
    ``kind`` calls over one shared event-loop channel.

    Kinds mirror the threaded matrix: ``sync_remote`` awaits a reply
    per call, ``oneway_remote`` awaits only the send (measuring send
    rate, with a trailing sync call + record-count settle for honest
    probe accounting, exactly like the threaded oneway cell), and
    ``collocated`` resolves the stub on the serving ORB so the call
    never leaves the process.

    Honesty fields: ``requested_inflight`` is the task count we asked
    for; ``effective_inflight`` is the channel's observed high-water mark
    of concurrently pending requests (``AsyncMuxChannel.peak_pending``) —
    if replies drain faster than tasks launch, the two differ and the
    JSON says so (0 for collocated: no channel is involved at all).
    """
    import asyncio

    from repro.core import MonitorConfig, MonitoringRuntime, MonitorMode
    from repro.idl import compile_idl
    from repro.orb import AsyncioDispatch, InterfaceRegistry, Orb
    from repro.platform import Host, Network, SimProcess

    network = Network()
    host = Host("bench-host")  # real clock: throughput is wall time
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry,
                           async_mode=True)

    server = SimProcess("bench-server", host)
    client = SimProcess("bench-client", host)
    if monitored:
        MonitoringRuntime(server, MonitorConfig(mode=MonitorMode.LATENCY))
        MonitoringRuntime(client, MonitorConfig(mode=MonitorMode.LATENCY))

    server_orb = Orb(server, network, policy=AsyncioDispatch(),
                     registry=registry, channel="asyncio")

    class Impl(compiled.Svc):
        async def ping(self, x):
            return x + 1

        async def cast(self, x):
            pass

    ref = server_orb.activate(Impl())
    if kind == "collocated":
        caller_orb = server_orb
    else:
        caller_orb = Orb(client, network, registry=registry, channel="asyncio")
    stub = caller_orb.resolve(ref)

    per_task = max(1, total_calls // inflight)
    calls = per_task * inflight
    oneway = kind == "oneway_remote"

    def _records() -> int:
        return len(server.log_buffer) + len(client.log_buffer)

    async def worker():
        invoke = stub.cast if oneway else stub.ping
        for _ in range(per_task):
            await invoke(7)

    async def drive() -> int:
        start = time.perf_counter_ns()
        await asyncio.gather(*(worker() for _ in range(inflight)))
        elapsed = time.perf_counter_ns() - start
        if oneway and monitored:
            # Oneways measure send rate; dispatches may still be queued
            # on the server loop. A trailing sync call orders behind
            # every cast on the shared channel, then the record count is
            # polled to quiescence *inside* the loop (the dispatch tasks
            # die with it otherwise).
            await stub.ping(0)
            settled = -1
            while True:
                await asyncio.sleep(0.02)
                now = _records()
                if now == settled:
                    break
                settled = now
        return elapsed

    elapsed_ns = asyncio.run(drive())
    peak_pending = max(
        (ch.peak_pending for ch in caller_orb._async_channels.values()),
        default=0,
    )

    records = 0
    if monitored:
        records = _records()
        if oneway:
            records -= 4  # the flush call's own probe records

    try:
        caller_orb.shutdown()
        if caller_orb is not server_orb:
            server_orb.shutdown()
    finally:
        client.shutdown()
        server.shutdown()

    return {
        "kind": kind,
        "threads": inflight,
        "plane": "async",
        "monitored": monitored,
        "requested_inflight": inflight,
        "effective_inflight": peak_pending,
        "calls": calls,
        "elapsed_ns": elapsed_ns,
        "calls_per_sec": round(calls / (elapsed_ns / 1e9), 1),
        "ns_per_call": round(elapsed_ns / calls, 1),
        "probe_records": records,
        "records_per_call": round(records / calls, 2) if monitored else 0.0,
    }


def _run_worker(spec_json: str) -> None:
    spec = json.loads(spec_json)
    repeat = spec.get("repeat", 1)
    results = []
    for cell in spec["cells"]:
        # Best-of-N: each run includes full setup/teardown; keeping the
        # fastest run filters scheduler noise out of sub-second cells.
        if cell["plane"] == "async":
            runs = [
                _measure_async_cell(cell.get("kind", "sync_remote"),
                                    cell["inflight"], cell["monitored"],
                                    spec["total_calls"])
                for _ in range(repeat)
            ]
        else:
            runs = [
                _measure_cell(cell["kind"], cell["threads"], cell["monitored"],
                              cell["plane"], spec["total_calls"])
                for _ in range(repeat)
            ]
        best = max(runs, key=lambda r: r["calls_per_sec"])
        best["all_runs_calls_per_sec"] = [r["calls_per_sec"] for r in runs]
        results.append(best)
    print(json.dumps(results))


# ---------------------------------------------------------------------------
# Orchestrator mode.
# ---------------------------------------------------------------------------


def _spawn_worker(cells: list[dict], total_calls: int,
                  pythonpath: str, repeat: int) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath
    spec = json.dumps(
        {"cells": cells, "total_calls": total_calls, "repeat": repeat}
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", spec],
        capture_output=True, text=True, env=env, timeout=1200,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench worker failed (PYTHONPATH={pythonpath}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _cell_key(cell: dict) -> tuple:
    return (cell["kind"], cell["threads"], cell["plane"], cell["monitored"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller call counts (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if a gate fails")
    parser.add_argument("--baseline-src", default=None,
                        help="src/ of a pre-PR checkout for the real baseline")
    parser.add_argument("--baseline-label", default=None,
                        help="label recorded for --baseline-src (e.g. git:<sha>)")
    parser.add_argument("--max-overhead-ns", type=float, default=None,
                        help="fail --check if mean per-probe overhead exceeds this")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail --check if sync_remote@8 speedup is below this")
    parser.add_argument("--min-async-inflight", type=int, default=5000,
                        help="fail --check if the async plane never sustains "
                             "this many concurrent in-flight calls")
    parser.add_argument("--repeat", type=int, default=None,
                        help="best-of-N runs per cell (default 3, 1 with --quick)")
    parser.add_argument("--calls", type=int, default=None,
                        help="total calls per cell (default 3000, 400 with --quick)")
    parser.add_argument("--output", default="BENCH_invocation_throughput.json")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        _run_worker(args.worker)
        return 0

    total_calls = args.calls or (400 if args.quick else 3000)
    repeat = args.repeat or (1 if args.quick else 3)
    here = os.path.dirname(os.path.abspath(__file__))
    fast_src = os.path.join(os.path.dirname(here), "src")

    fast_cells = [
        {"kind": kind, "threads": threads, "plane": "fast", "monitored": mon}
        for kind in KINDS for threads in THREADS for mon in (True, False)
    ]
    # The threaded-mux point of comparison for the asyncio plane: same
    # sync_remote workload at event-loop-scale concurrency, one parked OS
    # thread per in-flight call.
    fast_cells.append({
        "kind": "sync_remote", "threads": MUX_COMPARE_THREADS,
        "plane": "fast", "monitored": True,
    })
    async_cells = [
        {"kind": "sync_remote", "threads": n, "inflight": n,
         "plane": "async", "monitored": True}
        for n in ASYNC_INFLIGHT
    ] + [
        {"kind": "sync_remote", "threads": 1, "inflight": 1,
         "plane": "async", "monitored": False},
    ] + [
        {"kind": kind, "threads": n, "inflight": n,
         "plane": "async", "monitored": True}
        for kind in ASYNC_KINDS for n in ASYNC_KIND_INFLIGHT
    ]
    baseline_cells = [
        {"kind": kind, "threads": threads, "plane": "baseline", "monitored": True}
        for kind in KINDS for threads in THREADS
    ] + [
        {"kind": kind, "threads": 1, "plane": "baseline", "monitored": False}
        for kind in KINDS
    ]

    baseline_src = args.baseline_src or fast_src
    baseline_label = (
        args.baseline_label or ("pre-pr-checkout" if args.baseline_src
                                else "in-tree-compat")
    )

    print(f"fast plane: {len(fast_cells)} cells x {total_calls} calls",
          file=sys.stderr)
    fast = _spawn_worker(fast_cells, total_calls, fast_src, repeat)
    print(f"async plane: {len(async_cells)} cells x {total_calls} calls",
          file=sys.stderr)
    async_results = _spawn_worker(async_cells, total_calls, fast_src, repeat)
    print(f"baseline plane ({baseline_label}): {len(baseline_cells)} cells",
          file=sys.stderr)
    baseline = _spawn_worker(baseline_cells, total_calls, baseline_src, repeat)

    by_key = {_cell_key(c): c for c in fast + async_results + baseline}

    speedups: dict[str, dict[str, float]] = {}
    for kind in KINDS:
        speedups[kind] = {}
        for threads in THREADS:
            new = by_key[(kind, threads, "fast", True)]
            old = by_key[(kind, threads, "baseline", True)]
            speedups[kind][str(threads)] = round(
                new["calls_per_sec"] / old["calls_per_sec"], 2
            )

    def _overhead(plane: str, kind: str) -> float | None:
        mon = by_key[(kind, 1, plane, True)]
        unmon = by_key[(kind, 1, plane, False)]
        if not mon["records_per_call"]:
            return None
        return (mon["ns_per_call"] - unmon["ns_per_call"]) / mon["records_per_call"]

    probe_overhead = {
        plane: {kind: (None if _overhead(plane, kind) is None
                       else round(_overhead(plane, kind), 1))
                for kind in KINDS}
        for plane in ("fast", "baseline")
    }
    means = {}
    for plane, per_kind in probe_overhead.items():
        values = [v for v in per_kind.values() if v is not None]
        means[plane] = round(sum(values) / len(values), 1) if values else None

    mux_hi = by_key[("sync_remote", MUX_COMPARE_THREADS, "fast", True)]
    async_summary = {
        "calls_per_sec_by_inflight": {
            str(n): by_key[("sync_remote", n, "async", True)]["calls_per_sec"]
            for n in ASYNC_INFLIGHT
        },
        "effective_inflight": {
            str(n): by_key[("sync_remote", n, "async", True)]["effective_inflight"]
            for n in ASYNC_INFLIGHT
        },
        "max_effective_inflight": max(
            by_key[("sync_remote", n, "async", True)]["effective_inflight"]
            for n in ASYNC_INFLIGHT
        ),
        "threaded_mux_calls_per_sec_at_compare": mux_hi["calls_per_sec"],
        "compare_concurrency": MUX_COMPARE_THREADS,
        "async_vs_threaded_mux_at_compare": round(
            by_key[("sync_remote", MUX_COMPARE_THREADS, "async", True)]
            ["calls_per_sec"] / mux_hi["calls_per_sec"], 2
        ),
        "kind_calls_per_sec_by_inflight": {
            kind: {
                str(n): by_key[(kind, n, "async", True)]["calls_per_sec"]
                for n in ASYNC_KIND_INFLIGHT
            }
            for kind in ASYNC_KINDS
        },
    }

    result = {
        "benchmark": "invocation_throughput",
        "quick": args.quick,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "total_calls_per_cell": total_calls,
        "repeat_best_of": repeat,
        "baseline_source": baseline_label,
        "cells": fast + async_results + baseline,
        "speedup_vs_baseline": speedups,
        "async_plane": async_summary,
        "probe_overhead_ns_per_record": probe_overhead,
        "mean_probe_overhead_ns": means,
        "notes": (
            "speedup_vs_baseline = fast monitored calls/sec over baseline "
            "monitored calls/sec; probe overhead measured at 1 client "
            "thread as (monitored - unmonitored) ns/call divided by probe "
            "records per call. baseline_source=in-tree-compat means the "
            "baseline is the current tree in per-thread lock-step mode "
            "(same fused marshalling), not a true pre-PR checkout. async "
            "cells drive N pipelined tasks over one event-loop channel; "
            "requested_inflight is the task count, effective_inflight the "
            "channel's observed peak of concurrently pending requests "
            "(0 for collocated cells: no channel involved). async oneway "
            "cells measure send rate with a trailing sync call and "
            "record-count settle, like the threaded oneway cells."
        ),
    }

    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    print(json.dumps({"speedup_vs_baseline": speedups,
                      "mean_probe_overhead_ns": means,
                      "async_plane": async_summary}, indent=2))

    if args.check:
        failures = []
        if args.min_speedup is not None:
            got = speedups["sync_remote"]["8"]
            if got < args.min_speedup:
                failures.append(
                    f"sync_remote@8 speedup {got} < {args.min_speedup}"
                )
        ratio = async_summary["async_vs_threaded_mux_at_compare"]
        if ratio <= 1.0:
            failures.append(
                f"async plane did not beat threaded mux at "
                f"{MUX_COMPARE_THREADS}-way concurrency (ratio {ratio})"
            )
        peak = async_summary["max_effective_inflight"]
        if peak < args.min_async_inflight:
            failures.append(
                f"async peak effective in-flight {peak} "
                f"< {args.min_async_inflight}"
            )
        if args.max_overhead_ns is not None and means["fast"] is not None:
            if means["fast"] > args.max_overhead_ns:
                failures.append(
                    f"mean probe overhead {means['fast']}ns "
                    f"> {args.max_overhead_ns}ns"
                )
        if failures:
            for failure in failures:
                print(f"GATE FAILED: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
