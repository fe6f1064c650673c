"""Section 2 — monitoring overhead: instrumented vs plain stubs/skeletons.

The paper keeps probes "light-weighted" by updating the constant-size FTL
in place. This microbenchmark measures the cost our instrumentation adds
to one remote invocation: the same IDL compiled with both back-end flags,
the same servant, the same transport, on real clocks.

This is an illustration, not the claim. What a probe costs is carried by
the ledger (``python3 -m bench run``): ``monitor_overhead_ratio`` — on
``collocated_nested``, where the probes are nearly all of a call — with
``core.monitor.{stub_start,skel_start,skel_end,stub_end}_ns`` and
``core.monitor.probe_ns.*`` beside it, and a gain is shown with
``benchmarks/ledger_pairs.py``. Its deterministic tier-1 tripwire is the
frame budget of ``tests/unit/core/test_probe_budget.py``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_probe_overhead.py -q``
"""

import time

import pytest

from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.idl import compile_idl
from repro.orb import InterfaceRegistry, Orb
from repro.platform import Host, Network, PlatformKind, SimProcess

IDL = "module O { interface Echo { long ping(in long n); }; };"


def build(instrument: bool, mode: MonitorMode, prefix: str):
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=instrument, registry=registry)
    network = Network()
    host = Host("h", PlatformKind.HPUX_11)  # real clock
    uuid_factory = SequentialUuidFactory(prefix)
    client = SimProcess("client", host)
    server = SimProcess("server", host)
    if instrument:
        for process in (client, server):
            MonitoringRuntime(process, MonitorConfig(mode=mode,
                                                     uuid_factory=uuid_factory))
    client_orb = Orb(client, network, registry=registry)
    server_orb = Orb(server, network, registry=registry)

    class EchoImpl(compiled.Echo):
        def ping(self, n):
            return n

    ref = server_orb.activate(EchoImpl())
    stub = client_orb.resolve(ref)
    return stub, (client, server)


@pytest.mark.parametrize(
    "instrument,mode,prefix",
    [
        (False, MonitorMode.CAUSALITY, "c1"),
        (True, MonitorMode.CAUSALITY, "c2"),
        (True, MonitorMode.LATENCY, "c3"),
        (True, MonitorMode.CPU, "c4"),
    ],
    ids=["plain", "causality-only", "latency-mode", "cpu-mode"],
)
def test_per_call_overhead(benchmark, reporter, instrument, mode, prefix):
    stub, processes = build(instrument, mode, prefix)
    try:
        stub.ping(0)  # warm up connection
        result = benchmark.pedantic(
            lambda: stub.ping(7), rounds=200, iterations=1, warmup_rounds=20
        )
        assert result == 7
        label = "plain" if not instrument else f"instrumented/{mode.value}"
        reporter.section(f"Per-call cost: {label}")
        reporter.line(f"  mean round trip: {benchmark.stats['mean'] * 1e6:.1f} us")
        reporter.line(f"  median         : {benchmark.stats['median'] * 1e6:.1f} us")
    finally:
        for process in processes:
            process.shutdown()


def test_overhead_summary(reporter, benchmark):
    """Direct A/B: mean instrumented minus mean plain round trip."""
    def measure(instrument, mode, prefix, calls=400):
        stub, processes = build(instrument, mode, prefix)
        try:
            stub.ping(0)
            started = time.perf_counter()
            for _ in range(calls):
                stub.ping(1)
            return (time.perf_counter() - started) / calls
        finally:
            for process in processes:
                process.shutdown()

    plain = benchmark.pedantic(
        measure, args=(False, MonitorMode.CAUSALITY, "c5"), rounds=1, iterations=1
    )
    instrumented = measure(True, MonitorMode.LATENCY, "c6")
    overhead = instrumented - plain
    reporter.section("Instrumentation overhead per remote call")
    reporter.line(f"  plain        : {plain * 1e6:7.1f} us")
    reporter.line(f"  instrumented : {instrumented * 1e6:7.1f} us (latency mode)")
    reporter.line(f"  added cost   : {overhead * 1e6:7.1f} us"
                  f" ({(instrumented / plain - 1) * 100:.0f}% of a null call)")
    # Sanity: instrumentation cannot make calls faster by more than noise.
    assert instrumented > plain * 0.5
