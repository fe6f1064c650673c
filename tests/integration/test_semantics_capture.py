"""Integration: application-semantics capture through the real ORB.

Section 2.1: the probes can collect "application semantics about each
function call behavior (input/output/return parameter, thrown
exceptions)", which "is primarily useful for application debugging and
testing". SEMANTICS monitor mode must capture arguments at probe 1 and
outcomes at probe 3 without disturbing the call.
"""

import asyncio

import pytest

from repro.analysis import semantics_report
from repro.analysis.semantics import exception_hotspots
from repro.core import MonitorMode, TracingEvent
from repro.idl import compile_idl
from repro.orb import AsyncioDispatch, InterfaceRegistry, Orb

IDL = """
module SC {
  exception Invalid { string why; };
  interface Validator {
    long check(in long value) raises (Invalid);
  };
};
"""


@pytest.fixture
def deployment(cluster):
    cluster.mode = MonitorMode.SEMANTICS
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry)
    client = cluster.process("client", mode=MonitorMode.SEMANTICS)
    server = cluster.process("server", mode=MonitorMode.SEMANTICS)
    client_orb = Orb(client, cluster.network, registry=registry)
    server_orb = Orb(server, cluster.network, registry=registry)

    class ValidatorImpl(compiled.Validator):
        def check(self, value):
            if value < 0:
                raise compiled.Invalid(why=f"negative: {value}")
            if value > 100:
                raise RuntimeError("way out of range")
            return value * 2

    ref = server_orb.activate(ValidatorImpl())
    return compiled, cluster, client_orb.resolve(ref)


class TestSemanticsCapture:
    def test_arguments_recorded_at_stub_start(self, deployment):
        compiled, cluster, stub = deployment
        stub.check(21)
        starts = [
            r for r in cluster.all_records() if r.event is TracingEvent.STUB_START
        ]
        assert starts[0].semantics == {"operation": "check", "args": ["21"]}

    def test_ok_outcome_recorded_at_skel_end(self, deployment):
        compiled, cluster, stub = deployment
        assert stub.check(5) == 10
        ends = [r for r in cluster.all_records() if r.event is TracingEvent.SKEL_END]
        assert ends[0].semantics["status"] == "ok"
        assert "10" in ends[0].semantics["result"]

    def test_user_exception_recorded(self, deployment):
        compiled, cluster, stub = deployment
        with pytest.raises(compiled.Invalid):
            stub.check(-3)
        ends = [r for r in cluster.all_records() if r.event is TracingEvent.SKEL_END]
        assert ends[0].semantics["status"] == "user_exception"
        assert "negative" in ends[0].semantics["exception"]

    def test_system_exception_recorded(self, deployment):
        compiled, cluster, stub = deployment
        with pytest.raises(Exception):
            stub.check(1000)
        ends = [r for r in cluster.all_records() if r.event is TracingEvent.SKEL_END]
        assert ends[0].semantics["status"] == "system_exception"

    def test_report_and_hotspots(self, deployment):
        compiled, cluster, stub = deployment
        stub.check(1)
        stub.check(2)
        for bad in (-1, -2, 1000):
            with pytest.raises(Exception):
                stub.check(bad)
        report = semantics_report(cluster.all_records())
        entry = report["SC::Validator::check"]
        assert entry.invocations == 5
        assert entry.ok == 2
        assert entry.user_exceptions == 2
        assert entry.system_exceptions == 1
        assert entry.failure_rate == pytest.approx(0.6)
        hotspots = exception_hotspots(report)
        assert hotspots[0].function == "SC::Validator::check"

    def test_other_modes_capture_nothing(self, cluster):
        registry = InterfaceRegistry()
        compiled = compile_idl(IDL, instrument=True, registry=registry)
        client = cluster.process("c2", mode=MonitorMode.LATENCY)
        server = cluster.process("s2", mode=MonitorMode.LATENCY)
        client_orb = Orb(client, cluster.network, registry=registry)
        server_orb = Orb(server, cluster.network, registry=registry)

        class ValidatorImpl(compiled.Validator):
            def check(self, value):
                return value

        stub = client_orb.resolve(server_orb.activate(ValidatorImpl()))
        stub.check(1)
        assert all(r.semantics is None for r in cluster.all_records())


@pytest.mark.parametrize("async_mode", [False, True], ids=["sync", "async"])
def test_generated_code_gates_semantics_and_still_records_them(cluster, async_mode):
    """The generated stub and skeleton test the mode before building the
    semantics payload; with SEMANTICS on, a remote call (sync stubs over
    the mux channel, or async stubs over the asyncio channel onto an
    event-loop server) still records its arguments and its outcome."""
    registry = InterfaceRegistry()
    compiled = compile_idl(IDL, instrument=True, registry=registry, async_mode=async_mode)
    client = cluster.process("c3", mode=MonitorMode.SEMANTICS)
    server = cluster.process("s3", mode=MonitorMode.SEMANTICS)
    channel = "asyncio" if async_mode else "mux"
    policy = AsyncioDispatch() if async_mode else None
    client_orb = Orb(client, cluster.network, registry=registry, channel=channel)
    server_orb = Orb(server, cluster.network, policy=policy, registry=registry)

    if async_mode:

        class ValidatorImpl(compiled.Validator):
            async def check(self, value):
                return value * 3

        stub = client_orb.resolve(server_orb.activate(ValidatorImpl()))
        assert asyncio.run(stub.check(7)) == 21
    else:

        class ValidatorImpl(compiled.Validator):
            def check(self, value):
                return value * 3

        stub = client_orb.resolve(server_orb.activate(ValidatorImpl()))
        assert stub.check(7) == 21
    by_event = {r.event: r for r in cluster.all_records()}
    assert by_event[TracingEvent.STUB_START].semantics == {"operation": "check", "args": ["7"]}
    assert by_event[TracingEvent.SKEL_END].semantics == {"status": "ok", "result": "21"}
    assert by_event[TracingEvent.SKEL_START].semantics is None
    assert by_event[TracingEvent.STUB_END].semantics is None
