"""Integration: a tunnel payload the monitor cannot unmarshal.

The FTL rides every request and reply as a length-prefixed blob of *any*
length, so a peer (or a corrupted link) can hand a probe something that
is not the 24-byte wire image. "A probe must never stall the application
it observes": the skeleton-start probe binds a fresh chain instead (so a
recycled pool thread's stale FTL is still refreshed — observation O2),
the stub-end probe keeps the thread's FTL, both count
``repro_ftl_malformed_total`` and neither raises. Before this held, a
5-byte blob killed the one worker of a ``ThreadPool(1)`` server — the
*next*, well-formed call timed out too — and a bad reply blob raised
``ValueError`` into the caller after the servant had succeeded.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis import reconstruct_from_records
from repro.core import (
    FunctionTxLog,
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
    TracingEvent,
)
from repro.idl import compile_idl
from repro.orb import AsyncioDispatch, InterfaceRegistry, Orb, ThreadPool
from repro.platform import Host, Network, SimProcess, VirtualClock
from repro.telemetry import MetricsRegistry, disable, enable

IDL = "module Bad { interface Svc { long twice(in long x); }; };"

BAD_PAYLOADS = [b"\x01\x02\x03\x04\x05", b"\xab" * 25]


class _Deployment:
    """client -> server over a real ORB, threaded (one pooled worker on
    the mux channel) or on the asyncio plane."""

    def __init__(self, plane: str):
        self.plane = plane
        self.network = Network()
        host = Host("bad-host", clock=VirtualClock())
        registry = InterfaceRegistry()
        compiled = compile_idl(
            IDL, instrument=True, registry=registry, async_mode=(plane == "asyncio")
        )
        uuid_factory = SequentialUuidFactory("ba")
        self.client, self.server = SimProcess("client", host), SimProcess("server", host)
        for process in (self.client, self.server):
            MonitoringRuntime(
                process, MonitorConfig(mode=MonitorMode.LATENCY, uuid_factory=uuid_factory)
            )
        self.served: list[int] = []
        served = self.served
        if plane == "asyncio":
            policy, channel = AsyncioDispatch(), "asyncio"

            class SvcImpl(compiled.Svc):
                async def twice(self, x):
                    served.append(x)
                    return 2 * x

        else:
            policy, channel = ThreadPool(1), "mux"

            class SvcImpl(compiled.Svc):
                def twice(self, x):
                    served.append(x)
                    return 2 * x

        server_orb = Orb(self.server, self.network, policy=policy, registry=registry,
                         channel=channel)
        # A short timeout: where the probe still raises, the caller must
        # fail the test in a second, not in thirty.
        client_orb = Orb(self.client, self.network, registry=registry, channel=channel,
                         request_timeout=1.0)
        self.stub = client_orb.resolve(server_orb.activate(SvcImpl()))

    def call(self, x: int) -> int:
        """One root call on a fresh chain."""
        try:
            if self.plane == "asyncio":
                return asyncio.run(self.stub.twice(x))
            return self.stub.twice(x)
        finally:
            self.client.monitor.unbind_ftl()

    def corrupt_next_request(self, payload: bytes) -> None:
        """The next stub-start context carries ``payload`` as its FTL blob."""
        monitor = self.client.monitor
        real = monitor.stub_start

        def stub_start(*args, **kwargs):
            del monitor.stub_start  # one shot: back to the class's probe
            ctx = real(*args, **kwargs)
            ctx.request_ftl_payload = payload
            return ctx

        monitor.stub_start = stub_start

    def corrupt_next_reply(self, payload: bytes) -> None:
        """The next skeleton-end probe's reply blob is ``payload``."""
        monitor = self.server.monitor
        real = monitor.skel_end

        def skel_end(*args, **kwargs):
            del monitor.skel_end
            real(*args, **kwargs)
            return payload

        monitor.skel_end = skel_end

    def records(self):
        return self.client.log_buffer.snapshot() + self.server.log_buffer.snapshot()

    def shutdown(self):
        self.client.shutdown()
        self.server.shutdown()


@pytest.fixture(params=["mux-pool1", "asyncio"])
def deployment(request):
    d = _Deployment(request.param)
    yield d
    d.shutdown()


@pytest.fixture
def malformed_counter():
    try:
        family = enable(MetricsRegistry()).counter(
            "repro_ftl_malformed_total", labels=("probe",)
        )
        yield lambda probe: family.labels(probe).value()
    finally:
        disable()


@pytest.mark.parametrize("payload", BAD_PAYLOADS, ids=["5-bytes", "25-bytes"])
def test_malformed_request_ftl_is_served_and_so_is_the_next_call(
    deployment, malformed_counter, payload
):
    assert deployment.call(1) == 2  # leaves a stale FTL on the pooled thread (O2)
    deployment.corrupt_next_request(payload)
    assert deployment.call(21) == 42  # the servant ran and the reply came back
    assert deployment.call(4) == 8  # ...and the (one) worker is still alive
    assert deployment.served == [1, 21, 4]
    assert malformed_counter("skel_start") == 1
    assert malformed_counter("stub_end") == 0

    records = deployment.records()
    assert len(records) == 12  # no probe was skipped
    _, bad_call, good_call = (
        [r for r in records if r.process == "client" and r.event is TracingEvent.STUB_START]
    )
    # The skeleton side of the bad call ran on a *fresh* chain, not on the
    # caller's and not on whatever the pooled thread held before.
    client_chains = {r.chain_uuid for r in records if r.process == "client"}
    orphan = [r for r in records if r.chain_uuid not in client_chains]
    assert [(r.process, r.event, r.event_seq) for r in orphan] == [
        ("server", TracingEvent.SKEL_START, 0),
        ("server", TracingEvent.SKEL_END, 1),
    ]
    # The caller's chain keeps its own numbering: the reply carried the
    # orphan's FTL, which probe 4 must not adopt.
    bad_chain = [r for r in records if r.chain_uuid == bad_call.chain_uuid]
    assert [(r.event, r.event_seq) for r in bad_chain] == [
        (TracingEvent.STUB_START, 0),
        (TracingEvent.STUB_END, 1),
    ]

    by_chain = reconstruct_from_records(records).chains
    assert len(by_chain) == 4
    # Flagged, never wrong: both halves of the torn call are partial nodes
    # and no edge was invented between the two chains.
    for uuid in (bad_call.chain_uuid, orphan[0].chain_uuid):
        nodes = list(by_chain[uuid].walk())
        assert len(nodes) == 1 and nodes[0].partial and not nodes[0].children
        assert by_chain[uuid].parent_chain_uuid is None
    # The well-formed call after it is a whole, clean chain.
    (good,) = by_chain[good_call.chain_uuid].walk()
    assert not good.partial and len(good.records) == 4
    assert by_chain[good_call.chain_uuid].is_clean


def test_malformed_reply_ftl_returns_the_result_and_logs_probe_four(
    deployment, malformed_counter
):
    deployment.corrupt_next_reply(b"\x00" * 5)
    assert deployment.call(5) == 10  # no ValueError out of the stub
    assert deployment.call(6) == 12
    assert malformed_counter("stub_end") == 1
    assert malformed_counter("skel_start") == 0

    records = deployment.records()
    first_chain = records[0].chain_uuid
    chain = sorted(
        (r for r in records if r.chain_uuid == first_chain), key=lambda r: r.event_seq
    )
    # Probe 4 logged on the caller's chain with the thread's own FTL: it
    # could not adopt the callee's numbering, so its number collides with
    # the skeleton's — which the analyzer flags instead of guessing.
    assert [(r.event, r.process) for r in chain if r.event is TracingEvent.STUB_END] == [
        (TracingEvent.STUB_END, "client")
    ]
    assert len(chain) == 4
    tree = reconstruct_from_records(records).chains[first_chain]
    assert not tree.is_clean or any(node.partial for node in tree.walk())


def test_from_bytes_still_raises_for_its_direct_callers():
    for payload in BAD_PAYLOADS:
        with pytest.raises(ValueError):
            FunctionTxLog.from_bytes(payload)
