"""Integration: the asyncio data plane is analyzer-invisible.

The event-loop plane (stream-framed GIOP, awaitable mux, async
stubs/skeletons, contextvar FTL) must change *how calls wait*, never
*what the analyzer sees*: for a fixed workload the reconstructed DSCG —
serialized canonically — is bit-identical to the threaded plane, on both
storage backends, down to the CCSG XML; and thousands of pipelined tasks
still produce complete, well-formed chains.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis import (
    CpuAnalysis,
    build_ccsg,
    dscg_to_json,
    reconstruct,
    reconstruct_from_records,
    render_ccsg_xml,
)
from repro.collector import LogCollector
from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
    TracingEvent,
)
from repro.idl import compile_idl
from repro.orb import AsyncioDispatch, InterfaceRegistry, Orb
from repro.platform import Host, Network, PlatformKind, SimProcess, VirtualClock
from repro.store import MonitoringDatabase, SegmentStore

IDL = """
module ADP {
  interface Back { long add(in long a, in long b); };
  interface Front { long compute(in long n); };
};
"""


class _Deployment:
    """Two-tier deployment (client -> front -> back), either plane.

    ``plane="threaded"`` is the reference: sync stubs over the threaded
    mux channel. ``plane="async"`` compiles the same IDL with
    ``async_mode``, routes the client and middle tier over
    ``channel="asyncio"`` and dispatches the servers on event loops.
    """

    def __init__(self, plane: str):
        self.plane = plane
        self.clock = VirtualClock()
        self.network = Network()
        self.host = Host("adp-host", PlatformKind.HPUX_11, clock=self.clock)
        self.registry = InterfaceRegistry()
        self.compiled = compile_idl(
            IDL,
            instrument=True,
            registry=self.registry,
            async_mode=(plane == "async"),
        )
        uuid_factory = SequentialUuidFactory()
        self.processes = []
        for name in ("client", "front", "back"):
            process = SimProcess(name, self.host)
            MonitoringRuntime(
                process,
                MonitorConfig(mode=MonitorMode.LATENCY, uuid_factory=uuid_factory),
            )
            self.processes.append(process)
        client, front, back = self.processes
        if plane == "async":
            channel = "asyncio"
            policies = (AsyncioDispatch(), AsyncioDispatch())
        else:
            channel = "mux"
            policies = (None, None)
        self.client_orb = Orb(
            client, self.network, registry=self.registry, channel=channel
        )
        self.front_orb = Orb(
            front, self.network, policy=policies[0],
            registry=self.registry, channel=channel,
        )
        self.back_orb = Orb(
            back, self.network, policy=policies[1], registry=self.registry
        )
        compiled, clock = self.compiled, self.clock

        if plane == "async":

            class BackImpl(compiled.Back):
                async def add(self, a, b):
                    clock.consume(50)
                    return a + b

            back_stub = self.front_orb.resolve(self.back_orb.activate(BackImpl()))

            class FrontImpl(compiled.Front):
                async def compute(self, n):
                    clock.consume(100)
                    return await back_stub.add(n, n)

        else:

            class BackImpl(compiled.Back):
                def add(self, a, b):
                    clock.consume(50)
                    return a + b

            back_stub = self.front_orb.resolve(self.back_orb.activate(BackImpl()))

            class FrontImpl(compiled.Front):
                def compute(self, n):
                    clock.consume(100)
                    return back_stub.add(n, n)

        self.stub = self.client_orb.resolve(self.front_orb.activate(FrontImpl()))

    def drive_sequential(self, calls: int) -> list:
        """Run ``calls`` invocations in one logical chain, either plane."""
        if self.plane == "async":

            async def drive():
                return [await self.stub.compute(n) for n in range(calls)]

            return asyncio.run(drive())
        return [self.stub.compute(n) for n in range(calls)]

    def records(self):
        out = []
        for process in self.processes:
            out.extend(process.log_buffer.snapshot())
        out.sort(key=lambda r: (r.chain_uuid, r.event_seq))
        return out

    def shutdown(self):
        for orb in (self.client_orb, self.front_orb, self.back_orb):
            orb.shutdown()
        for process in self.processes:
            process.shutdown()


def _run_fixed_workload(plane: str) -> str:
    deployment = _Deployment(plane)
    try:
        assert deployment.drive_sequential(12) == [2 * n for n in range(12)]
        return dscg_to_json(reconstruct_from_records(deployment.records()))
    finally:
        deployment.shutdown()


class TestAnalyzerInvisibility:
    def test_async_and_threaded_dscg_bit_identical(self):
        assert _run_fixed_workload("async") == _run_fixed_workload("threaded")

    def test_async_run_is_self_deterministic(self):
        assert _run_fixed_workload("async") == _run_fixed_workload("async")


class TestBackendIdentity:
    """Both planes, collected into both backends: one analyzer truth."""

    @pytest.fixture(scope="class")
    def captures(self, tmp_path_factory):
        out = {}
        for plane in ("async", "threaded"):
            deployment = _Deployment(plane)
            try:
                deployment.drive_sequential(12)
                sqlite = MonitoringDatabase()
                segment = SegmentStore(
                    str(tmp_path_factory.mktemp(f"adp-{plane}") / "store"),
                    auto_compact=0,
                )
                LogCollector(sqlite).collect(
                    deployment.processes, run_id="adp", description=plane,
                    drain=False,
                )
                LogCollector(backend=segment).collect(
                    deployment.processes, run_id="adp", description=plane
                )
                out[plane] = (sqlite, segment)
            finally:
                deployment.shutdown()
        yield out
        for sqlite, segment in out.values():
            sqlite.close()
            segment.close()

    def test_dscg_identical_across_planes_and_backends(self, captures):
        serialized = {
            (plane, kind): dscg_to_json(reconstruct(backend, "adp"))
            for plane, backends in captures.items()
            for kind, backend in zip(("sqlite", "segment"), backends)
        }
        reference = serialized[("threaded", "sqlite")]
        assert all(value == reference for value in serialized.values()), sorted(
            key for key, value in serialized.items() if value != reference
        )

    def test_ccsg_xml_identical_across_planes_and_backends(self, captures):
        rendered = set()
        for plane, backends in captures.items():
            for backend in backends:
                dscg = reconstruct(backend, "adp")
                rendered.add(
                    render_ccsg_xml(
                        build_ccsg(dscg, CpuAnalysis(dscg)), description="adp"
                    )
                )
        assert len(rendered) == 1


class TestPipelinedTaskChains:
    def test_concurrent_tasks_produce_complete_chains(self):
        deployment = _Deployment("async")
        try:
            async def worker(worker_id):
                return [await deployment.stub.compute(n) for n in range(8)]

            async def main():
                return await asyncio.gather(*(worker(k) for k in range(6)))

            results = asyncio.run(main())
            assert all(row == [2 * n for n in range(8)] for row in results)
            records = deployment.records()
            # 6 tasks x 8 calls x 2 hops x 4 probe events per hop.
            assert len(records) == 6 * 8 * 2 * 4
            by_chain: dict[str, list] = {}
            for record in records:
                by_chain.setdefault(record.chain_uuid, []).append(record)
            # One chain per driver task: each gather child inherits no
            # bound FTL (the parent never called anything before the
            # fan-out), starts its own chain at its first root call, and
            # keeps it across sequential awaits — the task-plane analogue
            # of observation O1/O2. Pipelining must not bleed events
            # across those chains.
            assert len(by_chain) == 6
            for chain_records in by_chain.values():
                events = [r.event for r in chain_records]
                assert events.count(TracingEvent.STUB_START) == 16
                assert events.count(TracingEvent.SKEL_END) == 16
            dscg = reconstruct_from_records(records)
            assert not dscg.abnormal_events()
            assert dscg.node_count() == 96
            # All six tasks shared one asyncio channel per endpoint, and
            # the channel really pipelined them.
            assert len(deployment.client_orb._async_channels) == 1
            (channel,) = deployment.client_orb._async_channels.values()
            assert channel.peak_pending >= 2
        finally:
            deployment.shutdown()

    def test_high_fanout_single_process(self):
        # A smaller cousin of the bench's >=5000-in-flight capability
        # cell: a thousand concurrent awaits on one loop, one task each.
        deployment = _Deployment("async")
        try:
            async def main():
                return await asyncio.gather(
                    *(deployment.stub.compute(n) for n in range(1000))
                )

            results = asyncio.run(main())
            assert results == [2 * n for n in range(1000)]
            (channel,) = deployment.client_orb._async_channels.values()
            assert channel.peak_pending >= 500
        finally:
            deployment.shutdown()
