"""Unit tests for the monitoring runtime's four probes."""

import pytest

from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    OperationInfo,
    SequentialUuidFactory,
    TracingEvent,
    install_monitoring,
)
from repro.errors import MonitorError
from repro.platform import Host, PlatformKind, SimProcess, VirtualClock

OP = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")


def make_runtime(mode=MonitorMode.LATENCY, platform=PlatformKind.HPUX_11, prefix="c0"):
    clock = VirtualClock()
    host = Host("h", platform, clock=clock)
    process = SimProcess("p", host)
    runtime = MonitoringRuntime(
        process, MonitorConfig(mode=mode, uuid_factory=SequentialUuidFactory(prefix))
    )
    return runtime, process, clock


class TestSyncProbeSequence:
    def test_four_probe_round_trip(self):
        runtime, process, clock = make_runtime()
        ctx = runtime.stub_start(OP)
        skel = runtime.skel_start(OP, ctx.request_ftl_payload)
        clock.consume(100)
        reply = runtime.skel_end(skel)
        runtime.stub_end(ctx, reply)
        records = process.log_buffer.snapshot()
        assert [r.event for r in records] == [
            TracingEvent.STUB_START,
            TracingEvent.SKEL_START,
            TracingEvent.SKEL_END,
            TracingEvent.STUB_END,
        ]
        assert [r.event_seq for r in records] == [0, 1, 2, 3]
        assert len({r.chain_uuid for r in records}) == 1

    def test_sibling_calls_share_chain(self):
        runtime, process, _ = make_runtime()
        for _ in range(2):
            ctx = runtime.stub_start(OP)
            skel = runtime.skel_start(OP, ctx.request_ftl_payload)
            runtime.stub_end(ctx, runtime.skel_end(skel))
        records = process.log_buffer.snapshot()
        assert len(records) == 8
        assert len({r.chain_uuid for r in records}) == 1
        assert [r.event_seq for r in records] == list(range(8))

    def test_latency_mode_samples_wall_not_cpu(self):
        runtime, process, _ = make_runtime(MonitorMode.LATENCY)
        ctx = runtime.stub_start(OP)
        runtime.stub_end(ctx, None)
        for record in process.log_buffer.snapshot():
            assert record.wall_start is not None
            assert record.cpu_start is None

    def test_cpu_mode_samples_cpu_not_wall(self):
        runtime, process, _ = make_runtime(MonitorMode.CPU)
        ctx = runtime.stub_start(OP)
        runtime.stub_end(ctx, None)
        for record in process.log_buffer.snapshot():
            assert record.cpu_start is not None
            assert record.wall_start is None

    def test_causality_mode_samples_neither_but_always_captures(self):
        runtime, process, _ = make_runtime(MonitorMode.CAUSALITY)
        ctx = runtime.stub_start(OP)
        runtime.stub_end(ctx, None)
        records = process.log_buffer.snapshot()
        assert len(records) == 2  # causality capture always happens
        for record in records:
            assert record.wall_start is None
            assert record.cpu_start is None

    def test_cpu_mode_on_vxworks_yields_none(self):
        runtime, process, _ = make_runtime(MonitorMode.CPU, PlatformKind.VXWORKS)
        ctx = runtime.stub_start(OP)
        runtime.stub_end(ctx, None)
        for record in process.log_buffer.snapshot():
            assert record.cpu_start is None

    def test_disabled_monitor_records_nothing(self):
        clock = VirtualClock()
        process = SimProcess("p", Host("h", clock=clock))
        runtime = MonitoringRuntime(process, MonitorConfig(enabled=False))
        assert runtime.stub_start(OP) is None
        assert len(process.log_buffer) == 0


class TestOnewayProbes:
    def test_stub_side_forks_child_chain(self):
        runtime, process, _ = make_runtime()
        ctx = runtime.stub_start(OP, oneway=True)
        runtime.stub_end(ctx, None)
        records = process.log_buffer.snapshot()
        start, end = records
        assert start.child_chain_uuid is not None
        assert start.child_chain_uuid != start.chain_uuid
        assert end.chain_uuid == start.chain_uuid  # parent chain continues
        assert ctx.child_ftl.chain_uuid == start.child_chain_uuid

    def test_skel_side_starts_child_chain_at_zero(self):
        runtime, process, _ = make_runtime()
        ctx = runtime.stub_start(OP, oneway=True)
        skel = runtime.skel_start(OP, ctx.request_ftl_payload, oneway=True)
        assert runtime.skel_end(skel) is None  # oneway: no reply payload
        records = process.log_buffer.snapshot()
        child_records = [r for r in records if r.chain_uuid == ctx.child_ftl.chain_uuid]
        assert [r.event_seq for r in child_records] == [0, 1]


class TestCollocatedProbes:
    def test_degenerate_pairs(self):
        runtime, process, _ = make_runtime()
        stub_ctx, skel_ctx = runtime.collocated_call_start(OP)
        runtime.collocated_call_end(stub_ctx, skel_ctx)
        records = process.log_buffer.snapshot()
        assert [r.event for r in records] == [
            TracingEvent.STUB_START,
            TracingEvent.SKEL_START,
            TracingEvent.SKEL_END,
            TracingEvent.STUB_END,
        ]
        assert all(r.collocated for r in records)
        assert [r.event_seq for r in records] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        ("mode", "start", "end"),
        [(MonitorMode.LATENCY, "wall_start", "wall_end"),
         (MonitorMode.CPU, "cpu_start", "cpu_end")],
    )
    def test_fused_pair_reads_the_clock_once_at_its_seam(self, mode, start, end):
        """On a real clock, where two fused probes meet one reading is both
        the first record's end and the second's start: nothing between the
        two records falls outside the probes' own intervals."""
        process = SimProcess("p", Host("real", PlatformKind.HPUX_11))
        runtime = MonitoringRuntime(
            process, MonitorConfig(mode=mode, uuid_factory=SequentialUuidFactory("5a"))
        )
        for _ in range(50):
            runtime.collocated_call_end(*runtime.collocated_call_start(OP))
            runtime.unbind_ftl()
        records = process.log_buffer.snapshot()
        assert len(records) == 200
        for call in range(0, 200, 4):
            stub_start, skel_start, skel_end, stub_end = records[call:call + 4]
            assert getattr(stub_start, end) == getattr(skel_start, start)
            assert getattr(skel_end, end) == getattr(stub_end, start)
            for record in (stub_start, skel_start, skel_end, stub_end):
                assert getattr(record, start) <= getattr(record, end)
            assert getattr(skel_start, end) <= getattr(skel_end, start)


class TestFtlBinding:
    def test_skel_start_refreshes_stale_ftl(self):
        # Observation O2: a recycled thread holds a stale FTL that the
        # next skeleton start probe must replace.
        runtime, process, _ = make_runtime()
        ctx1 = runtime.stub_start(OP)
        skel1 = runtime.skel_start(OP, ctx1.request_ftl_payload)
        runtime.stub_end(ctx1, runtime.skel_end(skel1))
        stale = runtime.current_ftl()
        # A brand-new chain arrives on this (recycled) thread:
        other = make_runtime(prefix="dd")[0]
        ctx2 = other.stub_start(OP)
        skel2 = runtime.skel_start(OP, ctx2.request_ftl_payload)
        assert runtime.current_ftl().chain_uuid != stale.chain_uuid
        assert runtime.current_ftl().chain_uuid == ctx2.ftl.chain_uuid

    def test_bind_unbind(self):
        runtime, _, _ = make_runtime()
        ctx = runtime.stub_start(OP)
        ftl = runtime.unbind_ftl()
        assert runtime.current_ftl() is None
        runtime.bind_ftl(ftl)
        assert runtime.current_ftl() is ftl

    def test_install_monitoring_rejects_double(self):
        process = SimProcess("p", Host("h", clock=VirtualClock()))
        install_monitoring(process)
        with pytest.raises(MonitorError):
            install_monitoring(process)


class TestSemanticsCapture:
    def test_semantics_only_in_semantics_mode(self):
        runtime, process, _ = make_runtime(MonitorMode.LATENCY)
        ctx = runtime.stub_start(OP, semantics={"args": ["1"]})
        runtime.stub_end(ctx, None)
        assert all(r.semantics is None for r in process.log_buffer.snapshot())

        runtime2, process2, _ = make_runtime(MonitorMode.SEMANTICS)
        ctx = runtime2.stub_start(OP, semantics={"args": ["1"]})
        runtime2.stub_end(ctx, None)
        start = process2.log_buffer.snapshot()[0]
        assert start.semantics == {"args": ["1"]}

    def test_probe_records_own_interval(self):
        runtime, process, clock = make_runtime(MonitorMode.LATENCY)
        ctx = runtime.stub_start(OP)
        runtime.stub_end(ctx, None)
        for record in process.log_buffer.snapshot():
            assert record.wall_end is not None
            assert record.probe_wall_cost() >= 0
