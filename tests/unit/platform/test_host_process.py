"""Unit tests for hosts and simulated processes."""

import pytest

from repro.core import ProbeRecord, Site, TracingEvent
from repro.platform import (
    Host,
    LocalLogBuffer,
    PlatformKind,
    ProcessorType,
    SimProcess,
    VirtualClock,
    capabilities_for,
)


def _record(chain: str) -> ProbeRecord:
    site = Site("M::I", "op", "p.obj-1", "Comp", "p", 1, "h", "x86", "Linux")
    return ProbeRecord(site, chain, 0, TracingEvent.STUB_START, 0)


class TestHost:
    def test_defaults(self):
        host = Host("h1")
        assert host.platform_kind is PlatformKind.GENERIC
        assert host.capabilities.supports_thread_cpu

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Host("")

    def test_vxworks_has_no_thread_cpu(self):
        host = Host("vx", PlatformKind.VXWORKS, clock=VirtualClock())
        assert host.thread_cpu_ns() is None

    def test_hpux10_has_no_thread_cpu(self):
        host = Host("old", PlatformKind.HPUX_10, clock=VirtualClock())
        assert host.thread_cpu_ns() is None

    def test_hpux11_reads_thread_cpu(self):
        clock = VirtualClock()
        host = Host("new", PlatformKind.HPUX_11, clock=clock)
        clock.consume(123)
        assert host.thread_cpu_ns() == 123

    def test_clock_skew_applies_to_wall_only(self):
        clock = VirtualClock(start_ns=1_000)
        host = Host("h", PlatformKind.HPUX_11, clock=clock, clock_skew_ns=500)
        assert host.wall_ns() == 1_500
        clock.consume(10)
        assert host.thread_cpu_ns() == 10

    def test_capabilities_table_complete(self):
        for kind in PlatformKind:
            caps = capabilities_for(kind)
            assert caps.timer_resolution_ns > 0

    def test_processor_type(self):
        host = Host("h", processor_type=ProcessorType.PA_RISC)
        assert host.processor_type is ProcessorType.PA_RISC


class TestLocalLogBuffer:
    def test_append_and_snapshot(self):
        buf = LocalLogBuffer()
        buf.append(_record("a"))
        buf.append(_record("b"))
        assert buf.snapshot() == [_record("a"), _record("b")]
        assert len(buf) == 2

    def test_drain_empties(self):
        buf = LocalLogBuffer()
        buf.append(_record("a"))
        assert buf.drain() == [_record("a")]
        assert len(buf) == 0
        assert buf.drain() == []


class TestSimProcess:
    def test_unique_pids(self):
        host = Host("h")
        p1 = SimProcess("a", host)
        p2 = SimProcess("b", host)
        assert p1.pid != p2.pid

    def test_spawn_and_join(self):
        host = Host("h")
        process = SimProcess("p", host)
        seen = []
        process.spawn_thread(lambda: seen.append(1), name="w")
        assert process.join_threads(timeout=2) == []
        assert seen == [1]

    def test_finished_threads_are_pruned_and_live_ones_still_joined(self):
        import threading

        process = SimProcess("p", Host("h"))
        release = threading.Event()
        finished = []

        def linger(index):
            release.wait(5)
            finished.append(index)

        live = [
            process.spawn_thread(linger, name=f"live-{i}", args=(i,))
            for i in range(3)
        ]
        for i in range(500):
            process.spawn_thread(lambda: None, name=f"short-{i}").join()
            # tracked <= 2 x live + a small constant, at every step
            assert len(process._threads) <= 2 * (len(live) + 1) + 16
        assert all(t in process._threads for t in live)
        release.set()
        assert process.shutdown() == []
        assert sorted(finished) == [0, 1, 2]
        assert not any(t.is_alive() for t in live)

    def test_shutdown_marks_dead(self):
        process = SimProcess("p", Host("h"))
        assert process.alive
        process.shutdown()
        assert not process.alive
