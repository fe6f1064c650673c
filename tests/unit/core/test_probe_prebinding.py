"""What the probes prebind, and what they must keep reading per probe.

The runtime resolves once what cannot change under it — the clock, the FTL
slot's context variable, and per ``OperationInfo`` the ten record fields
constant per (process, operation). Everything the tree *does* change under
a live runtime is read on each probe; each test here swaps one such thing
after the runtime was built and checks that the next probe sees it.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro.core import (
    FunctionTxLog,
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    OperationInfo,
    SequentialUuidFactory,
    TracingEvent,
)
from repro.faults import FaultInjector, FaultPlan, LossyLogBuffer
from repro.platform import Host, PlatformKind, ProcessorType, SimProcess, VirtualClock
from repro.platform.process import LocalLogBuffer
from repro.telemetry import MetricsRegistry, disable, enable


def make_runtime(name="p", host=None, mode=MonitorMode.LATENCY, prefix="c0"):
    process = SimProcess(name, host or Host(f"{name}-host", clock=VirtualClock()))
    runtime = MonitoringRuntime(
        process, MonitorConfig(mode=mode, uuid_factory=SequentialUuidFactory(prefix))
    )
    return runtime, process


def test_one_operation_probed_by_two_processes_yields_each_identity():
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    here, p_here = make_runtime(
        "here", Host("hp", PlatformKind.HPUX_11, ProcessorType.PA_RISC, clock=VirtualClock())
    )
    there, p_there = make_runtime(
        "there", Host("nt", PlatformKind.WINDOWS_NT, ProcessorType.X86, clock=VirtualClock())
    )
    for _ in range(3):  # the slot is re-bound on every switch, both ways
        ctx = here.stub_start(op)
        skel = there.skel_start(op, ctx.request_ftl_payload)
        pair = there.collocated_call_start(op)
        there.collocated_call_end(*pair)
        here.stub_end(ctx, there.skel_end(skel))
    for process, host, processor, platform, count in (
        (p_here, "hp", "PA-RISC", "HPUX 11", 6),
        (p_there, "nt", "x86", "Windows NT", 18),
    ):
        records = process.log_buffer.snapshot()
        assert len(records) == count
        assert {(r.process, r.pid, r.host, r.processor_type, r.platform) for r in records} == {
            (process.name, process.pid, host, processor, platform)
        }
    assert op == OperationInfo("Mod::Iface", "op", "obj-1", "Comp")  # identity untouched
    assert hash(op) == hash(OperationInfo("Mod::Iface", "op", "obj-1", "Comp"))


def test_log_buffer_swapped_after_construction_receives_the_next_record():
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    runtime, process = make_runtime()
    first = process.log_buffer
    ctx = runtime.stub_start(op)
    process.log_buffer = second = LocalLogBuffer()
    runtime.stub_end(ctx, None)
    pair = runtime.collocated_call_start(op)
    process.log_buffer = third = LocalLogBuffer()
    runtime.collocated_call_end(*pair)
    assert [r.event for r in first.snapshot()] == [TracingEvent.STUB_START]
    assert [r.event for r in second.snapshot()] == [
        TracingEvent.STUB_END, TracingEvent.STUB_START, TracingEvent.SKEL_START
    ]
    assert [r.event for r in third.snapshot()] == [TracingEvent.SKEL_END, TracingEvent.STUB_END]


def _every_call_shape(caller: MonitoringRuntime, callee: MonitoringRuntime, op) -> None:
    """One collocated, one remote sync and one oneway call on one root chain
    (the oneway forks a child): each of the four probes logs 3 rows, 8 on
    the caller and 4 on the callee."""
    caller.collocated_call_end(*caller.collocated_call_start(op))
    stub = caller.stub_start(op)
    skel = callee.skel_start(op, stub.request_ftl_payload)
    caller.stub_end(stub, callee.skel_end(skel))
    stub = caller.stub_start(op, oneway=True)
    caller.stub_end(stub, None)
    callee.skel_end(callee.skel_start(op, stub.request_ftl_payload, oneway=True))
    caller.unbind_ftl()
    callee.unbind_ftl()


def test_a_thread_that_has_logged_follows_every_buffer_swap():
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    runtime, process = make_runtime()
    injector = FaultInjector(FaultPlan(seed=1))
    first = process.log_buffer
    _every_call_shape(runtime, runtime, op)  # this thread now holds first's append
    seen = len(first)
    fresh = LocalLogBuffer()
    lossy = LossyLogBuffer(LocalLogBuffer(), injector, process.name)
    wrapped_in_place = LossyLogBuffer(fresh, injector, process.name)
    for swap in (fresh, lossy, wrapped_in_place):
        process.log_buffer = swap
        before = len(swap)
        _every_call_shape(runtime, runtime, op)
        assert len(swap) == before + 12
        assert len(first) == seen  # nothing went to a buffer swapped out
    assert len(lossy.drain_rows()) == 12  # the plan loses nothing: all delivered
    assert len(fresh) == 24  # its own rows, then the rows logged through its wrapper


@pytest.mark.parametrize("capacity", [None, 37])
def test_four_writer_threads_lose_no_row_and_miscount_no_drop(capacity):
    calls = 40  # 10 collocated calls per thread, 4 rows each
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    runtime, process = make_runtime()
    process.log_buffer = buffer = LocalLogBuffer(capacity=capacity)
    start = threading.Barrier(4, timeout=10)

    def writer():
        start.wait()  # every thread's first row races the others' registration
        for _ in range(calls // 4):
            runtime.collocated_call_end(*runtime.collocated_call_start(op))
            runtime.unbind_ftl()

    threads = [threading.Thread(target=writer) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    kept = 4 * calls if capacity is None else capacity
    assert len(buffer) == kept
    assert buffer.dropped == 4 * calls - kept


def test_mode_and_enabled_flipped_between_probe_1_and_probe_4_take_effect():
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    runtime, process = make_runtime(mode=MonitorMode.LATENCY)
    ctx = runtime.stub_start(op)
    runtime.config.mode = MonitorMode.CPU
    runtime.stub_end(ctx, None)
    start, end = process.log_buffer.drain()
    assert start.wall_start is not None and start.cpu_start is None
    assert end.wall_start is None and end.wall_end is None
    assert end.cpu_start is not None and end.cpu_end is not None

    pair = runtime.collocated_call_start(op)
    runtime.config.mode = MonitorMode.SEMANTICS
    runtime.collocated_call_end(*pair, semantics={"status": "ok"})
    records = process.log_buffer.drain()
    assert [r.cpu_start is not None for r in records] == [True, True, False, False]
    assert [r.semantics for r in records] == [None, None, {"status": "ok"}, None]

    ctx = runtime.stub_start(op)
    pair = runtime.collocated_call_start(op)
    runtime.config.enabled = False
    runtime.collocated_call_end(*pair)
    assert runtime.skel_end(ctx) is None
    runtime.stub_end(ctx, None)
    assert runtime.stub_start(op) is None
    assert runtime.collocated_call_start(op) == (None, None)
    assert len(process.log_buffer.drain()) == 3  # nothing after the flip
    runtime.config.enabled = True
    runtime.stub_end(ctx, None)
    assert [r.event for r in process.log_buffer.drain()] == [TracingEvent.STUB_END]


def test_telemetry_enabled_after_the_runtime_exists_counts_the_next_probe():
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    runtime, _ = make_runtime()
    ctx = runtime.stub_start(op)  # uncounted: telemetry is still off
    try:
        registry = enable(MetricsRegistry())
        runtime.stub_end(ctx, None)
        runtime.collocated_call_end(*runtime.collocated_call_start(op))
        family = registry.counter("repro_probe_records_total", labels=("probe",))
        assert [family.labels(event.name.lower()).value() for event in TracingEvent] == [
            1, 1, 1, 2
        ]
    finally:
        disable()


def test_probe_record_counters_count_exactly_what_is_logged_while_telemetry_is_on():
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    caller, caller_process = make_runtime("caller")
    callee, callee_process = make_runtime("callee", prefix="c1")
    registry = MetricsRegistry()
    family = registry.counter("repro_probe_records_total", labels=("probe",))
    chains = registry.counter("repro_chains_started_total")

    def counted():
        return {event.name.lower(): family.labels(event.name.lower()).value()
                for event in TracingEvent}

    def logged():
        return len(caller_process.log_buffer) + len(callee_process.log_buffer)

    expected = dict.fromkeys(counted(), 0)
    try:
        for telemetry_on in (True, False, True):
            if telemetry_on:
                enable(registry)
            else:
                disable()
            rows_before, chains_before = logged(), chains.value()
            _every_call_shape(caller, callee, op)
            assert logged() - rows_before == 12
            if telemetry_on:
                expected = {probe: count + 3 for probe, count in expected.items()}
                assert chains.value() == chains_before + 1  # one root call per round
            else:
                assert chains.value() == chains_before
            assert counted() == expected
    finally:
        disable()
    assert sum(expected.values()) == 2 * 12  # the two rounds logged while on


def test_a_collocated_call_never_marshals_the_ftl(monkeypatch):
    def no_marshal(self):
        raise AssertionError("a collocated call sends no message: nothing to marshal")

    monkeypatch.setattr(FunctionTxLog, "to_bytes", no_marshal)
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    runtime, process = make_runtime()
    # Every probe below raises if it marshals: the patch is the check.
    token = runtime.collocated_call_start(op)
    inner = runtime.collocated_call_start(op)  # nested, as under a servant
    runtime.collocated_call_end(*inner)
    runtime.collocated_call_end(*token)
    site, ftl = token  # the pair's token carries the site and the chain, nothing wire-shaped
    assert ftl is runtime.current_ftl()
    # The single probes, told the call is collocated, marshal nothing either.
    ctx = runtime.stub_start(op, collocated=True)
    skel = runtime.skel_start(op, None, collocated=True)
    assert runtime.skel_end(skel) is None
    runtime.stub_end(ctx, None)
    records = process.log_buffer.snapshot()
    assert [r.event_seq for r in records] == list(range(12))
    assert all(r.collocated and r.site is site for r in records)
    with pytest.raises(AssertionError):  # the patch bites where a message is sent
        runtime.stub_start(op)


def test_64_tasks_on_one_loop_keep_64_distinct_chains():
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    runtime, process = make_runtime()

    async def task():
        ctx = runtime.stub_start(op)  # a root call: mints this task's chain
        await asyncio.sleep(0)
        pair = runtime.collocated_call_start(op)
        await asyncio.sleep(0)
        runtime.collocated_call_end(*pair)
        await asyncio.sleep(0)
        runtime.stub_end(ctx, None)
        return runtime.current_ftl().chain_uuid

    async def main():
        return await asyncio.gather(*(task() for _ in range(64)))

    chains = asyncio.run(main())
    assert len(set(chains)) == 64
    by_chain: dict = {}
    for record in process.log_buffer.snapshot():
        by_chain.setdefault(record.chain_uuid, []).append(record.event_seq)
    assert set(by_chain) == set(chains)
    assert all(sorted(seqs) == list(range(6)) for seqs in by_chain.values())
    assert runtime.current_ftl() is None  # nothing leaked into the caller's context
