"""What the probes prebind, and what they must keep reading per probe.

The runtime resolves once what cannot change under it — the clock, the FTL
slot's context variable, and per ``OperationInfo`` the ten record fields
constant per (process, operation). Everything the tree *does* change under
a live runtime is read on each probe; each test here swaps one such thing
after the runtime was built and checks that the next probe sees it.
"""

from __future__ import annotations

import asyncio

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


def test_a_collocated_call_never_marshals_the_ftl(monkeypatch):
    def no_marshal(self):
        raise AssertionError("a collocated call sends no message: nothing to marshal")

    monkeypatch.setattr(FunctionTxLog, "to_bytes", no_marshal)
    op = OperationInfo("Mod::Iface", "op", "obj-1", "Comp")
    runtime, process = make_runtime()
    stub_ctx, skel_ctx = runtime.collocated_call_start(op)
    inner = runtime.collocated_call_start(op)  # nested, as under a servant
    runtime.collocated_call_end(*inner)
    runtime.collocated_call_end(stub_ctx, skel_ctx)
    assert stub_ctx.request_ftl_payload is None
    # The single probes, told the call is collocated, marshal nothing either.
    ctx = runtime.stub_start(op, collocated=True)
    skel = runtime.skel_start(op, None, collocated=True)
    assert ctx.request_ftl_payload is None and runtime.skel_end(skel) is None
    runtime.stub_end(ctx, None)
    records = process.log_buffer.snapshot()
    assert [r.event_seq for r in records] == list(range(12))
    assert all(r.collocated for r in records)
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
