"""Test helpers: a single-thread chain simulator driving the real probes.

Analysis tests need precise, hand-crafted call trees. Rather than faking
ProbeRecord objects (and risking divergence from what the runtime really
emits), this simulator drives the actual :class:`MonitoringRuntime` probe
entry points on a virtual clock, producing exactly the records an
instrumented deployment would.

All calls run on the invoking thread (the collocated/monolithic shape);
CPU self-accounting is still exercised fully because the SC formula
subtracts child call windows taken on the caller's thread.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    OperationInfo,
    SequentialUuidFactory,
)
from repro.core.records import as_row
from repro.platform import Host, PlatformKind, ProcessorType, SimProcess, VirtualClock


@dataclass
class Call:
    """One scripted invocation."""

    name: str  # "Iface::op"
    cpu_ns: int = 0
    idle_ns: int = 0
    children: tuple = ()
    oneway: bool = False
    collocated: bool = False
    object_id: str = "obj-1"
    component: str = "Comp"

    @property
    def interface(self) -> str:
        return self.name.rsplit("::", 1)[0] if "::" in self.name else "I"

    @property
    def operation(self) -> str:
        return self.name.rsplit("::", 1)[-1]


@dataclass
class Simulation:
    """The simulator plus everything tests usually need afterwards."""

    runtime: MonitoringRuntime
    process: SimProcess
    clock: VirtualClock
    records: list = field(default_factory=list)

    def finish(self):
        self.records = self.process.log_buffer.snapshot()
        return self.records


def simulate(
    top_calls: list[Call],
    mode: MonitorMode = MonitorMode.FULL,
    platform: PlatformKind = PlatformKind.HPUX_11,
    fresh_chain_per_top_call: bool = False,
    uuid_prefix: str = "51",
) -> Simulation:
    """Run scripted calls through the real probes; return the simulation."""
    clock = VirtualClock()
    host = Host("sim-host", platform, ProcessorType.PA_RISC, clock=clock)
    process = SimProcess("sim", host)
    runtime = MonitoringRuntime(
        process,
        MonitorConfig(mode=mode, uuid_factory=SequentialUuidFactory(uuid_prefix)),
    )
    sim = Simulation(runtime=runtime, process=process, clock=clock)
    for call in top_calls:
        _run_call(sim, call)
        if fresh_chain_per_top_call:
            runtime.unbind_ftl()
    sim.finish()
    return sim


def _op(call: Call) -> OperationInfo:
    return OperationInfo(call.interface, call.operation, call.object_id, call.component)


def _run_call(sim: Simulation, call: Call) -> None:
    runtime, clock = sim.runtime, sim.clock
    op = _op(call)
    if call.oneway:
        ctx = runtime.stub_start(op, oneway=True)
        runtime.stub_end(ctx, None)
        # Oneway calls are always cross-thread (Section 2.2): dispatch the
        # forked chain on its own thread so per-thread CPU accounting
        # behaves as in a real deployment. Joining keeps records ordered.
        import threading

        def callee_side():
            skel_ctx = runtime.skel_start(op, ctx.request_ftl_payload, oneway=True)
            _run_body(sim, call)
            runtime.skel_end(skel_ctx)

        worker = threading.Thread(target=callee_side)
        worker.start()
        worker.join()
        return
    if call.collocated:
        site, ftl = runtime.collocated_call_start(op)
        _run_body(sim, call)
        runtime.collocated_call_end(site, ftl)
        return
    ctx = runtime.stub_start(op)
    skel_ctx = runtime.skel_start(op, ctx.request_ftl_payload)
    _run_body(sim, call)
    reply = runtime.skel_end(skel_ctx)
    runtime.stub_end(ctx, reply)


def _run_body(sim: Simulation, call: Call) -> None:
    if call.cpu_ns:
        sim.clock.consume(call.cpu_ns)
    if call.idle_ns:
        sim.clock.idle(call.idle_ns)
    for child in call.children:
        _run_call(sim, child)


def rows_of(records) -> list[tuple]:
    """What a store decodes for ``records``: one row (a tuple) each."""
    return [tuple(as_row(record)) for record in records]


def cut_into_blocks(path: str, fraction: float) -> None:
    """Truncate a segment file ``fraction`` of the way into what precedes
    its footer (a small file's footer, holding every string and rank, can
    be a third of it), as a crash mid-write leaves it."""
    with open(path, "rb") as handle:
        handle.seek(-16, 2)
        footer_off = int.from_bytes(handle.read(8), "little")
    os.truncate(path, int(footer_off * fraction))


def reseal(data: bytes) -> bytes:
    """``data`` (a column-format segment) with every column block's and
    the footer's CRC32 recomputed — so a test that damages bytes on purpose
    reaches the reader's own checks, not the checksum that stands before
    them."""
    out = bytearray(data)
    footer_off = int.from_bytes(out[-16:-8], "little")
    pos = 16
    while pos + 5 <= footer_off:
        tag, plen = out[pos], int.from_bytes(out[pos + 1:pos + 5], "little")
        if tag == 4 and pos + 9 <= footer_off:
            body = bytes(out[pos + 9:pos + 5 + plen])
            out[pos + 5:pos + 9] = zlib.crc32(body).to_bytes(4, "little")
        pos += 5 + plen
    out[-4:] = zlib.crc32(bytes(out[footer_off:-16])).to_bytes(4, "little")
    return bytes(out)
