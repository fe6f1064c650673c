"""Per-layer timings: direct calls into the public functions of one layer.

Each figure is the median over ``BATCHES`` timed batches of a fixed
number of calls (constants below — nothing is calibrated at run time).
Inputs are what the workload itself used: the bench IDL's operations,
its request frames, the records its probes wrote.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import threading
import time

from repro.analysis.quantiles import P2Quantile
from repro.cluster.transport import SocketTransport
from repro.core import (
    FunctionTxLog,
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    OperationInfo,
    SequentialUuidFactory,
    new_chain,
)
from repro.errors import TransportError
from repro.idl import compile_idl
from repro.orb import (
    CdrEncoder,
    InterfaceRegistry,
    ReplyMessage,
    ReplyStatus,
    ThreadPool,
    decode_message,
)
from repro.orb.aio import (
    ASYNC_STREAM_PRELUDE,
    AsyncMuxChannel,
    StreamFrameParser,
    frame_message,
)
from repro.orb.channel import MuxChannel
from repro.orb.fastcdr import MarshalPlan
from repro.orb.giop import encode_request
from repro.platform import (
    ContextVarStorage,
    Host,
    LocalLogBuffer,
    Network,
    SimProcess,
    ThreadSpecificStorage,
)
from repro.telemetry import NULL_COUNTER

from bench.spans import SpanRecorder
from bench.spec import PROBE_METRICS
from bench.worlds import ASYNC_TASKS, IDL, build_world

BATCHES = 7


class _Timer:
    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.values: dict[str, float] = {}

    def per_call_ns(self, metric: str, call, iterations: int, divide: int = 1) -> None:
        """Median over batches of (batch time / iterations / divide)."""
        clock = time.perf_counter_ns
        batches = []
        for _ in range(BATCHES):
            with self.recorder.span(metric):
                started = clock()
                for _ in range(iterations):
                    call()
                batches.append((clock() - started) / iterations / divide)
        self.values[metric] = statistics.median(batches)


def measure_all(recorder: SpanRecorder, records: list) -> dict[str, float]:
    timer = _Timer(recorder)
    world = build_world("remote_sync", monitored=False)
    try:
        _codec_and_dispatch(timer, world)
        _transports(timer, world)
        _async_channel(timer, world)
    finally:
        world.close()
    _probes_and_carriers(timer, records)
    _offline_primitives(timer, records)
    return timer.values


# ----------------------------------------------------------------------


def _request_parts(world) -> tuple[str, bytes, bytes]:
    """(object key, FTL payload, marshalled args) of one ``Back.work(7)``."""
    key = world.orbs[2].adapter.active_keys()[0]
    ftl = FunctionTxLog("0b" + "0" * 29 + "1", 3).to_bytes()
    body = bytes(MarshalPlan(_in_types(world, "work")).marshal((7,)))
    return key, ftl, body


def _request_frame(world, request_id: int = 1) -> bytes:
    key, ftl, body = _request_parts(world)
    return encode_request(request_id, key, "Bench::Back", "work", False, body, ftl, {})


def _in_types(world, operation: str) -> list:
    resolved = world.compiled.spec.interfaces["Bench::Back"].operation(operation)
    return [param.idl_type for param in resolved.in_params]


def _codec_and_dispatch(timer: _Timer, world) -> None:
    types = _in_types(world, "work")
    plan = MarshalPlan(types)
    args = (7,)
    key, ftl, body = _request_parts(world)
    timer.per_call_ns("orb.fastcdr.marshal_args_ns", lambda: plan.marshal(args), 3000)
    timer.per_call_ns("orb.fastcdr.unmarshal_args_ns", lambda: plan.unmarshal(body), 3000)
    blob_plan = MarshalPlan(_in_types(world, "blob"))
    kib = ([7] * 1024,)
    timer.per_call_ns("orb.fastcdr.marshal_1k_ns", lambda: blob_plan.marshal(kib), 30)

    def oracle_marshal():
        encoder = CdrEncoder()
        for idl_type, value in zip(types, args):
            idl_type.marshal(encoder, value)
        return encoder.getvalue()

    timer.per_call_ns("orb.cdr.marshal_args_ns", oracle_marshal, 3000)

    templates: dict = {}
    timer.per_call_ns(
        "orb.giop.encode_request_ns",
        lambda: encode_request(1, key, "Bench::Back", "work", False, body, ftl, templates),
        3000,
    )
    timer.per_call_ns(
        "orb.giop.encode_reply_ns",
        lambda: ReplyMessage(1, ReplyStatus.OK, body, ftl).encode(),
        3000,
    )
    frame = _request_frame(world)
    timer.per_call_ns("orb.giop.decode_message_ns", lambda: decode_message(frame), 2000)
    skeleton = world.orbs[2].adapter.find(key)
    request = decode_message(frame)
    timer.per_call_ns("orb.runtime.dispatch_ns", lambda: skeleton.dispatch(request), 2000)


def _echo_giop(conn) -> None:
    """Peer of the channel round trips: answer each request frame with an
    OK reply carrying the same body, until the link closes."""
    while True:
        try:
            request = decode_message(conn.recv())
            conn.send(ReplyMessage(request.request_id, ReplyStatus.OK, request.body).encode())
        except TransportError:
            return


def _transports(timer: _Timer, world) -> None:
    process = world.processes[0]
    host = process.host
    network = Network()
    accepted: list = []
    network.listen("sink", accepted.append)
    conn = network.connect("bench", "sink")
    frame = _request_frame(world)

    def send_recv():
        conn.send(frame)
        accepted[0].recv()

    timer.per_call_ns("platform.network.send_recv_ns", send_recv, 3000)
    conn.close()

    network.listen("echo", lambda peer: process.spawn_thread(_echo_giop, "echo", (peer,)))
    channel = MuxChannel(network.connect("bench", "echo"), process)
    ids = itertools.count(1)
    frames = [_request_frame(world, i) for i in range(BATCHES * 500 + 2)]

    def mux_call():
        request_id = next(ids)
        channel.call(request_id, frames[request_id], host, False, 5.0)

    timer.per_call_ns("orb.channel.mux_roundtrip_ns", mux_call, 500)
    channel.close()

    pool = ThreadPool(2)
    pool.start(process)
    done = threading.Lock()
    done.acquire()

    def handoff():
        pool.submit(done.release, "bench")
        done.acquire()

    timer.per_call_ns("orb.threading_policies.pool_handoff_ns", handoff, 1000)
    pool.shutdown()

    # A sandbox without loopback networking cannot open the socket pair;
    # the layer is then reported as 0 rather than failing the whole run.
    try:
        transport = SocketTransport()
        transport.listen("echo", lambda peer: process.spawn_thread(_echo_bytes, "sock", (peer,)))
    except OSError:
        timer.values["cluster.transport.loopback_roundtrip_us"] = 0.0
        return
    try:
        link = transport.connect("bench", "echo")

        def loopback():
            link.send(frame)
            link.recv(5.0)

        timer.per_call_ns("cluster.transport.loopback_roundtrip_us", loopback, 300, divide=1000)
    finally:
        transport.close()


def _echo_bytes(conn) -> None:
    while True:
        try:
            conn.send(conn.recv())
        except TransportError:
            return


def _async_channel(timer: _Timer, world) -> None:
    process, host = world.processes[0], world.processes[0].host
    frames = [_request_frame(world, i) for i in range(BATCHES * 300 + 64 * 20 + 2)]
    chunk = b"".join(frame_message(frames[1]) for _ in range(64))
    timer.per_call_ns(
        "orb.aio.framing.parse_ns_per_frame", lambda: StreamFrameParser().feed(chunk), 60,
        divide=64,
    )
    network = Network()
    traffic = {"sends": 0, "frames": 0}

    def echo_stream(conn) -> None:
        parser = StreamFrameParser()
        try:
            if conn.recv() != ASYNC_STREAM_PRELUDE:
                return
            while True:
                requests = [decode_message(f) for f in parser.feed(conn.recv())]
                traffic["sends"] += 1
                traffic["frames"] += len(requests)
                conn.send(b"".join(
                    frame_message(ReplyMessage(r.request_id, ReplyStatus.OK, r.body).encode())
                    for r in requests
                ))
        except TransportError:
            return

    network.listen("echo", lambda peer: process.spawn_thread(echo_stream, "aio-echo", (peer,)))
    loop = asyncio.new_event_loop()
    ids = itertools.count(1)
    try:
        async def measure():
            channel = AsyncMuxChannel(network.connect("bench", "echo"), process, loop)
            clock = time.perf_counter_ns
            batches = []
            for _ in range(BATCHES):
                with timer.recorder.span("orb.aio.channel.roundtrip_ns"):
                    started = clock()
                    for _ in range(300):
                        request_id = next(ids)
                        await channel.call(request_id, frames[request_id], host, False, 5.0)
                    batches.append((clock() - started) / 300)
            timer.values["orb.aio.channel.roundtrip_ns"] = statistics.median(batches)
            # Then the fan-out shape: ASYNC_TASKS calls in flight at once,
            # to see how many frames one coalesced flush carries.
            traffic["sends"] = traffic["frames"] = 0
            for _ in range(20):
                wave = [next(ids) for _ in range(ASYNC_TASKS)]
                await asyncio.gather(*(
                    channel.call(i, frames[i], host, False, 5.0) for i in wave
                ))
            timer.values["orb.aio.channel.frames_per_flush"] = (
                traffic["frames"] / traffic["sends"]
            )
            timer.values["orb.aio.channel.peak_pending"] = channel.peak_pending
            channel.close()

        loop.run_until_complete(measure())
    finally:
        loop.close()


def _probes_and_carriers(timer: _Timer, records: list) -> None:
    host = Host("bench-host")
    op = OperationInfo("Bench::Back", "work", "back.obj-1", "BackImpl")
    clock = time.perf_counter_ns

    def runtime(mode: MonitorMode, enabled: bool = True) -> MonitoringRuntime:
        return MonitoringRuntime(
            SimProcess("probe", host),
            MonitorConfig(mode=mode, enabled=enabled, uuid_factory=SequentialUuidFactory("9e")),
        )

    # LATENCY mode, probe by probe: five clock reads bracket the four
    # probes. The chain is left bound, as between sibling calls; starting
    # a chain (once per root call) is timed on its own below.
    monitor = runtime(MonitorMode.LATENCY)
    sums = [[], [], [], []]
    for _ in range(BATCHES):
        totals = [0, 0, 0, 0]
        with timer.recorder.span("core.monitor.probes"):
            for _ in range(1000):
                t0 = clock()
                stub = monitor.stub_start(op)
                t1 = clock()
                skel = monitor.skel_start(op, stub.request_ftl_payload)
                t2 = clock()
                reply = monitor.skel_end(skel)
                t3 = clock()
                monitor.stub_end(stub, reply)
                t4 = clock()
                totals[0] += t1 - t0
                totals[1] += t2 - t1
                totals[2] += t3 - t2
                totals[3] += t4 - t3
        monitor.process.log_buffer.drain()
        for per_probe, total in zip(sums, totals):
            per_probe.append(total / 1000)
    for metric, per_probe in zip(PROBE_METRICS, sums):
        timer.values[metric] = statistics.median(per_probe)

    uuid_factory = monitor.config.uuid_factory

    def chain_start():
        monitor.bind_ftl(new_chain(uuid_factory))
        monitor.unbind_ftl()

    timer.per_call_ns("core.monitor.chain_start_ns", chain_start, 3000)

    for metric, mode, enabled in (
        ("core.monitor.probe_ns.causality", MonitorMode.CAUSALITY, True),
        ("core.monitor.probe_ns.cpu", MonitorMode.CPU, True),
        ("core.monitor.probe_ns.disabled", MonitorMode.LATENCY, False),
    ):
        monitor = runtime(mode, enabled)

        def cycle(monitor=monitor):
            stub = monitor.stub_start(op)
            skel = monitor.skel_start(op, stub.request_ftl_payload if stub else None)
            monitor.stub_end(stub, monitor.skel_end(skel))

        timer.per_call_ns(metric, cycle, 1000, divide=4)
        monitor.process.log_buffer.drain()

    ftl = FunctionTxLog("9e" + "0" * 29 + "1", 5)
    timer.per_call_ns(
        "core.ftl.wire_roundtrip_ns", lambda: FunctionTxLog.from_bytes(ftl.to_bytes()), 3000
    )
    for metric, storage in (
        ("platform.tss.contextvar_get_set_ns", ContextVarStorage()),
        ("platform.tss.thread_get_set_ns", ThreadSpecificStorage()),
    ):
        def get_set(storage=storage):
            storage.set("ftl", ftl)
            storage.get("ftl")

        timer.per_call_ns(metric, get_set, 5000)

    record = records[0]
    buffer = LocalLogBuffer()
    timer.per_call_ns("platform.process.log_append_ns", lambda: buffer.append(record), 5000)
    timer.per_call_ns("telemetry.disabled_inc_ns", NULL_COUNTER.inc, 10000)


def _offline_primitives(timer: _Timer, records: list) -> None:
    clock = time.perf_counter_ns
    compiles = []
    for _ in range(BATCHES):
        with timer.recorder.span("idl.compile_ms"):
            started = clock()
            compile_idl(IDL, instrument=True, registry=InterfaceRegistry())
            compiles.append((clock() - started) / 1e6)
    timer.values["idl.compile_ms"] = statistics.median(compiles)

    drains = []
    for _ in range(BATCHES):
        buffer = LocalLogBuffer()
        for record in records:
            buffer.append(record)
        with timer.recorder.span("platform.process.drain_ns_per_record"):
            started = clock()
            drained = buffer.drain()
            drains.append((clock() - started) / len(drained))
    timer.values["platform.process.drain_ns_per_record"] = statistics.median(drains)

    costs = itertools.cycle(
        [r.wall_end - r.wall_start for r in records[:4096] if r.wall_start is not None]
    )
    quantile = P2Quantile(0.99)
    timer.per_call_ns(
        "analysis.quantiles.p2_add_ns", lambda: quantile.observe(next(costs)), 3000
    )
