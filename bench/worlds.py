"""The three online traffic shapes, each as a monitored deployment and an
identically built unmonitored twin.

A *world* is one set of simulated processes and ORBs plus the stub the
driver calls. The twin differs in exactly one thing: no
``MonitoringRuntime`` is attached to its processes, so its instrumented
stubs and skeletons find ``process.monitor is None`` and skip the probes.
Load comes from the calling thread alone (one driver thread; the ORB's
server, demux and event-loop threads are the system under test).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.core import MonitorConfig, MonitoringRuntime, MonitorMode, SequentialUuidFactory
from repro.idl import compile_idl
from repro.orb import AsyncioDispatch, InterfaceRegistry, Orb, ThreadPool
from repro.platform import Host, Network, SimProcess

IDL = """
module Bench {
  typedef sequence<octet> Blob;
  interface Back {
    long work(in long x);
    long blob(in Blob data);
  };
  interface Front { long handle(in long x); };
  interface Level { long step(in long x); };
  interface Svc {
    long ping(in long x);
    oneway void cast(in long x);
  };
};
"""

#: async_fanout: tasks in flight on the one client loop, and which call of
#: every eight is the oneway ``cast`` (so each task's last call is a sync
#: ``ping``, which orders behind its casts on the shared channel: when a
#: block's gather returns, every cast has been dispatched and has logged).
ASYNC_TASKS = 64
CAST_EVERY = 8
CAST_SLOT = 3


def _no_chain() -> None:
    """The unmonitored twin's stand-in for ``unbind_ftl``: same loop shape."""


@dataclass
class Block:
    """One timed block of root calls against one world."""

    per_call_ns: list[int]
    wall_ns: int
    failed: int


@dataclass
class World:
    traffic: str
    monitored: bool
    compiled: object
    processes: list[SimProcess]
    orbs: list[Orb]
    stub: object
    #: the root operation the driver calls on ``stub`` (sync shapes)
    op: str
    #: probe records one monitored root call writes (exact)
    records_per_root: int
    loop: asyncio.AbstractEventLoop | None = None

    def __post_init__(self):
        # Ending the driver's causal chain after each root makes the next
        # root start a new one (a chain per transaction, not per thread).
        monitor = self.processes[0].monitor
        self.unbind = monitor.unbind_ftl if monitor is not None else _no_chain

    def run_block(self, roots: int, recorder=None, first_op: int = 0) -> Block:
        if self.traffic == "async_fanout":
            return self.loop.run_until_complete(
                _async_block(self, roots, recorder, first_op)
            )
        return _sync_block(self, roots, recorder, first_op)

    def drain(self) -> int:
        """Discard what the probes logged; returns how many records."""
        return sum(len(process.log_buffer.drain()) for process in self.processes)

    def close(self) -> None:
        for orb in self.orbs:
            orb.shutdown()
        for process in self.processes:
            process.shutdown()
        if self.loop is not None:
            self.loop.close()


def expected_shape(traffic: str, roots: int) -> tuple[int, int]:
    """(DSCG nodes, chains) that ``roots`` monitored root calls become."""
    if traffic == "remote_sync":
        return 2 * roots, roots
    if traffic == "collocated_nested":
        return 4 * roots, roots
    # async_fanout: a ping is one node in one chain; a cast is a stub-side
    # node in its own chain plus a skeleton-side node in the forked child.
    casts = roots // CAST_EVERY
    return roots + casts, roots + casts


def expected_records(traffic: str, roots: int) -> dict[tuple[str, str, str], int]:
    """Exact ``(operation, event, process) -> count`` of ``roots`` monitored
    root calls: four records per call, stub side where the caller runs and
    skeleton side where the servant runs — for a oneway too (2 + 2)."""
    if traffic == "remote_sync":
        hops = [("handle", "client", "front", roots), ("work", "front", "back", roots)]
    elif traffic == "collocated_nested":
        hops = [("step", "solo", "solo", 4 * roots)]
    else:
        casts = roots // CAST_EVERY
        hops = [("ping", "client", "server", roots - casts), ("cast", "client", "server", casts)]
    expected = {}
    for operation, caller, servant, count in hops:
        for event, process in (
            ("STUB_START", caller), ("SKEL_START", servant),
            ("SKEL_END", servant), ("STUB_END", caller),
        ):
            expected[(operation, event, process)] = count
    return expected


def build_world(traffic: str, monitored: bool) -> World:
    network = Network()
    host = Host("bench-host")  # real clock: the driver measures wall time
    registry = InterfaceRegistry()
    async_mode = traffic == "async_fanout"
    compiled = compile_idl(IDL, instrument=True, registry=registry, async_mode=async_mode)
    uuid_factory = SequentialUuidFactory("0b")

    def process(name: str) -> SimProcess:
        proc = SimProcess(name, host)
        if monitored:
            MonitoringRuntime(
                proc, MonitorConfig(mode=MonitorMode.LATENCY, uuid_factory=uuid_factory)
            )
        return proc

    if traffic == "remote_sync":
        client, front, back = process("client"), process("front"), process("back")
        back_orb = Orb(back, network, policy=ThreadPool(2), registry=registry, channel="mux")
        front_orb = Orb(front, network, policy=ThreadPool(2), registry=registry, channel="mux")
        client_orb = Orb(client, network, registry=registry, channel="mux")

        class BackImpl(compiled.Back):
            def work(self, x):
                return x + 1

            def blob(self, data):
                return len(data)

        back_stub = front_orb.resolve(back_orb.activate(BackImpl()))

        class FrontImpl(compiled.Front):
            def handle(self, x):
                return back_stub.work(x) + 1

        stub = client_orb.resolve(front_orb.activate(FrontImpl()))
        return World(
            traffic, monitored, compiled, [client, front, back],
            [client_orb, front_orb, back_orb], stub, "handle", records_per_root=8,
        )

    if traffic == "collocated_nested":
        solo = process("solo")
        orb = Orb(solo, network, registry=registry)

        class LevelImpl(compiled.Level):
            def __init__(self, inner=None):
                self.inner = inner

            def step(self, x):
                return x + 1 if self.inner is None else self.inner.step(x) + 1

        stub = None
        for _depth in range(4):
            stub = orb.resolve(orb.activate(LevelImpl(stub)))
        return World(
            traffic, monitored, compiled, [solo], [orb], stub, "step", records_per_root=16
        )

    if traffic == "async_fanout":
        client, server = process("client"), process("server")
        server_orb = Orb(
            server, network, policy=AsyncioDispatch(), registry=registry, channel="asyncio"
        )

        class SvcImpl(compiled.Svc):
            async def ping(self, x):
                return x + 1

            async def cast(self, x):
                pass

        ref = server_orb.activate(SvcImpl())
        client_orb = Orb(client, network, registry=registry, channel="asyncio")
        return World(
            traffic, monitored, compiled, [client, server], [client_orb, server_orb],
            client_orb.resolve(ref), "ping", records_per_root=4, loop=asyncio.new_event_loop(),
        )

    raise ValueError(f"unknown traffic {traffic!r}")


def _sync_block(world: World, roots: int, recorder, first_op: int) -> Block:
    invoke = getattr(world.stub, world.op)
    unbind = world.unbind
    clock = time.perf_counter_ns
    samples: list[int] = []
    add = samples.append
    failed = 0
    started = clock()
    if recorder is None:
        for i in range(roots):
            t = clock()
            try:
                invoke(i)
            except Exception:
                failed += 1
            add(clock() - t)
            unbind()
    else:
        parent = recorder.current
        for i in range(roots):
            span = recorder.start("call", parent, first_op + i)
            t = clock()
            try:
                invoke(i)
            except Exception:
                failed += 1
            add(clock() - t)
            recorder.end(span)
            unbind()
    return Block(samples, clock() - started, failed)


async def _async_block(world: World, roots: int, recorder, first_op: int) -> Block:
    if roots % (ASYNC_TASKS * CAST_EVERY):
        raise ValueError(
            f"async block of {roots} calls is not {ASYNC_TASKS} tasks x a multiple of {CAST_EVERY}"
        )
    per_task = roots // ASYNC_TASKS
    ping, cast, unbind = world.stub.ping, world.stub.cast, world.unbind
    clock = time.perf_counter_ns
    samples: list[int] = []
    add = samples.append
    failures = [0]
    parent = recorder.current if recorder is not None else None

    async def worker(task: int) -> None:
        for i in range(per_task):
            if recorder is not None:
                span = recorder.start("call", parent, first_op + task * per_task + i)
            t = clock()
            try:
                if i % CAST_EVERY == CAST_SLOT:
                    await cast(i)
                else:
                    await ping(i)
            except Exception:
                failures[0] += 1
            add(clock() - t)
            if recorder is not None:
                recorder.end(span)
            unbind()

    started = clock()
    await asyncio.gather(*(worker(task) for task in range(ASYNC_TASKS)))
    return Block(samples, clock() - started, failures[0])
