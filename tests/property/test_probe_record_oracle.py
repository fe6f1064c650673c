"""A record-level oracle for the four probes.

The probes are hand-inlined for speed (one frame each, a prebound site,
fused collocated pairs), so what they *write* is pinned here the way
``orb/cdr.py`` pins fastcdr: a model in this file writes down the 22
persisted fields of every probe activation **by keyword, from first
principles** — site fields from the ``OperationInfo`` and the
``SimProcess``/``Host`` it fired in, chain uuid and event number from a
model FTL (a counter along the chain; a oneway forks a chain numbered
from 0), uuids from a model of ``SequentialUuidFactory``, readings from a
model of the clock — and hypothesis drives call forests through the real
probes: sync, oneway, collocated, nested, over three processes on three
platforms, in all five monitor modes. Drained records must equal the
model in per-thread order: as records (a :class:`Site` built from the ten
site fields + the twelve per-event ones) and field by field, all 22 read
off the record — the ten site fields through its delegating properties.
The last two tests pin *which* ``Site`` object a record holds.

Two drivers share the model. The direct one calls the probes itself, on a
clock whose every *reading* ticks, so the model also has to know how many
readings a probe takes and to which record each belongs (a fused
collocated pair reads once at its seam: the second record starts on the
first record's end reading). The other runs
IDL-generated stubs and skeletons over the in-memory ``Network`` (real
marshalling, pooled server threads) on a plain ``VirtualClock``.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    CallKind,
    Domain,
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    OperationInfo,
    ProbeRecord,
    SequentialUuidFactory,
    Site,
    TracingEvent,
)
from repro.idl import compile_idl
from repro.orb import InterfaceRegistry, Orb, ThreadPool
from repro.platform import (
    Host,
    Network,
    PlatformKind,
    ProcessorType,
    SimProcess,
    VirtualClock,
)
from repro.platform.clocks import Clock

WALL_MODES = (MonitorMode.LATENCY, MonitorMode.FULL)
CPU_MODES = (MonitorMode.CPU, MonitorMode.FULL)
SEMANTICS_MODES = (MonitorMode.SEMANTICS, MonitorMode.FULL)

#: (name, platform, processor): gamma's OS has no per-thread CPU counter.
PLACES = (
    ("alpha", PlatformKind.HPUX_11, ProcessorType.PA_RISC),
    ("beta", PlatformKind.WINDOWS_NT, ProcessorType.X86),
    ("gamma", PlatformKind.VXWORKS, ProcessorType.EMBEDDED),
)

#: The fields a record holds through its site; the other twelve are its own.
SITE_FIELDS = (
    "interface", "operation", "object_id", "component", "process", "pid", "host",
    "processor_type", "platform", "domain",
)


# ----------------------------------------------------------------------
# The model


@dataclass
class Call:
    """One invocation of a forest: what is called, how, where, and what the
    stub (probe 1) and the skeleton (probe 3) hand over as semantics."""

    op: OperationInfo
    shape: str  # "sync" | "oneway" | "collocated"
    target: int  # callee process; a collocated call stays in its caller's
    cpu_ns: int = 0
    children: list = field(default_factory=list)
    semantics_1: dict | None = None
    semantics_3: dict | None = None


class ModelClock:
    """The model's idea of time: one wall counter, one CPU counter per
    thread token; ``tick`` is what one *reading* adds (0 on a VirtualClock)."""

    def __init__(self, tick: int):
        self.tick = tick
        self.wall = 0
        self.cpu: dict = defaultdict(int)

    def read_wall(self) -> int:
        self.wall += self.tick
        return self.wall

    def read_cpu(self, thread) -> int:
        self.cpu[thread] += self.tick
        return self.cpu[thread]

    def last_wall(self) -> int:
        """The latest wall reading again, taking no new one."""
        return self.wall

    def last_cpu(self, thread) -> int:
        return self.cpu[thread]

    def consume(self, thread, ns: int) -> None:
        self.wall += ns
        self.cpu[thread] += ns


class Oracle:
    """Walks a forest and writes down, per (process, thread token), the
    records the probes must log — knowing nothing of how they do it."""

    def __init__(self, processes, mode: MonitorMode, uuid_prefix: str, tick: int,
                 callee_thread):
        self.processes = processes
        self.mode = mode
        self.clock = ModelClock(tick)
        self._uuid_prefix = uuid_prefix
        self._uuids = 0
        #: (shape, caller's thread, callee process) -> the callee's thread
        self._callee_thread = callee_thread
        self.expected: dict = defaultdict(list)

    def mint(self) -> str:
        self._uuids += 1
        body = f"{self._uuids:x}"
        return self._uuid_prefix + "0" * (32 - len(self._uuid_prefix) - len(body)) + body

    def probe(self, where: int, thread, event: TracingEvent, call: Call, chain: list,
              kind: CallKind, collocated: bool, child_uuid=None, semantics=None,
              seam: bool = False) -> None:
        """One probe's record; ``seam`` marks the second probe of a fused
        pair, whose start readings are the first probe's end readings."""
        process = self.processes[where]
        host = process.host
        wall_on = self.mode in WALL_MODES
        cpu_on = self.mode in CPU_MODES and host.capabilities.supports_thread_cpu
        clock = self.clock
        if seam:
            wall_start = clock.last_wall() if wall_on else None
            cpu_start = clock.last_cpu(thread) if cpu_on else None
        else:
            wall_start = clock.read_wall() if wall_on else None
            cpu_start = clock.read_cpu(thread) if cpu_on else None
        chain[1] += 1
        self.expected[where, thread].append(dict(
            chain_uuid=chain[0],
            event_seq=chain[1],
            event=event,
            interface=call.op.interface,
            operation=call.op.operation,
            object_id=call.op.object_id,
            component=call.op.component,
            process=process.name,
            pid=process.pid,
            host=host.name,
            thread_id=thread,  # a token until the run tells its ident
            processor_type=host.processor_type.value,
            platform=host.platform_kind.value,
            call_kind=kind,
            collocated=collocated,
            domain=call.op.domain,
            wall_start=wall_start,
            wall_end=self.clock.read_wall() if wall_on else None,
            cpu_start=cpu_start,
            cpu_end=self.clock.read_cpu(thread) if cpu_on else None,
            child_chain_uuid=child_uuid,
            semantics=semantics if self.mode in SEMANTICS_MODES else None,
        ))

    def root(self, call: Call, chain: list | None) -> list:
        """A call from process 0's main thread; returns the chain it ran on."""
        if chain is None:
            chain = [self.mint(), -1]  # minted by the root's first probe
        self.call(0, "main", chain, call)
        return chain

    def call(self, caller: int, thread, chain: list, call: Call) -> None:
        start, end = TracingEvent.STUB_START, TracingEvent.STUB_END
        skel_start, skel_end = TracingEvent.SKEL_START, TracingEvent.SKEL_END
        if call.shape == "collocated":
            sync = CallKind.SYNC
            self.probe(caller, thread, start, call, chain, sync, True, None, call.semantics_1)
            self.probe(caller, thread, skel_start, call, chain, sync, True, seam=True)
            self.body(caller, thread, chain, call)
            self.probe(caller, thread, skel_end, call, chain, sync, True, None, call.semantics_3)
            self.probe(caller, thread, end, call, chain, sync, True, seam=True)
            return
        callee_thread = self._callee_thread(call.shape, thread, call.target)
        if call.shape == "sync":
            sync = CallKind.SYNC
            self.probe(caller, thread, start, call, chain, sync, False, None, call.semantics_1)
            self.probe(call.target, callee_thread, skel_start, call, chain, sync, False)
            self.body(call.target, callee_thread, chain, call)
            self.probe(call.target, callee_thread, skel_end, call, chain, sync, False, None,
                       call.semantics_3)
            self.probe(caller, thread, end, call, chain, sync, False)
            return
        # oneway: the link lives in probe 1's record; the child chain's
        # first event is the skeleton start, numbered 0.
        oneway = CallKind.ONEWAY
        child = [self.mint(), -1]
        self.probe(caller, thread, start, call, chain, oneway, False, child[0], call.semantics_1)
        self.probe(caller, thread, end, call, chain, oneway, False)
        self.probe(call.target, callee_thread, skel_start, call, child, oneway, False)
        self.body(call.target, callee_thread, child, call)
        self.probe(call.target, callee_thread, skel_end, call, child, oneway, False, None,
                   call.semantics_3)

    def body(self, where: int, thread, chain: list, call: Call) -> None:
        self.clock.consume(thread, call.cpu_ns)
        for child in call.children:
            self.call(where, thread, chain, child)


def assert_records_match(oracle: Oracle, processes, idents: dict) -> None:
    """Every process's drained records equal the model's, thread by thread."""
    expected: dict = defaultdict(list)
    for (where, token), rows in oracle.expected.items():
        for fields in rows:
            fields["thread_id"] = idents[token]
        expected[where, idents[token]] += rows
    actual: dict = defaultdict(list)
    for where, process in enumerate(processes):
        for record in process.log_buffer.drain():
            actual[where, record.thread_id].append(record)
    assert set(actual) == set(expected)
    for key in expected:
        for index, (got, fields) in enumerate(zip(actual[key], expected[key])):
            at = f"process/thread {key}, record {index}"
            assert len(fields) == 22
            for name, value in fields.items():
                assert getattr(got, name) == value, f"{at}, field {name}"
            own = {name: value for name, value in fields.items() if name not in SITE_FIELDS}
            assert got == ProbeRecord(Site(**{name: fields[name] for name in SITE_FIELDS}), **own), at
        assert len(actual[key]) == len(expected[key])


# ----------------------------------------------------------------------
# Driver 1: the probes called directly, on a clock whose readings tick


class TickingClock(Clock):
    """Every reading advances what it reads by one nanosecond: no two
    readings coincide, so a reading taken at the wrong moment, or one too
    many or too few, shows in a record."""

    def __init__(self):
        self._wall = 0
        self._cpu: dict[int, int] = defaultdict(int)
        self._lock = threading.Lock()

    def wall_ns(self) -> int:
        with self._lock:
            self._wall += 1
            return self._wall

    def thread_cpu_ns(self) -> int:
        with self._lock:
            self._cpu[threading.get_ident()] += 1
            return self._cpu[threading.get_ident()]

    def consume(self, ns: int) -> None:
        with self._lock:
            self._wall += ns
            self._cpu[threading.get_ident()] += ns


class DirectRun:
    """Three processes; every hop is made by calling the probes, the way
    ``tests/helpers.py`` does, and a oneway callee gets its own thread."""

    def __init__(self, mode: MonitorMode, uuid_prefix: str):
        self.clock = TickingClock()
        uuid_factory = SequentialUuidFactory(uuid_prefix)
        self.processes = [
            SimProcess(name, Host(f"{name}-host", platform, processor, clock=self.clock))
            for name, platform, processor in PLACES
        ]
        self.runtimes = [
            MonitoringRuntime(process, MonitorConfig(mode=mode, uuid_factory=uuid_factory))
            for process in self.processes
        ]
        self.idents = {"main": threading.get_ident()}
        self._release = threading.Event()  # keeps worker idents unique
        self._workers: list[threading.Thread] = []

    def call(self, caller: int, call: Call) -> None:
        runtime = self.runtimes[caller]
        if call.shape == "collocated":
            contexts = runtime.collocated_call_start(call.op, semantics=call.semantics_1)
            self.body(caller, call)
            runtime.collocated_call_end(*contexts, semantics=call.semantics_3)
            return
        callee = self.runtimes[call.target]
        if call.shape == "sync":
            ctx = runtime.stub_start(call.op, semantics=call.semantics_1)
            skel = callee.skel_start(call.op, ctx.request_ftl_payload)
            self.body(call.target, call)
            runtime.stub_end(ctx, callee.skel_end(skel, semantics=call.semantics_3))
            return
        ctx = runtime.stub_start(call.op, oneway=True, semantics=call.semantics_1)
        runtime.stub_end(ctx, None)
        token = ("oneway", len(self._workers))
        done = threading.Event()

        def callee_side():
            self.idents[token] = threading.get_ident()
            skel = callee.skel_start(call.op, ctx.request_ftl_payload, oneway=True)
            self.body(call.target, call)
            assert callee.skel_end(skel, semantics=call.semantics_3) is None
            done.set()
            self._release.wait(10)

        worker = threading.Thread(target=callee_side)
        self._workers.append(worker)
        worker.start()
        assert done.wait(10)

    def body(self, where: int, call: Call) -> None:
        self.clock.consume(call.cpu_ns)
        for child in call.children:
            self.call(where, child)

    def close(self) -> None:
        self._release.set()
        for worker in self._workers:
            worker.join(10)


def _direct_callee_thread():
    """Direct driver: a sync callee runs on its caller's thread, every
    oneway callee on a thread of its own (numbered in call order)."""
    spawned = []

    def callee_thread(shape, caller_thread, target):
        if shape == "sync":
            return caller_thread
        spawned.append(None)
        return ("oneway", len(spawned) - 1)

    return callee_thread


OPERATIONS = [
    OperationInfo(f"Mod::I{i}", f"op{j}", f"obj-{i}", f"Comp{i}", domain)
    for i, domain in enumerate((Domain.CORBA, Domain.COM, Domain.J2EE))
    for j in range(2)
]


def _calls(children):
    return st.builds(
        Call,
        op=st.sampled_from(OPERATIONS),  # shared objects: sites get re-bound
        shape=st.sampled_from(["sync", "oneway", "collocated"]),
        target=st.integers(0, len(PLACES) - 1),
        cpu_ns=st.integers(0, 5_000),
        children=children,
        semantics_1=st.none() | st.fixed_dictionaries({"args": st.lists(st.integers(), max_size=2)}),
        semantics_3=st.none() | st.fixed_dictionaries({"result": st.integers()}),
    )


FORESTS = st.lists(
    st.recursive(_calls(st.just([])), lambda inner: _calls(st.lists(inner, max_size=3)),
                 max_leaves=8),
    min_size=1, max_size=3,
)
@given(forest=FORESTS, mode=st.sampled_from(list(MonitorMode)), share_chain=st.booleans())
def test_direct_probes_write_the_model_records(forest, mode, share_chain):
    run = DirectRun(mode, "d1")
    oracle = Oracle(run.processes, mode, "d1", tick=1, callee_thread=_direct_callee_thread())
    try:
        chain = None
        for call in forest:
            run.call(0, call)
            chain = oracle.root(call, chain)
            if not share_chain:  # a fresh chain per top-level call
                run.runtimes[0].unbind_ftl()
                chain = None
        assert_records_match(oracle, run.processes, run.idents)
    finally:
        run.close()


# ----------------------------------------------------------------------
# Driver 2: generated stubs and skeletons over the in-memory Network

IDL = """
module Ora {
  interface Leaf {
    long leaf(in long x);
    oneway void note(in long x);
  };
  interface Mid {
    long relay(in long x);
    long local(in long x);
  };
};
"""


class OrbRun:
    """client -> mid -> leaf, one pooled worker per server. ``relay`` runs
    the steps of ``plan``: a remote sync ``leaf``, a collocated ``local`` on
    a second object of its own ORB, a remote oneway ``note`` (which it
    waits for: the clock must not move under a racing skeleton)."""

    def __init__(self, mode: MonitorMode, uuid_prefix: str, plan: list[str]):
        self.clock = clock = VirtualClock()
        network = Network()
        registry = InterfaceRegistry()
        compiled = compile_idl(IDL, instrument=True, registry=registry)
        uuid_factory = SequentialUuidFactory(uuid_prefix)
        self.processes = [
            SimProcess(name, Host(f"{name}-host", platform, processor, clock=clock))
            for name, platform, processor in PLACES
        ]
        for process in self.processes:
            MonitoringRuntime(process, MonitorConfig(mode=mode, uuid_factory=uuid_factory))
        client, mid, leaf = self.processes
        client_orb = Orb(client, network, registry=registry)
        mid_orb = Orb(mid, network, policy=ThreadPool(1), registry=registry)
        leaf_orb = Orb(leaf, network, policy=ThreadPool(1), registry=registry)
        self.idents = idents = {"main": threading.get_ident()}
        noted = threading.Event()

        class LeafImpl(compiled.Leaf):
            def leaf(self, x):
                idents["leaf-worker"] = threading.get_ident()
                clock.consume(50)
                return x + 1

            def note(self, x):
                idents["leaf-worker"] = threading.get_ident()
                clock.consume(5)
                noted.set()

        self.leaf_stub = leaf_stub = mid_orb.resolve(leaf_orb.activate(LeafImpl()))

        class MidImpl(compiled.Mid):
            def relay(self, x):
                idents["mid-worker"] = threading.get_ident()
                clock.consume(100)
                for step in plan:
                    if step == "leaf":
                        x = leaf_stub.leaf(x)
                    elif step == "local":
                        x = local_stub.local(x)
                    else:
                        noted.clear()
                        leaf_stub.note(x)
                        assert noted.wait(10)
                return x

            def local(self, x):
                clock.consume(20)
                return x * 2

        self.local_stub = local_stub = mid_orb.resolve(mid_orb.activate(MidImpl()))
        self.stub = client_orb.resolve(mid_orb.activate(MidImpl()))

    def close(self) -> None:
        for process in self.processes:
            process.shutdown()


def _orb_call(stub, operation: str, shape: str, target: int, cpu_ns: int, arg: int,
              result, children=()) -> Call:
    """The model's view of one generated-stub call: the site is the stub's
    object reference, the semantics payloads are the stub/skeleton
    convention of ``orb/runtime.py`` (a collocated call captures none)."""
    ref = stub.object_ref
    op = OperationInfo(stub._interface, operation, ref.object_key, ref.component, Domain.CORBA)
    if shape == "collocated":
        return Call(op, shape, target, cpu_ns, list(children))
    return Call(
        op, shape, target, cpu_ns, list(children),
        semantics_1={"operation": operation, "args": [repr(arg)]} if shape == "sync" else None,
        semantics_3={"status": "ok", "result": repr(result)},
    )
@given(
    plan=st.lists(st.sampled_from(["leaf", "local", "note"]), max_size=4),
    mode=st.sampled_from(list(MonitorMode)),
    roots=st.integers(1, 2),
)
def test_generated_stubs_over_the_network_write_the_model_records(plan, mode, roots):
    run = OrbRun(mode, "0e", plan)
    workers = {1: "mid-worker", 2: "leaf-worker"}
    oracle = Oracle(run.processes, mode, "0e", tick=0,
                    callee_thread=lambda shape, caller_thread, target: workers[target])
    try:
        chain = None
        for root in range(roots):  # sibling roots share the client's chain
            x = root
            children = []
            for step in plan:
                if step == "leaf":
                    children.append(_orb_call(run.leaf_stub, "leaf", "sync", 2, 50, x, x + 1))
                    x += 1
                elif step == "local":
                    children.append(_orb_call(run.local_stub, "local", "collocated", 1, 20, x, None))
                    x *= 2
                else:
                    children.append(_orb_call(run.leaf_stub, "note", "oneway", 2, 5, x, None))
            assert run.stub.relay(root) == x
            chain = oracle.root(_orb_call(run.stub, "relay", "sync", 1, 100, root, x, children),
                                chain)
        assert_records_match(oracle, run.processes, run.idents)
    finally:
        run.close()


# ----------------------------------------------------------------------
# Which Site object a record holds


def _site_runtime(name: str):
    process = SimProcess(name, Host(f"{name}-host", clock=VirtualClock()))
    runtime = MonitoringRuntime(
        process, MonitorConfig(mode=MonitorMode.FULL, uuid_factory=SequentialUuidFactory("51"))
    )
    return runtime, process


def _every_probe(runtime, op: OperationInfo, peer, peer_op: OperationInfo) -> None:
    """All eight record-writing sites of ``runtime`` on ``op``: a sync and a
    oneway call that ``peer`` serves (on ``peer_op``), one it serves for
    ``peer``, and a collocated pair."""
    ctx = runtime.stub_start(op)
    skel = peer.skel_start(peer_op, ctx.request_ftl_payload)
    runtime.stub_end(ctx, peer.skel_end(skel))
    ctx = runtime.stub_start(op, oneway=True)
    runtime.stub_end(ctx, None)
    skel = runtime.skel_start(op, peer.stub_start(peer_op).request_ftl_payload)
    runtime.skel_end(skel)
    runtime.collocated_call_end(*runtime.collocated_call_start(op))


def test_every_record_of_one_runtime_and_operation_holds_the_same_site_object():
    here, p_here = _site_runtime("here")
    there, p_there = _site_runtime("there")
    # An operation object per process, as generated stubs and skeletons have.
    mine = [OperationInfo("Mod::I", f"op{j}", "obj-1", "Comp", Domain.COM) for j in range(2)]
    theirs = [OperationInfo("Mod::I", f"op{j}", "obj-1", "Comp", Domain.COM) for j in range(2)]
    for _ in range(2):
        for op, peer_op in zip(mine, theirs):
            _every_probe(here, op, there, peer_op)
            _every_probe(there, peer_op, here, op)
    for process in (p_here, p_there):
        records = process.log_buffer.snapshot()
        by_operation = defaultdict(list)
        for record in records:
            by_operation[record.operation].append(record.site)
        assert {len(sites) for sites in by_operation.values()} == {26}
        for sites in by_operation.values():
            assert all(site is sites[0] for site in sites)
        assert by_operation["op0"][0] is not by_operation["op1"][0]
        assert {site.process for sites in by_operation.values() for site in sites} == {process.name}


def test_a_runtime_switch_on_a_shared_operation_rebinds_the_site():
    here, p_here = _site_runtime("here")
    there, p_there = _site_runtime("there")
    op = OperationInfo("Mod::I", "op", "obj-1", "Comp")
    rounds = []
    for _ in range(3):  # here, there, here, there, ...: a switch every time
        _every_probe(here, op, there, op)
        rounds.append((p_here.log_buffer.drain(), p_there.log_buffer.drain()))
    for mine, theirs in rounds:
        # A process's records name its own locality, whoever bound the slot last ...
        assert {r.site.process for r in mine} == {"here"}
        assert {r.site.host for r in theirs} == {"there-host"}
    # Re-binding finds the runtime's own site again: one object per (runtime,
    # operation) however often the slot changed hands.
    assert len({id(r.site) for mine, _theirs in rounds for r in mine}) == 1
    assert len({id(r.site) for _mine, theirs in rounds for r in theirs}) == 1
    assert rounds[0][0][0].site != rounds[0][1][0].site
