"""Workload adapters the suite executor composes into scenarios.

Each adapter is a function ``(ScenarioContext) -> WorkloadHarness`` that
builds an instrumented deployment on the context's (possibly faulty)
network, drives a deterministic request sequence — calling
``ctx.tick(i)`` between operations so background hooks can fire mid-run
— quiesces, and hands the processes back for collection. The executor
owns everything after that: lossy delivery, collection, invariants,
shutdown.

The library versions of what the chaos matrix and cross-backend tests
used to hand-code:

- ``corba``      two-process CORBA client/server (styles: sync, oneway,
                 collocated)
- ``embedded``   the synthetic embedded system, scaled by params
- ``three_tier`` CORBA front -> COM middle -> J2EE back, driven over CORBA
- ``pps``        the printing-pipeline system across four processes
- ``bridge``     CORBA client -> COM object -> CORBA worker through the
                 interworking bridge

The ``cluster`` adapter, a real multi-process mini-cluster, lives in
:mod:`repro.scenarios.cluster`; the executor's ``WORKLOADS`` registry
holds them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.embedded import EmbeddedConfig, EmbeddedSystem
from repro.apps.pps import PpsSystem, four_process_deployment
from repro.bridge import com_facade_for_corba, corba_facade_for_com
from repro.com import ComInterface, ComObject, ComRuntime
from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.idl import compile_idl
from repro.j2ee import Container, Jndi, stateless
from repro.orb import (
    AsyncioDispatch,
    InterfaceRegistry,
    Orb,
    ThreadPerConnection,
    ThreadPerRequest,
    ThreadPool,
)
from repro.platform import Host, PlatformKind, SimProcess, VirtualClock, quiesce
from repro.scenarios.config import ScenarioSpec, SuiteError

#: Two-process CORBA workload IDL (the chaos matrix's service).
CORBA_IDL = """
module CH {
  interface Svc {
    long ping(in long x);
    oneway void notify(in long x);
  };
};
"""

#: Three-domain chain IDL (CORBA gateway fronting COM + J2EE).
GATEWAY_IDL = """
module TD {
  interface Gateway {
    long handle(in long request);
  };
};
"""

#: CORBA/COM bridge workload IDL.
BRIDGE_IDL = """
module HB {
  interface Render { long render(in long frame); };
  interface Encode { long encode(in long frame); };
};
"""


#: Message faults that always deliver what was sent (a DELAY spike is
#: charged to the virtual clock, not slept).
_NEVER_SWALLOWED = frozenset({"duplicate", "delay"})


@dataclass
class ScenarioContext:
    """Everything a workload adapter needs to build its deployment."""

    spec: ScenarioSpec
    injector: Any  # FaultInjector (always present; plan may be empty)
    network: Any  # the injector's FaultyNetwork
    clock: VirtualClock
    hooks: list = field(default_factory=list)

    def tick(self, index: int) -> None:
        """Fire background hooks between workload operations."""
        for hook in self.hooks:
            hook.on_tick(self, index)

    def make_policy(self):
        """A fresh server threading policy per the scenario's PolicySpec."""
        style = self.spec.policy.threading
        if style == "per-request":
            return ThreadPerRequest()
        if style == "per-connection":
            return ThreadPerConnection()
        if style == "asyncio":
            return AsyncioDispatch()
        return ThreadPool(self.spec.policy.pool_threads)

    @property
    def channel(self) -> str:
        return self.spec.policy.channel

    @property
    def request_timeout(self) -> float:
        # Short timeouts keep dropped-message scenarios fast — a dropped
        # request is only discovered when the client gives up waiting.
        # Faults that never swallow a message (duplicate, delay — charged
        # to the virtual clock — record loss, drain failures) keep the
        # generous timeout: a tight real-time bound there would let host
        # scheduling jitter fail legitimate calls on a loaded machine,
        # breaking run-twice determinism.
        fault = self.spec.fault
        if fault.crash_calls or any(
            rate and kind not in _NEVER_SWALLOWED for kind, rate in fault.rates.items()
        ):
            return 0.1
        return 5.0


@dataclass
class WorkloadHarness:
    """What an adapter hands back to the executor."""

    processes: list
    errors: int
    results: list
    _shutdown: Callable[[], None]

    def shutdown(self) -> None:
        self._shutdown()


def _monitored_process(name: str, host: Host, uuid_factory,
                       mode: MonitorMode = MonitorMode.LATENCY) -> SimProcess:
    process = SimProcess(name, host)
    MonitoringRuntime(process, MonitorConfig(mode=mode, uuid_factory=uuid_factory))
    return process


def _shutdown_all(processes) -> Callable[[], None]:
    def _close():
        for process in processes:
            process.shutdown()
    return _close


# ----------------------------------------------------------------------
# corba: two-process client/server (styles: sync, oneway, collocated)


def run_corba(ctx: ScenarioContext) -> WorkloadHarness:
    style = ctx.spec.workload.params.get("style", "sync")
    if style not in ("sync", "oneway", "collocated"):
        raise SuiteError(f"corba workload: unknown style {style!r}")
    calls = int(ctx.spec.workload.params.get("calls", 8))
    clock = ctx.clock
    host = Host("suite-host", PlatformKind.HPUX_11, clock=clock)
    uuid_factory = SequentialUuidFactory("fa")
    registry = InterfaceRegistry()
    async_plane = ctx.channel == "asyncio"
    compiled = compile_idl(
        CORBA_IDL, instrument=True, registry=registry, async_mode=async_plane
    )

    if async_plane:

        class SvcImpl(compiled.Svc):
            async def ping(self, x):
                clock.consume(300)
                return x * 2

            async def notify(self, x):
                clock.consume(200)

    else:

        class SvcImpl(compiled.Svc):
            def ping(self, x):
                clock.consume(300)
                return x * 2

            def notify(self, x):
                clock.consume(200)

    server = _monitored_process("server", host, uuid_factory)
    server_orb = Orb(
        server,
        ctx.network,
        policy=ctx.make_policy(),
        registry=registry,
        request_timeout=ctx.request_timeout,
        channel=ctx.channel,
    )
    ref = server_orb.activate(SvcImpl())
    if style == "collocated":
        client = server
        stub = server_orb.resolve(ref)
        processes = [server]
    else:
        client = _monitored_process("client", host, uuid_factory)
        client_orb = Orb(
            client,
            ctx.network,
            registry=registry,
            request_timeout=ctx.request_timeout,
            channel=ctx.channel,
        )
        stub = client_orb.resolve(ref)
        processes = [client, server]
    ctx.injector.arm_crashes(server)

    errors = 0
    results: list = []
    if async_plane:
        import asyncio

        async def _drive():
            nonlocal errors
            # One task drives the calls sequentially, so the causal
            # structure (one chain per root call, reset by unbind_ftl)
            # matches the threaded drive loop record for record.
            for i in range(calls):
                try:
                    if style == "oneway":
                        await stub.notify(i)
                        results.append("sent")
                        quiesce(processes)
                    else:
                        results.append(await stub.ping(i))
                except BaseException as exc:  # ComponentCrash included
                    errors += 1
                    results.append(type(exc).__name__)
                finally:
                    if client.monitor is not None:
                        client.monitor.unbind_ftl()
                ctx.tick(i)

        asyncio.run(_drive())
    else:
        for i in range(calls):
            try:
                if style == "oneway":
                    stub.notify(i)
                    results.append("sent")
                    # Oneway dispatch is asynchronous: settle before the next
                    # send so crash-triggered connection teardown cannot race
                    # it (determinism, not correctness).
                    quiesce(processes)
                else:
                    results.append(stub.ping(i))
            except BaseException as exc:  # ComponentCrash included
                errors += 1
                results.append(type(exc).__name__)
            finally:
                if client.monitor is not None:
                    client.monitor.unbind_ftl()
            ctx.tick(i)
    quiesce(processes)
    return WorkloadHarness(processes, errors, results, _shutdown_all(processes))


# ----------------------------------------------------------------------
# embedded: the synthetic component population


def run_embedded(ctx: ScenarioContext) -> WorkloadHarness:
    params = ctx.spec.workload.params
    config = EmbeddedConfig(
        components=int(params.get("components", 24)),
        interfaces=int(params.get("interfaces", 12)),
        methods=int(params.get("methods", 48)),
        processes=int(params.get("processes", 3)),
        pool_threads_per_process=int(params.get("pool_threads", 4)),
    )
    calls = int(params.get("calls", 240))
    roots = int(params.get("roots", 6))
    system = EmbeddedSystem(
        config,
        mode=MonitorMode.LATENCY,
        clock=ctx.clock,
        network=ctx.network,
        policy_factory=ctx.make_policy,
        channel=ctx.channel,
        request_timeout=ctx.request_timeout,
    )
    for process in system.processes:
        ctx.injector.arm_crashes(process)

    # The EmbeddedSystem.run loop, opened up so hooks tick per root call
    # and faults surface as per-root outcomes instead of aborting the run.
    if calls < roots:
        roots = calls
    base, extra = divmod(calls, roots)
    budgets = [base + 1 if index < extra else base for index in range(roots)]
    driver_orb = system.orbs[0]
    errors = 0
    results: list = []
    for root_index, budget in enumerate(budgets):
        component = root_index % config.components
        interface_index = config.interface_of_component(component)
        method = root_index % system.method_counts[interface_index]
        stub = driver_orb.resolve(system.refs[component])
        try:
            getattr(stub, f"m{method}")(budget, root_index + 1)
            results.append("ok")
        except BaseException as exc:
            errors += 1
            results.append(type(exc).__name__)
        finally:
            monitor = system.processes[0].monitor
            if monitor is not None:
                monitor.unbind_ftl()
        ctx.tick(root_index)
    system.quiesce()
    return WorkloadHarness(
        list(system.processes), errors, results, system.shutdown
    )


# ----------------------------------------------------------------------
# three_tier: CORBA gateway -> COM middle -> J2EE back


def run_three_tier(ctx: ScenarioContext) -> WorkloadHarness:
    calls = int(ctx.spec.workload.params.get("calls", 6))
    clock = ctx.clock
    host = Host("suite-host", PlatformKind.HPUX_11, clock=clock)
    uuid_factory = SequentialUuidFactory("3d")
    registry = InterfaceRegistry()
    compiled = compile_idl(GATEWAY_IDL, instrument=True, registry=registry)
    IMiddle = ComInterface("IMiddle", ("relay",))

    front = _monitored_process("front", host, uuid_factory)
    middle = _monitored_process("middle", host, uuid_factory)
    back = _monitored_process("back", host, uuid_factory)
    driver = _monitored_process("driver", host, uuid_factory)
    processes = [front, middle, back, driver]

    front_orb = Orb(
        front,
        ctx.network,
        policy=ctx.make_policy(),
        registry=registry,
        request_timeout=ctx.request_timeout,
        channel=ctx.channel,
    )
    client_orb = Orb(
        driver,
        ctx.network,
        registry=registry,
        request_timeout=ctx.request_timeout,
        channel=ctx.channel,
    )
    com_runtime = ComRuntime(middle)
    front_com = ComRuntime(front)
    container = Container(back, "backend")
    jndi = Jndi()

    @stateless
    class TaxService:
        def compute(self, amount):
            clock.consume(400)
            return amount * 2

    jndi.bind("tax", container, container.deploy(TaxService))

    class MiddleObj(ComObject):
        implements = (IMiddle,)

        def relay(self, amount):
            clock.consume(200)
            return jndi.lookup("tax", middle).compute(amount) + 1

    sta = com_runtime.create_sta("m")
    middle_identity = com_runtime.create_object(MiddleObj, sta)
    ctx.injector.arm_crashes(middle)

    class GatewayImpl(compiled.Gateway):
        def handle(self, request):
            clock.consume(100)
            proxy = front_com.proxy_for(middle_identity, IMiddle)
            return proxy.relay(request) + 1

    gateway_ref = front_orb.activate(GatewayImpl())
    stub = client_orb.resolve(gateway_ref)

    errors = 0
    results: list = []
    for i in range(calls):
        try:
            results.append(stub.handle(i))
        except BaseException as exc:
            errors += 1
            results.append(type(exc).__name__)
        finally:
            if driver.monitor is not None:
                driver.monitor.unbind_ftl()
        ctx.tick(i)
    quiesce(processes)
    return WorkloadHarness(processes, errors, results, _shutdown_all(processes))


# ----------------------------------------------------------------------
# pps: the four-process printing pipeline


def run_pps(ctx: ScenarioContext) -> WorkloadHarness:
    params = ctx.spec.workload.params
    jobs = int(params.get("jobs", 3))
    pages = int(params.get("pages", 2))
    complexity = int(params.get("complexity", 1))
    pps = PpsSystem(
        four_process_deployment(),
        mode=MonitorMode.LATENCY,
        clock=ctx.clock,
        network=ctx.network,
        request_timeout=ctx.request_timeout,
        policy_factory=ctx.make_policy,
        channel=ctx.channel,
    )
    for process in pps.processes.values():
        ctx.injector.arm_crashes(process)
    errors = 0
    results: list = []
    for job in range(jobs):
        try:
            pps.run(njobs=1, pages=pages, complexity=complexity)
            results.append("ok")
        except BaseException as exc:
            errors += 1
            results.append(type(exc).__name__)
        ctx.tick(job)
    pps.quiesce()
    return WorkloadHarness(
        list(pps.processes.values()), errors, results, pps.shutdown
    )


# ----------------------------------------------------------------------
# bridge: CORBA -> COM -> CORBA through the interworking bridge


def run_bridge(ctx: ScenarioContext) -> WorkloadHarness:
    frames = int(ctx.spec.workload.params.get("frames", 5))
    clock = ctx.clock
    host = Host("suite-host", PlatformKind.HPUX_11, clock=clock)
    uuid_factory = SequentialUuidFactory("b1")
    registry = InterfaceRegistry()
    compiled = compile_idl(BRIDGE_IDL, instrument=True, registry=registry)
    IRender = ComInterface("IRender", ("render",))
    IEncode = ComInterface("IEncode", ("encode",))

    client = _monitored_process("corba-client", host, uuid_factory)
    bridge = _monitored_process("bridge", host, uuid_factory)
    worker = _monitored_process("corba-worker", host, uuid_factory)
    processes = [client, bridge, worker]

    orb_kwargs = dict(
        registry=registry,
        request_timeout=ctx.request_timeout,
        channel=ctx.channel,
    )
    client_orb = Orb(client, ctx.network, **orb_kwargs)
    bridge_orb = Orb(
        bridge, ctx.network, policy=ctx.make_policy(), **orb_kwargs
    )
    worker_orb = Orb(
        worker, ctx.network, policy=ctx.make_policy(), **orb_kwargs
    )
    com_runtime = ComRuntime(bridge, causality_hooks=True)

    class EncodeImpl(compiled.Encode):
        def encode(self, frame):
            clock.consume(1_000)
            return frame * 10

    encode_ref = worker_orb.activate(EncodeImpl())
    encode_stub = bridge_orb.resolve(encode_ref)
    com_encode = com_facade_for_corba(IEncode, encode_stub)

    class RenderObj(ComObject):
        implements = (IRender,)

        def render(self, frame):
            clock.consume(500)
            return com_encode.encode(frame) + 1

    sta = com_runtime.create_sta("render")
    render_identity = com_runtime.create_object(RenderObj, sta)
    render_proxy = com_runtime.proxy_for(render_identity, IRender)
    bridge_servant = corba_facade_for_com(compiled.Render, render_proxy)
    render_ref = bridge_orb.activate(bridge_servant, interface="HB::Render")
    ctx.injector.arm_crashes(bridge)
    ctx.injector.arm_crashes(worker)

    stub = client_orb.resolve(render_ref)
    errors = 0
    results: list = []
    for frame in range(frames):
        try:
            results.append(stub.render(frame))
        except BaseException as exc:
            errors += 1
            results.append(type(exc).__name__)
        finally:
            if client.monitor is not None:
                client.monitor.unbind_ftl()
        ctx.tick(frame)
    quiesce(processes)
    return WorkloadHarness(processes, errors, results, _shutdown_all(processes))
