"""The cluster's monitored workload, buildable in two topologies.

Every worker ``w`` of ``W`` hosts a *driver* and a *server* endpoint
(each on its own :class:`~repro.platform.Host` with its own clock), and
driver ``w`` calls server ``(w+1) % W`` — a ring, so with ``W >= 2``
every data-plane call genuinely crosses OS processes.

The same builders produce the *single-process reference*: all ``W``
worker deployments inside one interpreter over one in-memory
:class:`~repro.platform.Network`. Determinism comes from what each
deployment owns privately — seeded per-worker UUID factories, a
:class:`~repro.platform.VirtualClock` per host that advances only
through explicit ``consume`` calls, per-ORB object-key and connection
counters — so the records a worker produces depend only on its index
and call count, never on which interpreter (or how many) runs it.
That is what the cluster-vs-single-process bit-identity check
(:mod:`repro.cluster.identity`) leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.idl import compile_idl
from repro.orb import AsyncioDispatch, InterfaceRegistry, Orb, ThreadPerRequest
from repro.orb.refs import ObjectRef
from repro.platform import Host, PlatformKind, SimProcess, VirtualClock

#: The ring workload's IDL: one sync operation is enough, the cluster's
#: subject is the deployment topology, not the invocation styles
#: (the corba/embedded/... workloads already cover those).
CLUSTER_IDL = """
module CL {
  interface Svc {
    long ping(in long x);
  };
};
"""

#: Nanoseconds the driver's virtual clock consumes before each call.
THINK_NS = 200
#: Base + per-call-varying virtual nanoseconds the servant consumes.
SERVICE_BASE_NS = 300
SERVICE_STEP_NS = 50


def driver_name(index: int) -> str:
    return f"driver-{index:02d}"


def server_name(index: int) -> str:
    return f"server-{index:02d}"


@dataclass
class WorkerDeployment:
    """One worker's pair of endpoints, pre-wiring."""

    index: int
    workers: int
    driver: SimProcess
    server: SimProcess
    driver_orb: Orb
    server_orb: Orb
    driver_clock: VirtualClock
    local_ref_url: str
    stub: Any = None
    #: Collection order within the worker; the coordinator concatenates
    #: these lists in worker order to mirror the reference collection.
    processes: list = field(default_factory=list)

    @property
    def target_address(self) -> str:
        """The ring neighbour this worker's driver calls."""
        return server_name((self.index + 1) % self.workers)

    def connect(self, ref_urls: dict[str, str]) -> None:
        """Resolve the ring neighbour's stub from the published ref map."""
        ref = ObjectRef.from_url(ref_urls[self.target_address])
        self.stub = self.driver_orb.resolve(ref)

    def shutdown(self) -> None:
        for process in self.processes:
            process.shutdown()


def build_worker_deployment(
    index: int,
    workers: int,
    network,
    monitored: bool = True,
    request_timeout: float = 5.0,
) -> WorkerDeployment:
    """Build worker ``index``'s endpoints on ``network``.

    ``network`` is either a per-worker
    :class:`~repro.cluster.transport.SocketTransport` (cluster mode) or
    the one shared in-memory :class:`~repro.platform.Network`
    (single-process reference) — the builders cannot tell the
    difference, which is the point.
    """
    server_clock = VirtualClock()
    driver_clock = VirtualClock()
    server_host = Host(
        f"chost-{index:02d}-s", PlatformKind.HPUX_11, clock=server_clock
    )
    driver_host = Host(
        f"chost-{index:02d}-d", PlatformKind.HPUX_11, clock=driver_clock
    )

    server = SimProcess(server_name(index), server_host)
    driver = SimProcess(driver_name(index), driver_host)
    if monitored:
        # Per-worker all-hex UUID prefixes keep chain ids disjoint across
        # workers and identical between cluster and reference runs.
        MonitoringRuntime(
            server,
            MonitorConfig(
                mode=MonitorMode.LATENCY,
                uuid_factory=SequentialUuidFactory(f"be{index:02x}"),
            ),
        )
        MonitoringRuntime(
            driver,
            MonitorConfig(
                mode=MonitorMode.LATENCY,
                uuid_factory=SequentialUuidFactory(f"ad{index:02x}"),
            ),
        )

    registry = InterfaceRegistry()
    compiled = compile_idl(CLUSTER_IDL, instrument=True, registry=registry)

    class SvcImpl(compiled.Svc):
        def ping(self, x):
            server_clock.consume(SERVICE_BASE_NS + (x % 7) * SERVICE_STEP_NS)
            return x * 2

    # Server before driver: in cluster mode the coordinator publishes the
    # endpoint map only after every worker has said hello, so all
    # listeners exist before any connect — the reference preserves that
    # order within each worker.
    server_orb = Orb(
        server,
        network,
        policy=ThreadPerRequest(),
        registry=registry,
        request_timeout=request_timeout,
        channel="mux",
    )
    ref = server_orb.activate(SvcImpl())
    driver_orb = Orb(
        driver,
        network,
        registry=registry,
        request_timeout=request_timeout,
        channel="mux",
    )
    deployment = WorkerDeployment(
        index=index,
        workers=workers,
        driver=driver,
        server=server,
        driver_orb=driver_orb,
        server_orb=server_orb,
        driver_clock=driver_clock,
        local_ref_url=ref.to_url(),
        processes=[driver, server],
    )
    return deployment


def drive_calls(
    deployment: WorkerDeployment,
    calls: int,
    on_call: Callable[[int], None] | None = None,
) -> tuple[int, list]:
    """Drive ``calls`` sequential monitored calls over the ring stub.

    One sequential caller per driver — so every clock in the system sees
    a single deterministic operation sequence regardless of how the OS
    schedules the processes, which is what keeps the record streams
    identical between cluster and reference runs.
    """
    if deployment.stub is None:
        raise RuntimeError("deployment not connected; call connect() first")
    errors = 0
    results: list = []
    for i in range(calls):
        deployment.driver_clock.consume(THINK_NS)
        try:
            results.append(deployment.stub.ping(i))
        except BaseException as exc:
            errors += 1
            results.append(type(exc).__name__)
        finally:
            if deployment.driver.monitor is not None:
                deployment.driver.monitor.unbind_ftl()
        if on_call is not None:
            on_call(i)
    return errors, results


def build_load_deployment(
    index: int,
    workers: int,
    network,
    service_spin: int = 200,
    request_timeout: float = 30.0,
) -> WorkerDeployment:
    """Worker ``index``'s endpoints for the *load* plane.

    Differs from the identity plane where throughput demands it: the
    asyncio channel and :class:`AsyncioDispatch` server (thousands of
    in-flight calls at one future each), real wall clocks, and no
    monitoring — the load harness measures the data plane's capacity,
    and PR 4/PR 9 benches already price the probes separately. The
    servant spins ``service_spin`` Python loop iterations (~10us of real
    CPU) so saturation is compute-bound and scales with cores.
    """
    server_host = Host(f"lhost-{index:02d}-s", PlatformKind.HPUX_11)
    driver_host = Host(f"lhost-{index:02d}-d", PlatformKind.HPUX_11)
    server = SimProcess(server_name(index), server_host)
    driver = SimProcess(driver_name(index), driver_host)

    registry = InterfaceRegistry()
    compiled = compile_idl(
        CLUSTER_IDL, instrument=True, registry=registry, async_mode=True
    )

    class SvcImpl(compiled.Svc):
        async def ping(self, x):
            acc = 0
            for i in range(service_spin):
                acc += i ^ x
            return acc

    server_orb = Orb(
        server,
        network,
        policy=AsyncioDispatch(),
        registry=registry,
        request_timeout=request_timeout,
        channel="asyncio",
    )
    ref = server_orb.activate(SvcImpl())
    driver_orb = Orb(
        driver,
        network,
        registry=registry,
        request_timeout=request_timeout,
        channel="asyncio",
    )
    return WorkerDeployment(
        index=index,
        workers=workers,
        driver=driver,
        server=server,
        driver_orb=driver_orb,
        server_orb=server_orb,
        driver_clock=VirtualClock(),  # unused on the load plane
        local_ref_url=ref.to_url(),
        processes=[driver, server],
    )


def build_reference_deployments(
    workers: int, network
) -> list[WorkerDeployment]:
    """All ``workers`` deployments in one interpreter (the reference).

    Build order mirrors the cluster launcher: every deployment exists
    (all servers listening) before any stub is resolved.
    """
    deployments = [
        build_worker_deployment(index, workers, network)
        for index in range(workers)
    ]
    ref_urls = {
        server_name(d.index): d.local_ref_url for d in deployments
    }
    for deployment in deployments:
        deployment.connect(ref_urls)
    return deployments
