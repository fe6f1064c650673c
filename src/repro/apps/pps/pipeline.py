"""PPS deployment and lifecycle.

Builds the 11-component pipeline over the instrumented (or plain) ORB in
any process/host placement — the paper stresses that the PPS "has been
flexibly configured into multiple processes hosted by different
platforms". Canonical configurations used by the experiments:

- :func:`monolithic_deployment` — everything in one process with
  collocation optimization on, so a job executes on a single thread (the
  paper's "monolithic single-thread configuration");
- :func:`four_process_deployment` — the single-processor 4-process HPUX
  split of Figure 6;
- :func:`mixed_platform_deployment` — 4 processes, two on Windows NT and
  two on HPUX 11.0 (the latency-accuracy configuration), optionally with
  the marking engine on VxWorks, whose CORBA "does not support CPU".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.pps.components import PpsWiring, build_servant_classes
from repro.apps.pps.idl import PPS_COMPONENTS, PPS_IDL
from repro.collector import MonitoringDatabase, collect_run
from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.idl import compile_idl
from repro.orb import InterfaceRegistry, Orb, ThreadPerRequest
from repro.platform import (
    Clock,
    Host,
    Network,
    PlatformKind,
    ProcessorType,
    SimProcess,
    VirtualClock,
    quiesce,
)


@dataclass(frozen=True)
class HostSpec:
    """Host parameters for one PPS process."""

    platform: PlatformKind = PlatformKind.HPUX_11
    processor: ProcessorType = ProcessorType.PA_RISC
    clock_skew_ns: int = 0


@dataclass
class PpsDeployment:
    """Placement of the 11 components onto named processes/hosts."""

    name: str
    placement: dict[str, str]  # component -> process name
    hosts: dict[str, HostSpec]  # process name -> host spec
    collocation: bool = True
    shared_host: bool = True  # single-processor configs share one Host

    def process_names(self) -> list[str]:
        return sorted(set(self.placement.values()))


def monolithic_deployment() -> PpsDeployment:
    """All 11 components in one process; collocated single-thread runs."""
    placement = {name: "pps0" for name, _ in PPS_COMPONENTS}
    return PpsDeployment(
        name="monolithic",
        placement=placement,
        hosts={"pps0": HostSpec()},
        collocation=True,
    )


def four_process_deployment(collocation: bool = True) -> PpsDeployment:
    """The paper's single-processor 4-process configuration (HPUX 11.0)."""
    placement = {
        "JobSource": "pps0",
        "JobScheduler": "pps0",
        "Interpreter": "pps1",
        "FontManager": "pps1",
        "ColorTransform": "pps2",
        "Halftone": "pps2",
        "Compressor": "pps2",
        "Decompressor": "pps2",
        "MarkingEngine": "pps3",
        "ResourceManager": "pps3",
        "StatusLogger": "pps3",
    }
    spec = HostSpec()
    return PpsDeployment(
        name="four-process",
        placement=placement,
        hosts={p: spec for p in ("pps0", "pps1", "pps2", "pps3")},
        collocation=collocation,
    )


def mixed_platform_deployment(
    vxworks_marker: bool = False, skew_ns: int = 5_000_000
) -> PpsDeployment:
    """4 processes on heterogeneous platforms with skewed wall clocks."""
    placement = four_process_deployment().placement
    hosts = {
        "pps0": HostSpec(PlatformKind.WINDOWS_NT, ProcessorType.X86, 0),
        "pps1": HostSpec(PlatformKind.WINDOWS_NT, ProcessorType.X86, skew_ns),
        "pps2": HostSpec(PlatformKind.HPUX_11, ProcessorType.PA_RISC, -skew_ns),
        "pps3": HostSpec(
            PlatformKind.VXWORKS if vxworks_marker else PlatformKind.HPUX_11,
            ProcessorType.EMBEDDED if vxworks_marker else ProcessorType.PA_RISC,
            2 * skew_ns,
        ),
    }
    return PpsDeployment(
        name="mixed-platform",
        placement=placement,
        hosts=hosts,
        collocation=False,
        shared_host=False,
    )


class PpsSystem:
    """A running PPS instance: processes, ORBs, servants and stubs."""

    def __init__(
        self,
        deployment: PpsDeployment,
        mode: MonitorMode = MonitorMode.LATENCY,
        instrument: bool = True,
        clock: Clock | None = None,
        cost_scale: int = 1_000,
        uuid_prefix: str = "dd",
        policy_factory: Callable[[], Any] | None = None,
        network_latency_ns: int = 0,
        network: Network | None = None,
        request_timeout: float = 30.0,
        channel: str = "mux",
    ):
        self.deployment = deployment
        # An injected network (e.g. a faults.FaultyNetwork) lets the chaos
        # matrix run the full pipeline under seeded message faults.
        self.network = network if network is not None else Network()
        if network_latency_ns:
            self.network.set_default_latency(network_latency_ns)
        self.request_timeout = request_timeout
        self.registry = InterfaceRegistry()
        self.compiled = compile_idl(PPS_IDL, instrument=instrument, registry=self.registry)
        self.clock = clock if clock is not None else VirtualClock()
        uuid_factory = SequentialUuidFactory(uuid_prefix)
        self.processes: dict[str, SimProcess] = {}
        self.orbs: dict[str, Orb] = {}
        self._wirings: dict[str, PpsWiring] = {}
        shared_host: Host | None = None

        for process_name in deployment.process_names():
            spec = deployment.hosts[process_name]
            if deployment.shared_host and shared_host is not None:
                host = shared_host
            else:
                host = Host(
                    name=f"host-{process_name}" if not deployment.shared_host else "host0",
                    platform_kind=spec.platform,
                    processor_type=spec.processor,
                    clock=self.clock,
                    clock_skew_ns=spec.clock_skew_ns,
                )
                if deployment.shared_host:
                    shared_host = host
            process = SimProcess(process_name, host)
            MonitoringRuntime(
                process, MonitorConfig(mode=mode, uuid_factory=uuid_factory)
            )
            policy = policy_factory() if policy_factory is not None else ThreadPerRequest()
            orb = Orb(
                process,
                self.network,
                policy=policy,
                collocation_optimization=deployment.collocation,
                registry=self.registry,
                request_timeout=request_timeout,
                channel=channel,
            )
            self.processes[process_name] = process
            self.orbs[process_name] = orb
            self._wirings[process_name] = PpsWiring()

        self.servants: dict[str, Any] = {}
        self.refs: dict[str, Any] = {}
        classes = build_servant_classes(self.compiled)
        for component, interface in PPS_COMPONENTS:
            process_name = deployment.placement[component]
            process = self.processes[process_name]
            servant = classes[component](
                process.host, self._wirings[process_name], cost_scale
            )
            ref = self.orbs[process_name].activate(
                servant, interface=interface, component=component
            )
            self.servants[component] = servant
            self.refs[component] = ref

        # Wire every process's stubs now that all references exist.
        stub_attr = {
            "JobScheduler": "scheduler",
            "Interpreter": "interpreter",
            "FontManager": "font_manager",
            "ColorTransform": "color_transform",
            "Halftone": "halftone",
            "Compressor": "compressor",
            "Decompressor": "decompressor",
            "MarkingEngine": "marking_engine",
            "ResourceManager": "resource_manager",
            "StatusLogger": "status_logger",
        }
        for process_name, orb in self.orbs.items():
            wiring = self._wirings[process_name]
            for component, attr in stub_attr.items():
                setattr(wiring, attr, orb.resolve(self.refs[component]))

    # ------------------------------------------------------------------

    def stub_for(self, component: str, from_process: str | None = None):
        """Resolve a stub to a component from a given process's ORB."""
        if from_process is None:
            from_process = self.deployment.placement[component]
        return self.orbs[from_process].resolve(self.refs[component])

    def run(self, njobs: int = 2, pages: int = 3, complexity: int = 2) -> None:
        """Drive the pipeline: produce ``njobs`` jobs end to end."""
        source = self.stub_for("JobSource")
        source.produce(njobs, pages, complexity)

    def quiesce(self, timeout: float = 5.0) -> None:
        """Wait until oneway dispatches drain and log buffers stabilize."""
        quiesce(self.processes.values(), interval=0.01, timeout=timeout)

    def collect(
        self, database: MonitoringDatabase | None = None, description: str = ""
    ) -> tuple[MonitoringDatabase, str]:
        self.quiesce()
        return collect_run(
            self.processes.values(),
            database=database,
            description=description or f"PPS {self.deployment.name}",
        )

    def shutdown(self) -> None:
        for process in self.processes.values():
            process.shutdown()

    # ------------------------------------------------------------------

    def manual_latency(
        self,
        caller_process: str,
        component: str,
        method: str,
        args: tuple,
        calls: int = 10,
    ) -> list[int]:
        """The paper's manual measurement: one probe around one target
        function, timestamps at its beginning and end, in its own run."""
        stub = self.orbs[caller_process].resolve(self.refs[component])
        host = self.processes[caller_process].host
        samples: list[int] = []
        bound = getattr(stub, method)
        for _ in range(calls):
            start = host.wall_ns()
            bound(*args)
            samples.append(host.wall_ns() - start)
        return samples
