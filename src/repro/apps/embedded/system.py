"""Deployment and driver for the synthetic embedded system."""

from __future__ import annotations

from typing import Any

from repro.apps.embedded.generator import (
    EmbeddedConfig,
    EmbeddedSplitter,
    generate_embedded_idl,
)
from repro.collector import collect_run
from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.idl import compile_idl
from repro.idl.codegen import py_name
from repro.orb import InterfaceRegistry, Orb, ThreadPool
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
from repro.store import MonitoringDatabase
from repro.workloads.burn import burn_cpu


class _EmbeddedServantMixin:
    """Shared behaviour of every synthetic component method."""

    def _configure(self, system: "EmbeddedSystem", component_index: int) -> None:
        self._system = system
        self._component_index = component_index
        self._process_index = component_index % system.config.processes
        self._stub_cache: dict[int, Any] = {}

    def _handle(self, method_index: int, budget: int, path_seed: int) -> int:
        system = self._system
        burn_cpu(system.hosts[self._process_index], system.config.cost_ns)
        children = system.splitter.plan(budget, path_seed, self._process_index)
        for child_index, (component, method, child_budget) in enumerate(children):
            stub = self._stub_for(component)
            child_seed = system.splitter.derive_path_seed(path_seed, child_index)
            getattr(stub, f"m{method}")(child_budget, child_seed)
        return budget

    def _stub_for(self, component: int) -> Any:
        stub = self._stub_cache.get(component)
        if stub is None:
            orb = self._system.orbs[self._process_index]
            stub = orb.resolve(self._system.refs[component])
            self._stub_cache[component] = stub
        return stub


class EmbeddedSystem:
    """The running synthetic system: 4 processes, pooled dispatch threads."""

    def __init__(
        self,
        config: EmbeddedConfig | None = None,
        mode: MonitorMode = MonitorMode.CAUSALITY,
        instrument: bool = True,
        clock: Clock | None = None,
        uuid_prefix: str = "ee",
        network: Network | None = None,
        policy_factory=None,
        channel: str = "mux",
        request_timeout: float = 30.0,
    ):
        self.config = config if config is not None else EmbeddedConfig()
        # An injected network (e.g. a faults.FaultyNetwork) lets suite
        # scenarios run the synthetic system under seeded message faults.
        self.network = network if network is not None else Network()
        self.registry = InterfaceRegistry()
        idl_source = generate_embedded_idl(self.config)
        self.compiled = compile_idl(idl_source, instrument=instrument, registry=self.registry)
        self.clock = clock if clock is not None else VirtualClock()
        self.method_counts = self.config.methods_per_interface()
        self.splitter = EmbeddedSplitter(self.config, self.method_counts)

        uuid_factory = SequentialUuidFactory(uuid_prefix)
        # Single-processor configuration: every process shares one host.
        shared_host = Host(
            "embedded-host",
            PlatformKind.HPUX_11,
            ProcessorType.PA_RISC,
            clock=self.clock,
        )
        self.hosts: list[Host] = [shared_host] * self.config.processes
        self.processes: list[SimProcess] = []
        self.orbs: list[Orb] = []
        for index in range(self.config.processes):
            process = SimProcess(f"emb{index}", shared_host)
            MonitoringRuntime(
                process, MonitorConfig(mode=mode, uuid_factory=uuid_factory)
            )
            orb = Orb(
                process,
                self.network,
                policy=(
                    policy_factory()
                    if policy_factory is not None
                    else ThreadPool(self.config.pool_threads_per_process)
                ),
                registry=self.registry,
                channel=channel,
                request_timeout=request_timeout,
            )
            self.processes.append(process)
            self.orbs.append(orb)

        # Instantiate the 176 components round-robin over the processes.
        self.refs: list[Any] = []
        self.servants: list[Any] = []
        for component_index in range(self.config.components):
            interface_index = self.config.interface_of_component(component_index)
            interface_name = f"Embedded::I{interface_index:03d}"
            servant_base = self.compiled.namespace[py_name(interface_name)]
            method_bodies: dict[str, Any] = {}
            for method_index in range(self.method_counts[interface_index]):

                def body(self, budget, path_seed, _m=method_index):
                    return self._handle(_m, budget, path_seed)

                body.__name__ = f"m{method_index}"
                method_bodies[f"m{method_index}"] = body
            servant_class = type(
                f"C{component_index:03d}",
                (_EmbeddedServantMixin, servant_base),
                method_bodies,
            )
            servant = servant_class()
            servant._configure(self, component_index)
            process_index = component_index % self.config.processes
            ref = self.orbs[process_index].activate(
                servant,
                interface=interface_name,
                component=f"C{component_index:03d}",
            )
            self.refs.append(ref)
            self.servants.append(servant)

    # ------------------------------------------------------------------

    def run(self, total_calls: int = 20_000, roots: int = 8) -> None:
        """Drive exactly ``total_calls`` component invocations.

        The budget-split invariant guarantees one invocation per budget
        unit; the driver issues ``roots`` sequential root calls whose
        budgets sum to ``total_calls``.
        """
        if total_calls < roots:
            roots = total_calls
        base, extra = divmod(total_calls, roots)
        budgets = [base + 1 if index < extra else base for index in range(roots)]
        driver_orb = self.orbs[0]
        for root_index, budget in enumerate(budgets):
            component = root_index % self.config.components
            interface_index = self.config.interface_of_component(component)
            stub = driver_orb.resolve(self.refs[component])
            method = root_index % self.method_counts[interface_index]
            getattr(stub, f"m{method}")(budget, root_index + 1)
            # Each root call is an independent transaction: detach the
            # driver thread's FTL so the next root starts a fresh chain.
            monitor = self.processes[0].monitor
            if monitor is not None:
                monitor.unbind_ftl()

    def quiesce(self, timeout: float = 10.0) -> None:
        quiesce(self.processes, interval=0.01, timeout=timeout)

    def collect(
        self, database: MonitoringDatabase | None = None, description: str = ""
    ) -> tuple[MonitoringDatabase, str]:
        self.quiesce()
        return collect_run(
            self.processes,
            database=database,
            description=description or "embedded synthetic system",
        )

    def shutdown(self) -> None:
        for process in self.processes:
            process.shutdown()
