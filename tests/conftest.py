"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.platform import Host, Network, PlatformKind, SimProcess, VirtualClock

# One hypothesis profile for every property. A loaded box must not fail a
# property on wall time, so there is no deadline and no too_slow check.
# REPRO_FUZZ_EXAMPLES sets the example budget (CI's fuzz job: 2000), and
# CI derandomizes, so a red CI run replays from the same examples.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))
    or settings.default.max_examples,
    derandomize=bool(os.environ.get("CI")),
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


class Cluster:
    """A small instrumented deployment helper for tests."""

    def __init__(self, mode: MonitorMode = MonitorMode.LATENCY):
        self.clock = VirtualClock()
        self.network = Network()
        self.uuid_factory = SequentialUuidFactory()
        self.mode = mode
        self.hosts: dict[str, Host] = {}
        self.processes: list[SimProcess] = []

    def host(self, name: str = "host0", platform: PlatformKind = PlatformKind.HPUX_11,
             **kwargs) -> Host:
        if name not in self.hosts:
            self.hosts[name] = Host(name, platform, clock=self.clock, **kwargs)
        return self.hosts[name]

    def process(
        self,
        name: str,
        host: Host | None = None,
        mode: MonitorMode | None = None,
        monitored: bool = True,
    ) -> SimProcess:
        process = SimProcess(name, host or self.host())
        if monitored:
            MonitoringRuntime(
                process,
                MonitorConfig(
                    mode=mode or self.mode, uuid_factory=self.uuid_factory
                ),
            )
        self.processes.append(process)
        return process

    def all_records(self):
        records = []
        for process in self.processes:
            records.extend(process.log_buffer.snapshot())
        records.sort(key=lambda r: (r.chain_uuid, r.event_seq))
        return records

    def shutdown(self):
        for process in self.processes:
            process.shutdown()


@pytest.fixture
def cluster():
    c = Cluster()
    yield c
    c.shutdown()


@pytest.fixture
def cpu_cluster():
    c = Cluster(mode=MonitorMode.CPU)
    yield c
    c.shutdown()
