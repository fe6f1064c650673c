"""Simulated distributed platform: hosts, processes, clocks, TSS, network."""

from repro.platform.capabilities import (
    Capabilities,
    PlatformKind,
    ProcessorType,
    capabilities_for,
)
from repro.platform.clocks import Clock, RealClock, SkewedClock, VirtualClock
from repro.platform.host import Host
from repro.platform.network import Connection, Network
from repro.platform.process import LocalLogBuffer, SimProcess, quiesce
from repro.platform.tss import ContextVarStorage, ThreadSpecificStorage

__all__ = [
    "Capabilities",
    "Clock",
    "Connection",
    "ContextVarStorage",
    "Host",
    "LocalLogBuffer",
    "Network",
    "PlatformKind",
    "ProcessorType",
    "RealClock",
    "SimProcess",
    "SkewedClock",
    "ThreadSpecificStorage",
    "VirtualClock",
    "capabilities_for",
    "quiesce",
]
