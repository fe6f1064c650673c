"""Core contribution: FTL, tracing events, probes, monitoring runtime."""

from repro.core.events import CallKind, Domain, TracingEvent
from repro.core.ftl import (
    FTL_WIRE_SIZE,
    FunctionTxLog,
    SequentialUuidFactory,
    new_chain,
    random_uuid_factory,
)
from repro.core.monitor import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    install_monitoring,
)
from repro.core.probes import CallContext
from repro.core.records import ChainLink, OperationInfo, ProbeRecord, RunMetadata, Site

__all__ = [
    "CallContext",
    "CallKind",
    "ChainLink",
    "Domain",
    "FTL_WIRE_SIZE",
    "FunctionTxLog",
    "MonitorConfig",
    "MonitorMode",
    "MonitoringRuntime",
    "OperationInfo",
    "ProbeRecord",
    "RunMetadata",
    "SequentialUuidFactory",
    "Site",
    "TracingEvent",
    "install_monitoring",
    "new_chain",
    "random_uuid_factory",
]
