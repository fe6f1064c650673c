"""Probe records: what each probe writes to its process-local log.

A record is self-contained — it carries the FTL snapshot (chain UUID and
event number), the identity of the call (interface, operation, object,
component), the execution locality (process, thread, host, processor
type), and the probe's own start/finish readings of the local wall clock
and/or per-thread CPU counter.

The probe's *own* interval (``wall_start``..``wall_end``) is what the
analyzer sums into the overhead term O_F when compensating end-to-end
latency (paper Section 3.2), so every record keeps both readings even
though only one of them is "the" timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.events import CallKind, Domain, TracingEvent

#: Version of the 23-field record layout (``run_id`` + the 22
#: :class:`ProbeRecord` fields below). Stamped into run metadata by the
#: collector and into every segment-file header so a reader can refuse
#: data written under a different layout instead of mis-decoding it.
SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class RecordField:
    """One field of the persisted record layout.

    ``kind`` drives every codec that persists records — the SQLite
    row converters and the binary segment codec are both derived from
    this table, so the 23-field layout has exactly one source of truth:

    - ``str``        required string
    - ``int``        required integer
    - ``event``      :class:`TracingEvent` (stored as its int value)
    - ``call_kind``  :class:`CallKind` (stored as its str value)
    - ``bool``       stored as 0/1
    - ``domain``     :class:`Domain` (stored as its str value)
    - ``opt_int``    integer or None
    - ``opt_str``    string or None
    - ``json``       JSON-serializable object or None

    ``interned`` marks strings drawn from a small population (chain
    uuids, operation names, host/thread identity): the segment codec
    dictionary-encodes them instead of repeating the bytes per record.
    """

    name: str
    kind: str
    interned: bool = False


#: The persisted :class:`ProbeRecord` layout, in dataclass field order.
#: ``run_id`` (the 23rd field) is context every store carries separately:
#: a SQLite column, a segment-store run directory.
RECORD_SCHEMA: tuple[RecordField, ...] = (
    RecordField("chain_uuid", "str", interned=True),
    RecordField("event_seq", "int"),
    RecordField("event", "event"),
    RecordField("interface", "str", interned=True),
    RecordField("operation", "str", interned=True),
    RecordField("object_id", "str", interned=True),
    RecordField("component", "str", interned=True),
    RecordField("process", "str", interned=True),
    RecordField("pid", "int"),
    RecordField("host", "str", interned=True),
    RecordField("thread_id", "int"),
    RecordField("processor_type", "str", interned=True),
    RecordField("platform", "str", interned=True),
    RecordField("call_kind", "call_kind"),
    RecordField("collocated", "bool"),
    RecordField("domain", "domain"),
    RecordField("wall_start", "opt_int"),
    RecordField("wall_end", "opt_int"),
    RecordField("cpu_start", "opt_int"),
    RecordField("cpu_end", "opt_int"),
    RecordField("child_chain_uuid", "opt_str", interned=True),
    RecordField("semantics", "json"),
)


@dataclass(frozen=True, slots=True)
class OperationInfo:
    """Static identity of one IDL operation on one component object."""

    interface: str
    operation: str
    object_id: str
    component: str
    domain: Domain = Domain.CORBA
    #: Probe-site cache of ``MonitoringRuntime._bind_site``: ``(runtime, *the
    #: ten record fields constant per (process, operation))``. Not part of the
    #: operation's identity (excluded from init/eq/hash/repr).
    _site: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def qualified_name(self) -> str:
        return f"{self.interface}::{self.operation}"


@dataclass(slots=True)
class ProbeRecord:
    """One tracing event as logged by a probe.

    ``slots=True`` because the monitored system materializes four of
    these per invocation: the slotted layout drops the per-record
    ``__dict__`` (roughly halving footprint) and makes the probe-side
    field stores cheaper, both of which land directly in the paper's
    probe-overhead term O_F.
    """

    chain_uuid: str
    event_seq: int
    event: TracingEvent
    interface: str
    operation: str
    object_id: str
    component: str
    process: str
    pid: int
    host: str
    thread_id: int
    processor_type: str
    platform: str
    call_kind: CallKind = CallKind.SYNC
    collocated: bool = False
    domain: Domain = Domain.CORBA
    # Probe-local readings; None when the active monitor mode does not
    # sample that quantity (latency and CPU probes are never simultaneous).
    wall_start: int | None = None
    wall_end: int | None = None
    cpu_start: int | None = None
    cpu_end: int | None = None
    # Oneway stub-start records link the parent chain to the forked child.
    child_chain_uuid: str | None = None
    # Application-semantics capture (parameters, results, exceptions).
    semantics: dict[str, Any] | None = None

    @property
    def function(self) -> str:
        return f"{self.interface}::{self.operation}"

    @property
    def event_label(self) -> str:
        """Table-1-style label such as ``Foo::funcA.stub_start``."""
        return self.event.label(self.function)

    def probe_wall_cost(self) -> int:
        """Wall-clock nanoseconds this probe itself consumed (for O_F)."""
        if self.wall_start is None or self.wall_end is None:
            return 0
        return self.wall_end - self.wall_start

    def probe_cpu_cost(self) -> int:
        """CPU nanoseconds this probe itself consumed on its thread."""
        if self.cpu_start is None or self.cpu_end is None:
            return 0
        return self.cpu_end - self.cpu_start


@dataclass(slots=True)
class ChainLink:
    """Parent/child relationship between two causal chains (oneway fork)."""

    parent_uuid: str
    parent_seq: int
    child_uuid: str
    operation: str = ""


@dataclass
class RunMetadata:
    """Descriptive metadata the collector attaches to a monitoring run."""

    run_id: str
    description: str = ""
    monitor_mode: str = ""
    extra: dict[str, Any] = field(default_factory=dict)


# The schema table and the dataclass must never drift apart: every codec
# below trusts RECORD_SCHEMA's order to be ProbeRecord's field order.
if tuple(f.name for f in RECORD_SCHEMA) != ProbeRecord.__slots__:
    raise AssertionError(
        "RECORD_SCHEMA is out of sync with ProbeRecord: "
        f"{[f.name for f in RECORD_SCHEMA]} != {list(ProbeRecord.__slots__)}"
    )
