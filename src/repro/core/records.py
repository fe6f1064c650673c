"""Probe records: what each probe logs, and how the analyzer reads it.

A record is a reference to its *site* plus what the event itself adds. A
:class:`Site` holds the ten fields constant per *(process, operation)* —
the identity of the call (interface, operation, object, component, domain)
and the execution locality (process, pid, host, processor type, platform);
every record of one operation probed in one process shares one. The
:class:`ProbeRecord` adds the FTL snapshot (chain UUID and event number),
the probe, the thread, the call kind and the probe's own start/finish
readings of the local wall clock and/or per-thread CPU counter.

The probe's *own* interval (``wall_start``..``wall_end``) is what the
analyzer sums into the overhead term O_F when compensating end-to-end
latency (paper Section 3.2), so every record keeps both readings even
though only one of them is "the" timestamp.

The probe itself logs a *probe row* — the record's fields as a plain list —
a segment decoder yields the same fields as a tuple, and the Figure-4
machine applies either; a :class:`ProbeRecord` is built from a row only
where something reads one (see the helpers at the end of the record
classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Iterable

from repro.core.events import CallKind, Domain, TracingEvent

#: Version of the 23-field record layout (``run_id`` + the 22 fields of
#: :data:`RECORD_SCHEMA`) as persisted. Stamped into run metadata by the
#: collector and into every segment-file header so a reader can refuse
#: data written under a different layout instead of mis-decoding it
#: (v2: a site table per segment, a site id per frame). The only layout
#: this build reads or writes.
SCHEMA_VERSION = 2


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
    ``site`` marks the fields a record holds through its :class:`Site`
    and the segment codec stores once per segment, in the site table.
    """

    name: str
    kind: str
    interned: bool = False
    site: bool = False


#: The persisted record layout: :class:`Site`'s fields and
#: :class:`ProbeRecord`'s own, each in declaration order, in the column
#: order of the SQLite table. ``run_id`` (the 23rd field) is context every
#: store carries separately: a SQLite column, a segment-store run directory.
RECORD_SCHEMA: tuple[RecordField, ...] = (
    RecordField("chain_uuid", "str", interned=True),
    RecordField("event_seq", "int"),
    RecordField("event", "event"),
    RecordField("interface", "str", interned=True, site=True),
    RecordField("operation", "str", interned=True, site=True),
    RecordField("object_id", "str", interned=True, site=True),
    RecordField("component", "str", interned=True, site=True),
    RecordField("process", "str", interned=True, site=True),
    RecordField("pid", "int", site=True),
    RecordField("host", "str", interned=True, site=True),
    RecordField("thread_id", "int"),
    RecordField("processor_type", "str", interned=True, site=True),
    RecordField("platform", "str", interned=True, site=True),
    RecordField("call_kind", "call_kind"),
    RecordField("collocated", "bool"),
    RecordField("domain", "domain", site=True),
    RecordField("wall_start", "opt_int"),
    RecordField("wall_end", "opt_int"),
    RecordField("cpu_start", "opt_int"),
    RecordField("cpu_end", "opt_int"),
    RecordField("child_chain_uuid", "opt_str", interned=True),
    RecordField("semantics", "json"),
)

SITE_FIELDS = tuple(f.name for f in RECORD_SCHEMA if f.site)
EVENT_FIELDS = tuple(f.name for f in RECORD_SCHEMA if not f.site)


@dataclass(frozen=True, slots=True)
class OperationInfo:
    """Static identity of one IDL operation on one component object."""

    interface: str
    operation: str
    object_id: str
    component: str
    domain: Domain = Domain.CORBA
    #: Probe-site cache of ``MonitoringRuntime._bind_site``: ``(runtime, the
    #: Site that runtime stamps for this operation)``. Not part of the
    #: operation's identity (excluded from init/eq/hash/repr).
    _site: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Site:
    """What every record of one operation probed in one process has in common.

    Built once per *(runtime, operation)* by ``MonitoringRuntime._bind_site``
    and once per site-table row by a segment reader. Compared and hashed by
    value (the hash computed once: a segment writer looks one up per record).
    """

    interface: str
    operation: str
    object_id: str
    component: str
    process: str
    pid: int
    host: str
    processor_type: str
    platform: str
    domain: Domain = Domain.CORBA
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.interface, self.operation, self.object_id, self.process, self.pid)
        ))

    def __hash__(self) -> int:
        return self._hash


@dataclass(slots=True)
class ProbeRecord:
    """One tracing event as logged by a probe: its site + the event's own fields.

    The analyzer's type: a probe logs a *probe row* (below) and a record
    is built from it only where something reads one. ``slots=True``
    because analysis holds millions of these: the slotted layout drops
    the per-record ``__dict__`` (roughly halving footprint). The ten
    :class:`Site` fields read through the delegating properties attached
    below (for tests, the CLI, user code; per-record loops read
    ``record.site`` once instead).
    """

    site: Site
    chain_uuid: str
    event_seq: int
    event: TracingEvent
    thread_id: int
    call_kind: CallKind = CallKind.SYNC
    collocated: bool = False
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
        site = self.site
        return f"{site.interface}::{site.operation}"

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


for _name in SITE_FIELDS:
    setattr(ProbeRecord, _name, property(attrgetter(f"site.{_name}")))
del _name


# ----------------------------------------------------------------------
# Rows: what travels from a probe to a store, and from a store to a node.
#
# A row holds a record's fields in ``ProbeRecord.__slots__`` order (the
# site first). A probe logs a ``list`` — a list literal, a third of the
# slotted constructor's cost, whose end readings it stamps by index; log
# buffers hold rows and both stores encode from them. A store's decoder
# yields a ``tuple`` (the record's size class, and nothing stamps it), which
# the Figure-4 machine applies. A ProbeRecord is built only where something
# reads one.

#: Row indexes of the two readings a probe stamps after logging its row.
WALL_END = 8
CPU_END = 10

def as_row(record: ProbeRecord) -> list:
    """The probe row of ``record`` (a literal: half the cost of an
    ``attrgetter`` over the slots)."""
    r = record
    return [
        r.site, r.chain_uuid, r.event_seq, r.event, r.thread_id, r.call_kind,
        r.collocated, r.wall_start, r.wall_end, r.cpu_start, r.cpu_end,
        r.child_chain_uuid, r.semantics,
    ]


def from_row(row) -> ProbeRecord:
    """The record a row (a probe's list or a decoder's tuple) describes."""
    return ProbeRecord(*row)


def as_rows(items: Iterable) -> list:
    """Rows for ``items``: a record becomes one, a row (list or tuple)
    passes as it is."""
    return [as_row(item) if item.__class__ is ProbeRecord else item for item in items]


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


# The schema table and the two classes must never drift apart: every codec
# trusts RECORD_SCHEMA's two halves to be Site's and ProbeRecord's field order.
if (SITE_FIELDS, ("site", *EVENT_FIELDS)) != (Site.__slots__[:-1], ProbeRecord.__slots__):
    raise AssertionError(
        "RECORD_SCHEMA is out of sync with Site / ProbeRecord: "
        f"{SITE_FIELDS} != {Site.__slots__[:-1]} or "
        f"{EVENT_FIELDS} != {ProbeRecord.__slots__[1:]}"
    )
# ...nor may a probe row and ProbeRecord.__slots__: as_row keeps the slot
# order, and the row indexes the probes stamp name the readings they mean.
_ORDER = list(range(len(ProbeRecord.__slots__)))
if as_row(ProbeRecord(*_ORDER)) != _ORDER or (
    ProbeRecord.__slots__[WALL_END], ProbeRecord.__slots__[CPU_END]
) != ("wall_end", "cpu_end"):
    raise AssertionError(
        "probe rows are out of sync with ProbeRecord.__slots__"
        f" {ProbeRecord.__slots__}: as_row, or WALL_END={WALL_END} / CPU_END={CPU_END}"
    )
del _ORDER
