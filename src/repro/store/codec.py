"""Binary probe-record frame codec for the segment store (record format v2).

One :class:`~repro.core.records.ProbeRecord` becomes one *frame*; what its
:class:`~repro.core.records.Site` holds is stored once per segment, as a
row of the segment's *site table* (:data:`SITE_ROW`: the dictionary ids of
the site's eight strings, its ``pid``, its domain number). A frame is one
precompiled :class:`struct.Struct` (the discipline of
:mod:`repro.orb.fastcdr`): a fixed head — dictionary id of the chain uuid,
event number 1..4, flag byte (call kind, collocation, frame width),
field-presence bitmap, site id, raw ``thread_id``, dictionary id of the
child chain, byte length of the semantics payload — then ``event_seq`` and
the four probe clock readings as five ``i32`` words (*narrow*) or five
``i64`` (*wide*, flag bit 16), then the optional JSON payload
of captured application semantics.

**The anchor rule.** ``wall_end`` / ``cpu_end`` are stored relative to
their own start reading. A *narrow* frame stores ``wall_start`` /
``cpu_start`` relative to the last frame before it that carried that
reading; a *wide* frame stores them absolute. A writer forgets its
predecessors wherever a reader may start decoding (a records block, a
sealed chain group), so the first frame there to carry a reading is wide;
a frame also widens when one of its five words overflows ``i32``. A reader
needs no knowledge of blocks or groups: it adds on a narrow frame and
takes over on a wide one.

Interned strings are *dictionary-encoded*: each segment carries one string
table, ids assigned in first-appearance order; new entries are spooled
into dict-delta blocks — then new site rows into site-delta blocks — ahead
of the frames that reference them, so a truncated segment still decodes
front-to-back without its footer.

The layout is derived from, and import-time-checked against, the one
schema table :data:`repro.core.records.RECORD_SCHEMA` shared with the
SQLite row codecs. It is the only record layout this build reads.
"""

from __future__ import annotations

import struct

from repro.core.events import CallKind, Domain, TracingEvent
from repro.core.records import EVENT_FIELDS, RECORD_SCHEMA, SITE_FIELDS

#: What a site row covers, in the order it is packed.
_ROW_FIELDS = (
    "interface", "operation", "object_id", "component", "process", "host",
    "processor_type", "platform", "pid", "domain",
)
#: What a frame covers: head, then the five-word tail; ``semantics`` rides
#: as the variable-length payload after the tail.
_HEAD_FIELDS = (
    "chain_uuid", "event",
    # misc byte: call_kind, collocated, (frame width flag)
    "call_kind", "collocated",
    # presence byte tracks which optional fields are materialized
    "thread_id", "child_chain_uuid", "semantics",
)
_TAIL_FIELDS = ("event_seq", "wall_start", "wall_end", "cpu_start", "cpu_end")

if (set(_ROW_FIELDS), set(_HEAD_FIELDS) | set(_TAIL_FIELDS)) != (
    set(SITE_FIELDS), set(EVENT_FIELDS)
):
    raise AssertionError(
        "segment frame codec is out of sync with RECORD_SCHEMA: "
        f"{sorted(_ROW_FIELDS)} != {sorted(SITE_FIELDS)} or "
        f"{sorted(_HEAD_FIELDS + _TAIL_FIELDS)} != {sorted(EVENT_FIELDS)}"
    )

# Site row (little-endian): the eight string ids in _ROW_FIELDS order,
# q pid, B domain number.
SITE_ROW = struct.Struct("<8IqB")

# Frame head (little-endian):
#   I  chain_uuid dict id     B  event (probe number 1..4)
#   B  misc flag byte: 1 oneway, 2 collocated, 16 wide frame
#   B  presence byte: 1 wall_start, 2 wall_end, 4 cpu_start, 8 cpu_end,
#                     16 child_chain_uuid, 32 semantics
#   I  site id                q  thread_id
#   I  child_chain_uuid id    I  semantics byte length
# followed by event_seq and the four readings (5 x i32 narrow / i64 wide).
FRAME_NARROW = struct.Struct("<IBBBIqIIiiiii")
FRAME_WIDE = struct.Struct("<IBBBIqIIqqqqq")
HEAD_SIZE = FRAME_NARROW.size - 20  # head bytes shared by both widths
MISC_OFF = 5  # the misc flag byte, whose bit 16 gives the frame's width

#: Enum round-trips by position; tuple indexing beats Enum constructors
#: (and dict lookups) on the million-record decode path.
EVENT_BY_NUM = (None,) + tuple(TracingEvent)
DOMAIN_BY_NUM = (Domain.CORBA, Domain.COM, Domain.J2EE, Domain.LOCAL)
DOMAIN_NUM = {domain: num for num, domain in enumerate(DOMAIN_BY_NUM)}

SYNC = CallKind.SYNC
ONEWAY = CallKind.ONEWAY
