"""Probe-record column codec for the segment store (record schema v2).

A segment holds probe rows as *column blocks*: one column per field over
every row of the block (see :mod:`repro.store.segment` for the byte
layout). What a row's :class:`~repro.core.records.Site` holds is stored
once per segment, as a row of the segment's *site table* (:data:`SITE_ROW`:
the dictionary ids of the site's eight strings, its ``pid``, its domain
number); a row's site column holds that table row's id. The chain uuid and
the child chain uuid are dictionary ids too: the chain as *runs* (one id
and one length per stretch of rows of one chain), the child as an id per
row that has one.

The one *flags* byte per row carries the call kind, collocation and which
optional fields are present (:data:`FLAG_BITS`). A field that may be
``None`` is stored for the rows that have it only; ``wall_start`` /
``cpu_start`` as deltas from the previous present value, and ``wall_end``
/ ``cpu_end`` relative to their own start reading when the row has one,
absolute when it has not. Semantics are one JSON blob per block with end
offsets.

Interned strings are *dictionary-encoded*: each segment carries one string
table, ids assigned in first-use order; new entries are spooled into
dict-delta blocks — then new site rows into site-delta blocks — ahead of
the column block that references them, so a truncated segment still
decodes front-to-back without its footer.

The layout is derived from, and import-time-checked against, the one
schema table :data:`repro.core.records.RECORD_SCHEMA` shared with the
SQLite row codecs.
"""

from __future__ import annotations

import struct

from repro.core.events import CallKind, Domain, TracingEvent
from repro.core.records import EVENT_FIELDS, RECORD_SCHEMA, SITE_FIELDS, Site
from repro.errors import StoreError

#: What a site row covers, in the order it is packed.
_ROW_FIELDS = (
    "interface", "operation", "object_id", "component", "process", "host",
    "processor_type", "platform", "pid", "domain",
)
#: What the columns of a block cover (the flags byte carries call_kind and
#: collocated).
_COLUMN_FIELDS = (
    "chain_uuid", "event", "call_kind", "collocated", "event_seq", "thread_id",
    "wall_start", "wall_end", "cpu_start", "cpu_end", "child_chain_uuid",
    "semantics",
)

if (set(_ROW_FIELDS), set(_COLUMN_FIELDS)) != (set(SITE_FIELDS), set(EVENT_FIELDS)):
    raise AssertionError(
        "segment column codec is out of sync with RECORD_SCHEMA: "
        f"{sorted(_ROW_FIELDS)} != {sorted(SITE_FIELDS)} or "
        f"{sorted(_COLUMN_FIELDS)} != {sorted(EVENT_FIELDS)}"
    )

# Site row (little-endian): the eight string ids in _ROW_FIELDS order,
# q pid, B domain number.
SITE_ROW = struct.Struct("<8IqB")

#: The flags byte: one bit per optional field present, then the call kind
#: and collocation.
FLAG_BITS = {
    "wall_start": 1, "wall_end": 2, "cpu_start": 4, "cpu_end": 8,
    "child_chain_uuid": 16, "semantics": 32, "oneway": 64, "collocated": 128,
}

#: Enum round-trips by position; tuple indexing beats Enum constructors
#: (and dict lookups) on the million-record decode path.
EVENT_BY_NUM = (None,) + tuple(TracingEvent)
DOMAIN_BY_NUM = (Domain.CORBA, Domain.COM, Domain.J2EE, Domain.LOCAL)
DOMAIN_NUM = {domain: num for num, domain in enumerate(DOMAIN_BY_NUM)}

SYNC = CallKind.SYNC
ONEWAY = CallKind.ONEWAY


def read_strings(buf, pos: int, count: int) -> tuple[list[str], int]:
    """``count`` length-prefixed (``u16``) UTF-8 strings at ``pos`` of
    ``buf``, and where they end."""
    strings = []
    for _ in range(count):
        (slen,) = struct.unpack_from("<H", buf, pos)
        strings.append(str(buf[pos + 2:pos + 2 + slen], "utf-8", "surrogatepass"))
        pos += 2 + slen
    return strings, pos


def read_sites(buf, pos: int, count: int, strings: list[str]) -> list[Site]:
    """The sites of ``count`` packed :data:`SITE_ROW` rows at ``pos``."""
    raw = buf[pos:pos + count * SITE_ROW.size]
    if len(raw) != count * SITE_ROW.size:
        raise StoreError("site rows cut short")
    return [
        Site(
            strings[ifc], strings[op], strings[obj], strings[comp], strings[proc],
            pid, strings[host], strings[ptype], strings[plat], DOMAIN_BY_NUM[dom],
        )
        for ifc, op, obj, comp, proc, host, ptype, plat, pid, dom
        in SITE_ROW.iter_unpack(raw)
    ]


def read_table_block(buf, pos: int, is_dict: bool, strings: list, sites: list) -> bool:
    """Append a dict-delta (``is_dict``) or site-delta block's entries —
    ``u32 first_id | u32 count | entries`` at ``pos`` — to ``strings`` or
    ``sites``; ``False`` when they do not start where the table ends (a
    gap: no id after it can be trusted)."""
    table = strings if is_dict else sites
    first_id, count = struct.unpack_from("<II", buf, pos)
    if first_id != len(table):
        return False
    table += (
        read_strings(buf, pos + 8, count)[0] if is_dict
        else read_sites(buf, pos + 8, count, strings)
    )
    return True
