"""Append-only segment files: the on-disk unit of the segment store.

Layout (little-endian throughout; header format 2, record schema v2)::

    header   "RSG1" | u8 format | u8 kind | u16 schema_version | u64 arrival_base
    block*   u8 tag | u32 payload_len | payload
      tag 1  dict-delta: u32 first_id | u32 count | (u16 len | utf8)*
      tag 3  site-delta: u32 first_id | u32 count | site row*
      tag 4  columns:    u32 crc32 of the rest | u32 rows | u32 runs
                         | i64 wall_base | i64 cpu_base
                         | (c typecode | u32 byte_len) * 14 | column bytes
    footer   u64 record_count | u8 has_ranks  (0 none, 1 u64 ranks, 2 u32 ranks)
             u32 n_strings | (u16 len | utf8)*
             u32 n_sites   | site row*    (8 x u32 string id | i64 pid | u8 domain)
             u32 n_chains  | u32 cid * n_chains | u32 count * n_chains
             | rank * record_count if has_ranks
             ext?  "FXTS" | u8 flags | i64 ts_min | i64 ts_max
                   | (i64 gmin | i64 gmax) * n_chains    (sealed)
             ext?  "FXFN" | u32 n_functions | (u32 ifc_id | u32 op_id) * n_functions
                   | u8 fcount * n_chains | u16 function_index * sum(fcount != 255)
    trailer  u64 footer_off | "RSEG" | u32 crc32 of the footer

A column block holds up to :data:`_BLOCK_ROWS` rows, one ``array`` column
per field in the narrowest typecode that holds its values; a field that
may be ``None`` stores its present values only. Rows name their site and
chains by id into the string dictionary and the *site table*, both grown
by delta blocks ahead of the first column block that uses an entry. A
*spool* holds rows in arrival order; a *sealed* segment holds them grouped
by chain in uuid order, no group spanning two blocks, its chain index the
group table with the rows' arrival ranks beside it. ``FXTS`` (anchor
bounds) and ``FXFN`` (the function zone map) are what predicate pushdown
prunes segments and groups on. A segment whose trailer is missing or whose
footer fails its checksum is *partial*: every consistent column block is
salvaged front to back and the rest counted in ``dropped_bytes``. A file
in the frame format that preceded columns (header format 1) is read by
:mod:`repro.store.legacy_v2` and served re-encoded in memory. DESIGN.md §8
has the whole design.
"""

from __future__ import annotations

import io
import logging
import mmap
import os
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, compress, islice, repeat
from json import dumps as _dumps, loads as _loads
from zlib import crc32
from functools import reduce
from operator import add, and_, floordiv, is_, is_not, itemgetter, le, mod, mul, ne, sub, truth

from repro.core.records import SCHEMA_VERSION, Site, as_rows
from repro.errors import StoreError
from repro.store.codec import (
    DOMAIN_NUM,
    EVENT_BY_NUM,
    FLAG_BITS,
    ONEWAY,
    SITE_ROW,
    SYNC,
    read_sites,
    read_strings,
    read_table_block,
)
from repro.store.legacy_v2 import read_frames

logger = logging.getLogger(__name__)

MAGIC = b"RSG1"
TRAILER_MAGIC = b"RSEG"
FORMAT_VERSION = 2
_FORMAT_FRAMES = 1  # read by repro.store.legacy_v2

KIND_SPOOL = 0
KIND_SEALED = 1

_HEADER = struct.Struct("<4sBBHQ")
_BLOCK = struct.Struct("<BI")
_TRAILER = struct.Struct("<Q4sI")
_U32 = struct.Struct("<I")

_TAG_DICT = 1
_TAG_SITES = 3
_TAG_COLUMNS = 4

_FXTS_MAGIC = b"FXTS"
_FXTS_SEGMENT = 1  # flags bit: segment-level bounds present
_FXTS_GROUPS = 2  # flags bit: one (gmin, gmax) pair per chain entry
#: Inverted bounds pair: "no anchored rows" (prunable under any
#: time-range predicate, unlike unknown bounds which never prune).
_TS_EMPTY = (1, 0)

_FXFN_MAGIC = b"FXFN"
#: Per-group function count meaning "unknown set, never prune".
_FN_OVERFLOW = 255
#: Count byte -> indexes stored (none at overflow) / -> is-overflow flag.
_FN_STORED = bytes(range(_FN_OVERFLOW)) + b"\0"
_FN_UNKNOWN = bytes(_FN_OVERFLOW) + b"\1"
_U32_MAX = (1 << 32) - 1

#: Rows per column block: a spool flushes one each time this many rows
#: arrived, a sealed segment at the first chain-group boundary past it.
_BLOCK_ROWS = 4096

#: The column block head and its fourteen column descriptors.
_COLUMNS = 14
_BLOCK_HEAD = struct.Struct("<IIIqq")
_DESCRIPTORS = struct.Struct("<" + "cI" * _COLUMNS)
(_RUN_CID, _RUN_LEN, _SITE, _EVENT, _FLAGS, _SEQ, _TID, _WS, _WD, _CS, _CD,
 _CHILD, _SEM_END, _SEM_BLOB) = range(_COLUMNS)
_ITEMSIZE = {code.encode(): array(code).itemsize for code in "bBhHiIqQ"}
#: Columns whose values index a table or the blob: unsigned typecodes only.
_UNSIGNED = frozenset((_RUN_CID, _RUN_LEN, _SITE, _CHILD, _SEM_END))
_BYTE_COLUMNS = frozenset((_EVENT, _FLAGS, _SEM_BLOB))
_SWAP = sys.byteorder == "big"

#: flags byte -> 0/1 per flag bit (``bytes.translate`` tables), and ->
#: call kind / collocation.
_BIT = [bytes((b >> i) & 1 for b in range(256)) for i in range(8)]
_WALL_BOTH = bytes(int(b & 3 == 3) for b in range(256))
_WALL_ANY = bytes(int(b & 3 != 0) for b in range(256))
_NO_WALL_START = bytes(int(not b & 1) for b in range(256))
_KIND_OF = [ONEWAY if b & FLAG_BITS["oneway"] else SYNC for b in range(256)]
_COLLOCATED_OF = [bool(b & FLAG_BITS["collocated"]) for b in range(256)]
_EVENTS = list(EVENT_BY_NUM)

_FIELD = [itemgetter(i) for i in range(13)]  # a probe row's fields


def uuid_key(uuid: str) -> bytes:
    """The order sealed chain groups are stored in, and the stores' chain
    order: UTF-8 byte order, matching SQLite's BINARY collation."""
    return uuid.encode("utf-8", "surrogatepass")


@dataclass
class ScanStats:
    """Where a scan spent (and saved) its work: ``frames_decoded`` counts
    the rows it examined (those of the blocks and chain groups it did not
    prune — never more than an unpredicated scan examines), ``groups`` the
    sealed chain groups a predicated scan looked at (inside its shard
    bounds), ``groups_pruned`` the ones of them it skipped unread."""

    segments: int = 0
    segments_pruned: int = 0
    groups: int = 0
    groups_pruned: int = 0
    frames_decoded: int = 0
    records_matched: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def record_anchor(wall_start: int | None, wall_end: int | None) -> int | None:
    """The timestamp a time-range predicate tests a record against.

    ``wall_start`` when the probe captured it, else ``wall_end``; records
    with neither never match a time-range predicate. Both backends and
    the segment footer bounds use this one definition.
    """
    return wall_start if wall_start is not None else wall_end


class SegmentFold:
    """One segment's rows that a filter passed, folded: ``sites`` maps each
    :class:`Site` matched to ``[rows, intervals]`` (``wall_end -
    wall_start`` of each row with both readings), ``calls`` counts the
    STUB_START rows, ``chains`` holds the chains matched; ``threads`` the
    ``(process, thread_id)`` pairs and ``bounds`` the (min, max) anchor of
    the matched rows, each ``None`` unless asked for."""

    __slots__ = ("sites", "calls", "chains", "threads", "bounds")

    def __init__(self, threads: bool = False):
        self.sites: dict[Site, list] = {}
        self.calls = 0
        self.chains: set[str] = set()
        self.threads: set[tuple[str, int]] | None = set() if threads else None
        self.bounds: tuple[int, int] | None = None

    def add_site(self, site: Site, frames: int, intervals: list[int]) -> None:
        entry = self.sites.get(site)
        if entry is None:
            self.sites[site] = [frames, intervals]
        else:
            entry[0] += frames
            entry[1] += intervals


def _pack_strings(strings: list[str]) -> bytes:
    """``(u16 len | utf8)*`` — how both the dict-delta blocks and the footer
    hold strings."""
    raws = [s.encode("utf-8", "surrogatepass") for s in strings]
    return b"".join([struct.pack("<H", len(raw)) + raw for raw in raws])


def _column(values: list, codes: str = "BHIQbhiq") -> tuple[bytes, bytes]:
    """``values`` as the first typecode of ``codes`` that holds them all
    (past 64 bits: ``OverflowError``)."""
    for code in codes:
        try:
            column = array(code, values)
            break
        except OverflowError:
            if code == codes[-1]:
                raise
    if _SWAP:
        column.byteswap()
    return code.encode(), column.tobytes()


def _ids(values: list, bound: int) -> tuple[bytes, bytes]:
    """Ids below ``bound`` as the narrowest unsigned typecode."""
    return _column(values, "B" if bound <= 0x100 else "H" if bound <= 0x10000 else "I")


def _present(values: list) -> bytes:
    """One byte per value: 1 where it is not ``None``."""
    absent = values.count(None)
    if absent == 0 or absent == len(values):
        return (b"\0" if absent else b"\1") * len(values)
    return bytes(map(is_not, values, repeat(None)))


def _flags(*bits: bytes) -> bytes:
    """0/1 byte strings (lowest bit first) OR-ed into one flags byte each."""
    out = sum(int.from_bytes(column, "little") << bit for bit, column in enumerate(bits))
    return out.to_bytes(len(bits[0]), "little")


def _and(*masks: bytes | None) -> bytes | None:
    """The rows every given 0/1 mask keeps (``None``: keep all)."""
    masks = [mask for mask in masks if mask is not None]
    if len(masks) < 2:
        return masks[0] if masks else None
    out = reduce(and_, map(int.from_bytes, masks, repeat("little")))
    return out.to_bytes(len(masks[0]), "little")


class _Ids(dict):
    """Value -> id in first-use order; ``table``: what each id stands for in
    the file, ``flushed``: how many are in delta blocks already."""

    def __init__(self):
        super().__init__()
        self.table: list = []
        self.flushed = 0

    def __missing__(self, key):
        out = self[key] = len(self)
        self.table.append(key)
        return out


class _SiteIds(_Ids):
    """Site -> site-table row; a new site interns its strings, packs its
    row, and its function joins the zone map's table."""

    def __init__(self, strings: _Ids):
        super().__init__()
        self.strings = strings
        self.fn_ids: dict[int, int] = {}  # ifc id << 32 | op id -> table index
        self.fn_of: list[int] = []  # site id -> function table index

    def __missing__(self, site: Site):
        intern = self.strings.__getitem__
        ifc, op = intern(site.interface), intern(site.operation)
        self.table.append(SITE_ROW.pack(
            ifc, op, intern(site.object_id), intern(site.component),
            intern(site.process), intern(site.host), intern(site.processor_type),
            intern(site.platform), site.pid, DOMAIN_NUM[site.domain],
        ))
        self.fn_of.append(self.fn_ids.setdefault(ifc << 32 | op, len(self.fn_ids)))
        out = self[site] = len(self)
        return out


class SegmentWriter:
    """Streams probe rows into one segment file as column blocks.

    ``path`` is a file name, or a binary buffer the segment is written
    into (left open). Rows are buffered and encoded a block at a time, one
    C-level pass per column (:func:`_column`).
    """

    def __init__(self, path, kind: int = KIND_SPOOL, arrival_base: int = 0):
        self.path = path
        self.kind = kind
        self.arrival_base = arrival_base
        self._file = open(path, "wb") if isinstance(path, str) else path
        self._file.write(
            _HEADER.pack(MAGIC, FORMAT_VERSION, kind, SCHEMA_VERSION, arrival_base)
        )
        self._file_pos = _HEADER.size
        self._sealed_kind = kind == KIND_SEALED
        self._strings = _Ids()
        self._sites = _SiteIds(self._strings)
        self._rows: list = []
        self.record_count = 0
        #: chain id -> rows: the footer's chain index (sealed: the groups).
        self._chains: dict[int, int] = {}
        #: arrival ranks, row by row (sealed; empty: none recorded).
        self._ranks: list[int] = []
        self._bounds = array("q")  # per sealed group: anchor min, max
        self._seg_bounds: tuple[int, int] | None = None
        self._fn_counts = bytearray()
        self._fn_index = array("H")

    def append(self, records, ranks: list[int] | None = None) -> int:
        """Buffer ``records`` (rows, or probe records, each made a row once)
        and return how many; a sealed segment's arrive chain by chain —
        every change of chain starts a group. ``ranks`` (sealed only) are
        their arrival ranks, one to one, for all of a segment's records or
        none."""
        rows = as_rows(records)
        if ranks is not None:
            if len(ranks) != len(rows):
                raise StoreError("ranks must align one-to-one with records")
            self._ranks += ranks
        self._rows += rows
        self.record_count += len(rows)
        pending, done, uuid = self._rows, 0, _FIELD[1]
        while len(pending) - done > _BLOCK_ROWS:
            cut = done + _BLOCK_ROWS
            if self._sealed_kind:
                # The first group boundary at or past the block size.
                cut = next(
                    (i for i in range(cut, len(pending))
                     if uuid(pending[i]) != uuid(pending[i - 1])),
                    None,
                )
                if cut is None:
                    break
            self._flush_block(pending[done:cut])
            done = cut
        del pending[:done]
        return len(rows)

    def _flush_block(self, rows: list) -> None:
        """Encode ``rows`` as one column block, after the delta blocks of
        the strings and sites they are first to use."""
        n = len(rows)
        # Transposed in one pass over the rows (a pass per field would
        # fetch every row from memory thirteen times).
        flat = list(chain.from_iterable(rows))
        if len(flat) != 13 * n:
            raise StoreError("a probe row holds 13 fields")
        (site, uuids, seq, event, tid, kind, collocated, ws, we, cs, ce, children,
         sems) = (flat[i::13] for i in range(13))
        del flat
        strings, sites = self._strings, self._sites
        # Ids are interned column by column — chains, sites, children — so
        # equal rows make equal files.
        cuts = [0, *compress(range(1, n), map(ne, islice(uuids, 1, None), uuids)), n]
        run_cids = list(map(strings.__getitem__, map(uuids.__getitem__, cuts[:-1])))
        run_lens = list(map(sub, cuts[1:], cuts))
        chains = self._chains
        if self._sealed_kind and (
            len(set(run_cids)) < len(run_cids) or not chains.keys().isdisjoint(run_cids)
        ):
            raise StoreError("a sealed segment holds each chain as one group")
        for cid, count in zip(run_cids, run_lens):
            chains[cid] = chains.get(cid, 0) + count
        sids = list(map(sites.__getitem__, site))
        has_child = _present(children)
        child_ids = list(map(strings.__getitem__, compress(children, has_child)))
        self._flush_tables()

        has = [_present(column) for column in (ws, we, cs, ce)]
        wall_base, wall, wall_dur = _readings(ws, we, has[0], has[1])
        cpu_base, cpu, cpu_dur = _readings(cs, ce, has[2], has[3])
        has_sem = _present(sems)
        blobs = [_dumps(sem).encode() for sem in compress(sems, has_sem)]
        flags = _flags(
            *has, has_child, has_sem,
            bytes(map(is_, kind, repeat(ONEWAY))), bytes(map(truth, collocated)),
        )
        ends = list(accumulate(map(len, blobs)))
        columns = [
            _ids(run_cids, len(strings)), _ids(run_lens, n + 1), _ids(sids, len(sites)),
            (b"B", bytes(event)), (b"B", flags), _column(seq), _column(tid),
            _column(wall, "bhiq"), _column(wall_dur), _column(cpu, "bhiq"),
            _column(cpu_dur), _ids(child_ids, len(strings)),
            _ids(ends, ends[-1] + 1 if ends else 0), (b"B", b"".join(blobs)),
        ]
        body = b"".join([
            _BLOCK_HEAD.pack(0, n, len(run_cids), wall_base, cpu_base)[4:],
            _DESCRIPTORS.pack(*chain.from_iterable(
                (code, len(data)) for code, data in columns
            )),
            *(data for _code, data in columns),
        ])
        self._write_block(_TAG_COLUMNS, _U32.pack(crc32(body)) + body)
        anchors = ws if has[0].count(0) == 0 else [
            s if s is not None else e for s, e in zip(ws, we)
        ]
        known = anchors if None not in anchors else [a for a in anchors if a is not None]
        if known:
            lo, hi = min(known), max(known)
            if self._seg_bounds is not None:
                lo, hi = min(lo, self._seg_bounds[0]), max(hi, self._seg_bounds[1])
            self._seg_bounds = (lo, hi)
        if self._sealed_kind:
            self._note_groups(anchors, sids, cuts, run_lens)

    def _note_groups(self, anchors: list, sids: list, cuts: list, lens: list) -> None:
        """Each chain group's anchor bounds (:data:`_TS_EMPTY` for one with
        none) and function set — the latter from the site-id column — for
        the footer's ``FXTS`` and ``FXFN``."""
        if None in anchors:
            parts = [
                [a for a in anchors[lo:hi] if a is not None] for lo, hi in zip(cuts, cuts[1:])
            ]
            pairs = [(min(part), max(part)) if part else _TS_EMPTY for part in parts]
            self._bounds.extend(chain.from_iterable(pairs))
        else:  # array slices: nothing per group for the collector to track
            parts = list(map(array("q", anchors).__getitem__, map(slice, cuts, cuts[1:])))
            pairs = array("q", bytes(16 * len(parts)))
            pairs[0::2], pairs[1::2] = array("q", map(min, parts)), array("q", map(max, parts))
            self._bounds.extend(pairs)
        # Distinct (group, function) keys, sorted: each group's functions
        # in ascending order, the groups in order.
        width = len(self._sites.fn_ids)
        keys = sorted(set(map(add, map(
            mul, chain.from_iterable(map(repeat, range(len(lens)), lens)), repeat(width)
        ), map(self._sites.fn_of.__getitem__, sids))))
        counts = list(Counter(map(floordiv, keys, repeat(width))).values())
        if max(counts) < _FN_OVERFLOW and width <= 0x10000:
            self._fn_counts += bytes(counts)
            self._fn_index.extend(map(mod, keys, repeat(width)))
            return
        at = 0
        for count in counts:
            if count >= _FN_OVERFLOW or keys[at + count - 1] % width > 0xFFFF:
                self._fn_counts.append(_FN_OVERFLOW)
            else:
                self._fn_counts.append(count)
                self._fn_index.extend(key % width for key in keys[at:at + count])
            at += count

    def _flush_tables(self) -> None:
        """Write the pending dict-delta block, then the pending site rows
        (which name strings up to and including that block's)."""
        for tag, ids in ((_TAG_DICT, self._strings), (_TAG_SITES, self._sites)):
            pending = ids.table[ids.flushed:]
            if pending:
                body = _pack_strings(pending) if tag == _TAG_DICT else b"".join(pending)
                self._write_block(tag, struct.pack("<II", ids.flushed, len(pending)) + body)
                ids.flushed = len(ids.table)

    def _write_block(self, tag: int, payload) -> None:
        self._file.write(_BLOCK.pack(tag, len(payload)))
        self._file.write(payload)
        self._file_pos += _BLOCK.size + len(payload)

    def seal(self) -> None:
        """Write the last block, the footer and the trailer, and close."""
        if self._rows:
            self._flush_block(self._rows)
            self._rows = []
        footer_off = self._file_pos
        ranks = self._ranks
        if ranks and len(ranks) != self.record_count:
            raise StoreError("segment footer ranks out of sync")
        # u32 whenever every rank fits (2), else u64 (1); 0: none recorded.
        has_ranks = (1 if max(ranks) > _U32_MAX else 2) if ranks else 0
        strings = self._strings.table
        out = bytearray(struct.pack("<QB", self.record_count, has_ranks))
        out += struct.pack("<I", len(strings)) + _pack_strings(strings)
        out += struct.pack("<I", len(self._sites)) + b"".join(self._sites.table)
        out += struct.pack("<I", len(self._chains))
        out += _column(self._chains, "I")[1] + _column(self._chains.values(), "I")[1]
        if has_ranks:
            out += _column(ranks, "Q" if has_ranks == 1 else "I")[1]
        # Anchor bounds: what predicate pushdown prunes on without decoding
        # a single row.
        seg = self._seg_bounds or _TS_EMPTY
        sealed = self._sealed_kind
        out += _FXTS_MAGIC
        out += struct.pack("<Bqq", _FXTS_SEGMENT | (_FXTS_GROUPS if sealed else 0), *seg)
        if sealed:
            out += _column(self._bounds, "q")[1]
            fn_ids = self._sites.fn_ids
            out += _FXFN_MAGIC + struct.pack("<I", len(fn_ids))
            out += _column(list(chain.from_iterable(
                (key >> 32, key & _U32_MAX) for key in fn_ids
            )), "I")[1]
            out += self._fn_counts + _column(self._fn_index, "H")[1]
        self._file.write(out)
        self._file.write(_TRAILER.pack(footer_off, TRAILER_MAGIC, crc32(out)))
        self._file.flush()
        if isinstance(self.path, str):
            self._file.close()

    def abort(self) -> None:
        """Close and delete the (unsealed) file."""
        self._file.close()
        try:
            os.unlink(self.path)
        except OSError as exc:
            logger.warning("could not remove aborted segment %s: %s", self.path, exc)


def _readings(starts: list, ends: list, has_start: bytes, has_end: bytes):
    """One reading pair's columns: the block base, the present starts as
    deltas (the first counts from the base: 0), and the present ends —
    relative to their start where the row has one, else absolute."""
    values = starts if has_start.count(0) == 0 else list(compress(starts, has_start))
    base = values[0] if values else 0
    deltas = list(map(sub, values, chain((base,), values)))
    if has_end == has_start:  # every end has its start: C-level
        return base, deltas, list(map(sub, compress(ends, has_end), values))
    return base, deltas, [
        e if s is None else e - s for s, e in zip(starts, ends) if e is not None
    ]


class _Block:
    """Where one column block's columns lie: per column ``(typecode,
    offset, items)``; its first row within the segment; and, in a complete
    sealed segment, its chain groups ``[g0, g1)``."""

    __slots__ = ("cols", "row0", "rows", "runs", "bases", "crc", "body", "g0", "g1", "fold")

    def __init__(self, mm, pos: int, end: int, row0: int):
        self.row0 = row0
        self.crc, self.rows, self.runs, *self.bases = _BLOCK_HEAD.unpack_from(mm, pos)
        self.body = (pos + 4, end)
        descriptors = _DESCRIPTORS.unpack_from(mm, pos + _BLOCK_HEAD.size)
        off = pos + _BLOCK_HEAD.size + _DESCRIPTORS.size
        cols = []
        for index in range(_COLUMNS):
            code, nbytes = descriptors[2 * index], descriptors[2 * index + 1]
            size = _ITEMSIZE.get(code)
            if (
                size is None
                or nbytes % size
                or (index in _BYTE_COLUMNS and code != b"B")
                or (index in _UNSIGNED and code not in b"BHIQ")
            ):
                raise StoreError("bad column descriptor")
            cols.append((code.decode(), off, nbytes // size))
            off += nbytes
        if off != end or [c[2] for c in cols[:_TID + 1]] != [self.runs] * 2 + [self.rows] * 5:
            raise StoreError("column lengths disagree with the block's rows")
        self.cols = cols
        self.g0 = self.g1 = 0
        self.fold = None


def _read(mm, column):
    code, off, items = column
    if code == "B":
        return mm[off:off + items]
    out = array(code)
    out.frombytes(mm[off:off + items * out.itemsize])
    if _SWAP:
        out.byteswap()
    return out


def _lookup(table: list, keys, bit: bytes | None = None):
    """``table[key]`` for each of ``keys``, lazily; with ``bit`` (a
    flag-bit table over ``keys``, flags bytes) one repeated value when
    every flags byte agrees in that bit."""
    if bit is not None:
        ones = keys.translate(bit).count(1)
        if ones == 0 or ones == len(keys):
            return repeat(table[keys[0]], len(keys)) if keys else ()
    return map(table.__getitem__, keys)


def _fill(presence: bytes, values, absent=None):
    """Full-length values: ``values`` (the present ones, in order) where
    ``presence`` is 1, ``absent`` where it is 0."""
    n = presence.count(1)
    if n == len(presence):
        return values
    if not n:
        return repeat(absent, len(presence))
    # Row i takes table entry (present rows up to i) when present, else
    # entry 0 — one C-level gather.
    return itemgetter(*map(mul, accumulate(presence), presence))([absent, *values])


def _kept(column, mask: bytes | None):
    return column if mask is None else compress(column, mask)  # None: all


def _optional(presence: bytes, values, mask: bytes | None, convert):
    """An optional column's values for the rows ``mask`` keeps, each
    present one through ``convert`` — which sees no other."""
    if mask is not None:
        values = compress(values, compress(mask, presence))
        presence = bytes(compress(presence, mask))
    return _fill(presence, map(convert, values))


def _running(deltas, base: int):  # a delta column's values, counted from base
    values = accumulate(deltas, initial=base)
    next(values)
    return values


def _full_readings(deltas, durations, base: int, has_start: bytes, has_end: bytes):
    """A block's start and end readings, one per row (``None``: absent) —
    iterators, unless some row lacks one (a block-long container would be
    traversed by every collection the row tuples set off)."""
    n = len(has_start)
    if not deltas and not durations:
        return repeat(None, n), repeat(None, n)
    if len(deltas) == n and len(durations) == n:
        return _running(deltas, base), map(add, _running(deltas, base), durations)
    starts = list(_running(deltas, base))
    if has_end == has_start:  # every end has its start: one gather for both
        gather = itemgetter(*map(mul, accumulate(has_start), has_start))
        return gather([None, *starts]), gather([None, *map(add, starts, durations)])
    starts = list(_fill(has_start, starts))
    return starts, [
        d if d is None or s is None else s + d
        for s, d in zip(starts, _fill(has_end, durations))
    ]


class _FoldColumns:
    """One block's rows as an aggregate fold reads them, in (site id, wall
    duration) order: each site's rows are the span ``[bounds[k],
    bounds[k + 1])`` of ``sids[k]``, and its timed rows' durations ascend
    there. ``positions`` maps a row of the block to where it went;
    ``chains`` holds the distinct chain ids of a block whose chains are
    not a group range (``None``: a complete sealed segment's)."""

    __slots__ = (
        "sids", "bounds", "positions", "event", "tid", "cids", "durations",
        "timed", "anchor", "has_anchor", "chains",
    )

    def __init__(self, *columns):
        (self.sids, self.bounds, self.positions, self.event, self.tid, self.cids,
         self.durations, self.timed, self.anchor, self.has_anchor, self.chains) = columns


class SegmentReader:
    """mmap-backed reads of one (possibly partial) segment."""

    def __init__(self, path: str):
        self.path = path
        self.size_bytes = os.path.getsize(path)
        with open(path, "rb") as handle:
            if self.size_bytes == 0:
                raise StoreError(f"empty segment file: {path}")
            self._mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        if self.size_bytes < _HEADER.size:
            raise StoreError(f"segment too short for a header: {path}")
        magic, fmt, kind, schema_version, arrival_base = _HEADER.unpack_from(self._mm, 0)
        if magic != MAGIC:
            raise StoreError(f"not a segment file (bad magic): {path}")
        if schema_version != SCHEMA_VERSION:
            raise StoreError(
                f"segment {path} uses record schema v{schema_version}, "
                f"this build reads v{SCHEMA_VERSION} only"
            )
        if fmt not in (FORMAT_VERSION, _FORMAT_FRAMES):
            raise StoreError(f"unsupported segment format {fmt}: {path}")
        self.kind = kind
        self.sealed = kind == KIND_SEALED
        self.format_version = fmt
        self.schema_version = schema_version
        self.arrival_base = arrival_base
        self.partial = False
        self.dropped_bytes = 0
        self.strings: list[str] = []
        self.sites: list[Site] = []  # one per site-table row
        #: the chain index: a sealed segment's groups in stored order, a
        #: spool's chains once each; and, sealed, where each group starts.
        self.chain_ids, self.chain_counts = array("I"), array("I")
        self._starts = array("Q", [0])
        #: a sealed segment's arrival ranks, row by row (``None``: positional).
        self.ranks: array | None = None
        #: anchor (min, max) of the segment (``None``: unknown — never
        #: prune; inverted: no anchored row) and ``[gmin, gmax, ...]`` per
        #: sealed group.
        self.ts_bounds: tuple[int, int] | None = None
        self.chain_ts: array | None = None
        #: the zone map: ``[ifc id, op id, ...]`` (``None``: no map), a
        #: never-prune flag per group, the groups' indexes back to back, and
        #: where each group's start.
        self.fn_table: array | None = None
        self._fn_unknown, self._fn_index, self._fn_offsets = b"", array("H"), array("I")
        self.record_count = 0
        self._blocks: list[_Block] = []
        if fmt == _FORMAT_FRAMES:
            self._transcode()
        elif not self._load_with_footer():
            self._salvage()

    def close(self) -> None:
        if isinstance(self._mm, mmap.mmap):
            self._mm.close()

    # ------------------------------------------------------------------
    # Loading

    def _transcode(self) -> None:
        """A frame-format file: its rows, re-encoded in memory, served."""
        rows, ranks, partial, dropped = read_frames(
            self._mm, self.size_bytes, self.path, self.sealed
        )
        self._mm.close()
        buffer = io.BytesIO()
        writer = SegmentWriter(
            buffer, KIND_SEALED if self.sealed and not partial else KIND_SPOOL,
            self.arrival_base,
        )
        try:
            writer.append(rows, ranks)
            writer.seal()
        except (TypeError, ValueError, OverflowError) as exc:
            raise StoreError(f"cannot re-encode {self.path}: {exc}") from None
        self._mm = buffer.getvalue()
        self.partial, self.dropped_bytes = partial, dropped
        footer_off = _TRAILER.unpack_from(self._mm, len(self._mm) - _TRAILER.size)[0]
        self._parse_footer(footer_off, len(self._mm))
        if partial:
            self.ts_bounds = self.chain_ts = self.fn_table = None

    def _load_with_footer(self) -> bool:
        mm = self._mm
        if self.size_bytes < _HEADER.size + _TRAILER.size:
            return False
        end = self.size_bytes - _TRAILER.size
        footer_off, magic, crc = _TRAILER.unpack_from(mm, end)
        if (
            magic != TRAILER_MAGIC
            or not _HEADER.size <= footer_off <= end
            or crc32(mm[footer_off:end]) != crc
        ):
            return False  # no trailer, or a footer it does not vouch for
        try:
            self._parse_footer(footer_off, self.size_bytes)
            return True
        except (
            struct.error, ValueError, IndexError, MemoryError, OverflowError, StoreError
        ):
            # A footer whose counts, lengths or ids do not hold: salvage
            # the column blocks instead of losing the whole segment.
            return False

    def _array(self, code: str, pos: int, count: int) -> tuple[array, int]:
        """``count`` items of ``code`` at ``pos``, and where they end."""
        out = array(code)
        end = pos + count * out.itemsize
        out.frombytes(self._mm[pos:end])
        if len(out) != count:
            raise StoreError(f"footer array cut short in {self.path}")
        if _SWAP:
            out.byteswap()
        return out, end

    def _parse_footer(self, footer_off: int, size: int) -> None:
        mm = self._mm
        # Footer: counts, dictionary, site table, chain index, ranks.
        self.record_count, has_ranks = struct.unpack_from("<QB", mm, footer_off)
        (n_strings,) = _U32.unpack_from(mm, footer_off + 9)
        self.strings, pos = read_strings(self._mm, footer_off + 13, n_strings)
        (n_sites,) = _U32.unpack_from(mm, pos)
        self.sites = read_sites(self._mm, pos + 4, n_sites, self.strings)
        pos += 4 + n_sites * SITE_ROW.size
        (n_chains,) = _U32.unpack_from(mm, pos)
        self.chain_ids, pos = self._array("I", pos + 4, n_chains)
        self.chain_counts, pos = self._array("I", pos, n_chains)
        if has_ranks > 2 or (has_ranks and not self.sealed):
            raise StoreError(f"bad rank width code {has_ranks} in {self.path}")
        if has_ranks:
            self.ranks, pos = self._array(
                "Q" if has_ranks == 1 else "I", pos, self.record_count
            )
        footer_end = size - _TRAILER.size
        if pos + 4 <= footer_end and mm[pos:pos + 4] == _FXTS_MAGIC:
            (flags, seg_min, seg_max) = struct.unpack_from("<Bqq", mm, pos + 4)
            pos += 4 + 17
            if flags & _FXTS_SEGMENT:
                self.ts_bounds = (seg_min, seg_max)
            if flags & _FXTS_GROUPS:
                self.chain_ts, pos = self._array("q", pos, 2 * n_chains)
        if pos + 4 <= footer_end and mm[pos:pos + 4] == _FXFN_MAGIC:
            (n_functions,) = _U32.unpack_from(mm, pos + 4)
            table, pos = self._array("I", pos + 8, 2 * n_functions)
            counts = mm[pos:pos + n_chains]
            offsets = array("I", accumulate(counts.translate(_FN_STORED), initial=0))
            index, pos = self._array("H", pos + n_chains, offsets[-1])
            if (
                pos > footer_end
                or len(counts) != n_chains
                or 0 in counts  # a group holds a row, so a function
                or (table and max(table) >= n_strings)
                or (index and max(index) >= n_functions)
            ):
                raise StoreError(f"corrupt function zone map in {self.path}")
            self.fn_table, self._fn_unknown = table, counts.translate(_FN_UNKNOWN)
            self._fn_index, self._fn_offsets = index, offsets
        # Hop the block headers to map the column blocks.
        pos, rows = _HEADER.size, 0
        blocks = []
        while pos < footer_off:
            tag, plen = _BLOCK.unpack_from(mm, pos)
            end = pos + _BLOCK.size + plen
            if tag == _TAG_COLUMNS:
                if end > footer_off:
                    raise StoreError(f"column block past the footer in {self.path}")
                blocks.append(_Block(mm, pos + _BLOCK.size, end, rows))
                rows += blocks[-1].rows
            elif tag != _TAG_DICT and tag != _TAG_SITES:
                raise StoreError(f"unknown block tag {tag} in {self.path}")
            pos = end
        counts = self.chain_counts
        if (
            rows != self.record_count
            or sum(counts) != rows
            or (n_chains and max(self.chain_ids) >= n_strings)
        ):
            raise StoreError(f"chain index and column blocks disagree in {self.path}")
        if self.sealed and not self.partial:
            # Each block starts at a group: its groups are [g0, g1).
            starts = self._starts = array("Q", accumulate(counts, initial=0))
            if 0 in counts:
                raise StoreError(f"empty chain group in {self.path}")
            for block in blocks:
                block.g0 = bisect_left(starts, block.row0)
                block.g1 = bisect_left(starts, block.row0 + block.rows)
                if starts[block.g0] != block.row0 or starts[block.g1] != block.row0 + block.rows:
                    raise StoreError(f"a chain group spans two blocks in {self.path}")
        self._blocks = blocks

    def _salvage(self) -> None:
        """Partial segment: decode what survives, account what doesn't."""
        mm = self._mm
        end = self.size_bytes
        pos = _HEADER.size
        strings: list[str] = []
        sites: list[Site] = []
        self.strings, self.sites = strings, sites
        blocks: list[_Block] = []
        chains: dict[int, int] = {}
        rows = 0
        decoded_end = pos
        while pos + _BLOCK.size <= end:
            tag, plen = _BLOCK.unpack_from(mm, pos)
            payload_end = pos + _BLOCK.size + plen
            if payload_end > end:
                break  # truncated: nothing after is decodable
            try:
                if tag == _TAG_DICT or tag == _TAG_SITES:
                    is_dict = tag == _TAG_DICT
                    if not read_table_block(mm, pos + _BLOCK.size, is_dict, strings, sites):
                        break
                elif tag == _TAG_COLUMNS:
                    block = _Block(mm, pos + _BLOCK.size, payload_end, rows)
                    cols = self._columns(block)  # ids in range, lengths agree
                    for cid, count in zip(cols[_RUN_CID], cols[_RUN_LEN]):
                        chains[cid] = chains.get(cid, 0) + count
                    blocks.append(block)
                    rows += block.rows
                    decoded_end = payload_end
                else:
                    break  # unrecognized bytes: treat the rest as lost
            except (struct.error, ValueError, IndexError, StoreError):
                break  # damaged: nothing after it can be trusted
            pos = payload_end
        self.partial = True
        # Footer metadata is not trusted: a salvaged segment is row-filtered,
        # never pruned.
        self.ts_bounds = self.chain_ts = self.fn_table = None
        self._blocks = blocks
        self.dropped_bytes = end - decoded_end
        self.record_count = rows
        self.chain_ids = array("I", chains)
        self.chain_counts = array("I", chains.values())

    # ------------------------------------------------------------------
    # Decoding

    def _columns(self, block: _Block) -> list:
        """A block's fourteen columns, checked on the first read (the CRC,
        every id within its table, every optional column as long as its flag
        bit's count, the runs adding up to the rows, the semantics offsets
        monotonic within the blob) — else :class:`StoreError`."""
        (lo, hi), crc = block.body, block.crc  # another thread may clear it
        if crc is not None and crc32(self._mm[lo:hi]) != crc:
            raise StoreError(f"corrupt column block in {self.path}: checksum mismatch")
        cols = [_read(self._mm, column) for column in block.cols]
        if crc is None:
            return cols
        flags, event, ends = cols[_FLAGS], cols[_EVENT], cols[_SEM_END]
        present = [len(cols[i]) for i in (_WS, _WD, _CS, _CD, _CHILD, _SEM_END)]
        if (
            sum(cols[_RUN_LEN]) != block.rows
            or (block.runs and max(cols[_RUN_CID]) >= len(self.strings))
            or (block.rows and (
                max(cols[_SITE]) >= len(self.sites)
                or min(event) < 1
                or max(event) >= len(EVENT_BY_NUM)
            ))
            or (cols[_CHILD] and max(cols[_CHILD]) >= len(self.strings))
            or present != [flags.translate(_BIT[bit]).count(1) for bit in range(6)]
            or (ends and (ends[-1] != len(cols[_SEM_BLOB]) or not all(
                map(le, chain((0,), ends), ends)
            )))
        ):
            raise StoreError(
                f"corrupt column block in {self.path}: a column cut short, or an"
                " id past the string dictionary or the site table"
            )
        block.crc = None  # checked: the file does not change under its reader
        return cols

    def _row_cids(self, block: _Block, cols: list, convert=None):
        """The chain id of each of the block's rows (through ``convert``, if
        given): a complete sealed segment's from its group table, any
        other's from the block's runs."""
        if self.sealed and not self.partial:
            cids, counts = self.chain_ids[block.g0:block.g1], self.chain_counts[block.g0:block.g1]
        else:
            cids, counts = cols[_RUN_CID], cols[_RUN_LEN]
        return chain.from_iterable(map(repeat, map(convert, cids) if convert else cids, counts))

    def _mask(self, block: _Block, cols: list, gis, flt) -> tuple:
        """The rows a read of ``block`` keeps (a 0/1 byte per row; ``None``:
        all) and how many it examines: the chain groups ``gis`` (``None``:
        the whole block), then ``flt``'s per-row tests."""
        examined = block.rows
        select = None
        if gis is not None and len(gis) < block.g1 - block.g0:
            starts, row0 = self._starts, block.row0
            keep = bytearray(block.rows)
            for gi in gis:
                lo, hi = starts[gi] - row0, starts[gi + 1] - row0
                keep[lo:hi] = b"\1" * (hi - lo)
            examined = keep.count(1)
            select = bytes(keep)
        if flt is None:
            return select, examined
        lo, hi = flt.ts_lo, flt.ts_hi
        anchors = None
        if lo is not None or hi is not None:
            anchors = _anchor_columns(self._wall(block, cols), cols[_FLAGS])
        return _and(select, _row_mask(
            flt, cols[_SITE], self._row_cids(block, cols), anchors
        )), examined

    def _wall(self, block: _Block, cols: list):
        bits = cols[_FLAGS]
        return _full_readings(
            cols[_WS], cols[_WD], block.bases[0],
            bits.translate(_BIT[0]), bits.translate(_BIT[1]),
        )

    def _rows(self, block: _Block, cols: list, mask):
        """An iterator over the rows ``mask`` keeps, as tuples of the fields
        the probe logged, in their order."""
        flags = cols[_FLAGS]
        wall = self._wall(block, cols)
        cpu = _full_readings(
            cols[_CS], cols[_CD], block.bases[1],
            flags.translate(_BIT[2]), flags.translate(_BIT[3]),
        )
        ends = cols[_SEM_END]
        sems = map(cols[_SEM_BLOB].__getitem__, map(slice, chain((0,), ends), ends))

        strings = self.strings
        mine = flags if mask is None else bytes(_kept(flags, mask))
        return zip(
            _lookup(self.sites, _kept(cols[_SITE], mask)),
            _kept(self._row_cids(block, cols, strings.__getitem__), mask),
            _kept(cols[_SEQ], mask), _lookup(_EVENTS, _kept(cols[_EVENT], mask)),
            _kept(cols[_TID], mask),
            _lookup(_KIND_OF, mine, _BIT[6]), _lookup(_COLLOCATED_OF, mine, _BIT[7]),
            *(_kept(column, mask) for column in (*wall, *cpu)),
            _optional(flags.translate(_BIT[4]), cols[_CHILD], mask, strings.__getitem__),
            _optional(flags.translate(_BIT[5]), sems, mask, _loads),
        )

    def _units(
        self, flt, stats: ScanStats, lo: bytes | None = None, hi: bytes | None = None
    ) -> tuple:
        """The per-row filter left (``None``: every row passes) and the
        decode units, each ``(block, gis)``: the chain groups of ``block``
        to read, or ``None`` — all its rows, one unit (a spool's or a
        salvaged segment's block, whose chains interleave; ``lo`` / ``hi``
        do not apply). A complete sealed segment's groups are bisected for
        ``lo`` / ``hi`` (inclusive :func:`uuid_key` bounds, a shard's) and,
        under a filter, pruned on the chain index, the ``FXTS`` group
        bounds and the ``FXFN`` zone map, and counted."""
        predicated = flt is not None
        if predicated and flt.is_pass:
            flt = None  # every row matches: nothing to test or prune on
        if not self.sealed or self.partial:
            return flt, [(block, None) for block in self._blocks]
        cids = self.chain_ids
        first, last = 0, len(cids)
        if lo is not None or hi is not None:
            strings = self.strings
            key = lambda cid: uuid_key(strings[cid])  # noqa: E731
            if lo is not None:
                first = bisect_left(cids, lo, key=key)
            if hi is not None:
                last = max(first, bisect_right(cids, hi, key=key))
        survivors = range(first, last)
        frame_flt = None
        if flt is not None:
            # One 0/1 byte per group in [first, last) and test, ANDed.
            keep = []
            if flt.cids is not None:
                keep.append(bytes(map(flt.cids.__contains__, cids[first:last])))
            ts, ts_lo, ts_hi = self.chain_ts, flt.ts_lo, flt.ts_hi
            if ts is not None and (ts_lo is not None or ts_hi is not None):
                lows, highs = ts[2 * first:2 * last:2], ts[2 * first + 1:2 * last:2]
                keep.append(bytes(map(le, lows, highs)))  # inverted: no anchor
                if ts_lo is not None:
                    keep.append(bytes(map(le, repeat(ts_lo), highs)))
                if ts_hi is not None:
                    keep.append(bytes(map(le, lows, repeat(ts_hi))))
            if flt.fn_groups is not None:
                keep.append(bytes(flt.fn_groups[first:last]))
            if keep:
                survivors = list(compress(survivors, _and(*keep)))
            stats.groups_pruned += last - first - len(survivors)
            frame_flt = flt.within_group()
        if predicated:
            stats.groups += last - first
        units = []
        for block in self._blocks:
            i, j = bisect_left(survivors, block.g0), bisect_left(survivors, block.g1)
            if i < j:
                units.append((block, survivors[i:j]))
        return frame_flt, units

    def scan(
        self, flt, stats: ScanStats, lo: bytes | None = None, hi: bytes | None = None
    ):
        """Yield ``(cid, ranks, rows)`` per sealed chain group — ``cid``
        ``None`` per block of a spool or salvaged segment, whose chains
        callers regroup — that holds a match: the one way records leave a
        segment, as rows (tuples). ``flt`` is the segment's
        :class:`~repro.store.query.SegmentFilter` (``None``: none). Ranks
        are positional over *all* rows, so a filtered scan merges as a
        subsequence of the unfiltered order."""
        flt, units = self._units(flt, stats, lo, hi)
        base = self.arrival_base
        starts, cids, ranks = self._starts, self.chain_ids, self.ranks
        try:
            for block, gis in units:
                cols = self._columns(block)
                mask, examined = self._mask(block, cols, gis, flt)
                rows = self._rows(block, cols, mask)
                stats.frames_decoded += examined
                stats.records_matched += examined if mask is None else mask.count(1)
                row0 = block.row0
                if gis is None:
                    positions = range(base + row0, base + row0 + block.rows)
                    rows = list(rows)
                    if rows:
                        yield None, positions if mask is None else list(
                            compress(positions, mask)
                        ), rows
                    continue
                los = [starts[gi] for gi in gis]
                his = [starts[gi + 1] for gi in gis]
                ranked = (
                    map(ranks.__getitem__, map(slice, los, his)) if ranks is not None
                    else map(range, map(add, los, repeat(base)), map(add, his, repeat(base)))
                )
                if mask is None:  # whole groups: each one's list straight off the rows
                    yield from zip(
                        map(cids.__getitem__, gis), ranked,
                        map(list, map(islice, repeat(rows), map(sub, his, los))),
                    )
                    continue
                for gi, group_ranks, lo_row, hi_row in zip(gis, ranked, los, his):
                    keep = mask[lo_row - row0:hi_row - row0]
                    count = keep.count(1)
                    if count:
                        if count < hi_row - lo_row:
                            group_ranks = list(compress(group_ranks, keep))
                        yield cids[gi], group_ranks, list(islice(rows, count))
        except ValueError:
            raise StoreError(f"corrupt semantics in {self.path}: not JSON") from None

    def fold(
        self, flt, stats: ScanStats, anchors: bool = False, threads: bool = False
    ) -> SegmentFold:
        """Fold the rows ``flt`` passes into a :class:`SegmentFold`, no
        row built: the units and kept rows of :meth:`scan`, counted into
        ``stats`` as it counts them, with every check it makes (the blocks'
        ids and lengths, their semantics JSON). It walks each block's
        :class:`_FoldColumns` site span by site span: a count is the
        span's length (or its mask's), the intervals are the span's timed
        durations, already ascending, and a site the filter does not want
        is a span left out of the mask. ``anchors`` asks for the matched
        rows' anchor bounds (the ``FXTS`` footer's when every row passes),
        ``threads`` for their ``(process, thread_id)`` pairs."""
        out = SegmentFold(threads)
        track = anchors and (
            (flt is not None and not flt.is_pass) or self.ts_bounds is None
        )
        if anchors and not track:
            lo, hi = self.ts_bounds
            out.bounds = (lo, hi) if lo <= hi else None
        flt, units = self._units(flt, stats)
        wanted = None if flt is None else flt.sites
        timing = flt is not None and (flt.ts_lo is not None or flt.ts_hi is not None)
        tested = timing or (flt is not None and flt.cids is not None)
        counts: dict[int, int] = {}
        intervals: dict[int, list[int]] = {}
        tids: dict[int, set[int]] = {}
        cids: set[int] = set()
        found: list[int] = []  # the least and greatest anchor kept, per unit
        calls = 0
        starts = self._starts
        for block, gis in units:
            gathered = gis is not None and len(gis) < block.g1 - block.g0
            columns = self._fold_columns(block)
            sids, bounds = columns.sids, columns.bounds
            parts = (  # what this fold reads of the block
                columns.event, columns.cids, columns.durations, columns.timed,
                columns.tid if threads else None,
                *((columns.anchor, columns.has_anchor) if timing or track else (None, None)),
            )
            if gathered:
                # A few groups of the block: just their rows, through the
                # position map, still in (site, duration) order; a step per
                # site they hold, not per site of the block.
                row0 = block.row0
                at = sorted(chain.from_iterable(map(columns.positions.__getitem__, map(
                    slice, [starts[gi] - row0 for gi in gis],
                    [starts[gi + 1] - row0 for gi in gis],
                ))))
                spans, lo = [], 0
                while lo < len(at):
                    k = bisect_right(bounds, at[lo]) - 1
                    hi = bisect_left(at, bounds[k + 1], lo)
                    spans.append((sids[k], lo, hi))
                    lo = hi
                take = _taker(at)
                parts = [None if part is None else take(part) for part in parts]
            else:
                spans = list(zip(sids, bounds, islice(bounds, 1, None)))
            event, cid, durations, timed, tid, anchor, has_anchor = parts
            stats.frames_decoded += len(durations)
            mask = _row_mask(
                flt, None, cid, (anchor, has_anchor) if timing else None
            ) if tested else None
            if wanted is not None:
                kept = [span for span in spans if span[0] in wanted]
                if len(kept) < len(spans):
                    keep = bytearray(len(durations))
                    for _sid, lo, hi in kept:
                        keep[lo:hi] = b"\1" * (hi - lo)
                    mask, spans = _and(bytes(keep), mask), kept
            both = _and(timed, mask)
            for sid, lo, hi in spans:
                count = hi - lo if mask is None else mask.count(1, lo, hi)
                if count:
                    counts[sid] = counts.get(sid, 0) + count
                    intervals.setdefault(sid, []).extend(
                        compress(durations[lo:hi], both[lo:hi])
                    )
                    if threads:
                        tids.setdefault(sid, set()).update(
                            _kept(tid[lo:hi], None if mask is None else mask[lo:hi])
                        )
            calls += bytes(_kept(event, mask)).count(1)
            cids.update(
                _kept(cid, mask) if mask is not None
                else columns.chains if gis is None
                else map(self.chain_ids.__getitem__, gis) if gathered
                else self.chain_ids[block.g0:block.g1]
            )
            if track:
                found += _extremes(anchor, _and(has_anchor, mask))
        stats.records_matched += sum(counts.values())
        sites, strings = self.sites, self.strings
        for sid in sorted(counts):
            out.add_site(sites[sid], counts[sid], intervals[sid])
        out.calls = calls
        out.chains.update([strings[cid] for cid in cids])
        if threads:
            out.threads.update([
                (sites[sid].process, thread) for sid, group in tids.items() for thread in group
            ])
        if found:
            out.bounds = (min(found), max(found))
        return out

    def _fold_columns(self, block: _Block) -> _FoldColumns:
        """What a fold reads of ``block``, built on the first fold and kept."""
        if block.fold is None:
            cols = self._columns(block)
            flags = cols[_FLAGS]
            ends = cols[_SEM_END]
            sems = map(cols[_SEM_BLOB].__getitem__, map(slice, chain((0,), ends), ends))
            try:
                deque(map(_loads, sems), 0)
            except ValueError:
                raise StoreError(f"corrupt semantics in {self.path}: not JSON") from None
            timed = flags.translate(_WALL_BOTH)
            durations = list(_fill(timed, compress(
                cols[_WD], compress(timed, flags.translate(_BIT[1]))
            ), 0))
            site = cols[_SITE]
            # Rows in (site, wall duration) order: two stable C-level sorts.
            order = sorted(range(block.rows), key=durations.__getitem__)
            order.sort(key=site.__getitem__)
            sids = sorted(set(site))
            anchor, has_anchor = _anchor_columns(self._wall(block, cols), flags)
            take = _taker(order)
            block.fold = _FoldColumns(
                array("I", sids),
                array("I", [bisect_left(order, sid, key=site.__getitem__) for sid in sids]
                      + [block.rows]),
                array("H" if block.rows <= 0x10000 else "I",
                      sorted(range(block.rows), key=order.__getitem__)),
                bytes(take(cols[_EVENT])),
                array(getattr(cols[_TID], "typecode", "B"), take(cols[_TID])),
                array("I", take(list(self._row_cids(block, cols)))),
                array("q", take(durations)), bytes(take(timed)),
                array("q", take(anchor)), bytes(take(has_anchor)),
                None if self.sealed and not self.partial else array("I", set(cols[_RUN_CID])),
            )
        return block.fold

    def load_ranked(self, out: list) -> None:
        """Append every ``(arrival_rank, row)`` pair to ``out``."""
        for _cid, ranks, rows in self.scan(None, ScanStats()):
            out.extend(zip(ranks, rows))

    def decode_group(self, gi: int) -> list[tuple]:
        """Decode one sealed chain group's rows, from its block alone."""
        block = self._blocks[bisect_right([b.g0 for b in self._blocks], gi) - 1]
        cols = self._columns(block)
        mask, _examined = self._mask(block, cols, [gi], None)
        try:
            return list(self._rows(block, cols, mask))
        except ValueError:
            raise StoreError(f"corrupt semantics in {self.path}: not JSON") from None

    def groups_holding(self, fns) -> bytearray:
        """One flag per chain group: may it hold a function whose table
        index is in ``fns``? (A group past the overflow marker always
        may.) Costs a C-level search per wanted function plus one step
        per group found — not a pass over the groups."""
        keep = bytearray(self._fn_unknown)
        find, offsets = self._fn_index.index, self._fn_offsets
        for fn in fns:
            pos = -1
            try:
                while True:
                    pos = find(fn, pos + 1)
                    keep[bisect_right(offsets, pos) - 1] = 1
            except ValueError:
                pass
        return keep


def _taker(indices):
    """A function that gathers ``column[i]`` for each of ``indices``, as a tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda column: tuple(map(column.__getitem__, indices))


def _extremes(values, has: bytes) -> tuple:
    """The least and the greatest of ``values`` where ``has`` is 1 (none: ``()``)."""
    found = list(compress(values, has))
    return (min(found), max(found)) if found else ()


def _anchor_columns(wall, flags: bytes) -> tuple:
    """Each row's anchor (``wall_start``, else ``wall_end``; 0 where it
    has neither) and a 0/1 byte per row: has it one? ``flags`` is the
    block's flags column, whose presence bits ``_columns`` checked against
    the wall columns: only the rows it marks start-less take a Python step."""
    starts, ends = wall
    anchors = list(starts)
    no_start = flags.translate(_NO_WALL_START)
    if 1 in no_start:
        ends = list(ends)
        for row in compress(range(len(anchors)), no_start):
            end = ends[row]
            anchors[row] = 0 if end is None else end
    return anchors, flags.translate(_WALL_ANY)


def _row_mask(flt, site, cids, anchors) -> bytes | None:
    """``flt``'s per-row tests over a block's parallel columns — site ids,
    chain ids and (with a time range) :func:`_anchor_columns` — as one 0/1
    byte per row (``None``: no test)."""
    lo, hi = flt.ts_lo, flt.ts_hi
    masks = [
        None if flt.cids is None else bytes(map(flt.cids.__contains__, cids)),
        None if flt.sites is None or site is None
        else bytes(map(flt.sites.__contains__, site)),
    ]
    if anchors is not None:
        values, has = anchors
        masks.append(bytes(has))
        if lo is not None:
            masks.append(bytes(map(le, repeat(lo), values)))
        if hi is not None:
            masks.append(bytes(map(le, values, repeat(hi))))
    return _and(*masks)


def bounds_overlap(
    bounds: tuple[int, int] | None, lo: int | None, hi: int | None
) -> bool:
    """Can any anchor inside ``bounds`` fall within ``[lo, hi]``?

    ``bounds`` is a footer (min, max) pair over anchor timestamps;
    ``None`` means unknown (salvaged segment — never prune), and an
    inverted pair (min > max) means *no row carries an anchor* — nothing
    can match a time-range predicate, so prune.
    """
    if bounds is None:
        return True
    bmin, bmax = bounds
    if bmin > bmax:
        return False
    if lo is not None and bmax < lo:
        return False
    if hi is not None and bmin > hi:
        return False
    return True


def segment_info(reader: SegmentReader) -> dict:
    """Summary dict for ``store-info`` output.

    ``salvaged`` marks segments decoded without a (valid) footer; their
    chain index is rebuilt from the blocks, so ``index`` reports
    ``"salvaged"`` coverage and timestamp bounds are unknown — predicate
    pushdown can never prune them, only filter rows.
    """
    bounds = reader.ts_bounds
    has_bounds = bounds is not None and bounds[0] <= bounds[1]
    return {
        "path": os.path.basename(reader.path),
        "kind": "sealed" if reader.sealed else "spool",
        "schema_version": reader.schema_version,
        "records": reader.record_count,
        "chains": len(reader.chain_ids),
        "bytes": reader.size_bytes,
        "dictionary_strings": len(reader.strings),
        "sites": len(reader.sites),
        "partial": reader.partial,
        "salvaged": reader.partial,
        "dropped_bytes": reader.dropped_bytes,
        "ts_min": bounds[0] if has_bounds else None,
        "ts_max": bounds[1] if has_bounds else None,
        "index": {
            "coverage": "salvaged" if reader.partial else "footer",
            "chains": len(reader.chain_ids),
            "group_ts_bounds": reader.chain_ts is not None,
            "group_functions": reader.fn_table is not None,
            "functions": len(reader.fn_table or ()) // 2,
        },
    }
