"""Append-only segment files: the on-disk unit of the segment store.

Layout (little-endian throughout; record schema v2)::

    header   "RSG1" | u8 format | u8 kind | u16 schema_version | u64 arrival_base
    block*   u8 tag | u32 payload_len | payload
      tag 1  dict-delta: u32 first_id | u32 count | (u16 len | utf8)*
      tag 2  records:    u32 count | frame*          (see repro.store.codec)
      tag 3  site-delta: u32 first_id | u32 count | site row*
    footer   u64 record_count | u8 has_ranks  (0 none, 1 u64 ranks, 2 u32 ranks)
             u32 n_strings | (u16 len | utf8)*
             u32 n_sites   | site row*    (8 x u32 string id | i64 pid | u8 domain)
             u32 n_chains  | (u32 cid | u32 count | u64 start_off
                              | rank * count if has_ranks)*
             ext?  "FXTS" | u8 flags | i64 ts_min | i64 ts_max
                   | (i64 gmin | i64 gmax) * n_chains
             ext?  "FXFN" | u32 n_functions | (u32 ifc_id | u32 op_id) * n_functions
                   | u8 fcount * n_chains | u16 function_index * sum(fcount != 255)
    trailer  u64 footer_off | "RSEGEND1"

A frame names its chain and its *site* by id: the site table holds one
row per distinct :class:`~repro.core.records.Site` — the ten record fields
constant per *(process, operation)*. Like the string dictionary it grows
through delta blocks written ahead of the first frame that uses an entry
and is authoritative in the footer.

The optional ``FXTS`` footer extension carries min/max *anchor*
timestamps (``wall_start``, else ``wall_end``) for the whole segment and
per chain group — the metadata predicate pushdown prunes on. An
inverted pair (min > max) means "no frame here carries an anchor", which
a time-range predicate may also prune. Readers that predate the
extension simply stop after the chain index.

The optional ``FXFN`` extension (sealed segments only, after ``FXTS``)
is the *function zone map*: a table of every ``(interface id, operation
id)`` pair the frames' sites carry and, per chain group, how many distinct
functions it holds, then all groups' indexes into that table — what an
interface/operation predicate prunes groups on. A count of 255 is the
overflow marker (over 254 functions, or an index past ``u16``):
"unknown, never prune"; the table stays complete even then, so a
predicate that no pair of it matches prunes the whole segment.

Two segment kinds share the format:

- *spool* segments are what a non-transactional insert appends: records
  in arrival order, chains interleaved, delta blocks always written
  before the frames that reference them so a truncated file decodes
  front-to-back.
- *sealed* segments are what a collection commit and compaction write:
  frames grouped by chain (uuid byte order), so any chain-aligned byte
  range decodes independently — this is what lets analyzer shards read
  disjoint file ranges. The footer carries each group's start offset and
  the records' original arrival ranks.

Both decode from any block or group start by one anchor rule (see
:mod:`repro.store.codec`): a wide frame stores its start readings
absolute, a narrow one relative to the last frame that carried the
reading, and the writer forgets its predecessors at every records block
and chain group.

A segment missing its trailer (a crash mid-drain) is *partial*: the
reader salvages every complete frame front-to-back, rebuilds the string
dictionary and the site table from the inline delta blocks, and reports
the bytes it had to drop — loss accounting survives partial segments
instead of the whole file vanishing.

A header naming any record schema but v2 (v1 included) is refused with a
:class:`~repro.errors.StoreError`.
"""

from __future__ import annotations

import logging
import mmap
import os
import struct
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from json import dumps as _dumps, loads as _loads

from repro.core.records import SCHEMA_VERSION, Site, as_rows
from repro.errors import StoreError
from repro.store.codec import (
    DOMAIN_BY_NUM,
    DOMAIN_NUM,
    EVENT_BY_NUM,
    FRAME_NARROW,
    FRAME_WIDE,
    MISC_OFF as _MISC_OFF,
    ONEWAY,
    SITE_ROW,
    SYNC,
)

logger = logging.getLogger(__name__)

MAGIC = b"RSG1"
TRAILER_MAGIC = b"RSEGEND1"
FORMAT_VERSION = 1

KIND_SPOOL = 0
KIND_SEALED = 1

_HEADER = struct.Struct("<4sBBHQ")
_BLOCK = struct.Struct("<BI")
_TRAILER = struct.Struct("<Q8s")
_U32 = struct.Struct("<I")

_TAG_DICT = 1
_TAG_RECORDS = 2
_TAG_SITES = 3

_FXTS_MAGIC = b"FXTS"
_FXTS_SEGMENT = 1  # flags bit: segment-level bounds present
_FXTS_GROUPS = 2  # flags bit: one (gmin, gmax) pair per chain entry
#: Inverted bounds pair: "no anchored frames" (prunable under any
#: time-range predicate, unlike unknown bounds which never prune).
_TS_EMPTY = (1, 0)

_FXFN_MAGIC = b"FXFN"
#: Per-group function count meaning "unknown set, never prune".
_FN_OVERFLOW = 255
#: Count byte -> indexes stored (none at overflow) / -> is-overflow flag.
_FN_STORED = bytes(range(_FN_OVERFLOW)) + b"\0"
_FN_UNKNOWN = bytes(_FN_OVERFLOW) + b"\1"
_U32_MAX = (1 << 32) - 1

_FN_SIZE, _FW_SIZE = FRAME_NARROW.size, FRAME_WIDE.size

#: Flush the records block once it holds this many payload bytes.
_FLUSH_BYTES = 4 << 20

#: What the aggregate walk reads of a frame, per width: chain id, event,
#: presence, site id, thread id, child id, semantics length, the
#: ``wall_start`` and ``wall_end`` words — padded to the whole frame, so a
#: frame cut short fails here as it fails a decode.
_FOLD_NARROW = struct.Struct("<IBxBIqII4xii8x")
_FOLD_WIDE = struct.Struct("<IBxBIqII8xqq16x")
if (_FOLD_NARROW.size, _FOLD_WIDE.size) != (_FN_SIZE, _FW_SIZE):
    raise AssertionError("the aggregate walk's frame structs are out of sync")
#: What salvage checks of a frame: chain id, presence, site id, child id,
#: semantics length.
_SALVAGE_PROBE = struct.Struct("<I2xBI8xII")


def uuid_key(uuid: str) -> bytes:
    """The order sealed chain groups are stored in, and the stores' chain
    order: UTF-8 byte order, matching SQLite's BINARY collation."""
    return uuid.encode("utf-8", "surrogatepass")


@dataclass
class ScanStats:
    """Where a scan spent (and saved) its work.

    ``frames_decoded`` counts frames the decode loop actually walked —
    the honest pushdown figure: a predicated scan must never decode more
    frames than the unpredicated scan of the same data. ``groups`` counts
    the sealed chain groups a predicated scan examined (those inside its
    shard bounds), ``groups_pruned`` the ones of them it skipped unread.
    """

    segments: int = 0
    segments_pruned: int = 0
    groups: int = 0
    groups_pruned: int = 0
    frames_decoded: int = 0
    records_matched: int = 0

    def to_dict(self) -> dict:
        return {
            "segments": self.segments,
            "segments_pruned": self.segments_pruned,
            "groups": self.groups,
            "groups_pruned": self.groups_pruned,
            "frames_decoded": self.frames_decoded,
            "records_matched": self.records_matched,
        }


def record_anchor(wall_start: int | None, wall_end: int | None) -> int | None:
    """The timestamp a time-range predicate tests a record against.

    ``wall_start`` when the probe captured it, else ``wall_end``; records
    with neither never match a time-range predicate. Both backends and
    the segment footer bounds use this one definition (the frame loops
    of :class:`SegmentReader` spell it inline).
    """
    return wall_start if wall_start is not None else wall_end


class SegmentFold:
    """One segment's frames that a filter passed, folded: what per-operation
    latency and the population statistics are made of.

    ``sites`` maps each :class:`Site` matched to ``[frames, intervals]`` —
    how many frames it has, and ``wall_end - wall_start`` of each of them
    that carries both readings. ``calls`` counts the STUB_START frames and
    ``chains`` holds the uuids of the chains matched. ``threads`` (``None``
    unless asked for) holds the ``(process, thread_id)`` pairs, and
    ``bounds`` the (min, max) anchor timestamp over the matched frames
    (``None`` unless asked for, or when no frame carries an anchor).
    """

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


class SegmentWriter:
    """Streams probe rows into one segment file.

    The per-record encode loop is the collector's ingest fast path: it
    is deliberately flat — one unpack of the row (fields in the record's
    slot order, :mod:`repro.core.records`), one chain lookup and one site
    lookup per record, one fused ``struct.Struct`` pack per frame, delta
    state in locals.
    """

    def __init__(self, path: str, kind: int = KIND_SPOOL, arrival_base: int = 0):
        self.path = path
        self.kind = kind
        self.arrival_base = arrival_base
        self._file = open(path, "wb")
        self._file.write(
            _HEADER.pack(MAGIC, FORMAT_VERSION, kind, SCHEMA_VERSION, arrival_base)
        )
        self._file_pos = _HEADER.size
        self._ids: dict[str, int] = {}
        self._strings: list[str] = []
        self._pending_first_id = 0
        self._pending: list[str] = []
        # The site table: site -> row id, the packed rows (those from
        # ``_sites_flushed`` on not yet in a site-delta block), and per row
        # its function key (ifc id << 32 | op id) for the zone map.
        self._site_ids: dict[Site, int] = {}
        self._site_rows: list[bytes] = []
        self._sites_flushed = 0
        self._site_fn: list[int] = []
        self._rbuf = bytearray()
        self._rcount = 0
        self.record_count = 0
        # cid -> [count, start_off, ts_min, ts_max]; insertion order ==
        # group order for sealed segments (one chain per group).
        # ts_min/ts_max bound the chain's anchor timestamps (None until
        # an anchored record lands) and feed the footer FXTS extension.
        self._index: dict[int, list] = {}
        #: arrival ranks, frame by frame (sealed; empty: none recorded).
        self._ranks: list[int] = []
        # The last start readings written, for the next narrow frame to
        # count from; None: the next frame carrying the reading is wide.
        self._prev_ws: int | None = None
        self._prev_cs: int | None = None
        self._sealed_kind = kind == KIND_SEALED
        # Function zone map (sealed only), flat — no per-group object
        # survives: the open group's function keys, key -> table index,
        # and per closed group a count byte + its indexes.
        self._fn_open: set[int] = set()
        self._fn_ids: dict[int, int] = {}
        self._fn_counts = bytearray()
        self._fn_index = array("H")

    # ------------------------------------------------------------------

    def start_group(self) -> None:
        """Mark a chain-group boundary (sealed segments only).

        Forgets the previous start readings so the group decodes from its
        own start offset, and keeps a group's frames inside one records
        block so they are byte-contiguous in the file.
        """
        self._prev_ws = None
        self._prev_cs = None
        if len(self._rbuf) >= _FLUSH_BYTES:
            self._flush_records()
        if not self._rbuf:
            self._flush_tables()

    def append(self, records, ranks: list[int] | None = None) -> int:
        """Encode and buffer ``records``; returns how many were written.

        ``records`` are rows or probe records (a record becomes a row
        once, as it enters). ``ranks`` (sealed segments only) are the
        records' original arrival ranks, one to one, for the footer — for
        all of a segment's records or none.
        """
        return self._encode(as_rows(records), ranks, False)

    def append_groups(self, rows: list[list], ranks: list[int]) -> int:
        """Write whole chain groups (sealed segments only): ``rows``
        holds each chain's probe rows side by side, and every change of
        chain starts a group — what ``start_group()`` + ``append`` per
        chain write, the per-call cost paid once."""
        return self._encode(rows, ranks, True)

    def _encode(self, rows: list[list], ranks, grouped: bool) -> int:
        """The one per-record encode loop, over probe rows."""
        ids_get = self._ids.get
        intern = self._intern
        site_ids_get = self._site_ids.get
        intern_site = self._intern_site
        site_fn = self._site_fn
        index = self._index
        index_get = index.get
        rbuf = self._rbuf
        fn_pack = FRAME_NARROW.pack
        fw_pack = FRAME_WIDE.pack
        dumps = _dumps
        sealed = self._sealed_kind
        fn_open = self._fn_open
        file_pos = self._file_pos
        prev_ws = self._prev_ws
        prev_cs = self._prev_cs
        count = 0  # frames written by this call
        flushed = 0  # ...of them, in records blocks already on file
        last_uuid = None

        for (site, uuid, seq, event, tid, kind, collocated,
             ws, we, cs, ce, child, sem) in rows:
            # Ids are interned in first-use order — chain, the site's
            # strings, child — so equal records make equal files.
            if uuid != last_uuid:
                last_uuid = uuid
                if grouped:
                    prev_ws = prev_cs = None
                    if not rbuf or len(rbuf) >= _FLUSH_BYTES:
                        # The only states start_group() does more in than
                        # forget the previous group's readings.
                        self._rcount += count - flushed
                        flushed = count
                        self.start_group()
                        file_pos = self._file_pos
                cid = ids_get(uuid)
                if cid is None:
                    cid = intern(uuid)
                entry = index_get(cid)
                if entry is None:
                    # First frame of this chain; for sealed segments this is
                    # the group start (one chain per group), and the +9
                    # accounts for the pending records-block header and its
                    # frame count word.
                    if sealed and index:
                        self._close_group()
                    entry = index[cid] = [
                        0, file_pos + 9 + len(rbuf) if sealed else 0, None, None,
                    ]
            sid = site_ids_get(site)
            if sid is None:
                sid = intern_site(site)

            pres = 0
            wsd = wed = csd = ced = 0
            narrow = True
            if ws is not None:
                pres = 1
                if prev_ws is None:
                    narrow = False
                else:
                    wsd = ws - prev_ws
                prev_ws = ws
                if we is not None:
                    pres = 3
                    wed = we - ws
            elif we is not None:
                pres = 2
                wed = we
            if cs is not None:
                pres |= 4
                if prev_cs is None:
                    narrow = False
                else:
                    csd = cs - prev_cs
                prev_cs = cs
                if ce is not None:
                    pres |= 8
                    ced = ce - cs
            elif ce is not None:
                pres |= 8
                ced = ce

            if child is None:
                childid = 0
            else:
                pres |= 16
                childid = intern(child)

            if sem is None:
                semb = b""
                semlen = 0
            else:
                pres |= 32
                semb = dumps(sem).encode()
                semlen = len(semb)

            misc = 0
            if kind is ONEWAY:
                misc = 1
            if collocated:
                misc |= 2

            # Narrow unless a reading has no predecessor here, or one of
            # the five words overflows i32 (the narrow pack refuses it).
            frame = None
            if narrow:
                try:
                    frame = fn_pack(
                        cid, event, misc, pres, sid, tid, childid,
                        semlen, seq, wsd, wed, csd, ced,
                    )
                except struct.error:
                    pass
            if frame is None:
                frame = fw_pack(
                    cid, event, misc | 16, pres, sid, tid, childid,
                    semlen, seq, ws or 0, wed, cs or 0, ced,
                )

            entry[0] += 1
            anchor = ws if ws is not None else we
            if anchor is not None:
                if entry[2] is None:
                    entry[2] = entry[3] = anchor
                elif anchor < entry[2]:
                    entry[2] = anchor
                elif anchor > entry[3]:
                    entry[3] = anchor
            if sealed:
                fn_open.add(site_fn[sid])
            rbuf += frame
            if semb:
                rbuf += semb
            count += 1

        self._rcount += count - flushed
        self.record_count += count
        if ranks is not None:
            if len(ranks) != count:
                raise StoreError("ranks must align one-to-one with records")
            self._ranks += ranks
        self._prev_ws = prev_ws
        self._prev_cs = prev_cs
        if not sealed and len(rbuf) >= _FLUSH_BYTES:
            self._flush_tables()
            self._flush_records()
        return count

    def _intern(self, text: str) -> int:
        out = self._ids.get(text)
        if out is None:
            out = self._ids[text] = len(self._strings)
            self._strings.append(text)
            self._pending.append(text)
        return out

    def _intern_site(self, site: Site) -> int:
        """``site``'s row in this segment's site table; equal sites share one."""
        out = self._site_ids.get(site)
        if out is None:
            intern = self._intern
            ifc, op = intern(site.interface), intern(site.operation)
            row = SITE_ROW.pack(
                ifc, op, intern(site.object_id), intern(site.component),
                intern(site.process), intern(site.host),
                intern(site.processor_type), intern(site.platform),
                site.pid, DOMAIN_NUM[site.domain],
            )
            out = self._site_ids[site] = len(self._site_rows)
            self._site_rows.append(row)
            self._site_fn.append(ifc << 32 | op)
        return out

    # ------------------------------------------------------------------

    def _close_group(self) -> None:
        """Fold the finished chain group's function set into the flat
        zone-map buffers (a sealed chain's frames are contiguous, so the
        open set is always the last index entry's)."""
        fn_ids, fn_open = self._fn_ids, self._fn_open
        if len(fn_open) == 1:  # nearly every group: spare it the sort
            fns = [fn_ids.setdefault(fn_open.pop(), len(fn_ids))]
        else:
            fns = [fn_ids.setdefault(key, len(fn_ids)) for key in sorted(fn_open)]
            fn_open.clear()
        if len(fns) >= _FN_OVERFLOW or max(fns) > 0xFFFF:
            self._fn_counts.append(_FN_OVERFLOW)
        else:
            self._fn_counts.append(len(fns))
            self._fn_index.extend(fns)

    def _flush_tables(self) -> None:
        """Write the pending dict-delta block, then the pending site rows
        (which name strings up to and including that block's)."""
        if self._pending:
            self._write_block(
                _TAG_DICT,
                struct.pack("<II", self._pending_first_id, len(self._pending))
                + _pack_strings(self._pending),
            )
            self._pending_first_id += len(self._pending)
            self._pending.clear()
        rows = self._site_rows[self._sites_flushed:]
        if rows:
            self._write_block(
                _TAG_SITES,
                struct.pack("<II", self._sites_flushed, len(rows)) + b"".join(rows),
            )
            self._sites_flushed += len(rows)

    def _write_block(self, tag: int, payload) -> None:
        self._file.write(_BLOCK.pack(tag, len(payload)))
        self._file.write(payload)
        self._file_pos += _BLOCK.size + len(payload)

    def _flush_records(self) -> None:
        if not self._rcount:
            return
        payload_len = 4 + len(self._rbuf)
        self._file.write(_BLOCK.pack(_TAG_RECORDS, payload_len))
        self._file.write(struct.pack("<I", self._rcount))
        self._file.write(self._rbuf)
        self._file_pos += _BLOCK.size + payload_len
        self._rbuf.clear()
        self._rcount = 0
        # A reader may start decoding at any records block: the first
        # frame of the next block to carry a reading carries it absolute.
        self._prev_ws = None
        self._prev_cs = None

    def seal(self) -> None:
        """Write the footer + trailer and close the file."""
        if self._sealed_kind:
            # Offsets were computed against the current block layout, so
            # frames flush first; the footer tables are authoritative.
            self._flush_records()
            self._flush_tables()
        else:
            self._flush_tables()
            self._flush_records()
        footer_off = self._file_pos
        ranks = self._ranks
        if ranks and len(ranks) != self.record_count:
            raise StoreError("segment footer ranks out of sync")
        # u32 whenever every rank fits (2), else u64 (1); 0: none recorded.
        has_ranks = (1 if max(ranks) > _U32_MAX else 2) if ranks else 0
        rank_code, width = ("Q", 8) if has_ranks == 1 else ("I", 4)
        # Packed once (empty without ranks); each chain entry takes its slice.
        packed = struct.pack(f"<{len(ranks)}{rank_code}", *ranks)
        out = bytearray(struct.pack("<QB", self.record_count, has_ranks))
        out += struct.pack("<I", len(self._strings)) + _pack_strings(self._strings)
        out += struct.pack("<I", len(self._site_rows))
        out += b"".join(self._site_rows)
        out += struct.pack("<I", len(self._index))
        done = 0
        bounds: list[int] = []
        for cid, (count, start_off, tmin, tmax) in self._index.items():
            out += struct.pack("<IIQ", cid, count, start_off)
            out += packed[done:done + width * count]
            done += width * count
            bounds += _TS_EMPTY if tmin is None else (tmin, tmax)
        # Timestamp-bounds extension: segment-level + per-group anchor
        # (wall_start, else wall_end) min/max — what predicate pushdown
        # prunes on without decoding a single frame.
        anchored = [e for e in self._index.values() if e[2] is not None]
        seg_min, seg_max = (
            (min(e[2] for e in anchored), max(e[3] for e in anchored))
            if anchored else _TS_EMPTY
        )
        out += _FXTS_MAGIC
        out += struct.pack("<Bqq", _FXTS_SEGMENT | _FXTS_GROUPS, seg_min, seg_max)
        out += struct.pack(f"<{len(bounds)}q", *bounds)
        if self._sealed_kind:
            if self._index:
                self._close_group()
            fn_ids = self._fn_ids
            out += _FXFN_MAGIC
            out += struct.pack("<I", len(fn_ids))
            out += struct.pack(
                f"<{2 * len(fn_ids)}I",
                *(part for key in fn_ids for part in (key >> 32, key & _U32_MAX)),
            )
            out += self._fn_counts
            out += struct.pack(f"<{len(self._fn_index)}H", *self._fn_index)
        self._file.write(out)
        self._file.write(_TRAILER.pack(footer_off, TRAILER_MAGIC))
        self._file.flush()
        self._file.close()

    def abort(self) -> None:
        """Close and delete the (unsealed) file."""
        self._file.close()
        try:
            os.unlink(self.path)
        except OSError as exc:
            logger.warning("could not remove aborted segment %s: %s", self.path, exc)


class SegmentReader:
    """mmap-backed zero-copy reads of one (possibly partial) segment."""

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
        if fmt != FORMAT_VERSION:
            raise StoreError(f"unsupported segment format {fmt}: {path}")
        if schema_version != SCHEMA_VERSION:
            raise StoreError(
                f"segment {path} uses record schema v{schema_version}, "
                f"this build reads v{SCHEMA_VERSION} only"
            )
        self.kind = kind
        self.sealed = kind == KIND_SEALED
        self.schema_version = schema_version
        self.arrival_base = arrival_base
        self.partial = False
        self.dropped_bytes = 0
        self.strings: list[str] = []
        #: one :class:`Site` per site-table row.
        self.sites: list[Site] = []
        #: list of (cid, count, start_off, ranks) in group order; ranks are
        #: a sealed group's arrival ranks, ``None`` in spools and salvage.
        self.chains: list[tuple[int, int, int, list | range | None]] = []
        #: anchor-timestamp (min, max) over the whole segment; ``None``
        #: = unknown (salvaged / pre-extension file — never prune),
        #: inverted = no anchored frames (prunable).
        self.ts_bounds: tuple[int, int] | None = None
        #: per-chain-group (min, max) pairs aligned with ``chains``.
        self.chain_ts: list[tuple[int, int]] | None = None
        #: function zone map (``FXFN``), flat: the table as ``[ifc id, op
        #: id, ...]`` (``None`` = the file has no map), a never-prune flag
        #: per chain group, every group's table indexes back to back, and
        #: where each group's indexes start.
        self.fn_table: array | None = None
        self._fn_unknown, self._fn_index, self._fn_offsets = b"", array("H"), array("I")
        self.record_count = 0
        #: frame byte ranges of the records blocks, in file order (a
        #: block's frame count word sits in the four bytes before its range).
        self._regions: list[tuple[int, int]] = []
        if not self._load_with_footer():
            self._salvage()

    def close(self) -> None:
        self._mm.close()

    # ------------------------------------------------------------------
    # Loading

    def _load_with_footer(self) -> bool:
        mm = self._mm
        if self.size_bytes < _HEADER.size + _TRAILER.size:
            return False
        footer_off, magic = _TRAILER.unpack_from(mm, self.size_bytes - _TRAILER.size)
        if magic != TRAILER_MAGIC or not _HEADER.size <= footer_off <= self.size_bytes:
            return False
        try:
            return self._parse_footer(footer_off)
        except (
            struct.error, ValueError, IndexError, MemoryError, OverflowError, StoreError
        ):
            # A valid trailer over a corrupt footer body (bad counts,
            # lengths past the mmap, ids past a table, unknown block
            # tags): salvage the record blocks instead of losing the
            # whole segment.
            return False

    def _read_strings(self, pos: int, count: int) -> tuple[list[str], int]:
        """``count`` length-prefixed strings at ``pos``, and where they end."""
        mm = self._mm
        strings = []
        for _ in range(count):
            (slen,) = struct.unpack_from("<H", mm, pos)
            pos += 2
            strings.append(mm[pos:pos + slen].decode("utf-8", "surrogatepass"))
            pos += slen
        return strings, pos

    def _read_sites(self, pos: int, count: int, strings: list[str]) -> list[Site]:
        """The sites of ``count`` packed rows at ``pos``."""
        raw = self._mm[pos:pos + count * SITE_ROW.size]
        if len(raw) != count * SITE_ROW.size:
            raise StoreError(f"site rows cut short in {self.path}")
        return [
            Site(
                strings[ifc], strings[op], strings[obj], strings[comp], strings[proc],
                pid, strings[host], strings[ptype], strings[plat], DOMAIN_BY_NUM[dom],
            )
            for ifc, op, obj, comp, proc, host, ptype, plat, pid, dom
            in SITE_ROW.iter_unpack(raw)
        ]

    def _parse_footer(self, footer_off: int) -> bool:
        mm = self._mm
        # Footer: counts, dictionary, site table, chain index.
        pos = footer_off
        self.record_count, has_ranks = struct.unpack_from("<QB", mm, pos)
        pos += 9
        (n_strings,) = _U32.unpack_from(mm, pos)
        strings, pos = self._read_strings(pos + 4, n_strings)
        self.strings = strings
        (n_sites,) = _U32.unpack_from(mm, pos)
        self.sites = self._read_sites(pos + 4, n_sites, strings)
        pos += 4 + n_sites * SITE_ROW.size
        (n_chains,) = _U32.unpack_from(mm, pos)
        pos += 4
        chains = []
        if has_ranks > 2:
            raise StoreError(f"unknown rank width code {has_ranks} in {self.path}")
        rank_code, rank_size = ("Q", 8) if has_ranks == 1 else ("I", 4)
        next_rank = self.arrival_base
        for _ in range(n_chains):
            cid, count, start_off = struct.unpack_from("<IIQ", mm, pos)
            pos += 16
            ranks = None
            if has_ranks:
                ranks = list(struct.unpack_from(f"<{count}{rank_code}", mm, pos))
                pos += rank_size * count
            elif self.sealed:
                # No recorded arrival order (sealed segment written
                # directly, not by compaction): file order stands in.
                ranks = range(next_rank, next_rank + count)
            next_rank += count
            chains.append((cid, count, start_off, ranks))
        self.chains = chains
        # Optional timestamp-bounds extension (absent in files written
        # before predicate pushdown landed; scans then never prune).
        footer_end = self.size_bytes - _TRAILER.size
        if pos + 4 <= footer_end and mm[pos:pos + 4] == _FXTS_MAGIC:
            (flags, seg_min, seg_max) = struct.unpack_from("<Bqq", mm, pos + 4)
            pos += 4 + 17
            if flags & _FXTS_SEGMENT:
                self.ts_bounds = (seg_min, seg_max)
            if flags & _FXTS_GROUPS:
                pairs = struct.unpack_from(f"<{2 * n_chains}q", mm, pos)
                pos += 16 * n_chains
                self.chain_ts = [
                    (pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)
                ]
        if pos + 4 <= footer_end and mm[pos:pos + 4] == _FXFN_MAGIC:
            (n_functions,) = _U32.unpack_from(mm, pos + 4)
            pos += 8
            table = array("I", struct.unpack_from(f"<{2 * n_functions}I", mm, pos))
            pos += 8 * n_functions
            counts = mm[pos:pos + n_chains]
            pos += n_chains
            offsets = array("I", accumulate(counts.translate(_FN_STORED), initial=0))
            index = array("H", struct.unpack_from(f"<{offsets[-1]}H", mm, pos))
            pos += 2 * offsets[-1]
            if (
                pos > footer_end
                or len(counts) != n_chains
                or 0 in counts  # a group holds a frame, so a function
                or (table and max(table) >= n_strings)
                or (index and max(index) >= n_functions)
            ):
                raise StoreError(f"corrupt function zone map in {self.path}")
            self.fn_table, self._fn_unknown = table, counts.translate(_FN_UNKNOWN)
            self._fn_index, self._fn_offsets = index, offsets
        # Hop the block headers to map the frame regions.
        pos = _HEADER.size
        regions = []
        frames = 0
        while pos < footer_off:
            tag, plen = _BLOCK.unpack_from(mm, pos)
            if tag == _TAG_RECORDS:
                regions.append((pos + _BLOCK.size + 4, pos + _BLOCK.size + plen))
                frames += _U32.unpack_from(mm, pos + _BLOCK.size)[0]
            elif tag != _TAG_DICT and tag != _TAG_SITES:
                raise StoreError(f"unknown block tag {tag} in {self.path}")
            pos += _BLOCK.size + plen
        if (
            frames != self.record_count
            or sum(entry[1] for entry in chains) != frames
            or any(entry[0] >= n_strings for entry in chains)
        ):
            raise StoreError(f"chain index and record blocks disagree in {self.path}")
        self._regions = regions
        return True

    def _salvage(self) -> None:
        """Partial segment: decode what survives, account what doesn't."""
        mm = self._mm
        end = self.size_bytes
        pos = _HEADER.size
        strings: list[str] = []
        sites: list[Site] = []
        regions: list[tuple[int, int]] = []
        while pos + _BLOCK.size <= end:
            tag, plen = _BLOCK.unpack_from(mm, pos)
            payload_end = pos + _BLOCK.size + plen
            if tag == _TAG_DICT or tag == _TAG_SITES:
                if payload_end > end:
                    break  # truncated mid-table: nothing after is decodable
                table = strings if tag == _TAG_DICT else sites
                try:
                    first_id, count = struct.unpack_from("<II", mm, pos + _BLOCK.size)
                    if first_id != len(table):
                        break  # table gap: stop before mis-decoding ids
                    table += (
                        self._read_strings(pos + _BLOCK.size + 8, count)[0]
                        if tag == _TAG_DICT
                        else self._read_sites(pos + _BLOCK.size + 8, count, strings)
                    )
                except (struct.error, ValueError, IndexError, StoreError):
                    break  # a damaged table: no id after it can be trusted
            elif tag == _TAG_RECORDS:
                frame_start = pos + _BLOCK.size + 4
                if frame_start > end:
                    break
                regions.append((frame_start, min(payload_end, end)))
                if payload_end > end:
                    pos = payload_end  # truncated: the region scan stops itself
                    break
            else:
                break  # unrecognized bytes: treat the rest as lost
            pos = payload_end
        self.partial = True
        # Whatever footer metadata parsed before the corruption is not
        # trusted: a salvaged segment is frame-filtered, never pruned.
        self.ts_bounds = self.chain_ts = self.fn_table = None
        self.strings = strings
        self.sites = sites
        # One lean pass to count what actually decodes: a region ends at
        # its block's frame count, at a frame cut short, or before a frame
        # whose chain, site or child id points past the salvaged tables —
        # and so does the segment (the rest goes to ``dropped_bytes``).
        counts: dict[int, int] = {}
        n_strings = len(strings)
        fn_size, fw_size, misc_off, probe = _FN_SIZE, _FW_SIZE, _MISC_OFF, _SALVAGE_PROBE
        n_sites = len(sites)
        decoded_end = min(pos, end)
        kept = []
        for start, region_end in regions:
            off = start
            left = _U32.unpack_from(mm, start - 4)[0]
            while left and off + fn_size <= region_end:
                size = fw_size if mm[off + misc_off] & 16 else fn_size
                if off + size > region_end:
                    break
                cid, pres, sid, child, semlen = probe.unpack_from(mm, off)
                if (
                    off + size + semlen > region_end
                    or cid >= n_strings
                    or sid >= n_sites
                    or (pres & 16 and child >= n_strings)
                ):
                    break
                counts[cid] = counts.get(cid, 0) + 1
                left -= 1
                off += size + semlen
            # Clamped to the decodable prefix, so the decode loops never
            # trip over a truncated or undecodable tail.
            kept.append((start, off))
            decoded_end = off
            if left:
                break
        self._regions = kept
        self.dropped_bytes = max(0, end - decoded_end)
        self.record_count = sum(counts.values())
        self.chains = [(cid, count, 0, None) for cid, count in counts.items()]

    # ------------------------------------------------------------------
    # Decoding

    def _decode_span(
        self, off: int, end: int, limit: int, out: list, flt=None, hits=None
    ) -> int:
        """Decode up to ``limit`` frames of ``[off, end)`` onto ``out``.

        The one loop that builds rows from frames, and the scan fast path:
        one fused unpack per frame, the site by one list index,
        tuple-indexed enum lookups, reading state in locals, and the row a
        tuple of the fields the probe logged, in their order. With ``flt``
        (the per-segment integer-id filter compiled by
        :func:`repro.store.query.segment_filter`) the readings still
        advance over every frame, but a row is only built for a match,
        whose position within the span goes onto ``hits`` (a list,
        required with ``flt``) — how callers recover arrival ranks without
        decoding the rest. Returns the number of frames walked; a
        frame that is cut short, or whose ids point past the string
        dictionary or the site table, raises :class:`StoreError`.
        """
        mm = self._mm
        strings = self.strings
        sites = self.sites
        fn_unpack = FRAME_NARROW.unpack_from
        fw_unpack = FRAME_WIDE.unpack_from
        fn_size = _FN_SIZE
        fw_size = _FW_SIZE
        loads = _loads
        event_by_num = EVENT_BY_NUM
        append = out.append
        filtered = flt is not None
        if filtered:
            cids = flt.cids
            site_ids = flt.sites
            ts_lo = flt.ts_lo
            ts_hi = flt.ts_hi
            timed = ts_lo is not None or ts_hi is not None
            hit = hits.append
        prev_ws = prev_cs = 0
        done = 0
        try:
            while off < end and done < limit:
                wide = mm[off + _MISC_OFF] & 16
                if wide:
                    (cid, ev, misc, pres, sid, tid, childid, semlen, seq, wsd, wed,
                     csd, ced) = fw_unpack(mm, off)
                    off += fw_size
                else:
                    (cid, ev, misc, pres, sid, tid, childid, semlen, seq, wsd, wed,
                     csd, ced) = fn_unpack(mm, off)
                    off += fn_size
                # The anchor rule; readings decode unconditionally, since
                # the next narrow frame counts from them even when the
                # filter skips this one.
                if pres & 1:
                    ws = prev_ws = wsd if wide else prev_ws + wsd
                    we = ws + wed if pres & 2 else None
                else:
                    ws = None
                    we = wed if pres & 2 else None
                if pres & 4:
                    cs = prev_cs = csd if wide else prev_cs + csd
                    ce = cs + ced if pres & 8 else None
                else:
                    cs = None
                    ce = ced if pres & 8 else None
                if filtered:
                    keep = (
                        (cids is None or cid in cids)
                        and (site_ids is None or sid in site_ids)
                    )
                    if keep and timed:
                        anchor = ws if ws is not None else we
                        keep = anchor is not None and (
                            (ts_lo is None or anchor >= ts_lo)
                            and (ts_hi is None or anchor <= ts_hi)
                        )
                    if not keep:
                        off += semlen
                        done += 1
                        continue
                    hit(done)
                if semlen:
                    sem = loads(mm[off:off + semlen]) if pres & 32 else None
                    off += semlen
                else:
                    sem = None
                append((
                    sites[sid], strings[cid], seq, event_by_num[ev], tid,
                    ONEWAY if misc & 1 else SYNC, True if misc & 2 else False,
                    ws, we, cs, ce, strings[childid] if pres & 16 else None, sem,
                ))
                done += 1
        except (IndexError, struct.error, ValueError):
            raise StoreError(
                f"corrupt frame in {self.path}: cut short, or an id past the"
                " string dictionary or the site table"
            ) from None
        return done

    def _units(
        self, flt, stats: ScanStats, lo: bytes | None = None, hi: bytes | None = None
    ) -> tuple:
        """What a read of this segment walks: the per-frame filter left
        (``None``: every frame passes) and the decode units, each ``(cid,
        ranks, start, end, limit)`` — up to ``limit`` frames from byte
        ``start`` on, before ``end``.

        A complete sealed segment has one unit per chain group, in stored
        (uuid) order: ``cid`` is the group's chain id, ``ranks`` the
        frames' arrival ranks from the footer. ``lo`` / ``hi`` (inclusive
        :func:`uuid_key` bounds, a shard's) are bisected for in the chain
        index, groups being stored sorted, so nothing outside them is
        looked at; under a filter, a group the footer rules out — chain
        index, ``FXTS`` group bounds, ``FXFN`` zone map — is left out and
        counted. A spool has one unit per records block with ``cid`` and
        ``ranks`` ``None`` and ignores the bounds: its chains interleave.
        So does a salvaged sealed segment, whose footer (and with it the
        group offsets and ranks) was lost.
        """
        predicated = flt is not None
        if predicated and flt.is_pass:
            flt = None  # every frame matches: nothing to test or prune on
        if not self.sealed or self.partial:
            count = _U32.unpack_from
            return flt, [
                (None, None, start, end, count(self._mm, start - 4)[0])
                for start, end in self._regions
            ]
        chains = self.chains
        first, last = 0, len(chains)
        if lo is not None or hi is not None:
            strings = self.strings
            key = lambda entry: uuid_key(strings[entry[0]])
            if lo is not None:
                first = bisect_left(chains, lo, key=key)
            if hi is not None:
                last = max(first, bisect_right(chains, hi, key=key))
        survivors = range(first, last)
        frame_flt = None
        if flt is not None:
            cids, fn_groups, ts_lo, ts_hi = flt.cids, flt.fn_groups, flt.ts_lo, flt.ts_hi
            chain_ts = self.chain_ts
            timed = chain_ts is not None and (ts_lo is not None or ts_hi is not None)
            survivors = [
                gi for gi, (cid, _n, _off, _ranks) in enumerate(chains[first:last], first)
                if not (
                    (cids is not None and cid not in cids)
                    or (timed and not bounds_overlap(chain_ts[gi], ts_lo, ts_hi))
                    or (fn_groups is not None and not fn_groups[gi])
                )
            ]
            stats.groups_pruned += last - first - len(survivors)
            frame_flt = flt.within_group()
        if predicated:
            stats.groups += last - first
        size = self.size_bytes
        return frame_flt, [
            (cid, ranks, start_off, size, count)
            for cid, count, start_off, ranks in map(chains.__getitem__, survivors)
        ]

    def scan(
        self, flt, stats: ScanStats, lo: bytes | None = None, hi: bytes | None = None
    ):
        """Yield ``(cid, ranks, rows)`` per decode unit (see
        :meth:`_units`) that holds a match — the one way records leave a
        segment, as rows (tuples).

        ``cid`` is a sealed group's chain id, ``None`` for a records block
        of a spool or a salvaged segment, whose chains callers regroup (in
        file order, the best arrival order a lost footer leaves). ``flt``
        is the segment's :class:`~repro.store.query.SegmentFilter`
        (``None`` without a predicate). Ranks are positional over *all*
        frames — matched or not — so a filtered scan merges as a
        subsequence of the unfiltered order: skipping a frame never
        compacts the rank space.
        """
        flt, units = self._units(flt, stats, lo, hi)
        base = self.arrival_base
        for cid, ranks, start, end, limit in units:
            rows: list[tuple] = []
            hits = None if flt is None else []
            walked = self._decode_span(start, end, limit, rows, flt, hits)
            stats.frames_decoded += walked
            stats.records_matched += len(rows)
            if cid is None:
                ranks = range(base, base + walked)
                base += walked
            if rows:
                yield cid, ranks if hits is None else [ranks[i] for i in hits], rows

    def fold(
        self, flt, stats: ScanStats, anchors: bool = False, threads: bool = False
    ) -> SegmentFold:
        """Fold the frames ``flt`` passes into a :class:`SegmentFold` —
        the one loop that answers aggregates, with no record built.

        It walks the units :meth:`scan` decodes, with the same per-frame
        id and time tests and the same anchor rule, and counts into
        ``stats`` exactly as the scan does. What it needs of a frame is in
        the frame: the site id, the event number, and — for a frame that
        carries both wall readings — the stored ``wall_end`` word, which
        *is* ``wall_end - wall_start``. It makes every check a decode
        makes of a frame it matches: cut short, a chain, child or site id
        past its table, an event number out of range, or semantics that
        are not JSON raise :class:`StoreError`. With ``anchors`` the fold
        carries the matched frames' anchor bounds (from the ``FXTS``
        footer when every frame passes and the file has one), with
        ``threads`` their ``(process, thread_id)`` pairs.
        """
        out = SegmentFold(threads)
        track = anchors and (
            (flt is not None and not flt.is_pass) or self.ts_bounds is None
        )
        if anchors and not track:
            lo, hi = self.ts_bounds
            out.bounds = (lo, hi) if lo <= hi else None
        flt, units = self._units(flt, stats)
        mm = self._mm
        strings, sites = self.strings, self.sites
        n_strings = len(strings)
        fn_unpack, fw_unpack = _FOLD_NARROW.unpack_from, _FOLD_WIDE.unpack_from
        fn_size, fw_size, misc_off = _FN_SIZE, _FW_SIZE, _MISC_OFF
        loads = _loads
        counts = [0] * len(sites)
        intervals: list[list[int]] = [[] for _ in sites]
        events = [0] * len(EVENT_BY_NUM)  # an event number past it raises
        cids: set[int] = set()
        add_cid = cids.add
        pairs: set[tuple[int, int]] | None = set() if threads else None
        filtered = flt is not None
        want_cids = want_sites = ts_lo = ts_hi = None
        if filtered:
            want_cids, want_sites, ts_lo, ts_hi = flt.cids, flt.sites, flt.ts_lo, flt.ts_hi
        timed = ts_lo is not None or ts_hi is not None
        anchored = timed or track
        lo = hi = None
        try:
            for _cid, _ranks, off, end, limit in units:
                prev_ws = 0
                done = matched = 0
                while off < end and done < limit:
                    if mm[off + misc_off] & 16:
                        cid, ev, pres, sid, tid, child, semlen, ws, wed = fw_unpack(mm, off)
                        off += fw_size
                        if pres & 1:
                            prev_ws = ws
                    else:
                        cid, ev, pres, sid, tid, child, semlen, wsd, wed = fn_unpack(mm, off)
                        off += fn_size
                        if pres & 1:
                            prev_ws += wsd
                    done += 1
                    if filtered and (
                        (want_cids is not None and cid not in want_cids)
                        or (want_sites is not None and sid not in want_sites)
                    ):
                        off += semlen
                        continue
                    if anchored:
                        anchor = prev_ws if pres & 1 else wed if pres & 2 else None
                        if timed and (
                            anchor is None
                            or (ts_lo is not None and anchor < ts_lo)
                            or (ts_hi is not None and anchor > ts_hi)
                        ):
                            off += semlen
                            continue
                        if track and anchor is not None:
                            if lo is None or anchor < lo:
                                lo = anchor
                            if hi is None or anchor > hi:
                                hi = anchor
                    events[ev] += 1
                    if pres & 16 and child >= n_strings:
                        raise IndexError
                    if semlen:
                        if pres & 32:
                            loads(mm[off:off + semlen])
                        off += semlen
                    counts[sid] += 1
                    if pres & 3 == 3:
                        intervals[sid].append(wed)
                    add_cid(cid)
                    if pairs is not None:
                        pairs.add((sid, tid))
                    matched += 1
                stats.frames_decoded += done
                stats.records_matched += matched
            if cids and max(cids) >= n_strings:
                raise IndexError
        except (IndexError, struct.error, ValueError):
            raise StoreError(
                f"corrupt frame in {self.path}: cut short, or an id past the"
                " string dictionary or the site table"
            ) from None
        for sid, count in enumerate(counts):
            if count:
                out.add_site(sites[sid], count, intervals[sid])
        out.calls = events[1]
        out.chains.update([strings[cid] for cid in cids])
        if pairs is not None:
            out.threads.update([(sites[sid].process, tid) for sid, tid in pairs])
        if track and lo is not None:
            out.bounds = (lo, hi)
        return out

    def load_ranked(self, out: list) -> None:
        """Append every ``(arrival_rank, row)`` pair to ``out``."""
        for _cid, ranks, rows in self.scan(None, ScanStats()):
            out.extend(zip(ranks, rows))

    def decode_group(self, start_off: int, count: int) -> list[tuple]:
        """Decode one sealed chain group's rows from its byte range
        (zero-copy)."""
        group: list[tuple] = []
        self._decode_span(start_off, self.size_bytes, count, group)
        return group

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


def bounds_overlap(
    bounds: tuple[int, int] | None, lo: int | None, hi: int | None
) -> bool:
    """Can any anchor inside ``bounds`` fall within ``[lo, hi]``?

    ``bounds`` is a footer (min, max) pair over anchor timestamps;
    ``None`` means unknown (salvaged or pre-extension segment — never
    prune), and an inverted pair (min > max) means *no frame carries an
    anchor* — nothing can match a time-range predicate, so prune.
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
    chain index is rebuilt from the frames, so ``index`` reports
    ``"salvaged"`` coverage and timestamp bounds are unknown — predicate
    pushdown can never prune them, only frame-filter.
    """
    bounds = reader.ts_bounds
    has_bounds = bounds is not None and bounds[0] <= bounds[1]
    return {
        "path": os.path.basename(reader.path),
        "kind": "sealed" if reader.sealed else "spool",
        "schema_version": reader.schema_version,
        "records": reader.record_count,
        "chains": len(reader.chains),
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
            "chains": len(reader.chains),
            "group_ts_bounds": reader.chain_ts is not None,
            "group_functions": reader.fn_table is not None,
            "functions": len(reader.fn_table or ()) // 2,
        },
    }
