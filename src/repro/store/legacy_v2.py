"""The one reader of segment files in frame format (header format 1).

Files written before the column layout hold one *frame* per record: a
fixed head — chain id, event, flag byte (call kind, collocation, frame
width 16), presence bitmap, site id, ``thread_id``, child chain id,
semantics length — then ``event_seq`` and the four clock readings as five
``i32`` words (*narrow*) or ``i64`` (*wide*), then the semantics JSON. A
narrow frame stores its start readings relative to the last frame that
carried them; a wide one stores them absolute. Frames sit in records
blocks (tag 2) between the same dict-delta and site-delta blocks the
column layout keeps; the footer's chain index holds each chain's count,
start offset and (sealed) arrival ranks.

:func:`read_frames` decodes such a file whole, in file order — through its
footer, or, when the footer is lost or damaged, by salvaging every complete
frame front to back. :class:`~repro.store.segment.SegmentReader` writes what
it returns through the column encoder into memory and serves that, so
pruning, filtering and folding exist once, for columns.
"""

from __future__ import annotations

import struct
from json import loads as _loads

from repro.core.records import Site
from repro.errors import StoreError
from repro.store.codec import (
    EVENT_BY_NUM, ONEWAY, SITE_ROW, SYNC, read_sites, read_strings, read_table_block,
)

FRAME_NARROW = struct.Struct("<IBBBIqIIiiiii")
FRAME_WIDE = struct.Struct("<IBBBIqIIqqqqq")
_MISC_OFF = 5  # the flag byte, whose bit 16 marks a wide frame
_SALVAGE_PROBE = struct.Struct("<I2xBI8xII")  # cid, presence, site, child, semlen
_BLOCK = struct.Struct("<BI")
_U32 = struct.Struct("<I")
_HEADER_SIZE = 16
_TRAILER = struct.Struct("<Q8s")
_TAG_DICT, _TAG_RECORDS, _TAG_SITES = 1, 2, 3


class _Frames:
    """One frame-format file's tables and frame regions."""

    def __init__(self, mm, size: int, path: str, sealed: bool):
        self.mm, self.size, self.path, self.sealed = mm, size, path, sealed
        self.strings: list[str] = []
        self.sites: list[Site] = []
        #: ``(start, end, frames)`` per records block, in file order.
        self.regions: list[tuple[int, int, int]] = []
        self.ranks: list[int] | None = None
        self.partial = False
        self.dropped_bytes = 0

    def load_footer(self) -> bool:
        mm, size = self.mm, self.size
        if size < _HEADER_SIZE + _TRAILER.size:
            return False
        footer_off, magic = _TRAILER.unpack_from(mm, size - _TRAILER.size)
        if magic != b"RSEGEND1" or not _HEADER_SIZE <= footer_off <= size:
            return False
        try:
            record_count, has_ranks = struct.unpack_from("<QB", mm, footer_off)
            (n_strings,) = _U32.unpack_from(mm, footer_off + 9)
            strings, pos = read_strings(self.mm, footer_off + 13, n_strings)
            (n_sites,) = _U32.unpack_from(mm, pos)
            sites = read_sites(self.mm, pos + 4, n_sites, strings)
            pos += 4 + n_sites * SITE_ROW.size
            (n_chains,) = _U32.unpack_from(mm, pos)
            pos += 4
            if has_ranks > 2:
                raise StoreError(f"unknown rank width code {has_ranks} in {self.path}")
            code, width = ("Q", 8) if has_ranks == 1 else ("I", 4)
            ranks: list[int] = []
            total = 0
            for _ in range(n_chains):
                cid, count, _start = struct.unpack_from("<IIQ", mm, pos)
                pos += 16
                if cid >= n_strings:
                    raise StoreError(f"chain id past the dictionary in {self.path}")
                if has_ranks:
                    ranks += struct.unpack_from(f"<{count}{code}", mm, pos)
                    pos += width * count
                total += count
            pos, regions, frames = _HEADER_SIZE, [], 0
            while pos < footer_off:
                tag, plen = _BLOCK.unpack_from(mm, pos)
                if tag == _TAG_RECORDS:
                    (count,) = _U32.unpack_from(mm, pos + _BLOCK.size)
                    regions.append((pos + _BLOCK.size + 4, pos + _BLOCK.size + plen, count))
                    frames += count
                elif tag != _TAG_DICT and tag != _TAG_SITES:
                    raise StoreError(f"unknown block tag {tag} in {self.path}")
                pos += _BLOCK.size + plen
            if frames != record_count or total != frames:
                raise StoreError(f"chain index and record blocks disagree in {self.path}")
        except (struct.error, ValueError, IndexError, MemoryError, OverflowError, StoreError):
            return False  # a valid trailer over a corrupt footer: salvage
        self.strings, self.sites, self.regions = strings, sites, regions
        self.ranks = ranks if self.sealed and has_ranks else None
        return True

    def salvage(self) -> None:
        """Every complete frame front to back; the rest is dropped bytes."""
        mm, end = self.mm, self.size
        pos = _HEADER_SIZE
        strings, sites, regions = self.strings, self.sites, []
        while pos + _BLOCK.size <= end:
            tag, plen = _BLOCK.unpack_from(mm, pos)
            payload_end = pos + _BLOCK.size + plen
            if tag == _TAG_DICT or tag == _TAG_SITES:
                try:
                    if payload_end > end or not read_table_block(
                        mm, pos + _BLOCK.size, tag == _TAG_DICT, strings, sites
                    ):
                        break
                except (struct.error, ValueError, IndexError, StoreError):
                    break
            elif tag == _TAG_RECORDS:
                if pos + _BLOCK.size + 4 > end:
                    break
                regions.append((pos + _BLOCK.size + 4, min(payload_end, end)))
                if payload_end > end:
                    pos = payload_end
                    break
            else:
                break
            pos = payload_end
        self.partial = True
        n_strings, n_sites = len(strings), len(sites)
        decoded_end = min(pos, end)
        kept = []
        for start, region_end in regions:
            off = start
            left = frames = _U32.unpack_from(mm, start - 4)[0]
            while left and off + FRAME_NARROW.size <= region_end:
                size = FRAME_WIDE.size if mm[off + _MISC_OFF] & 16 else FRAME_NARROW.size
                if off + size > region_end:
                    break
                cid, pres, sid, child, semlen = _SALVAGE_PROBE.unpack_from(mm, off)
                if (
                    off + size + semlen > region_end
                    or cid >= n_strings
                    or sid >= n_sites
                    or (pres & 16 and child >= n_strings)
                ):
                    break
                left -= 1
                off += size + semlen
            kept.append((start, off, frames - left))
            decoded_end = off
            if left:
                break
        self.regions = kept
        self.dropped_bytes = max(0, end - decoded_end)

    def rows(self) -> list[tuple]:
        """Every frame's row, in file order."""
        mm, strings, sites = self.mm, self.strings, self.sites
        out: list[tuple] = []
        append = out.append
        try:
            for off, end, limit in self.regions:
                prev_ws = prev_cs = 0
                done = 0
                while off < end and done < limit:
                    wide = mm[off + _MISC_OFF] & 16
                    (cid, ev, misc, pres, sid, tid, childid, semlen, seq, wsd, wed,
                     csd, ced) = (FRAME_WIDE if wide else FRAME_NARROW).unpack_from(mm, off)
                    off += FRAME_WIDE.size if wide else FRAME_NARROW.size
                    if not 0 < ev < len(EVENT_BY_NUM):
                        raise IndexError
                    if pres & 1:
                        ws = prev_ws = wsd if wide else prev_ws + wsd
                        we = ws + wed if pres & 2 else None
                    else:
                        ws, we = None, wed if pres & 2 else None
                    if pres & 4:
                        cs = prev_cs = csd if wide else prev_cs + csd
                        ce = cs + ced if pres & 8 else None
                    else:
                        cs, ce = None, ced if pres & 8 else None
                    sem = None
                    if semlen:
                        if pres & 32:
                            sem = _loads(mm[off:off + semlen])
                        off += semlen
                    append((
                        sites[sid], strings[cid], seq, EVENT_BY_NUM[ev], tid,
                        ONEWAY if misc & 1 else SYNC, True if misc & 2 else False,
                        ws, we, cs, ce, strings[childid] if pres & 16 else None, sem,
                    ))
                    done += 1
        except (IndexError, struct.error, ValueError):
            raise StoreError(
                f"corrupt frame in {self.path}: cut short, or an id past the"
                " string dictionary or the site table"
            ) from None
        return out


def read_frames(mm, size: int, path: str, sealed: bool):
    """A frame-format file's rows in file order, their arrival ranks from
    the footer (``None``: positional), whether it was salvaged, and the
    bytes salvage dropped."""
    frames = _Frames(mm, size, path, sealed)
    if frames.load_footer():
        try:
            return frames.rows(), frames.ranks, False, 0
        except StoreError:
            # A corrupt frame behind an intact footer: the file is read at
            # open, so salvage its prefix rather than refuse the store.
            frames = _Frames(mm, size, path, sealed)
    frames.salvage()
    return frames.rows(), None, True, frames.dropped_bytes
