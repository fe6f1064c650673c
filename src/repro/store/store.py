"""The columnar segment store: a log-structured storage backend.

A store is a directory::

    <root>/repro-store.json          marker + format/schema version
    <root>/runs/<run_id>/meta.json   RunMetadata (+ schema_version)
    <root>/runs/<run_id>/NNNNNN.spool.seg    non-transactional inserts
    <root>/runs/<run_id>/NNNNNN.sealed.seg   chain-sorted: commits, merges

A collection transaction (:meth:`SegmentStore.bulk_ingest`) commits one
*sealed* segment — rows grouped by chain and sorted, what compaction
would have made of it — so ``chains_for_run`` is a grouped block scan
over the ``mmap``ed file with no SQL and no sort step from the first
scan, and analyzer shards read disjoint column blocks. An ``insert_records``
outside a transaction appends an arrival-order *spool*. Compaction
merges a run that holds more than one segment (a second collection,
spools, a salvaged file) into one, in the caller's thread:
:meth:`SegmentStore.compact`, or the write that leaves a run with
``auto_compact`` segments.

Ordering contract (kept bit-identical to the SQLite backend so the two
are interchangeable under ``reconstruct()``):

- ``chains_for_run`` yields chains ascending by uuid (UTF-8 byte order,
  matching SQLite's BINARY collation), each chain's rows sorted by
  ``event_seq`` with arrival order breaking ties;
- ``all_records`` yields a run's records in arrival (insert) order,
  which sealed segments preserve via per-record arrival ranks.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from heapq import merge as _heapq_merge
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from repro.core.records import (
    SCHEMA_VERSION,
    ProbeRecord,
    RunMetadata,
    as_rows,
    from_row,
)
from repro.errors import StoreError
from repro.store.query import (
    OpStats,
    ScanPredicate,
    merge_operations,
    merge_population,
    segment_filter,
)
from repro.store.segment import (
    KIND_SEALED,
    KIND_SPOOL,
    ScanStats,
    SegmentFold,
    SegmentReader,
    SegmentWriter,
    segment_info,
    uuid_key,
)

MARKER_FILE = "repro-store.json"
_RUNS_DIR = "runs"

logger = logging.getLogger(__name__)


class _Run:
    """In-memory state for one run directory."""

    __slots__ = (
        "run_id", "path", "lock", "readers", "pending", "next_seg",
        "compact_error",
    )

    def __init__(self, run_id: str, path: str):
        self.run_id = run_id
        self.path = path
        self.lock = threading.RLock()
        self.readers: list[SegmentReader] = []
        #: the probe-row batches an open :meth:`SegmentStore.bulk_ingest`
        #: handed over, in arrival order, until its commit writes them.
        self.pending: list[list[list]] = []
        self.next_seg = 1
        #: last auto-compaction failure, cleared on the next successful merge.
        self.compact_error: str | None = None


class SegmentStore:
    """Log-structured, append-only storage backend for probe records.

    Drop-in for :class:`repro.collector.MonitoringDatabase` behind the
    :class:`repro.store.StorageBackend` protocol. ``auto_compact`` (the
    number of segments at which a write merges its run before it returns;
    0 disables) keeps read amplification bounded.
    """

    def __init__(self, path: str, auto_compact: int = 8):
        self.path = path
        self.auto_compact = auto_compact
        self._lock = threading.RLock()
        self._runs: dict[str, _Run] = {}
        self._bulk_depth = 0
        os.makedirs(os.path.join(path, _RUNS_DIR), exist_ok=True)
        marker = os.path.join(path, MARKER_FILE)
        if os.path.exists(marker):
            with open(marker) as handle:
                found = json.load(handle).get("schema_version")
            if found != SCHEMA_VERSION:
                raise StoreError(
                    f"store {path} has record schema v{found}, this build "
                    f"reads v{SCHEMA_VERSION} only"
                )
        else:
            with open(marker, "w") as handle:
                json.dump(
                    {"format": "repro-segment-store", "version": 1,
                     "schema_version": SCHEMA_VERSION},
                    handle,
                )
        self._discover()

    # ------------------------------------------------------------------
    # Run/segment discovery

    def _discover(self) -> None:
        runs_dir = os.path.join(self.path, _RUNS_DIR)
        for run_id in sorted(os.listdir(runs_dir)):
            run_path = os.path.join(runs_dir, run_id)
            if not os.path.isdir(run_path):
                continue
            run = _Run(run_id, run_path)
            found: list[tuple[int, SegmentReader]] = []
            for name in sorted(os.listdir(run_path)):
                if not name.endswith(".seg") or name.startswith(".tmp"):
                    continue
                try:
                    number = int(name.split(".", 1)[0])
                except ValueError:
                    number = 0
                found.append((number, SegmentReader(os.path.join(run_path, name))))
            # Compaction swaps a complete sealed segment in for the
            # segments it merged: each numbered below it and inside its
            # arrival range (a merge's starts at 0; a collection's where the
            # run then ended, so it covers nothing before it). One still on
            # disk was left by a crash (or a failed unlink) between the
            # rename and the unlinks; loading it would yield its records
            # twice. A sealed segment that lost its footer and starts inside
            # an intact lower-numbered one is a merge torn after its rename.
            for number, reader in found:
                base = reader.arrival_base
                if reader.sealed and reader.partial and any(
                    0 < n < number and not r.partial and _covers(r, base, base + 1)
                    for n, r in found
                ):
                    why = "a torn merge of segments that are intact"
                elif any(
                    0 < number < n and r.sealed and not r.partial
                    and _covers(r, base, base + reader.record_count)
                    for n, r in found
                ):
                    why = "superseded by a sealed segment covering its arrival range"
                else:
                    run.readers.append(reader)
                    continue
                logger.warning(
                    "run %r: dropping %s, %s", run_id, os.path.basename(reader.path), why
                )
                reader.close()
                _unlink_segment(reader.path)
            run.readers.sort(key=lambda r: r.arrival_base)
            run.next_seg = max((n for n, _r in found), default=0) + 1
            self._runs[run_id] = run

    def _run(self, run_id: str, create: bool = False) -> _Run:
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                if not create:
                    raise StoreError(f"unknown run {run_id!r} in store {self.path}")
                if os.sep in run_id or run_id in (".", ".."):
                    raise StoreError(f"run id {run_id!r} is not filesystem-safe")
                run = _Run(run_id, os.path.join(self.path, _RUNS_DIR, run_id))
                os.makedirs(run.path, exist_ok=True)
                self._runs[run_id] = run
            return run

    def _segments(self, run: _Run) -> list[SegmentReader]:
        """Snapshot of the run's sealed+spool readers, arrival order."""
        with run.lock:
            return list(run.readers)

    # ------------------------------------------------------------------
    # Ingest

    def create_run(self, meta: RunMetadata) -> None:
        run = self._run(meta.run_id, create=True)
        with run.lock:
            with open(os.path.join(run.path, "meta.json"), "w") as handle:
                json.dump(
                    {
                        "run_id": meta.run_id,
                        "description": meta.description,
                        "monitor_mode": meta.monitor_mode,
                        "extra": meta.extra,
                        "schema_version": SCHEMA_VERSION,
                    },
                    handle,
                )

    def insert_records(self, run_id: str, records: Iterable) -> int:
        """Add records to the run, after everything it holds.

        ``records`` are probe rows or :class:`ProbeRecord` objects; a
        record becomes a row once, as it enters. Outside
        :meth:`bulk_ingest` every call writes its own spool segment (the
        records become immediately visible); inside, the batch of rows is
        held until the transaction commits.
        """
        run = self._run(run_id, create=True)
        # Snapshot the bulk depth under the store lock (bulk_ingest
        # mutates it there) *before* taking run.lock — the reverse
        # nesting would invite a lock-order inversion with close().
        with self._lock:
            in_bulk = self._bulk_depth > 0
        rows = as_rows(records)
        with run.lock:
            if in_bulk:
                run.pending.append(rows)
            else:
                self._write_segment(run, KIND_SPOOL, rows)
        if not in_bulk:
            self._compact_if_due(run)
        return len(rows)

    @contextmanager
    def bulk_ingest(self):
        """One collection = one sealed segment per run touched, whole or
        absent: it is written under a ``.tmp-`` name and renamed."""
        with self._lock:
            self._bulk_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._bulk_depth -= 1
                done = self._bulk_depth == 0
            if done:
                self._commit_pending()

    def _commit_pending(self) -> None:
        """Write every run's held batches. A run whose write fails keeps
        none of them; the runs after it keep theirs for the next commit."""
        with self._lock:
            runs = list(self._runs.values())
        for run in runs:
            with run.lock:
                batches, run.pending = run.pending, []
                self._write_segment(run, KIND_SEALED, list(chain.from_iterable(batches)))
            self._compact_if_due(run)

    def _write_segment(self, run: _Run, kind: int, rows: list[list]) -> None:
        """Probe ``rows`` as the run's next segment: a spool in the order
        given, or sealed — what compacting that spool would write."""
        # Caller holds run.lock.
        if not rows:
            return
        base = sum(reader.record_count for reader in run.readers)
        number = run.next_seg
        run.next_seg += 1
        if kind == KIND_SPOOL:
            # Written in place: a torn spool is salvaged front to back.
            path = os.path.join(run.path, f"{number:06d}.spool.seg")
            writer = SegmentWriter(path, kind, arrival_base=base)
            writer.append(rows)
            writer.seal()
            run.readers.append(SegmentReader(path))
        else:
            self._publish_sealed(run, number, rows, range(base, base + len(rows)), base)

    def _publish_sealed(
        self, run: _Run, number: int, rows: list[list], ranks, base: int = 0,
        replaces: list[SegmentReader] | None = None,
    ) -> bool:
        """Write probe ``rows`` (``ranks[i]`` the arrival rank of ``rows[i]``)
        as the run's sealed segment ``number`` — chain-grouped by
        :func:`_write_groups` under a ``.tmp-`` name, sealed, renamed — and
        serve it: beside the run's segments (a commit), or in place of
        ``replaces`` (a merge). A merge whose sources are no longer the run,
        or that an open transaction would race, is dropped: ``False``."""
        name = f"{number:06d}.sealed.seg"
        path = os.path.join(run.path, name)
        writer = SegmentWriter(
            os.path.join(run.path, ".tmp-" + name), KIND_SEALED, arrival_base=base
        )
        try:
            _write_groups(writer, rows, ranks)
            writer.seal()
        except BaseException:
            writer.abort()
            raise
        with run.lock:
            if replaces is not None and (run.readers != replaces or run.pending):
                # A commit landed while this merged; merging again later is
                # cheaper than reasoning about a partial swap.
                writer.abort()
                return False
            try:
                os.rename(writer.path, path)
            except BaseException:
                writer.abort()
                raise
            reader = SegmentReader(path)
            if replaces is None:
                run.readers.append(reader)
                run.readers.sort(key=lambda r: r.arrival_base)
            else:
                run.readers = [reader]
                run.compact_error = None
                for source in replaces:
                    # Unlink only — do NOT close: scans that snapshotted the
                    # old readers may still be decoding from their mmaps. The
                    # unlinked file stays readable until the last reference
                    # drops (POSIX semantics), and the mmap is released when
                    # the final scan lets go of the reader object.
                    _unlink_segment(source.path)
        return True

    # ------------------------------------------------------------------
    # Compaction

    def _compact_if_due(self, run: _Run) -> None:
        """``auto_compact``: merge a run its writer left with that many
        segments, in the writing thread, once the write is durable and
        ``run.lock`` is released. A merge that fails on the disk or on a
        source leaves the sources as they are and the write standing: the
        failure is logged and kept as ``last_error`` until a merge
        succeeds. Anything else is a bug, and propagates."""
        if not self.auto_compact or len(run.readers) < self.auto_compact:
            return
        try:
            self.compact(run.run_id)
        except (OSError, StoreError) as exc:
            logger.exception("compaction of run %r failed", run.run_id)
            with run.lock:
                run.compact_error = f"{type(exc).__name__}: {exc}"

    def compact(self, run_id: str) -> bool:
        """Merge the run's segments into one sorted sealed segment.

        The merge goes through rows, the way a collection commits: every
        source's ``(rank, row)`` pairs are loaded and the rows written by
        :meth:`_publish_sealed`, so one encoder writes every sealed byte.
        Returns True if a new sealed segment was produced. Readers that
        started scanning before the swap keep their mmaps (POSIX unlink
        semantics); new scans see the sealed segment only.
        """
        run = self._run(run_id)
        with run.lock:
            sources = list(run.readers)
            if run.pending or _compacted(sources):
                return False  # mid-transaction or nothing to do
            number = run.next_seg
            run.next_seg += 1
        # Merge outside the lock: sources are immutable once written. Equal
        # sites of different sources become one object first, so the
        # encoder's per-record site lookup is an identity hit, not a
        # ten-field compare (a sixth of an eight-spool merge's time).
        shared: dict = {}
        rows: list = []
        ranks: list = []
        for reader in sources:
            reader.sites = [shared.setdefault(site, site) for site in reader.sites]
            ranked: list = []
            reader.load_ranked(ranked)
            ranks += [rank for rank, _row in ranked]
            rows += [row for _rank, row in ranked]
        return self._publish_sealed(run, number, rows, ranks, replaces=sources)

    def compact_all(self) -> dict[str, bool]:
        """Compact every run, one after another (a merge is pure Python:
        threads over disjoint runs measured no faster). Returns ``{run_id:
        produced_new_segment}`` in sorted run order; the first failure
        propagates."""
        with self._lock:
            run_ids = sorted(self._runs, key=uuid_key)
        return {run_id: self.compact(run_id) for run_id in run_ids}

    def drop_segments(self, run_id: str) -> int:
        """Delete a run's segment files (the catalog's downsampling step).

        The run directory and ``meta.json`` survive — only record data
        goes; callers are expected to have written a summary first.
        Refuses mid-transaction. Returns the number of records dropped.
        """
        run = self._run(run_id)
        with run.lock:
            if run.pending:
                raise StoreError(
                    f"run {run_id!r} has an open ingest transaction;"
                    " cannot drop its segments"
                )
            readers, run.readers = run.readers, []
            dropped = sum(r.record_count for r in readers)
            for reader in readers:
                # Unlink only (scans in flight keep their mmaps); the
                # readers are closed when the last scan releases them.
                _unlink_segment(reader.path)
        return dropped

    def compaction_state(self, run_id: str) -> dict:
        run = self._run(run_id)
        with run.lock:
            readers = list(run.readers)
            last_error = run.compact_error
        spool = sum(1 for r in readers if not r.sealed)
        return {
            "segments": len(readers),
            "spool_segments": spool,
            "sealed_segments": len(readers) - spool,
            "compacted": _compacted(readers),
            "last_error": last_error,
        }

    # ------------------------------------------------------------------
    # The two standard analyzer queries

    def unique_chain_uuids(self, run_id: str) -> list[str]:
        """Every Function UUID ever created during the run (query 1) —
        straight out of the segment footers, no body scan."""
        uuids: set[str] = set()
        for reader in self._segments(self._run(run_id)):
            strings = reader.strings
            uuids.update(map(strings.__getitem__, reader.chain_ids))
        return sorted(uuids, key=uuid_key)

    def events_for_chain(self, run_id: str, chain_uuid: str) -> list[ProbeRecord]:
        """All events of one chain, ascending by event number (query 2)."""
        for _uuid, rows in self.chains_for_run(
            run_id, first_chain=chain_uuid, last_chain=chain_uuid
        ):
            return list(map(from_row, rows))
        return []

    def chains_for_run(
        self,
        run_id: str,
        first_chain: str | None = None,
        last_chain: str | None = None,
        predicate: ScanPredicate | None = None,
        stats: ScanStats | None = None,
    ) -> Iterator[tuple[str, list[tuple]]]:
        """Stream ``(chain_uuid, sorted rows)`` groups: each row the tuple
        of a record's fields in ``ProbeRecord.__slots__`` order.

        On a compacted run this is the fast path: one sealed segment,
        chain groups already sorted, so each column block decodes once and
        streams its groups as row ranges — a bounded scan reads only the
        blocks of its shard's groups. Any other run
        takes the merged path: every segment is scanned once (a sealed
        one still only its shard's, unpruned groups) and the groups are
        merged in memory (arrival order is preserved segment-by-segment,
        so the ``event_seq``-stable sort reproduces SQLite's
        ``event_seq, id`` order exactly).

        ``predicate`` pushes a :class:`~repro.store.query.ScanPredicate`
        below decode: footer metadata prunes whole segments and (sealed)
        chain groups, and surviving segments row-filter on interned
        integer ids — chains with no matching record are not yielded,
        matching the SQLite backend bit-for-bit. ``stats`` (a
        :class:`~repro.store.query.ScanStats`) collects the pruning
        counters.
        """
        readers = self._segments(self._run(run_id))
        lo = uuid_key(first_chain) if first_chain is not None else None
        hi = uuid_key(last_chain) if last_chain is not None else None
        scans = self._scan(readers, predicate, stats, lo, hi)
        if _compacted(readers):
            for reader, units in scans:
                strings = reader.strings
                for cid, _ranks, rows in units:
                    yield strings[cid], rows
            return

        groups: dict[str, list[tuple]] = defaultdict(list)
        for reader, units in scans:
            for cid, _ranks, rows in units:
                if cid is not None:
                    groups[reader.strings[cid]] += rows
                else:
                    for row in rows:
                        groups[row[1]].append(row)  # row[1]: the chain uuid
        for uuid in sorted(groups, key=uuid_key):
            key = uuid_key(uuid)
            if lo is not None and key < lo:
                continue
            if hi is not None and key > hi:
                break
            rows = groups[uuid]
            rows.sort(key=_event_seq_key)  # stable → arrival breaks ties
            yield uuid, rows

    def _scan(self, readers, predicate, stats, lo=None, hi=None):
        """The store's one read path: per segment the footer does not rule
        out whole, its reader and its decode units (see
        :meth:`SegmentReader.scan`), work counted into ``stats``."""
        if stats is None:
            stats = ScanStats()
        for reader, flt in _filters(readers, predicate, stats):
            yield reader, reader.scan(flt, stats, lo, hi)

    def fold_segments(
        self,
        run_id: str,
        predicate: ScanPredicate | None = None,
        stats: ScanStats | None = None,
        anchors: bool = False,
        threads: bool = False,
    ) -> list[SegmentFold]:
        """The aggregate read path: one :class:`SegmentFold` per segment
        the footer does not rule out, folded from its columns with no
        record built (:meth:`SegmentReader.fold`; ``anchors`` and
        ``threads`` ask it for anchor bounds and thread pairs). Pruning
        and work count into ``stats`` exactly as :meth:`chains_for_run`
        counts them."""
        if stats is None:
            stats = ScanStats()
        return [
            reader.fold(flt, stats, anchors, threads)
            for reader, flt in _filters(
                self._segments(self._run(run_id)), predicate, stats
            )
        ]

    def fold_operations(
        self,
        run_id: str,
        predicate: ScanPredicate | None = None,
        stats: ScanStats | None = None,
    ) -> tuple[dict[str, OpStats], int]:
        """Per-operation record counts and wall intervals of the records
        ``predicate`` matches, and how many chains hold one — what
        :func:`repro.store.query.fold_operations` makes of
        ``chains_for_run``, folded from the columns instead."""
        return merge_operations(self.fold_segments(run_id, predicate, stats))

    # ------------------------------------------------------------------
    # Supporting queries

    def record_count(self, run_id: str) -> int:
        return sum(r.record_count for r in self._segments(self._run(run_id)))

    def all_records(
        self,
        run_id: str,
        predicate: ScanPredicate | None = None,
        stats: ScanStats | None = None,
    ) -> Iterator[ProbeRecord]:
        """Stream a run's records in arrival (insert) order.

        With a ``predicate``, yields the matching subsequence of the
        unpredicated order: arrival ranks are positional over all rows,
        so filtering can neither reorder nor double-count records.
        """
        streams = []
        for _reader, units in self._scan(
            self._segments(self._run(run_id)), predicate, stats
        ):
            ranked: list = []
            for _cid, ranks, rows in units:
                ranked.extend(zip(ranks, rows))
            ranked.sort(key=_rank_key)
            streams.append(ranked)
        if len(streams) == 1:
            for _rank, row in streams[0]:
                yield from_row(row)
            return
        for _rank, row in _heapq_merge(*streams, key=_rank_key):
            yield from_row(row)

    def population_stats(
        self, run_id: str, predicate: ScanPredicate | None = None
    ) -> dict[str, int]:
        """Unique methods/interfaces/components/processes — Figure-5 stats.

        Mirrors the SQLite backend's semantics exactly, including the
        string-concatenation identity of ``interface || '::' ||
        operation`` and ``process || '/' || thread_id``: folded from the
        rows the predicate passes (:meth:`fold_segments`), no record
        built.
        """
        return merge_population(self.fold_segments(run_id, predicate, threads=True))

    def runs(self) -> list[RunMetadata]:
        metas = []
        with self._lock:
            runs = list(self._runs.values())
        for run in runs:
            meta_path = os.path.join(run.path, "meta.json")
            if not os.path.exists(meta_path):
                continue
            with open(meta_path) as handle:
                data = json.load(handle)
            metas.append(
                RunMetadata(
                    run_id=data["run_id"],
                    description=data.get("description", ""),
                    monitor_mode=data.get("monitor_mode", ""),
                    extra=data.get("extra", {}),
                )
            )
        metas.sort(key=lambda m: uuid_key(m.run_id))
        return metas

    # ------------------------------------------------------------------

    def store_info(self) -> dict:
        """Runs, record counts, segment and dictionary sizes, compaction
        state — the ``repro store-info`` payload."""
        with self._lock:
            runs = list(self._runs.values())
        info_runs = []
        for run in sorted(runs, key=lambda r: uuid_key(r.run_id)):
            readers = self._segments(run)
            segments = [segment_info(reader) for reader in readers]
            ts_mins = [s["ts_min"] for s in segments if s["ts_min"] is not None]
            ts_maxs = [s["ts_max"] for s in segments if s["ts_max"] is not None]
            info_runs.append({
                "run_id": run.run_id,
                "records": sum(r.record_count for r in readers),
                "ts_min": min(ts_mins) if ts_mins else None,
                "ts_max": max(ts_maxs) if ts_maxs else None,
                "chains": len({
                    reader.strings[cid] for reader in readers for cid in reader.chain_ids
                }),
                "segments": segments,
                "bytes": sum(r.size_bytes for r in readers),
                "dictionary_strings": sum(len(r.strings) for r in readers),
                "partial_segments": sum(1 for r in readers if r.partial),
                "compaction": self.compaction_state(run.run_id),
            })
        return {
            "backend": "segment",
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "runs": info_runs,
        }

    def close(self) -> None:
        try:
            # Close with an open transaction: commit it so the data is durable.
            self._commit_pending()
        finally:
            with self._lock:
                runs = list(self._runs.values())
            # Take run locks without holding the store lock: the write
            # paths nest run.lock -> self._lock, so nesting the other way
            # here would deadlock against a concurrent drain.
            for run in runs:
                with run.lock:
                    for reader in run.readers:
                        reader.close()
                    run.readers = []


def _filters(readers, predicate, stats: ScanStats):
    """Each segment the footer does not rule out whole, with its
    :class:`~repro.store.query.SegmentFilter` (``None``: no predicate);
    the segments seen and pruned count into ``stats``."""
    if predicate is not None and predicate.is_empty:
        predicate = None
    for reader in readers:
        stats.segments += 1
        flt = None
        if predicate is not None:
            flt = segment_filter(reader, predicate)
            if flt is None:
                stats.segments_pruned += 1
                continue
        yield reader, flt


def _compacted(readers: list[SegmentReader]) -> bool:
    """Has compaction nothing to do: no segment, or one intact sealed one
    (a torn sealed segment is rewritten whole)?"""
    return not readers or (
        len(readers) == 1 and readers[0].sealed and not readers[0].partial
    )


def _covers(reader: SegmentReader, base: int, end: int) -> bool:
    """Does ``reader``'s arrival range hold the ranks ``[base, end)``?"""
    return reader.arrival_base <= base and end <= reader.arrival_base + reader.record_count


def _unlink_segment(path: str) -> None:
    """Best effort: a segment that cannot be removed is reported, and
    :meth:`SegmentStore._discover` retries once a sealed segment
    supersedes it."""
    try:
        os.unlink(path)
    except OSError as exc:
        logger.warning("could not remove segment %s: %s", path, exc)


def _write_groups(writer: SegmentWriter, rows: list[list], ranks) -> None:
    """The one grouped write: probe ``rows`` — in load order, ``ranks[i]``
    the arrival rank of ``rows[i]`` — as chain groups in uuid order, each
    by event number with load order breaking ties — what ``append(rows,
    ranks)`` per chain writes."""
    # Two stable C-level sorts: by event number, then by chain uuid (code
    # point order is UTF-8 byte order, the order of uuid_key).
    order = sorted(range(len(rows)), key=list(map(_event_seq_key, rows)).__getitem__)
    order.sort(key=list(map(_chain_key, rows)).__getitem__)
    writer.append(
        list(map(rows.__getitem__, order)), list(map(ranks.__getitem__, order))
    )


_event_seq_key = itemgetter(2)  # a row's event number
_chain_key = itemgetter(1)  # a row's chain uuid


def _rank_key(pair) -> int:
    return pair[0]
