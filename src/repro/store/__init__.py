"""repro.store — the storage backends and the seam between them.

An append-only, log-structured storage backend for probe records:
binary frames (precompiled ``struct`` codecs, delta-encoded timestamps,
dictionary-interned strings) in segment files. A collection transaction
commits one chain-sorted *sealed* segment, a non-transactional insert
appends an arrival-order *spool*; compaction, run by the caller, merges a
run that holds several segments into one sealed segment, and analyzer scans
decode straight out of ``mmap``ed files — no SQL on the hot path.

The paper's relational database is :class:`repro.store.MonitoringDatabase`
(SQLite, :mod:`repro.store.sqlite`): the in-memory default and the
reference the segment store is held to. The :class:`StorageBackend`
protocol is the seam: :class:`MonitoringDatabase` and
:class:`SegmentStore` are interchangeable under it, and
:func:`open_store` picks one from a path (directory → segment store,
file → SQLite).
"""

from repro.store.backend import StorageBackend, detect_backend, open_store
from repro.store.catalog import CrossRunResult, RetentionPolicy, RunCatalog
from repro.store.query import (
    ScanPredicate,
    ScanStats,
    fold_population_stats,
    run_query,
)
from repro.store.segment import SegmentReader, SegmentWriter, segment_info
from repro.store.sqlite import MonitoringDatabase
from repro.store.store import SegmentStore

__all__ = [
    "StorageBackend",
    "MonitoringDatabase",
    "SegmentStore",
    "SegmentReader",
    "SegmentWriter",
    "ScanPredicate",
    "ScanStats",
    "RunCatalog",
    "RetentionPolicy",
    "CrossRunResult",
    "detect_backend",
    "open_store",
    "run_query",
    "fold_population_stats",
    "segment_info",
]
