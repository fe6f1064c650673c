"""The pluggable storage-backend seam.

:class:`StorageBackend` is the structural (``Protocol``) contract the
collector, CLI and analyzers program against. Two implementations ship:

- :class:`repro.store.SegmentStore` — the columnar segment store, the
  product path everything measured runs on;
- :class:`repro.store.MonitoringDatabase` — SQLite, the paper's
  relational database: reference backend, in-memory default and the
  oracle the segment store is held to (one connection, no read scaling).

:func:`open_store` autodetects which one a path holds: a directory (or a
path ending in the store marker) is a segment store, a file is SQLite.
"""

from __future__ import annotations

import os
from typing import ContextManager, Iterable, Iterator, Protocol, runtime_checkable

from repro.core.records import ProbeRecord, RunMetadata
from repro.store.query import OpStats, ScanPredicate, ScanStats
from repro.store.sqlite import MonitoringDatabase
from repro.store.store import MARKER_FILE, SegmentStore


@runtime_checkable
class StorageBackend(Protocol):
    """What a probe-record store must provide.

    The ordering contract matters as much as the signatures: every
    implementation must yield ``chains_for_run`` groups ascending by
    chain uuid (UTF-8 byte order) with rows sorted by ``event_seq``
    (arrival order breaking ties), and ``all_records`` in arrival order —
    :func:`repro.analysis.reconstruct` output is bit-identical across
    backends because of it. A ``chains_for_run`` group holds *rows*: each
    a ``tuple`` of one record's 13 fields in ``ProbeRecord.__slots__``
    order (``from_row(row)`` is that record), what the Figure-4 machine
    applies; ``events_for_chain`` and ``all_records`` yield
    :class:`ProbeRecord` objects. ``fold_operations`` must equal
    :func:`repro.store.query.fold_operations` over ``chains_for_run``
    under the same predicate; ``stats`` is for a backend that counts its
    pruning, and one that does not leaves it as it is. ``insert_records``
    takes rows (what a collection drains, or a decoder yields) or
    :class:`ProbeRecord` objects, and stores a record exactly as it
    stores its row.
    """

    path: str

    def create_run(self, meta: RunMetadata) -> None: ...

    def insert_records(self, run_id: str, records: Iterable) -> int: ...

    def bulk_ingest(self) -> ContextManager: ...

    def unique_chain_uuids(self, run_id: str) -> list[str]: ...

    def events_for_chain(self, run_id: str, chain_uuid: str) -> list[ProbeRecord]: ...

    def chains_for_run(
        self,
        run_id: str,
        first_chain: str | None = None,
        last_chain: str | None = None,
        predicate: ScanPredicate | None = None,
    ) -> Iterator[tuple[str, list[tuple]]]: ...

    def fold_operations(
        self,
        run_id: str,
        predicate: ScanPredicate | None = None,
        stats: ScanStats | None = None,
    ) -> tuple[dict[str, OpStats], int]: ...

    def record_count(self, run_id: str) -> int: ...

    def all_records(
        self, run_id: str, predicate: ScanPredicate | None = None
    ) -> Iterator[ProbeRecord]: ...

    def population_stats(
        self, run_id: str, predicate: ScanPredicate | None = None
    ) -> dict[str, int]: ...

    def runs(self) -> list[RunMetadata]: ...

    def close(self) -> None: ...


def detect_backend(path: str) -> str:
    """Classify ``path`` as ``"segment"`` or ``"sqlite"``.

    A directory (existing or marked by a trailing separator) holds a
    segment store; anything else is a SQLite database file. ``:memory:``
    is SQLite by definition.
    """
    if path == ":memory:":
        return "sqlite"
    if os.path.isdir(path) or os.path.basename(path) == MARKER_FILE:
        return "segment"
    if not os.path.exists(path) and path.endswith(os.sep):
        return "segment"
    return "sqlite"


def open_store(path: str, backend: str | None = None, **kwargs) -> StorageBackend:
    """Open (or create) the storage backend at ``path``.

    ``backend`` forces ``"sqlite"`` or ``"segment"``; ``None``
    autodetects via :func:`detect_backend`. Extra keyword arguments pass
    through to the backend constructor.
    """
    if backend is None:
        backend = detect_backend(path)
    if backend == "segment":
        if os.path.basename(path) == MARKER_FILE:
            path = os.path.dirname(path) or "."
        return SegmentStore(path, **kwargs)
    if backend == "sqlite":
        return MonitoringDatabase(path, **kwargs)
    raise ValueError(f"unknown storage backend {backend!r}")
