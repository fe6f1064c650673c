"""The monitoring database and the analyzer's two standard queries.

Section 3.1 describes the reconstruction input as two queries:

1. "a query on the overall monitoring data [that] identifies the set of
   unique Function UUIDs ever created" — :meth:`MonitoringDatabase.unique_chain_uuids`;
2. "for each identified UUID, the second query sorts the events associated
   with the invocations sharing the UUID by ascending order" —
   :meth:`MonitoringDatabase.events_for_chain`.

The analyzer's fast path fuses the two into a single indexed scan:
:meth:`MonitoringDatabase.chains_for_run` streams ``(chain_uuid,
records)`` groups out of one ``ORDER BY chain_uuid, event_seq, id``
traversal, so reconstruction never pays one query (and one lock
round-trip) per chain.

Role: the paper's relational database, kept as the *reference* backend —
the zero-setup in-memory default of ``LogCollector()`` and the oracle
the identity suites hold the segment store (:mod:`repro.store`, the
product path everything measured runs on) to.

Concurrency model: one connection under one lock, file-backed or
``:memory:`` alike — no read scaling. Streaming reads take the lock per
``fetchmany`` batch and convert rows outside it, so a long scan does not
starve writers. File-backed databases journal in WAL mode so a second
*process* can read while a collector writes.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.core.events import CallKind, Domain, TracingEvent
from repro.core.records import RECORD_SCHEMA, ProbeRecord, RunMetadata, Site
from repro.collector.schema import RECORD_COLUMNS, SCHEMA_STATEMENTS
from repro.store.query import OpStats, ScanPredicate, ScanStats, fold_operations

#: Column order used by every record SELECT; positions are relied on by
#: the tuple-based :func:`_row_to_record` conversion below.
_SELECT_COLUMNS = ", ".join(RECORD_COLUMNS[1:])  # all but run_id

_INSERT_SQL = (
    f"INSERT INTO records ({', '.join(RECORD_COLUMNS)})"
    f" VALUES ({', '.join('?' for _ in RECORD_COLUMNS)})"
)

# Enum round-trips by value lookup are measurably cheaper than the enum
# constructors on the million-record conversion path.
_EVENTS = {event.value: event for event in TracingEvent}
_CALL_KINDS = {kind.value: kind for kind in CallKind}
_DOMAINS = {domain.value: domain for domain in Domain}

#: Rows fetched per lock acquisition when streaming.
_FETCH_BATCH = 2048

# ----------------------------------------------------------------------
# Row codecs, generated from the 23-field schema table.
#
# _record_row / _row_to_record are the hot path of ingest and of every
# analysis, so they must stay flat positional code — but hand-maintaining
# two 23-line functions against the dataclass invites silent drift. Both
# are compiled here from repro.core.records.RECORD_SCHEMA (the same table
# the SQL DDL and the binary segment codec derive from), keeping the
# generated bytecode identical to the previous hand-written versions.

_TO_ROW_EXPR = {
    "str": "{o}.{name}",
    "int": "{o}.{name}",
    "event": "int({o}.{name})",
    "call_kind": "{o}.{name}.value",
    "bool": "int({o}.{name})",
    "domain": "{o}.{name}.value",
    "opt_int": "{o}.{name}",
    "opt_str": "{o}.{name}",
    "json": "(None if {o}.{name} is None else _dumps({o}.{name}))",
}

_FROM_ROW_EXPR = {
    "str": "row[{i}]",
    "int": "row[{i}]",
    "event": "_EVENTS[row[{i}]]",
    "call_kind": "_CALL_KINDS[row[{i}]]",
    "bool": "bool(row[{i}])",
    "domain": "_DOMAINS[row[{i}]]",
    "opt_int": "row[{i}]",
    "opt_str": "row[{i}]",
    "json": "(_loads(row[{i}]) if row[{i}] else None)",
}


def _compile_row_codecs():
    # A row is the 22 fields in schema order; a record holds the site
    # fields through ``r.site`` (read once per row, never through the
    # delegating properties) and is rebuilt around one Site per distinct
    # combination of site columns a query returns (``sites``: the caller's
    # cache for that query).
    encode_fields = ",\n        ".join(
        _TO_ROW_EXPR[field.kind].format(name=field.name, o="s" if field.site else "r")
        for field in RECORD_SCHEMA
    )
    decode = {
        site: ", ".join(
            _FROM_ROW_EXPR[field.kind].format(i=i)
            for i, field in enumerate(RECORD_SCHEMA) if field.site is site
        )
        for site in (True, False)
    }
    site_columns = ", ".join(
        f"row[{i}]" for i, field in enumerate(RECORD_SCHEMA) if field.site
    )
    source = (
        "def _record_row(run_id, r):\n"
        "    s = r.site\n"
        f"    return (run_id,\n        {encode_fields})\n"
        "def _row_to_record(row, sites):\n"
        f"    key = ({site_columns})\n"
        "    site = sites.get(key)\n"
        "    if site is None:\n"
        f"        site = sites[key] = Site({decode[True]})\n"
        f"    return ProbeRecord(site, {decode[False]})\n"
    )
    namespace = {
        "ProbeRecord": ProbeRecord,
        "Site": Site,
        "_EVENTS": _EVENTS,
        "_CALL_KINDS": _CALL_KINDS,
        "_DOMAINS": _DOMAINS,
        "_dumps": json.dumps,
        "_loads": json.loads,
    }
    exec(compile(source, "<record-row-codecs>", "exec"), namespace)
    return namespace["_record_row"], namespace["_row_to_record"]


#: ``_record_row(run_id, record) -> tuple`` and
#: ``_row_to_record(row, sites) -> ProbeRecord`` (positional, in schema order).
_record_row, _row_to_record = _compile_row_codecs()


def _predicate_clauses(predicate: ScanPredicate | None) -> tuple[str, list]:
    """Translate a :class:`ScanPredicate` to ``AND ...`` SQL clauses.

    Must agree exactly with :meth:`ScanPredicate.matches` — the segment
    store evaluates that method (via pushed-down integer tests); this is
    the same semantics in SQL, and cross-backend bit-identity tests hold
    the two together. The time-range anchor is ``COALESCE(wall_start,
    wall_end)``; a record with neither is NULL, and NULL comparisons are
    falsy, so such records never match a time-range predicate — same as
    ``record_anchor`` returning None.
    """
    if predicate is None or predicate.is_empty:
        return "", []
    sql = ""
    params: list = []
    if predicate.chain_prefix is not None:
        sql += " AND substr(chain_uuid, 1, ?) = ?"
        params += [len(predicate.chain_prefix), predicate.chain_prefix]
    if predicate.interfaces is not None:
        marks = ", ".join("?" for _ in predicate.interfaces)
        sql += f" AND interface IN ({marks})"
        params += sorted(predicate.interfaces)
    if predicate.operations is not None:
        marks = ", ".join("?" for _ in predicate.operations)
        sql += f" AND operation IN ({marks})"
        params += sorted(predicate.operations)
    if predicate.ts_min is not None:
        sql += " AND COALESCE(wall_start, wall_end) >= ?"
        params.append(predicate.ts_min)
    if predicate.ts_max is not None:
        sql += " AND COALESCE(wall_start, wall_end) <= ?"
        params.append(predicate.ts_max)
    return sql, params


class MonitoringDatabase:
    """sqlite-backed store for probe records, keyed by run id."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        self._commit_depth = 0  # >0 inside bulk_ingest(): defer commits
        # WAL: another process can read while this one writes (a
        # ``:memory:`` database ignores the journal mode).
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        for statement in SCHEMA_STATEMENTS:
            self._conn.execute(statement)
        self._conn.commit()

    def _fetchall(self, sql: str, params: tuple = ()) -> list[tuple]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def _stream(self, sql: str, params: tuple = ()) -> Iterator[list[tuple]]:
        """Stream row batches; the lock is only held per fetchmany call."""
        with self._lock:
            cursor = self._conn.execute(sql, params)
            rows = cursor.fetchmany(_FETCH_BATCH)
        while rows:
            yield rows
            with self._lock:
                rows = cursor.fetchmany(_FETCH_BATCH)

    # ------------------------------------------------------------------
    # Ingest

    def create_run(self, meta: RunMetadata) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO runs (run_id, description, monitor_mode, extra)"
                " VALUES (?, ?, ?, ?)",
                (meta.run_id, meta.description, meta.monitor_mode, json.dumps(meta.extra)),
            )
            self._maybe_commit()

    def insert_records(self, run_id: str, records: Iterable[ProbeRecord]) -> int:
        """One ``executemany`` over a generator (rows are never all in
        memory at once); one commit (unless deferred). Returns the count."""
        with self._lock:
            inserted = self._conn.executemany(
                _INSERT_SQL, (_record_row(run_id, record) for record in records)
            ).rowcount
            self._maybe_commit()
        return inserted

    @contextmanager
    def bulk_ingest(self):
        """Defer commits so one collection becomes one transaction."""
        with self._lock:
            self._commit_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._commit_depth -= 1
                self._maybe_commit()

    def _maybe_commit(self) -> None:
        # Caller holds self._lock.
        if self._commit_depth == 0:
            self._conn.commit()

    # ------------------------------------------------------------------
    # The two standard analyzer queries

    def unique_chain_uuids(self, run_id: str) -> list[str]:
        """Every Function UUID ever created during the run (query 1)."""
        rows = self._fetchall(
            "SELECT DISTINCT chain_uuid FROM records WHERE run_id = ?"
            " ORDER BY chain_uuid",
            (run_id,),
        )
        return [row[0] for row in rows]

    def events_for_chain(self, run_id: str, chain_uuid: str) -> list[ProbeRecord]:
        """All events of one chain, ascending by event number (query 2)."""
        rows = self._fetchall(
            f"SELECT {_SELECT_COLUMNS} FROM records"
            " WHERE run_id = ? AND chain_uuid = ?"
            " ORDER BY event_seq ASC, id ASC",
            (run_id, chain_uuid),
        )
        sites: dict = {}
        return [_row_to_record(row, sites) for row in rows]

    def chains_for_run(
        self,
        run_id: str,
        first_chain: str | None = None,
        last_chain: str | None = None,
        predicate: ScanPredicate | None = None,
    ) -> Iterator[tuple[str, list[ProbeRecord]]]:
        """Stream ``(chain_uuid, sorted records)`` groups in one scan.

        Fuses the paper's two standard queries: a single traversal of the
        ``(run_id, chain_uuid, event_seq)`` index yields every chain's
        events already grouped and sorted, replacing the per-chain N+1
        query loop. ``first_chain``/``last_chain`` (inclusive) restrict
        the scan to a contiguous shard of the sorted chain-uuid space —
        the unit of parallelism in :mod:`repro.analysis.parallel`.

        ``predicate`` restricts the stream to matching records; chains
        with no matching records are not yielded at all. Results are
        bit-identical to the segment store's predicated scan.

        Chains are yielded in ascending ``chain_uuid`` order, so a
        shard-by-shard concatenation is identical to the full scan.
        """
        sql = f"SELECT {_SELECT_COLUMNS} FROM records WHERE run_id = ?"
        params: list = [run_id]
        if first_chain is not None:
            sql += " AND chain_uuid >= ?"
            params.append(first_chain)
        if last_chain is not None:
            sql += " AND chain_uuid <= ?"
            params.append(last_chain)
        clause, clause_params = _predicate_clauses(predicate)
        sql += clause
        params += clause_params
        sql += " ORDER BY chain_uuid ASC, event_seq ASC, id ASC"

        current: str | None = None
        group: list[ProbeRecord] = []
        sites: dict = {}
        for rows in self._stream(sql, tuple(params)):
            for row in rows:
                chain_uuid = row[0]
                if chain_uuid != current:
                    if current is not None:
                        yield current, group
                    current = chain_uuid
                    group = []
                group.append(_row_to_record(row, sites))
        if current is not None:
            yield current, group

    def fold_operations(
        self,
        run_id: str,
        predicate: ScanPredicate | None = None,
        stats: ScanStats | None = None,
    ) -> tuple[dict[str, OpStats], int]:
        """Per-operation counts and wall intervals of the matching records,
        and how many chains hold one: the record-level fold over
        :meth:`chains_for_run`. SQL prunes nothing to count: ``stats`` is
        left as it is."""
        return fold_operations(self.chains_for_run(run_id, predicate=predicate))

    # ------------------------------------------------------------------
    # Supporting queries

    def record_count(self, run_id: str) -> int:
        rows = self._fetchall(
            "SELECT COUNT(*) FROM records WHERE run_id = ?", (run_id,)
        )
        return rows[0][0]

    def all_records(
        self, run_id: str, predicate: ScanPredicate | None = None
    ) -> Iterator[ProbeRecord]:
        """Stream a run's records in insert order.

        Rows are fetched in batches and converted outside the lock, so a
        million-record run neither materializes in memory nor starves
        concurrent writers for the duration of the export. A predicated
        stream is a subsequence of the unpredicated one — the ``ORDER BY
        id`` arrival order is untouched by filtering.
        """
        clause, clause_params = _predicate_clauses(predicate)
        sql = (
            f"SELECT {_SELECT_COLUMNS} FROM records WHERE run_id = ?"
            f"{clause} ORDER BY id ASC"
        )
        sites: dict = {}
        for rows in self._stream(sql, (run_id, *clause_params)):
            for row in rows:
                yield _row_to_record(row, sites)

    def population_stats(
        self, run_id: str, predicate: ScanPredicate | None = None
    ) -> dict[str, int]:
        """Unique methods/interfaces/components/processes — the Figure-5 stats.

        All eight counters come out of one table scan instead of eight
        sequential full scans under the global lock. A predicate narrows
        the population to matching records with the same semantics as a
        predicated scan (``ScanPredicate.matches``), so the figures stay
        bit-identical across backends.
        """
        clause, clause_params = _predicate_clauses(predicate)
        rows = self._fetchall(
            f"""
            SELECT
                COUNT(CASE WHEN event = 1 THEN 1 END),
                COUNT(DISTINCT interface || '::' || operation),
                COUNT(DISTINCT interface),
                COUNT(DISTINCT component),
                COUNT(DISTINCT object_id),
                COUNT(DISTINCT process),
                COUNT(DISTINCT process || '/' || thread_id),
                COUNT(DISTINCT chain_uuid)
            FROM records WHERE run_id = ?{clause}
            """,
            (run_id, *clause_params),
        )
        row = rows[0]
        return {
            "calls": row[0],
            "unique_methods": row[1],
            "unique_interfaces": row[2],
            "unique_components": row[3],
            "unique_objects": row[4],
            "processes": row[5],
            "threads": row[6],
            "chains": row[7],
        }

    def runs(self) -> list[RunMetadata]:
        rows = self._fetchall(
            "SELECT run_id, description, monitor_mode, extra FROM runs ORDER BY run_id"
        )
        return [
            RunMetadata(
                run_id=row[0],
                description=row[1],
                monitor_mode=row[2],
                extra=json.loads(row[3]),
            )
            for row in rows
        ]

    def close(self) -> None:
        with self._lock:
            self._conn.close()
