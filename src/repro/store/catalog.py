"""Multi-run catalog: cross-run queries and the data-lifecycle tier.

A monitoring deployment accumulates *runs* faster than anyone re-reads
them; the catalog is the layer that keeps that growth useful and
bounded:

- **per-run summaries** — one cached JSON per run (record/chain counts,
  anchor-timestamp bounds, and per-operation wall-interval statistics
  folded into deterministic log2 histograms), folded straight from the
  run's frames and invalidated by record count;
- **cross-run queries** — "p99 of operation X over the last 50 runs":
  one predicated fold per live run, merged in catalog order;
- **retention / TTL** — :meth:`RunCatalog.apply_retention` downsamples
  runs beyond a count or age budget: the summary is built (if missing),
  marked ``downsampled``, and the run's segment files are deleted.
  Cross-run queries keep answering over downsampled runs from their
  summaries — interface/operation filters exactly, time ranges at
  run-bounds granularity, latency quantiles at histogram (log2)
  resolution.

Latency quantiles: when every selected run is scanned live the pooled
durations give exact nearest-rank percentiles
(``quantile_source="exact"``); as soon as a downsampled run contributes,
quantiles come from the merged histograms and report each bin's upper
bound (``quantile_source="histogram"``, ≤2x resolution) — deterministic
either way.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import StoreError
from repro.store.query import OpStats, ScanPredicate, ScanStats, merge_operations

if TYPE_CHECKING:
    from repro.store.store import SegmentStore

SUMMARY_FILE = "summary.json"
SUMMARY_VERSION = 1


@dataclass
class RunSummary:
    """The per-run footer summary the catalog caches (and keeps after
    downsampling, when it becomes the run's only representation)."""

    run_id: str
    records: int
    chains: int
    ts_min: int | None
    ts_max: int | None
    operations: dict[str, OpStats]
    downsampled: bool = False
    #: record count at build time — the cache-invalidation token.
    source_records: int = 0

    def to_dict(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "run_id": self.run_id,
            "records": self.records,
            "chains": self.chains,
            "ts_min": self.ts_min,
            "ts_max": self.ts_max,
            "downsampled": self.downsampled,
            "source_records": self.source_records,
            "operations": {
                key: stats.to_dict() for key, stats in sorted(self.operations.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSummary":
        return cls(
            run_id=data["run_id"],
            records=data["records"],
            chains=data["chains"],
            ts_min=data["ts_min"],
            ts_max=data["ts_max"],
            downsampled=data.get("downsampled", False),
            source_records=data.get("source_records", data["records"]),
            operations={
                key: OpStats.from_dict(value)
                for key, value in data["operations"].items()
            },
        )


@dataclass(frozen=True)
class RetentionPolicy:
    """What the catalog keeps at full fidelity.

    ``max_runs`` — newest N runs keep their segments; older ones are
    downsampled. ``ttl_seconds`` — runs whose ``meta.json`` is older
    than this are downsampled regardless of count. Both optional;
    downsampling is summary-then-delete, never delete-only.
    """

    max_runs: int | None = None
    ttl_seconds: float | None = None


@dataclass
class CrossRunResult:
    """A deterministic cross-run aggregation."""

    predicate: dict
    runs: list[dict]
    operations: dict[str, dict]
    records: int
    quantile_source: str
    skipped: list[dict]

    def to_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "runs": self.runs,
            "operations": self.operations,
            "records": self.records,
            "quantile_source": self.quantile_source,
            "skipped": self.skipped,
        }


class RunCatalog:
    """Directory of runs over one :class:`~repro.store.SegmentStore`."""

    def __init__(self, store: "SegmentStore"):
        self.store = store

    # ------------------------------------------------------------------
    # Run enumeration (oldest → newest)

    def _run_dir(self, run_id: str) -> str:
        return os.path.join(self.store.path, "runs", run_id)

    def _run_age_key(self, run_id: str) -> tuple[float, str]:
        meta = os.path.join(self._run_dir(run_id), "meta.json")
        try:
            mtime = os.path.getmtime(meta)
        except OSError:
            mtime = 0.0
        return (mtime, run_id)

    def run_ids(self, last_n: int | None = None) -> list[str]:
        """Run ids oldest-first (by ``meta.json`` age, id tie-break);
        ``last_n`` keeps the newest N."""
        ids = sorted(
            (meta.run_id for meta in self.store.runs()), key=self._run_age_key
        )
        if last_n is not None:
            ids = ids[-last_n:] if last_n > 0 else []
        return ids

    # ------------------------------------------------------------------
    # Summaries

    def summary(self, run_id: str, refresh: bool = False) -> RunSummary:
        """The run's cached summary, rebuilt when the run grew."""
        cached = None if refresh else self._peek_summary(run_id)
        if cached is not None and (
            cached.downsampled
            or cached.source_records == self.store.record_count(run_id)
        ):
            return cached
        summary = self._build_summary(run_id)
        self._write_summary(summary)
        return summary

    def summaries(self, refresh: bool = False) -> list[RunSummary]:
        return [self.summary(run_id, refresh=refresh) for run_id in self.run_ids()]

    def _build_summary(self, run_id: str) -> RunSummary:
        folds = self.store.fold_segments(run_id, anchors=True)
        bounds = [fold.bounds for fold in folds if fold.bounds is not None]
        ts_min = min((lo for lo, _hi in bounds), default=None)
        ts_max = max((hi for _lo, hi in bounds), default=None)
        operations, chains = merge_operations(folds)
        for stats in operations.values():
            # A summary keeps the histogram, not the raw intervals.
            stats.hist, stats.durations = stats.histogram(), None
        records = sum(stats.records for stats in operations.values())
        return RunSummary(
            run_id=run_id, records=records, chains=chains,
            ts_min=ts_min, ts_max=ts_max, operations=operations,
            source_records=records,
        )

    def _write_summary(self, summary: RunSummary) -> None:
        run_dir = self._run_dir(summary.run_id)
        if not os.path.isdir(run_dir):
            raise StoreError(f"run {summary.run_id!r} has no directory to"
                             f" summarize into")
        path = os.path.join(run_dir, SUMMARY_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(summary.to_dict(), handle, sort_keys=True)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Cross-run queries

    def query(
        self,
        predicate: ScanPredicate | None = None,
        last_n: int | None = None,
        run_ids: Iterable[str] | None = None,
    ) -> CrossRunResult:
        """Aggregate per-operation stats across runs under one predicate.

        Live runs are scanned with full predicate pushdown; downsampled
        runs answer from their summaries (interface/operation filters
        exact, time range at run-bounds granularity — a partially
        overlapping downsampled run contributes whole and is flagged
        ``approximate``; chain-prefix predicates skip downsampled runs
        entirely, listed under ``skipped``). Runs are scanned one after
        another: the decode is pure Python, and a thread pool over it
        measured slower than the serial loop at every width.
        """
        predicate = predicate or ScanPredicate()
        selected = list(run_ids) if run_ids is not None else self.run_ids(last_n)
        merged: dict[str, OpStats] = {}
        rows: list[dict] = []
        skipped: list[dict] = []
        any_summary = False
        for run_id in selected:
            summary = self._peek_summary(run_id)
            if summary is None or not summary.downsampled:
                scan = ScanStats()
                ops, _chains = self.store.fold_operations(run_id, predicate, scan)
                rows.append({
                    "run_id": run_id,
                    "source": "scan",
                    "records": sum(op.records for op in ops.values()),
                    "scan": scan.to_dict(),
                })
            else:
                ops, row, skip = self._summary_slice(summary, predicate)
                if skip is not None:
                    skipped.append(skip)
                    continue
                if ops:  # an empty slice shouldn't degrade quantiles
                    any_summary = True
                rows.append(row)
            for key, stats in ops.items():
                target = merged.get(key)
                if target is None:
                    merged[key] = target = OpStats(durations=[])
                target.merge(stats)
        exact = not any_summary
        operations = {
            key: merged[key].render(exact=exact) for key in sorted(merged)
        }
        return CrossRunResult(
            predicate=predicate.to_dict(),
            runs=rows,
            operations=operations,
            records=sum(row["records"] for row in rows),
            quantile_source="exact" if exact else "histogram",
            skipped=skipped,
        )

    def _peek_summary(self, run_id: str) -> RunSummary | None:
        """The cached summary if one exists on disk (never builds)."""
        path = os.path.join(self._run_dir(run_id), SUMMARY_FILE)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                return RunSummary.from_dict(json.load(handle))
        except (ValueError, KeyError):
            return None

    def _summary_slice(
        self, summary: RunSummary, predicate: ScanPredicate
    ) -> tuple[dict[str, OpStats], dict, dict | None]:
        """Apply what a summary *can* of the predicate; else skip-report."""
        if predicate.chain_prefix is not None:
            return {}, {}, {
                "run_id": summary.run_id,
                "reason": "chain-prefix predicate cannot be answered from a"
                          " downsampled summary",
            }
        approximate = False
        if predicate.has_time_range:
            bounds = (
                (summary.ts_min, summary.ts_max)
                if summary.ts_min is not None else None
            )
            if bounds is None:
                return {}, {}, {
                    "run_id": summary.run_id,
                    "reason": "downsampled summary has no timestamp bounds",
                }
            lo, hi = predicate.ts_min, predicate.ts_max
            if (lo is not None and bounds[1] < lo) or (
                hi is not None and bounds[0] > hi
            ):
                # Entirely outside the window: contributes nothing.
                row = {"run_id": summary.run_id, "source": "summary",
                       "records": 0, "approximate": False}
                return {}, row, None
            approximate = not (
                (lo is None or bounds[0] >= lo) and (hi is None or bounds[1] <= hi)
            )
        ops: dict[str, OpStats] = {}
        for key, stats in summary.operations.items():
            # Interfaces are themselves "Module::Name" qualified, so the
            # operation is everything after the LAST separator.
            interface, _, operation = key.rpartition("::")
            if predicate.interfaces is not None and interface not in predicate.interfaces:
                continue
            if predicate.operations is not None and operation not in predicate.operations:
                continue
            copy = OpStats()
            copy.merge(stats)
            ops[key] = copy
        row = {
            "run_id": summary.run_id,
            "source": "summary",
            "records": sum(op.records for op in ops.values()),
            "approximate": approximate,
        }
        return ops, row, None

    # ------------------------------------------------------------------
    # Lifecycle

    def downsample_run(self, run_id: str) -> RunSummary:
        """Replace a run's segments with its summary (idempotent)."""
        summary = self.summary(run_id)
        if summary.downsampled:
            return summary
        summary.downsampled = True
        self._write_summary(summary)
        self.store.drop_segments(run_id)
        return summary

    def apply_retention(
        self, policy: RetentionPolicy, now: float | None = None
    ) -> dict:
        """Downsample every run outside the policy; returns a report."""
        now = time.time() if now is None else now
        ids = self.run_ids()  # oldest first
        expire: list[str] = []
        if policy.max_runs is not None and len(ids) > policy.max_runs:
            expire.extend(
                ids[: len(ids) - policy.max_runs] if policy.max_runs > 0 else ids
            )
        if policy.ttl_seconds is not None:
            for run_id in ids:
                age = now - self._run_age_key(run_id)[0]
                if age > policy.ttl_seconds and run_id not in expire:
                    expire.append(run_id)
        expire.sort(key=self._run_age_key)
        downsampled = []
        for run_id in expire:
            summary = self._peek_summary(run_id)
            if summary is not None and summary.downsampled:
                continue
            self.downsample_run(run_id)
            downsampled.append(run_id)
        return {
            "runs": len(ids),
            "downsampled": downsampled,
            "kept_full": len(ids) - sum(
                1 for run_id in ids
                if (s := self._peek_summary(run_id)) is not None and s.downsampled
            ),
        }

    # ------------------------------------------------------------------

    def catalog_info(self) -> dict:
        """The ``store-info --catalog`` payload."""
        runs = []
        for run_id in self.run_ids():
            summary = self._peek_summary(run_id)
            runs.append({
                "run_id": run_id,
                "records": self.store.record_count(run_id),
                "summary_cached": summary is not None,
                "downsampled": summary.downsampled if summary else False,
                "summary_records": summary.records if summary else None,
                "ts_min": summary.ts_min if summary else None,
                "ts_max": summary.ts_max if summary else None,
                "operations": len(summary.operations) if summary else None,
            })
        return {"runs": runs, "count": len(runs)}
