"""Quiescence-time log collection.

"When the application ceases to exist or reaches a quiescent state (e.g.
finishes processing a collection of transactions), the scattered logs are
collected and eventually synthesized into a relational database"
(Section 3). The collector drains each process's local buffer — there is
no runtime coordination between probes and collection.
"""

from __future__ import annotations

import itertools
import time
import uuid
from typing import Iterable

from repro.core.records import SCHEMA_VERSION, RunMetadata
from repro.errors import TransientCollectorError
from repro.platform.process import SimProcess
from repro.store import MonitoringDatabase, StorageBackend
from repro.telemetry.metrics import NULL_COUNTER, NULL_HISTOGRAM, NULL_REGISTRY
from repro.telemetry.runtime import metrics_binder

_run_counter = itertools.count(1)

# Framework self-metrics (no-ops until repro.telemetry.enable()).
_TELEMETRY_ON = False
_DRAINS = NULL_COUNTER
_RECORDS = NULL_COUNTER
_DRAIN_NS = NULL_HISTOGRAM
_RETRIES = NULL_COUNTER
_FAILED_DRAINS = NULL_COUNTER
_LOST_RECORDS = NULL_COUNTER
_PROBE_DROPS = NULL_COUNTER


@metrics_binder
def _bind_metrics(registry) -> None:
    global _TELEMETRY_ON, _DRAINS, _RECORDS, _DRAIN_NS
    global _RETRIES, _FAILED_DRAINS, _LOST_RECORDS, _PROBE_DROPS
    _TELEMETRY_ON = registry is not None
    registry = registry or NULL_REGISTRY
    _DRAINS = registry.counter(
        "repro_collector_drains_total",
        "Per-process log-buffer drains performed by collectors.",
    )
    _RECORDS = registry.counter(
        "repro_collector_records_total",
        "Probe records gathered into monitoring databases.",
    )
    _DRAIN_NS = registry.histogram(
        "repro_collector_drain_ns",
        "Wall time to drain and insert one process's buffer, in ns.",
    )
    _RETRIES = registry.counter(
        "repro_collector_drain_retries_total",
        "Drain attempts repeated after a transient delivery failure.",
    )
    _FAILED_DRAINS = registry.counter(
        "repro_collector_failed_drains_total",
        "Process drains abandoned after exhausting every retry.",
    )
    _LOST_RECORDS = registry.counter(
        "repro_collector_lost_records_total",
        "Probe records lost on the probe->collector delivery path.",
    )
    _PROBE_DROPS = registry.counter(
        "repro_collector_probe_dropped_records_total",
        "Probe records dropped at the source by bounded log buffers.",
    )


def _generate_run_id() -> str:
    """A run id unique across collector instances and interpreters.

    The module-level counter restarts with every interpreter, so two
    processes (or two test runs appending to one database file) would
    both mint ``run-1``; the random suffix makes collisions vanishingly
    unlikely while keeping ids sortable by local sequence.
    """
    return f"run-{next(_run_counter)}-{uuid.uuid4().hex[:8]}"


class LogCollector:
    """Gathers per-process log buffers into a monitoring database.

    Collection is resilient: a drain that raises
    :class:`~repro.errors.TransientCollectorError` is retried with
    exponential backoff, and whatever is lost anyway — records dropped
    at the probe by a bounded buffer, records lost in delivery, or whole
    buffers left uncollected after exhausting retries — is accounted in
    the run's metadata (``extra["loss"]``) instead of silently vanishing.

    Any :class:`~repro.store.StorageBackend` works as the ``backend``
    sink, kept as ``self.database`` — the segment store (the product path),
    or by default the zero-setup in-memory SQLite reference backend.
    """

    def __init__(
        self,
        backend: "StorageBackend | None" = None,
        retries: int = 3,
        backoff_s: float = 0.05,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.database = backend if backend is not None else MonitoringDatabase()
        self.retries = retries
        self.backoff_s = backoff_s

    def _drain_with_retry(self, process: SimProcess, drain: bool) -> tuple[list, int, int]:
        """Drain one buffer, retrying transient failures.

        Returns ``(records, expected, retries_used)`` — probe rows when
        draining, which go to the store's encoder as they are, records
        from a snapshot (``drain=False``); ``expected`` is the
        buffer occupancy before the successful attempt, so the caller can
        charge ``expected - len(records)`` to in-delivery loss. Raises
        :class:`TransientCollectorError` once retries are exhausted.
        """
        buffer = process.log_buffer
        attempt = 0
        while True:
            expected = len(buffer)
            try:
                records = buffer.drain_rows() if drain else buffer.snapshot()
                return records, expected, attempt
            except TransientCollectorError:
                if attempt >= self.retries:
                    raise
                attempt += 1
                _RETRIES.inc()
                if self.backoff_s > 0:
                    time.sleep(self.backoff_s * (2 ** (attempt - 1)))

    def collect(
        self,
        processes: Iterable[SimProcess],
        run_id: str | None = None,
        description: str = "",
        drain: bool = True,
    ) -> str:
        """Collect all buffers into one run; returns the run id.

        With ``drain=True`` (default) the process buffers are emptied, so
        consecutive collections partition the records into disjoint runs.
        """
        if run_id is None:
            run_id = _generate_run_id()
        modes: set[str] = set()
        processes = list(processes)
        for process in processes:
            if process.monitor is not None:
                modes.add(process.monitor.config.mode.value)

        # Drain first (with retries), then ingest: the database transaction
        # should not stay open across sleeps, and the loss accounting must
        # be final before the run row is written.
        batches: list[tuple[SimProcess, list]] = []
        drain_retries = 0
        failed_drains: list[str] = []
        lost_in_delivery = 0
        uncollected = 0
        dropped_at_probe = 0
        for process in processes:
            started = time.perf_counter_ns() if _TELEMETRY_ON else 0
            try:
                records, expected, retries_used = self._drain_with_retry(process, drain)
            except TransientCollectorError:
                drain_retries += self.retries
                failed_drains.append(process.name)
                uncollected += len(process.log_buffer)
                _FAILED_DRAINS.inc()
                continue
            drain_retries += retries_used
            missing = expected - len(records)
            if missing > 0:
                lost_in_delivery += missing
                _LOST_RECORDS.inc(missing)
            dropped = getattr(process.log_buffer, "dropped", 0)
            if dropped:
                dropped_at_probe += dropped
                _PROBE_DROPS.inc(dropped)
            batches.append((process, records))
            if _TELEMETRY_ON:
                _DRAIN_NS.observe(time.perf_counter_ns() - started)
            _DRAINS.inc()

        loss = {
            "drain_retries": drain_retries,
            "failed_drains": sorted(failed_drains),
            "records_dropped_at_probe": dropped_at_probe,
            "records_lost_in_delivery": lost_in_delivery,
            "records_uncollected": uncollected,
        }
        # One transaction per collection: the run row and every process's
        # drained buffer commit together, instead of one fsync per drain.
        with self.database.bulk_ingest():
            self.database.create_run(
                RunMetadata(
                    run_id=run_id,
                    description=description,
                    monitor_mode=",".join(sorted(modes)),
                    extra={
                        "processes": [p.name for p in processes],
                        "loss": loss,
                        "schema_version": SCHEMA_VERSION,
                    },
                )
            )
            for _process, records in batches:
                inserted = self.database.insert_records(run_id, records)
                _RECORDS.inc(inserted)
        return run_id


def collect_run(
    processes: Iterable[SimProcess],
    database: "StorageBackend | None" = None,
    run_id: str | None = None,
    description: str = "",
) -> "tuple[StorageBackend, str]":
    """One-shot helper: collect ``processes`` into a (new) database."""
    collector = LogCollector(database)
    run = collector.collect(processes, run_id=run_id, description=description)
    return collector.database, run
