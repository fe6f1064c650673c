"""Remote ingest: shipped ``.seg`` files into the central store.

The coordinator side of a cluster collection
(:mod:`repro.cluster.control`). Each worker ships the sealed segments
its collections committed as exact file bytes; this module decodes them
with the ordinary :class:`~repro.store.SegmentReader`, restores each
worker's arrival order from the footer's ranks, and re-inserts the rows
into the central :class:`~repro.store.backend.StorageBackend` in worker
order, in one transaction, under one run whose merged metadata is what a
single :class:`~repro.collector.LogCollector` pass over the concatenated
process list would have written — that equality is what makes a cluster
run's DSCG/CCSG output bit-identical to the single-process reference.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from repro.core.records import SCHEMA_VERSION, RunMetadata
from repro.errors import StoreError
from repro.store.segment import SegmentReader


@dataclass
class Shipment:
    """One worker's decoded shipment, ready for central re-ingest."""

    run_id: str
    processes: list[str]
    loss: dict
    monitor_mode: str
    record_count: int
    #: The records' rows (tuples), in the worker's local arrival order:
    #: what ``insert_records`` takes.
    records: list[tuple] = field(default_factory=list)


def receive_shipment(
    manifest: dict, segments: list[bytes], workdir: str | None = None
) -> Shipment:
    """Decode one worker's shipment: its manifest plus segment bytes.

    ``manifest`` is what :meth:`ShardedSpoolCollector.manifest` recorded
    (run id, record count, loss, processes, monitor mode, schema
    version); ``segments`` are the sealed files' exact bytes in commit
    order. The bytes are staged to ``workdir`` (a private temp dir by
    default) so :class:`SegmentReader` can mmap them, then decoded to
    rows in the worker's arrival order. Raises :class:`StoreError` on
    a schema or record-count mismatch, on a segment the reader refuses,
    and on a segment that does not open whole (one the reader would
    salvage), naming it and the bytes dropped.
    """
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise StoreError(
            f"shipment has record schema v{manifest.get('schema_version')}, "
            f"this build uses v{SCHEMA_VERSION}"
        )
    shipment = Shipment(
        run_id=str(manifest["run_id"]),
        processes=list(manifest.get("processes", [])),
        loss=dict(manifest.get("loss", {})),
        monitor_mode=str(manifest.get("monitor_mode", "")),
        record_count=int(manifest.get("record_count", 0)),
    )
    ranked: list[tuple[int, tuple]] = []
    with tempfile.TemporaryDirectory(dir=workdir) as staging:
        for index, data in enumerate(segments):
            path = os.path.join(staging, f"{index:06d}.seg")
            with open(path, "wb") as handle:
                handle.write(data)
            reader = SegmentReader(path)
            try:
                if reader.partial:
                    # Salvage regroups rows by chain and loses the ranks:
                    # the worker's arrival order would be silently gone.
                    raise StoreError(
                        f"shipped segment {index:06d}.seg of {shipment.run_id} does"
                        f" not open whole: {reader.dropped_bytes} bytes dropped"
                    )
                reader.load_ranked(ranked)
            finally:
                reader.close()
    ranked.sort(key=lambda pair: pair[0])
    shipment.records = [row for _rank, row in ranked]
    if len(shipment.records) != shipment.record_count:
        raise StoreError(
            f"shipment {shipment.run_id}: manifest promised "
            f"{shipment.record_count} records, decoded {len(shipment.records)}"
        )
    return shipment


def merge_loss(parts: list[dict]) -> dict:
    """Merge per-worker loss dicts the way one collector pass would."""
    merged = {
        "drain_retries": 0,
        "failed_drains": [],
        "records_dropped_at_probe": 0,
        "records_lost_in_delivery": 0,
        "records_uncollected": 0,
    }
    for part in parts:
        merged["drain_retries"] += int(part.get("drain_retries", 0))
        merged["failed_drains"].extend(part.get("failed_drains", []))
        merged["records_dropped_at_probe"] += int(
            part.get("records_dropped_at_probe", 0)
        )
        merged["records_lost_in_delivery"] += int(
            part.get("records_lost_in_delivery", 0)
        )
        merged["records_uncollected"] += int(part.get("records_uncollected", 0))
    merged["failed_drains"] = sorted(merged["failed_drains"])
    return merged


def merge_monitor_modes(modes: list[str]) -> str:
    """Union of per-worker monitor-mode strings, collector formatting."""
    values: set[str] = set()
    for part in modes:
        values.update(m for m in part.split(",") if m)
    return ",".join(sorted(values))


def ingest_shipments(
    backend,
    run_id: str,
    shipments: list[Shipment],
    description: str = "",
    extra_loss: list[dict] | None = None,
    dead_processes: list[str] | None = None,
) -> int:
    """Write ``shipments`` (in worker order) as one central run.

    ``extra_loss``/``dead_processes`` let the coordinator charge workers
    that died before shipping (kill -9): their process names join the
    run's process list and ``failed_drains``, and their last-reported
    buffer occupancy joins ``records_uncollected`` — so the balance
    ``stored + lost + uncollected == produced`` holds cluster-wide.

    Returns the number of records inserted.
    """
    processes: list[str] = []
    for shipment in shipments:
        processes.extend(shipment.processes)
    processes.extend(dead_processes or [])
    loss = merge_loss(
        [s.loss for s in shipments] + list(extra_loss or [])
    )
    monitor_mode = merge_monitor_modes([s.monitor_mode for s in shipments])
    inserted = 0
    with backend.bulk_ingest():
        backend.create_run(
            RunMetadata(
                run_id=run_id,
                description=description,
                monitor_mode=monitor_mode,
                extra={
                    "processes": processes,
                    "loss": loss,
                    "schema_version": SCHEMA_VERSION,
                },
            )
        )
        for shipment in shipments:
            inserted += backend.insert_records(run_id, shipment.records)
    return inserted
