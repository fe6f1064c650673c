"""Per-host sharded collection into a local spool directory.

The paper's Section-3 architecture puts a collector *on each host*: it
drains that host's process-local logs at quiescence into local storage,
and only the sealed result crosses the network to the central analyzer.
:class:`ShardedSpoolCollector` is that per-host shard — a thin
composition of the ordinary :class:`~repro.collector.LogCollector` over
a host-local :class:`~repro.store.SegmentStore` whose directory is a
temporary spool area: each collection commits there as one sealed
segment, which is then *shipped* (see :mod:`repro.cluster.control`)
rather than analyzed in place.

Compaction is disabled on the shard: the central store re-ingests and
merges globally, so local merge passes would burn CPU on the monitored
host for nothing. A sealed segment is chain-grouped on disk; its footer
carries the records' arrival ranks, from which the central ingest
restores the worker's drain order.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.collector.collector import LogCollector
from repro.core.records import SCHEMA_VERSION
from repro.platform.process import SimProcess
from repro.store.store import SegmentStore


class ShardedSpoolCollector:
    """Drain local process buffers into sealed, shippable segments.

    Usage::

        shard = ShardedSpoolCollector(spool_dir)
        shard.collect(processes, run_id="...")   # commits one sealed segment
        manifest = shard.manifest(run_id)
        shard.seal()                  # closes the store
        segments = shard.segments(run_id)
        # ship manifest + segments, then discard spool_dir

    One shard instance serves one shipment; reuse the spool directory
    only after the previous shipment is acknowledged.
    """

    def __init__(self, spool_dir: str, retries: int = 3, backoff_s: float = 0.05):
        os.makedirs(spool_dir, exist_ok=True)
        self.spool_dir = spool_dir
        # auto_compact=0: a collection commits sealed and ships as it is.
        self.store = SegmentStore(spool_dir, auto_compact=0)
        self._collector = LogCollector(
            backend=self.store, retries=retries, backoff_s=backoff_s
        )
        self._sealed = False

    def collect(
        self,
        processes: Iterable[SimProcess],
        run_id: str,
        description: str = "",
    ) -> str:
        """Drain ``processes`` into the local store under ``run_id``.

        Loss accounting (drain retries, failed drains, probe drops,
        delivery loss, uncollected buffers) lands in the run metadata
        exactly as with a direct central collection — the shipping layer
        forwards it verbatim so end-to-end accounting still balances.
        """
        if self._sealed:
            raise RuntimeError("spool collector is sealed; create a new shard")
        return self._collector.collect(
            processes, run_id=run_id, description=description
        )

    def manifest(self, run_id: str) -> dict:
        """The shipment header fields for ``run_id`` (loss, processes,
        modes, counts) as recorded by the local collection."""
        for meta in self.store.runs():
            if meta.run_id == run_id:
                return {
                    "run_id": run_id,
                    "record_count": self.store.record_count(run_id),
                    "loss": meta.extra.get("loss", {}),
                    "processes": meta.extra.get("processes", []),
                    "monitor_mode": meta.monitor_mode,
                    "schema_version": meta.extra.get(
                        "schema_version", SCHEMA_VERSION
                    ),
                }
        raise KeyError(f"run {run_id!r} not collected into this spool")

    def segments(self, run_id: str) -> list[bytes]:
        """The sealed segment files of ``run_id``, as exact bytes, in
        commit order (call after :meth:`seal`)."""
        run_dir = os.path.join(self.spool_dir, "runs", run_id)
        names = sorted(
            name for name in os.listdir(run_dir)
            if name.endswith(".seg") and not name.startswith(".tmp")
        )
        segments = []
        for name in names:
            with open(os.path.join(run_dir, name), "rb") as handle:
                segments.append(handle.read())
        return segments

    def seal(self) -> None:
        """Close the local store: every committed segment is complete on
        disk, ready for shipping."""
        if not self._sealed:
            self._sealed = True
            self.store.close()
