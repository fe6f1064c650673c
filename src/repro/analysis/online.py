"""On-line causality monitoring (paper future work, Section 6).

"Other promising avenues for future research are ... to apply the global
causality capturing technique from the on-line perspective for
application-level system management."

The off-line analyzer collects at quiescence; this module consumes probe
records *as they are produced*. Reconstruction is not done here: the
monitor rides one
:class:`~repro.analysis.streaming.reconstructor.StreamingReconstructor`
(the resequencer, the buffer cursors and the shared Figure-4
:class:`~repro.analysis.statemachine.ChainBuilder`) and keeps only what
is its own, exposing:

- currently open invocations (who is in flight, where, for how long),
- per-function running latency statistics,
- threshold alerts (latency SLO violations, abnormal transitions),

which is exactly the "runtime quality of adaptation" hook the paper
contrasts with BBN's Resource Status Service.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from repro.analysis.dscg import WALL_END, AbnormalEvent, CallNode
from repro.analysis.quantiles import P2Quantile
from repro.analysis.streaming.reconstructor import StreamingReconstructor
from repro.core.records import ProbeRecord
from repro.platform.process import SimProcess
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry


@dataclass
class OpenInvocation:
    """One in-flight call on a live chain."""

    function: str
    object_id: str
    chain_uuid: str
    started_wall_ns: int | None
    depth: int
    #: Which probe opened the frame: "stub", or "skel" for the skeleton
    #: side of a oneway fork / an unmonitored client's call.
    opened_by: str = "stub"


@dataclass
class Alert:
    kind: str  # "latency" | "abnormal"
    function: str
    chain_uuid: str
    detail: str
    latency_ns: int | None = None


class LatencyStats(NamedTuple):
    """Per-function completed-call statistics (all latencies in ns)."""

    count: int
    mean_ns: float
    max_ns: int
    p50_ns: float
    p95_ns: float
    p99_ns: float


@dataclass
class _LiveStats:
    count: int = 0
    total_ns: int = 0
    max_ns: int = 0
    # Streaming P² quantile markers: O(1) memory per function however
    # long the run, no sample buffer to bound or rotate.
    p50: P2Quantile = field(default_factory=lambda: P2Quantile(0.50))
    p95: P2Quantile = field(default_factory=lambda: P2Quantile(0.95))
    p99: P2Quantile = field(default_factory=lambda: P2Quantile(0.99))

    def add(self, latency_ns: int) -> None:
        self.count += 1
        self.total_ns += latency_ns
        self.max_ns = max(self.max_ns, latency_ns)
        self.p50.observe(latency_ns)
        self.p95.observe(latency_ns)
        self.p99.observe(latency_ns)

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def snapshot(self) -> LatencyStats:
        return LatencyStats(
            count=self.count,
            mean_ns=self.mean_ns,
            max_ns=self.max_ns,
            p50_ns=self.p50.value(),
            p95_ns=self.p95.value(),
            p99_ns=self.p99.value(),
        )


class OnlineMonitor:
    """Streaming analyzer over live probe records.

    Feed records with :meth:`ingest` (or attach to processes and call
    :meth:`poll`). Thread-safe; alert callbacks fire inline with ingest.
    """

    def __init__(
        self,
        latency_slo_ns: int | None = None,
        on_alert: Callable[[Alert], None] | None = None,
        registry: MetricsRegistry | None = None,
        max_pending: int | None = 100_000,
    ):
        self.latency_slo_ns = latency_slo_ns
        self.on_alert = on_alert
        #: Bound on buffered out-of-order records across all chains; a
        #: chain whose gap record was lost in flight must not grow the
        #: monitor without limit. Overflow drops the incoming record.
        self.max_pending = max_pending
        self._stream = StreamingReconstructor(
            on_complete=self._on_complete,
            max_pending=max_pending,
            on_abnormal=self._on_abnormal,
            on_drop=self._on_drop,
        )
        # Live telemetry pipeline (Section 6, "on-line perspective"):
        # with a registry attached, every ingest keeps scrape-ready
        # gauges/histograms current; without one these are no-ops.
        registry = registry or NULL_REGISTRY
        self._m_inflight = registry.gauge(
            "repro_online_inflight_invocations",
            "Invocations currently open on live causal chains.",
        )
        self._m_live_chains = registry.gauge(
            "repro_online_live_chains",
            "Causal chains with at least one open invocation.",
        )
        self._m_completed = registry.counter(
            "repro_online_completed_calls_total",
            "Invocations completed (stub_end observed and matched).",
        )
        self._m_latency = registry.histogram(
            "repro_online_call_latency_ns",
            "Rolling end-to-end latency of completed calls, in ns.",
            labels=("function",),
        )
        self._m_slo_breaches = registry.counter(
            "repro_online_slo_breaches_total",
            "Completed calls whose latency exceeded the configured SLO.",
        )
        self._m_abnormal = registry.counter(
            "repro_online_abnormal_events_total",
            "Records that violated the Figure-4 state machine.",
        )
        self._m_pending = registry.gauge(
            "repro_online_pending_records",
            "Out-of-order records buffered awaiting their gap record.",
        )
        self._m_pending_dropped = registry.counter(
            "repro_online_pending_dropped_total",
            "Out-of-order records dropped because the buffer was full.",
        )
        self._stats: dict[str, _LiveStats] = defaultdict(_LiveStats)
        self._alerts: list[Alert] = []
        # Guards the monitor's own state; always taken before the
        # stream's lock, which the hooks below run under.
        self._lock = threading.Lock()
        #: One overflow alert per saturation episode, not one per drop.
        self._overflow_alerted = False

    # ------------------------------------------------------------------
    # Feeding: the stream resequences, runs the machine, calls the hooks

    def ingest(self, record: ProbeRecord) -> None:
        """Advance live chain state with one record."""
        with self._lock:
            self._stream.ingest(record)
            self._refresh_locked()

    def ingest_many(self, records: Iterable[ProbeRecord]) -> None:
        with self._lock:
            self._stream.ingest_many(records)
            self._refresh_locked()

    def poll(self, processes: Iterable[SimProcess]) -> int:
        """Pull any new records from process buffers (non-draining)."""
        with self._lock:
            new = self._stream.poll(processes)
            self._refresh_locked()
        return new

    def _refresh_locked(self) -> None:
        """Bring the gauges up to the stream's O(1) counters; an overflow
        episode ends once the buffer has room again."""
        stats = self._stream.stats()
        pending = stats["pending_records"]
        self._m_inflight.set(stats["open_frames"])
        self._m_live_chains.set(stats["live_chains"])
        self._m_pending.set(pending)
        if self._overflow_alerted and pending < self.max_pending:
            self._overflow_alerted = False

    # ------------------------------------------------------------------
    # Stream hooks (run under both locks)

    def _on_complete(self, node: CallNode, record: ProbeRecord, _index: int) -> None:
        """A frame closed at its end probe; update stats and metrics."""
        if node.parent is None:
            # The chain is idle: drop its tree so a monitor that never
            # finalizes holds state for live chains only.
            self._stream.release(node.chain_uuid)
        self._m_completed.inc()
        # The frame was opened by probe 1, or by probe 2 when it has no
        # stub side (oneway skeleton side, unmonitored client).
        started_wall_ns = (node.stub_start or node.skel_start)[WALL_END]
        if started_wall_ns is None or record.wall_start is None:
            return
        latency = record.wall_start - started_wall_ns
        function = node.function
        self._stats[function].add(latency)
        self._m_latency.labels(function).observe(latency)
        if self.latency_slo_ns is not None and latency > self.latency_slo_ns:
            self._m_slo_breaches.inc()
            self._raise_alert(
                Alert(
                    kind="latency",
                    function=function,
                    chain_uuid=node.chain_uuid,
                    detail=f"latency {latency}ns exceeds SLO"
                    f" {self.latency_slo_ns}ns",
                    latency_ns=latency,
                )
            )

    def _on_abnormal(self, event: AbnormalEvent) -> None:
        self._m_abnormal.inc()
        self._raise_alert(
            Alert(
                kind="abnormal",
                function=event.record.function,
                chain_uuid=event.chain_uuid,
                detail=event.reason,
            )
        )

    def _on_drop(self, record: ProbeRecord) -> None:
        self._m_pending_dropped.inc()
        if not self._overflow_alerted:
            self._overflow_alerted = True
            self._raise_alert(
                Alert(
                    kind="overflow",
                    function=record.function,
                    chain_uuid=record.chain_uuid,
                    detail=f"pending-record buffer full ({self.max_pending});"
                    " dropping out-of-order records",
                )
            )

    def _raise_alert(self, alert: Alert) -> None:
        self._alerts.append(alert)
        if self.on_alert is not None:
            self.on_alert(alert)

    # ------------------------------------------------------------------
    # Views

    def open_invocations(self) -> list[OpenInvocation]:
        """Everything currently in flight, deepest frames last."""
        result = []
        for node in self._stream.open_frames():
            result.append(
                OpenInvocation(
                    function=node.function,
                    object_id=node.object_id,
                    chain_uuid=node.chain_uuid,
                    started_wall_ns=(node.stub_start or node.skel_start)[WALL_END],
                    depth=node.depth() + 1,
                    opened_by="stub" if node.stub_start is not None else "skel",
                )
            )
        return result

    def live_chain_count(self) -> int:
        return self._stream.live_chain_count()

    def completed_calls(self) -> int:
        return self._stream.completed_nodes()

    def alerts(self) -> list[Alert]:
        with self._lock:
            return list(self._alerts)

    def pending_records(self) -> int:
        """Out-of-order records currently buffered awaiting their gap."""
        return self._stream.pending_records()

    @property
    def pending_dropped(self) -> int:
        """Out-of-order records dropped because the buffer was full."""
        return self._stream.pending_dropped

    def latency_stats(self) -> dict[str, LatencyStats]:
        """function -> :class:`LatencyStats` for completed calls.

        Percentiles are streaming P² estimates: exact up to five
        observations, marker-interpolated beyond — no retained samples.
        """
        with self._lock:
            return {
                function: stats.snapshot()
                for function, stats in self._stats.items()
            }
