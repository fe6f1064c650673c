"""Online spike detection over the streaming reconstructor.

Every completed invocation (the reconstructor's ``on_complete`` hook)
updates a rolling median/MAD baseline for its (interface, operation) and
is scored with a robust z. Detection is persistence-filtered: a single
slow call is noise, ``persistence`` *consecutive* anomalous completions
open an incident; ``cooldown`` consecutive normal completions close it
(or :meth:`StreamingDetector.finalize` closes whatever is still open).
At close, the :class:`~repro.analysis.streaming.ranker.CausalRanker`
scores every (component, function) that completed on the implicated
chains during the window and the result is emitted as an
:class:`~repro.analysis.streaming.incident.IncidentReport`.

Determinism: all state advances in record-application order, so a given
record stream (same seed, same arrival order) yields byte-identical
reports. Live polling may interleave *different chains'* records
differently between runs; replaying a collected run (the CLI and CI
path) is canonical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.analysis.dscg import CallNode, Dscg
from repro.analysis.latency import end_to_end_latency
from repro.analysis.streaming.baselines import RollingBaseline
from repro.analysis.streaming.incident import IncidentReport
from repro.analysis.streaming.ranker import (
    DEFAULT_WEIGHTS,
    CausalRanker,
    WindowCompletion,
)
from repro.analysis.streaming.reconstructor import StreamingReconstructor
from repro.core.records import ProbeRecord
from repro.platform.process import SimProcess
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry


@dataclass(frozen=True)
class DetectionConfig:
    """Tuning knobs for spike detection and causal ranking."""

    #: Rolling baseline window per (interface, operation), in completions.
    window: int = 64
    #: Completions a function needs before it may alarm (baseline warm-up).
    min_samples: int = 8
    #: Robust z at which one completion counts as anomalous.
    z_threshold: float = 4.0
    #: Consecutive anomalous completions required to open an incident.
    persistence: int = 3
    #: Consecutive normal completions required to close an incident.
    cooldown: int = 8
    #: Record-index bucket width for the temporal-correlation curves.
    bucket_records: int = 64
    #: Causes kept per incident report.
    top_causes: int = 5
    #: Completions retained for window reconstruction at incident close.
    history: int = 4096
    #: Bound on the reconstructor's out-of-order buffer.
    max_pending: int = 100_000
    #: (anomaly, resource contribution, temporal correlation) blend.
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "min_samples": self.min_samples,
            "z_threshold": self.z_threshold,
            "persistence": self.persistence,
            "cooldown": self.cooldown,
            "bucket_records": self.bucket_records,
            "top_causes": self.top_causes,
            "weights": list(self.weights),
        }


@dataclass
class _OpenIncident:
    function: str
    opened_at_completion: int
    opened_at_record: int
    trigger_z: float
    trigger_latency_ns: int
    baseline_median_ns: float
    baseline_mad_ns: float
    peak_z: float
    observations: int = 0
    anomalous_observations: int = 0
    consecutive_normal: int = 0
    implicated_chains: set[str] = field(default_factory=set)
    last_completion: int = 0
    last_record: int = 0


class _FunctionState:
    __slots__ = ("baseline", "consecutive_anomalous", "run_completions", "incident")

    def __init__(self, window: int):
        self.baseline = RollingBaseline(window)
        self.consecutive_anomalous = 0
        #: The current uninterrupted anomalous run (pre-incident).
        self.run_completions: list[WindowCompletion] = []
        self.incident: _OpenIncident | None = None


class StreamingDetector:
    """Live incident detection and causal ranking over a record stream.

    Not thread-safe by itself beyond what the underlying reconstructor
    serializes: completions are processed inline under the
    reconstructor's ingest lock, so one detector must be fed from its
    own ``ingest``/``poll`` calls only.
    """

    def __init__(
        self,
        config: DetectionConfig | None = None,
        registry: MetricsRegistry | None = None,
        on_incident: Callable[[IncidentReport], None] | None = None,
    ):
        self.config = config if config is not None else DetectionConfig()
        self.on_incident = on_incident
        self.incidents: list[IncidentReport] = []
        self.reconstructor = StreamingReconstructor(
            on_complete=self._on_complete, max_pending=self.config.max_pending
        )
        self.ranker = CausalRanker(
            weights=self.config.weights,
            bucket_records=self.config.bucket_records,
            z_norm=self.config.z_threshold,
        )
        self._functions: dict[str, _FunctionState] = {}
        self._history: deque[WindowCompletion] = deque(maxlen=self.config.history)
        self._completion_index = 0
        self._anomalous_total = 0
        registry = registry or NULL_REGISTRY
        self._m_records = registry.counter(
            "repro_streaming_records_total",
            "Probe records consumed by the streaming detector.",
        )
        self._m_completions = registry.counter(
            "repro_streaming_completions_total",
            "Invocations completed under streaming reconstruction.",
        )
        self._m_anomalous = registry.counter(
            "repro_streaming_anomalous_completions_total",
            "Completions scored beyond the robust-z threshold.",
        )
        self._m_incidents = registry.counter(
            "repro_streaming_incidents_total",
            "Incidents opened by persistence-filtered spike detection.",
        )
        self._m_open = registry.gauge(
            "repro_streaming_open_incidents",
            "Incidents currently open (spike still persisting).",
        )
        self._m_live_chains = registry.gauge(
            "repro_streaming_live_chains",
            "Chains with open frames in the streaming reconstructor.",
        )
        self._m_pending = registry.gauge(
            "repro_streaming_pending_records",
            "Out-of-order records buffered awaiting their gap record.",
        )

    # ------------------------------------------------------------------
    # Feeding

    def ingest(self, record: ProbeRecord) -> None:
        self.reconstructor.ingest(record)
        self._m_records.inc()

    def ingest_many(self, records: Iterable[ProbeRecord]) -> int:
        count = self.reconstructor.ingest_many(records)
        if count:
            self._m_records.inc(count)
        return count

    def poll(self, processes: Iterable[SimProcess]) -> int:
        new = self.reconstructor.poll(processes)
        if new:
            self._m_records.inc(new)
        self._m_live_chains.set(self.reconstructor.live_chain_count())
        self._m_pending.set(self.reconstructor.pending_records())
        return new

    def finalize(self) -> Dscg:
        """Flush the stream, close open incidents, return the final DSCG.

        The returned DSCG satisfies the batch-equivalence contract of
        :class:`~repro.analysis.streaming.reconstructor.StreamingReconstructor`.
        """
        dscg = self.reconstructor.finalize()
        for function in sorted(self._functions):
            state = self._functions[function]
            if state.incident is not None:
                self._close_incident(state, closed_by="finalize")
        self._m_open.set(0)
        return dscg

    # ------------------------------------------------------------------
    # Completion processing (runs under the reconstructor's ingest lock)

    def _on_complete(self, node: CallNode, record: ProbeRecord, record_index: int) -> None:
        self._m_completions.inc()
        latency = end_to_end_latency(node)
        if latency is None:
            return  # causality-only mode: no wall readings to score
        children_ns = 0
        for child in node.children:
            child_latency = end_to_end_latency(child)
            if child_latency is not None and child_latency > 0:
                children_ns += child_latency
        self._completion_index += 1
        function = node.function
        state = self._functions.get(function)
        if state is None:
            state = self._functions[function] = _FunctionState(self.config.window)
        baseline = state.baseline
        threshold = self.config.z_threshold
        # At or below the median z <= 0, which a positive threshold never
        # reaches, and a normal completion's z is not kept: skip the MAD.
        z = (
            baseline.score(latency)
            if baseline.count >= self.config.min_samples
            and (threshold <= 0.0 or latency > baseline.median())
            else 0.0
        )
        anomalous = z >= threshold
        # Positional: keywords cost ~0.7 us more per completion.
        completion = WindowCompletion(
            self._completion_index,
            record_index,
            function,
            node.component,
            node.chain_uuid,
            latency,
            max(latency - children_ns, 0),
            z if anomalous else 0.0,
        )
        self._history.append(completion)
        baseline.observe(latency)
        if anomalous:
            self._anomalous_total += 1
            self._m_anomalous.inc()
        self._advance_state(state, completion, anomalous)

    def _advance_state(
        self, state: _FunctionState, completion: WindowCompletion, anomalous: bool
    ) -> None:
        incident = state.incident
        if incident is None:
            if not anomalous:
                state.consecutive_anomalous = 0
                state.run_completions.clear()
                return
            state.consecutive_anomalous += 1
            state.run_completions.append(completion)
            if state.consecutive_anomalous >= self.config.persistence:
                self._open_incident(state)
            return

        incident.observations += 1
        incident.last_completion = completion.completion_index
        incident.last_record = completion.record_index
        if anomalous:
            incident.anomalous_observations += 1
            incident.consecutive_normal = 0
            incident.implicated_chains.add(completion.chain_uuid)
            incident.peak_z = max(incident.peak_z, completion.z)
        else:
            incident.consecutive_normal += 1
            if incident.consecutive_normal >= self.config.cooldown:
                self._close_incident(state, closed_by="cooldown")

    def _open_incident(self, state: _FunctionState) -> None:
        first = state.run_completions[0]
        baseline = state.baseline.snapshot()
        incident = _OpenIncident(
            function=first.function,
            opened_at_completion=first.completion_index,
            opened_at_record=first.record_index,
            trigger_z=first.z,
            trigger_latency_ns=first.latency_ns,
            baseline_median_ns=baseline.median,
            baseline_mad_ns=baseline.mad,
            peak_z=max(c.z for c in state.run_completions),
            observations=len(state.run_completions),
            anomalous_observations=len(state.run_completions),
            implicated_chains={c.chain_uuid for c in state.run_completions},
            last_completion=state.run_completions[-1].completion_index,
            last_record=state.run_completions[-1].record_index,
        )
        state.incident = incident
        state.consecutive_anomalous = 0
        state.run_completions = []
        self._m_incidents.inc()
        self._m_open.inc()

    def _close_incident(self, state: _FunctionState, closed_by: str) -> None:
        incident = state.incident
        assert incident is not None
        state.incident = None
        self._m_open.dec()
        window = [
            completion
            for completion in self._history
            if incident.opened_at_completion
            <= completion.completion_index
            <= incident.last_completion
        ]
        causes = self.ranker.rank(
            window,
            trigger_function=incident.function,
            implicated_chains=incident.implicated_chains,
            top=self.config.top_causes,
        )
        report = IncidentReport(
            function=incident.function,
            opened_at_completion=incident.opened_at_completion,
            opened_at_record=incident.opened_at_record,
            closed_at_completion=incident.last_completion,
            closed_at_record=incident.last_record,
            trigger_z=incident.trigger_z,
            trigger_latency_ns=incident.trigger_latency_ns,
            baseline_median_ns=incident.baseline_median_ns,
            baseline_mad_ns=incident.baseline_mad_ns,
            peak_z=incident.peak_z,
            observations=incident.observations,
            anomalous_observations=incident.anomalous_observations,
            closed_by=closed_by,
            implicated_chains=sorted(incident.implicated_chains),
            causes=causes,
        )
        self.incidents.append(report)
        if self.on_incident is not None:
            self.on_incident(report)

    # ------------------------------------------------------------------
    # Views

    def open_incident_count(self) -> int:
        return sum(1 for s in self._functions.values() if s.incident is not None)

    def stats(self) -> dict[str, int]:
        stats = self.reconstructor.stats()
        stats.update(
            {
                "completions_scored": self._completion_index,
                "anomalous_completions": self._anomalous_total,
                "incidents": len(self.incidents),
                "open_incidents": self.open_incident_count(),
            }
        )
        return stats
