"""Causal root-cause ranking over an incident window.

When a spike persists on some function F, *every* ancestor of the real
culprit spikes too — F's latency contains its callees' latencies, so a
flat "what got slow" list names the whole call path. The ranker
disentangles that using the live DSCG: each completion's **self time**
(its measured window minus its children's windows) isolates where the
extra nanoseconds were actually spent, and three per-candidate signals
are blended into one score:

- **anomaly** — how abnormal the candidate's own latency was against
  its rolling baseline (mean positive robust z, squashed to [0, 1));
- **resource contribution** — the candidate's share of all self time
  spent on the implicated chains during the window (the "energy
  attribution" term of RCA-style monitors);
- **temporal correlation** — cosine similarity between the candidate's
  per-bucket self-time curve and the trigger function's latency curve
  across the window (did it surge *when* the symptom surged?).

``score = 0.4 * anomaly + 0.4 * resource + 0.2 * correlation`` by
default, candidates sorted by descending score with a stable
(component, function) tie-break — deterministic given the stream.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.streaming.incident import CauseScore

#: (anomaly, resource contribution, temporal correlation) blend.
DEFAULT_WEIGHTS: tuple[float, float, float] = (0.4, 0.4, 0.2)


@dataclass(slots=True)
class WindowCompletion:
    """One completed invocation as the detector observed it (built once per
    completion and never changed; not frozen, whose constructor pays an
    ``object.__setattr__`` per field)."""

    completion_index: int
    record_index: int
    function: str
    component: str
    chain_uuid: str
    latency_ns: int
    self_ns: int
    z: float


class CausalRanker:
    """Scores (component, function) candidates for one incident window."""

    def __init__(
        self,
        weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
        bucket_records: int = 64,
        z_norm: float = 4.0,
    ):
        if len(weights) != 3 or any(w < 0 for w in weights):
            raise ValueError("weights must be three non-negative numbers")
        self.weights = weights
        self.bucket_records = max(1, bucket_records)
        self.z_norm = z_norm

    # ------------------------------------------------------------------

    def rank(
        self,
        completions: list[WindowCompletion],
        trigger_function: str,
        implicated_chains: set[str],
        top: int = 5,
    ) -> list[CauseScore]:
        """Rank candidates observed on the implicated chains.

        ``completions`` is everything that completed during the incident
        window (any function, any chain); only completions on implicated
        chains become candidates, but the trigger function's own curve is
        built from all its window completions so the correlation target
        is well-populated.
        """
        trigger_curve = self._bucket_curve(
            [c for c in completions if c.function == trigger_function],
            lambda c: float(max(c.latency_ns, 0)),
        )

        candidates: dict[tuple[str, str], list[WindowCompletion]] = defaultdict(list)
        for completion in completions:
            if completion.chain_uuid in implicated_chains:
                candidates[(completion.component, completion.function)].append(
                    completion
                )
        if not candidates:
            return []

        total_self_ns = sum(
            max(c.self_ns, 0) for group in candidates.values() for c in group
        )

        scored: list[CauseScore] = []
        for (component, function), group in candidates.items():
            self_ns = sum(max(c.self_ns, 0) for c in group)
            resource = self_ns / total_self_ns if total_self_ns > 0 else 0.0
            mean_z = sum(max(c.z, 0.0) for c in group) / len(group)
            anomaly = mean_z / (mean_z + self.z_norm) if mean_z > 0.0 else 0.0
            curve = self._bucket_curve(group, lambda c: float(max(c.self_ns, 0)))
            correlation = self._cosine(curve, trigger_curve)
            w_anomaly, w_resource, w_temporal = self.weights
            scored.append(
                CauseScore(
                    component=component,
                    function=function,
                    score=w_anomaly * anomaly
                    + w_resource * resource
                    + w_temporal * correlation,
                    anomaly=anomaly,
                    resource_share=resource,
                    temporal_correlation=correlation,
                    observations=len(group),
                    anomalous_observations=sum(1 for c in group if c.z > 0.0),
                    self_ns_total=self_ns,
                )
            )

        scored.sort(key=lambda c: (-c.score, c.component, c.function))
        return scored[:top]

    # ------------------------------------------------------------------

    def _bucket_curve(self, group, value_of) -> dict[int, float]:
        """Record-index-bucketed activity curve for one candidate."""
        curve: dict[int, float] = defaultdict(float)
        for completion in group:
            curve[completion.record_index // self.bucket_records] += value_of(
                completion
            )
        return dict(curve)

    @staticmethod
    def _cosine(a: dict[int, float], b: dict[int, float]) -> float:
        if not a or not b:
            return 0.0
        dot = sum(value * b.get(bucket, 0.0) for bucket, value in sorted(a.items()))
        norm_a = math.sqrt(sum(value * value for value in a.values()))
        norm_b = math.sqrt(sum(value * value for value in b.values()))
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)
