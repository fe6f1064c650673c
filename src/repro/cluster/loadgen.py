"""Open-loop load generation with seeded arrivals.

Closed-loop drivers (a fixed pool of threads, each issuing the next
call when the previous returns) understate latency at saturation: when
the system slows down, a closed loop slows its *offered* load down with
it, hiding the queueing delay real users would see. The cluster's load
generator is **open-loop**: arrivals follow a seeded Poisson process at
a fixed offered rate, each call's latency is measured from its
*scheduled* arrival time (not from when the generator got around to
sending it — the standard coordinated-omission correction), and
arrivals that find the in-flight cap exhausted are counted as **shed**
rather than silently queued.

Sweeping the offered rate and watching where goodput stops tracking it
gives the saturation knee; at a think time of Z seconds per user, a
sustainable goodput of X calls/s models ``X * Z`` concurrent users
(interactive closed-network law) — that is the "millions of users"
arithmetic ``bench_load_scale`` reports.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

#: Geometric latency buckets: bucket ``i`` holds latencies in
#: ``[BASE * GROWTH**i, BASE * GROWTH**(i+1))`` ns. Fixed boundaries make
#: histograms mergeable across workers by element-wise addition; 1.2x
#: growth bounds percentile error to <20% of the value, plenty for knee
#: detection.
_HIST_BASE_NS = 1_000.0
_HIST_GROWTH = 1.2
_HIST_BUCKETS = 160  # covers ~1us .. ~4800s


def _bucket_index(latency_ns: int) -> int:
    if latency_ns < _HIST_BASE_NS:
        return 0
    index = 0
    bound = _HIST_BASE_NS
    # Loop instead of log(): ~40 iterations worst case, called off the
    # measurement path only at record time; avoids float-precision edge
    # cases at bucket boundaries differing across platforms.
    while latency_ns >= bound * _HIST_GROWTH and index < _HIST_BUCKETS - 1:
        bound *= _HIST_GROWTH
        index += 1
    return index


@dataclass
class LatencyHistogram:
    """Mergeable geometric-bucket latency histogram."""

    counts: list[int] = field(
        default_factory=lambda: [0] * _HIST_BUCKETS
    )
    total: int = 0

    def record(self, latency_ns: int) -> None:
        self.counts[_bucket_index(latency_ns)] += 1
        self.total += 1

    def merge(self, other: "LatencyHistogram") -> None:
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total

    @classmethod
    def from_counts(cls, counts: list[int]) -> "LatencyHistogram":
        if len(counts) != _HIST_BUCKETS:
            raise ValueError(
                f"expected {_HIST_BUCKETS} buckets, got {len(counts)}"
            )
        return cls(counts=list(counts), total=sum(counts))

    def percentile(self, q: float) -> int | None:
        """Upper bound (ns) of the bucket holding the q-th percentile."""
        if self.total == 0:
            return None
        threshold = q * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= threshold:
                return int(_HIST_BASE_NS * _HIST_GROWTH ** (index + 1))
        return int(_HIST_BASE_NS * _HIST_GROWTH**_HIST_BUCKETS)

    def summary_ms(self) -> dict:
        def _ms(q):
            value = self.percentile(q)
            return None if value is None else round(value / 1e6, 3)

        return {"p50_ms": _ms(0.50), "p99_ms": _ms(0.99), "p999_ms": _ms(0.999)}


@dataclass
class LoadResult:
    """One open-loop run at one offered rate."""

    offered: int  # arrivals scheduled
    completed: int
    shed: int  # arrivals dropped at the in-flight cap
    errors: int
    duration_ns: int
    histogram: LatencyHistogram

    @property
    def goodput(self) -> float:
        """Successful calls per second of wall time."""
        if self.duration_ns <= 0:
            return 0.0
        return self.completed / (self.duration_ns / 1e9)

    def to_json(self) -> dict:
        payload = {
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "duration_ns": self.duration_ns,
            "goodput_per_s": round(self.goodput, 1),
            "histogram": list(self.histogram.counts),
        }
        payload.update(self.histogram.summary_ms())
        return payload


def merge_results(parts: list[LoadResult]) -> LoadResult:
    """Aggregate per-worker results for one load step (duration = max:
    workers run concurrently, so wall time is the slowest worker's)."""
    merged = LoadResult(0, 0, 0, 0, 0, LatencyHistogram())
    for part in parts:
        merged.offered += part.offered
        merged.completed += part.completed
        merged.shed += part.shed
        merged.errors += part.errors
        merged.duration_ns = max(merged.duration_ns, part.duration_ns)
        merged.histogram.merge(part.histogram)
    return merged


async def open_loop(
    call,
    rate_per_s: float,
    arrivals: int,
    seed: int,
    max_inflight: int = 4096,
) -> LoadResult:
    """Drive ``arrivals`` Poisson arrivals at ``rate_per_s`` through the
    async callable ``call(i)``; returns the measured :class:`LoadResult`.

    Latency is completion minus *scheduled* arrival. An arrival that
    finds ``max_inflight`` calls outstanding is shed immediately — an
    open-loop generator must never queue behind the system under test,
    or it degenerates into a closed loop.
    """
    import asyncio

    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be > 0")
    rng = random.Random(seed)
    histogram = LatencyHistogram()
    state = {"inflight": 0, "completed": 0, "errors": 0}
    tasks: list = []
    start_ns = time.perf_counter_ns()
    next_at_s = 0.0
    shed = 0

    async def _one(index: int, scheduled_ns: int) -> None:
        try:
            await call(index)
            state["completed"] += 1
            histogram.record(time.perf_counter_ns() - scheduled_ns)
        except BaseException:
            state["errors"] += 1
        finally:
            state["inflight"] -= 1

    for index in range(arrivals):
        next_at_s += rng.expovariate(rate_per_s)
        scheduled_ns = start_ns + int(next_at_s * 1e9)
        delay_s = (scheduled_ns - time.perf_counter_ns()) / 1e9
        if delay_s > 0:
            await asyncio.sleep(delay_s)
        if state["inflight"] >= max_inflight:
            shed += 1
            continue
        state["inflight"] += 1
        tasks.append(asyncio.ensure_future(_one(index, scheduled_ns)))
    if tasks:
        await asyncio.gather(*tasks)
    duration_ns = time.perf_counter_ns() - start_ns
    return LoadResult(
        offered=arrivals,
        completed=state["completed"],
        shed=shed,
        errors=state["errors"],
        duration_ns=duration_ns,
        histogram=histogram,
    )


def find_knee(
    steps: list[tuple[float, LoadResult]], efficiency: float = 0.95
) -> float | None:
    """The saturation knee: highest offered rate whose goodput still
    tracks it (goodput >= efficiency * offered)."""
    knee = None
    for rate, result in steps:
        if result.goodput >= efficiency * rate:
            knee = rate if knee is None else max(knee, rate)
    return knee


def modeled_users(goodput_per_s: float, think_s: float = 1.0) -> int:
    """Interactive-law user population a goodput sustains at a given
    think time: N = X * (R + Z) ~= X * Z when think dominates."""
    return int(goodput_per_s * think_s)
