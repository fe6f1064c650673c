"""Framework self-metrics: counters, gauges, and fixed-boundary histograms.

The monitoring stack of the paper observes *applications*; this module
observes the monitoring stack itself, which is what makes its overhead
claim (Section 4's "light-weighted probes") auditable at runtime instead
of only in offline benchmarks.

Design constraints, in order:

1. **The metrics-off path must cost nothing.** Instrumented call sites
   hold :data:`NULL_COUNTER`-style singletons by default; an update is a
   single no-op method call with no allocation, no branch on a config
   object, and no lock.
2. **The metrics-on hot path must not serialize threads.** Counters and
   histograms are lock-striped: each update takes one of a small set of
   locks selected by the calling thread's identity, so concurrent probes
   on different threads almost never contend. Reads merge the stripes.
3. **Values are exact.** Striping shards the locks, not the arithmetic —
   a read sums every stripe under its lock, so N threads doing M
   increments always total exactly N*M.

Histogram boundaries default to nanosecond latency buckets spanning 1 us
to 10 s, matching the probe wall/CPU readings which are all integers of
nanoseconds.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterator, Sequence

from repro.errors import MonitorError

#: Nanosecond latency buckets: 1 us .. 10 s in a 1-2.5-5 progression.
DEFAULT_LATENCY_BOUNDARIES_NS: tuple[int, ...] = (
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
)

_STRIPE_COUNT = 8  # power of two; plenty for the simulated thread pools
_STRIPE_MASK = _STRIPE_COUNT - 1


def _stripe_index() -> int:
    """Pick a stripe for the calling thread.

    Thread identities on CPython are addresses of thread structs, so the
    low bits carry no entropy; fold the middle bits down instead.
    """
    ident = threading.get_ident()
    return ((ident >> 6) ^ (ident >> 16)) & _STRIPE_MASK


class _CounterStripe:
    __slots__ = ("lock", "value")

    def __init__(self):
        self.lock = threading.Lock()
        self.value = 0


class Counter:
    """Monotonically increasing counter (lock-striped, exact on read)."""

    kind = "counter"
    __slots__ = ("_stripes",)

    def __init__(self):
        self._stripes = tuple(_CounterStripe() for _ in range(_STRIPE_COUNT))

    def inc(self, amount: int | float = 1) -> None:
        stripe = self._stripes[_stripe_index()]
        with stripe.lock:
            stripe.value += amount

    def value(self) -> int | float:
        total = 0
        for stripe in self._stripes:
            with stripe.lock:
                total += stripe.value
        return total


class Gauge:
    """A value that can go up and down (in-flight calls, queue depths)."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    def value(self) -> int | float:
        with self._lock:
            return self._value


class _HistogramStripe:
    __slots__ = ("lock", "counts", "sum")

    def __init__(self, bucket_count: int):
        self.lock = threading.Lock()
        self.counts = [0] * bucket_count
        self.sum = 0


class Histogram:
    """Fixed-boundary histogram (lock-striped).

    ``boundaries`` are upper bounds: an observation lands in the first
    bucket whose boundary is >= the value (Prometheus ``le`` semantics);
    values above the last boundary land in the implicit +Inf bucket.
    """

    kind = "histogram"
    __slots__ = ("boundaries", "_stripes")

    def __init__(self, boundaries: Sequence[int | float] = DEFAULT_LATENCY_BOUNDARIES_NS):
        bounds = tuple(boundaries)
        if not bounds:
            raise MonitorError("histogram needs at least one bucket boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MonitorError("histogram boundaries must be strictly increasing")
        self.boundaries = bounds
        self._stripes = tuple(
            _HistogramStripe(len(bounds) + 1) for _ in range(_STRIPE_COUNT)
        )

    def observe(self, value: int | float) -> None:
        index = bisect_left(self.boundaries, value)
        stripe = self._stripes[_stripe_index()]
        with stripe.lock:
            stripe.counts[index] += 1
            stripe.sum += value

    def snapshot(self) -> tuple[list[int], int | float, int]:
        """Merged ``(per-bucket counts, sum, total count)`` across stripes."""
        counts = [0] * (len(self.boundaries) + 1)
        total = 0
        for stripe in self._stripes:
            with stripe.lock:
                for i, n in enumerate(stripe.counts):
                    counts[i] += n
                total += stripe.sum
        return counts, total, sum(counts)

    def count(self) -> int:
        return self.snapshot()[2]


class _NullMetric:
    """Shared behaviour of the no-op singletons: accept anything, do nothing."""

    __slots__ = ()

    def labels(self, *values: str) -> "_NullMetric":
        return self

    def inc(self, amount: int | float = 1) -> None:
        pass

    def dec(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    def value(self) -> int:
        return 0


class NullCounter(_NullMetric):
    kind = "counter"


class NullGauge(_NullMetric):
    kind = "gauge"


class NullHistogram(_NullMetric):
    kind = "histogram"


#: Singletons used by every instrumented call site while telemetry is off.
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()

_METRIC_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its per-label-value children.

    An unlabeled family has exactly one child keyed by the empty tuple;
    :class:`MetricsRegistry` hands that child out directly so plain
    counters need no ``.labels()`` hop on the hot path.
    """

    def __init__(self, name: str, help: str, kind: str, label_names: tuple[str, ...],
                 **metric_kwargs):
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self._metric_kwargs = metric_kwargs
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def labels(self, *values: str) -> Counter | Gauge | Histogram:
        if len(values) != len(self.label_names):
            raise MonitorError(
                f"metric {self.name} takes labels {self.label_names},"
                f" got {len(values)} value(s)"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _METRIC_CLASSES[self.kind](**self._metric_kwargs)
                    self._children[key] = child
        return child

    def children(self) -> list[tuple[tuple[str, ...], Counter | Gauge | Histogram]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Thread-safe, get-or-create registry of metric families."""

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, help: str, kind: str,
                labels: Sequence[str], **metric_kwargs) -> MetricFamily:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help, kind, label_names, **metric_kwargs)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise MonitorError(
                f"metric {name} already registered as {family.kind}, not {kind}"
            )
        if family.label_names != label_names:
            raise MonitorError(
                f"metric {name} already registered with labels"
                f" {family.label_names}, not {label_names}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter | MetricFamily:
        family = self._family(name, help, "counter", labels)
        return family if family.label_names else family.labels()

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge | MetricFamily:
        family = self._family(name, help, "gauge", labels)
        return family if family.label_names else family.labels()

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        boundaries: Sequence[int | float] = DEFAULT_LATENCY_BOUNDARIES_NS,
    ) -> Histogram | MetricFamily:
        family = self._family(name, help, "histogram", labels, boundaries=boundaries)
        return family if family.label_names else family.labels()

    def collect(self) -> Iterator[MetricFamily]:
        """Families in registration-stable (sorted-by-name) order."""
        with self._lock:
            families = sorted(self._families.items())
        for _, family in families:
            yield family


class NullRegistry:
    """Stand-in where no registry is attached: every family is the
    matching no-op singleton, so a call site writes ``registry or
    NULL_REGISTRY`` and binds its handles once, on one code path."""

    __slots__ = ()

    def counter(self, *_args, **_kwargs) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, *_args, **_kwargs) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, *_args, **_kwargs) -> NullHistogram:
        return NULL_HISTOGRAM


NULL_REGISTRY = NullRegistry()
