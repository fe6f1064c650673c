"""Rolling per-function baselines: windowed median/MAD and robust z.

Plain mean/stddev baselines are poisoned by the very spikes they are
supposed to detect; the detector instead keeps, per (interface,
operation), a sliding window of recent latency observations and scores
each new value with a robust z-score:

    z = 0.6745 * (x - median) / MAD

where MAD is the median absolute deviation over the window (0.6745
rescales MAD to the stddev of a normal distribution). Up to ~50% of the
window can be outliers before the baseline drifts, so detection keeps
working while an incident is in progress.

The window is kept twice: in arrival order (for eviction) and as a
sorted list, updated with one ``insort`` and one ``bisect`` delete
(O(window) memory moves, done in C). The median is read off the sorted
list's middle. The MAD is selected from it too, without building or
sorting the deviations: the deviations below the median, ``m - x``,
ascend leftwards from the median and those above it, ``x - m``,
ascend rightwards, so the ``n // 2`` smallest are a contiguous run of
the sorted window around the median. A binary search over where that
run starts (O(log window) Python steps, about six at the default 64)
finds it, and the MAD is read off its two ends and its two neighbours.
IEEE subtraction is antisymmetric (``m - x == -(x - m)`` exactly), so
the result is bit-identical to ``sorted(abs(x - m) for x in window)``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

#: MAD -> stddev consistency constant for the normal distribution.
MAD_SCALE = 0.6745
_INF = float("inf")


@dataclass(frozen=True)
class BaselineStat:
    """One baseline snapshot (the values an incident report carries)."""

    count: int
    median: float
    mad: float

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "median_ns": round(self.median, 3),
            "mad_ns": round(self.mad, 3),
        }


class RollingBaseline:
    """Sliding-window median/MAD over the most recent observations."""

    __slots__ = ("window", "_ordered", "_arrivals")

    def __init__(self, window: int = 64):
        if window < 4:
            raise ValueError("baseline window must hold at least 4 observations")
        self.window = window
        self._ordered: list[float] = []
        self._arrivals: deque[float] = deque()

    @property
    def count(self) -> int:
        return len(self._arrivals)

    def median(self) -> float:
        ordered = self._ordered
        n = len(ordered)
        if not n:
            return 0.0
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def mad(self) -> float:
        return _mad(self._ordered, self.median()) if self._ordered else 0.0

    def snapshot(self) -> BaselineStat:
        return BaselineStat(count=self.count, median=self.median(), mad=self.mad())

    def score(self, value: float) -> float:
        """Robust z of ``value`` against the current window (not yet added).

        A degenerate window (MAD == 0, i.e. more than half the window is
        one constant) falls back to a floor of 1% of the median (1.0 ns
        minimum) so a genuine spike over a perfectly flat baseline still
        scores high instead of dividing by zero.
        """
        if not self._ordered:
            return 0.0
        median = self.median()
        mad = _mad(self._ordered, median)
        scale = mad if mad > 0.0 else max(abs(median) * 0.01, 1.0)
        return MAD_SCALE * (value - median) / scale

    def observe(self, value: float) -> None:
        """Add one observation, evicting the oldest past the window."""
        value = float(value)
        if len(self._arrivals) >= self.window:
            oldest = self._arrivals.popleft()
            del self._ordered[bisect_left(self._ordered, oldest)]
        self._arrivals.append(value)
        insort(self._ordered, value)


def _mad(ordered: list[float], median: float) -> float:
    """The median of ``abs(x - median)`` over the non-empty sorted list
    ``ordered``, selected without building the deviations.

    ``ordered[:split]`` lie below the median and ``ordered[split:]`` at or
    above it. The ``half = n // 2`` smallest deviations are the run
    ``ordered[lo:lo + half]`` for the first start ``lo`` at which taking
    ``ordered[lo]`` is no worse than taking ``ordered[lo + half]``; the
    sorted deviations' element ``half`` is the nearer of the run's two
    neighbours, and (even ``n``) element ``half - 1`` the farther of its
    two ends (a missing neighbour or end stands in as ``inf`` or ``0.0``).
    Every start searched keeps ``ordered[lo]`` below the median and
    ``ordered[lo + half]`` at or above it, so each difference taken is
    already the absolute one.
    """
    n = len(ordered)
    half = n // 2
    split = bisect_left(ordered, median)
    lo = max(split - half, 0)
    hi = min(split, n - half)
    while lo < hi:
        mid = (lo + hi) // 2
        if median - ordered[mid] > ordered[mid + half] - median:
            lo = mid + 1
        else:
            hi = mid
    end = lo + half
    upper = min(
        median - ordered[lo - 1] if lo else _INF,
        ordered[end] - median if end < n else _INF,
    )
    if n % 2:
        return upper
    lower = max(
        median - ordered[lo] if lo < split else 0.0,
        ordered[end - 1] - median if end > split else 0.0,
    )
    return (lower + upper) / 2.0
