"""The few statistics the ledger reports, each small enough to unit-test.

Nothing here is best-of-N: a throughput or a typical time is the median
over equal blocks, a tail is a nearest-rank percentile over all samples,
and a set of repeats is summarised by its median and quartiles.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: A percentile is only reported with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def block_median(per_block: Sequence[float], min_blocks: int) -> float:
    """Median of one value per equal block; refuses too few blocks.

    A handful of blocks makes the median as fragile as the best-of-N it
    replaces, so the caller states how many it needs.
    """
    if len(per_block) < min_blocks:
        raise ValueError(
            f"need at least {min_blocks} blocks for a block median, got {len(per_block)}"
        )
    return statistics.median(per_block)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0..100) of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil without floats
    return sorted_values[int(rank) - 1]


def highest_percentile(samples: int) -> float:
    """The highest ladder percentile with >= 10 samples beyond it.

    100 samples support p90 (10 beyond), 1000 support p99, and so on; a
    percentile nearer the maximum than that is one outlier's value.
    """
    best = None
    for p in PERCENTILE_LADDER:
        # 1e-9: 10 000 samples do support p99.9, whatever 100.0 - 99.9 rounds to
        if samples * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:
            best = p
    if best is None:
        raise ValueError(f"{samples} samples support no percentile of the ladder")
    return best


def abba_ratios(blocks: Sequence[tuple[str, float]]) -> list[float]:
    """Per-quad A/B ratios of a block sequence run in ABBA order.

    ``blocks`` holds ``(side, per_call_time)`` in run order, ``side``
    being ``"A"`` (monitored) or ``"B"`` (the unmonitored twin). Each
    consecutive quad must read A B B A, so that a drift across the quad
    (cache warming, a noisy neighbour) falls on both sides equally; the
    quad's ratio is mean(A) / mean(B).
    """
    if len(blocks) % 4:
        raise ValueError("ABBA blocks come in quads")
    ratios = []
    for i in range(0, len(blocks), 4):
        quad = blocks[i : i + 4]
        if [side for side, _ in quad] != ["A", "B", "B", "A"]:
            raise ValueError(f"quad {i // 4} is not in ABBA order")
        ratios.append((quad[0][1] + quad[3][1]) / (quad[1][1] + quad[2][1]))
    return ratios


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
