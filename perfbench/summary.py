"""Order statistics the benchmark reports: median, quartiles, tail percentile."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, lowest first
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it,
    or None when fewer than twenty samples leave even the median without ten."""
    best = None
    for percentile in TAIL_PERCENTILES:
        if count * (100.0 - percentile) >= 1000.0 - 1e-6:
            best = percentile
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of unsorted values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency(values: list[float]) -> tuple[float, float]:
    """(median, tail) of a latency sample; with too few samples for a tail
    percentile the tail is the maximum."""
    if not values:
        return 0.0, 0.0
    tail = tail_percentile(len(values))
    return percentile(values, 50.0), percentile(values, tail) if tail else max(values)
