"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics

# Percentiles the benchmark may report as a tail, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(sample_count: int) -> float | None:
    """The highest percentile of :data:`LADDER` with at least
    :data:`MIN_BEYOND` samples beyond it, or None when even the median
    has fewer."""
    best = None
    for p in LADDER:
        if round(sample_count * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:  # 100 - 99.9 is inexact
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def quantiles4(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, the steadiness measure for repeated runs."""
    q1, q2, q3 = quantiles4(values)
    return (q3 - q1) / q2
