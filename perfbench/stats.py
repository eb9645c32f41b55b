"""Order statistics for latency samples.

Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the sample at rank ceil(p * n / 100). A percentile is reported
only when at least ten samples lie beyond it, so a tail figure never rests
on a handful of outliers.
"""

from __future__ import annotations

import math

LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def admissible(p: float, n: int) -> bool:
    """True when at least ``MIN_BEYOND`` of n samples lie beyond percentile p."""
    return n - rank(p, n) >= MIN_BEYOND


def highest_percentile(n: int):
    """The highest percentile of ``LADDER`` admissible for n samples, or None."""
    usable = [p for p in LADDER if admissible(p, n)]
    return usable[-1] if usable else None


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[rank(p, len(ordered)) - 1]


def median(values) -> float:
    """Lower median (nearest rank), so the result is always a measured sample."""
    return percentile(values, 50.0)
