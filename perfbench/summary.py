"""Latency percentiles by the nearest-rank rule.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it.  The benchmark's fixed `p90` metric is
flagged whenever fewer than ten samples lie beyond it, that is, whenever
fewer than 100 requests ran.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

MIN_SAMPLES_BEYOND = 10
TAIL_CANDIDATES = ("99.9", "99", "95", "90", "75", "50")


def _rank(n: int, p: str) -> int:
    """1-based nearest rank of percentile `p` (a decimal string) among n samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    return max(1, math.ceil(Fraction(p) * n / 100))


def percentile(sorted_values: Sequence[float], p: str) -> float:
    """Nearest-rank percentile of already sorted values."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: str) -> int:
    """How many of n samples lie strictly above the nearest rank of `p`."""
    return n - _rank(n, p)


def highest_tail_percentile(n: int) -> str | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            return p
    return None


def latency_summary(latencies_s: Sequence[float]) -> dict:
    """Median, p90 and the highest well-supported tail, all in milliseconds."""
    values = sorted(latencies_s)
    n = len(values)
    tail = highest_tail_percentile(n)
    return {
        "n": n,
        "p50_ms": 1000.0 * percentile(values, "50"),
        "p90_ms": 1000.0 * percentile(values, "90"),
        "p90_flagged": samples_beyond(n, "90") < MIN_SAMPLES_BEYOND,
        "tail_p": tail,
        "tail_ms": None if tail is None else 1000.0 * percentile(values, tail),
    }
