"""Order statistics used by every workload.

Timings are reported as a median plus *the highest percentile that has
at least ten samples beyond it* — a p99 over 300 samples rests on three
observations and is noise, so :func:`top_percentile` refuses to report
it and falls back to p90.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "PERCENTILES",
    "median",
    "percentile",
    "top_percentile",
    "quartile_spread",
]

#: Candidate tail percentiles, ascending.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 for an empty sample (a layer that never ran)."""
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def top_percentile(count: int) -> float:
    """Highest candidate percentile with >= 10 of ``count`` samples beyond it."""
    best = PERCENTILES[0]
    for pct in PERCENTILES:
        # Exact integer arithmetic: 1000 * (1 - 0.99) is 10 minus an ulp.
        beyond = count * round((100.0 - pct) * 100) // 10_000
        if beyond >= MIN_TAIL_SAMPLES:
            best = pct
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the run-to-run spread the bounds are judged by."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
