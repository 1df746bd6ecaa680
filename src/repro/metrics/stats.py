"""Streaming summary statistics (Welford's algorithm).

The simulator and live server record many thousands of latencies; a
:class:`StreamingStats` accumulates count/mean/variance/extremes in O(1)
per observation without retaining samples.  When exact quantiles are
needed (Figure 2 reports *medians*), use
:class:`~repro.metrics.histogram.SampleSet` instead.
"""

from __future__ import annotations

import math

__all__ = ["StreamingStats"]


class StreamingStats:
    """Numerically stable running mean/variance/min/max."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"observations must be finite, got {value!r}")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values) -> None:
        """Record many observations."""
        for value in values:
            self.add(value)

    def add_array(self, values) -> "StreamingStats":
        """Fold a numpy array of observations in one vectorised step.

        Summarises the array (count/mean/M2/extremes via numpy) and
        merges it with the parallel-merge formula — numerically the
        same accumulator :meth:`add` would build, at array speed.
        Returns self.
        """
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return self
        if not np.isfinite(values).all():
            raise ValueError("observations must be finite")
        block = StreamingStats()
        block._count = int(values.size)
        block._mean = float(values.mean())
        block._m2 = float(((values - block._mean) ** 2).sum())
        block._min = float(values.min())
        block._max = float(values.max())
        return self.merge(block)

    def merge(self, other: "StreamingStats") -> "StreamingStats":
        """Combine two accumulators (parallel-merge formula); returns self."""
        if other._count == 0:
            return self
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return self
        total = self._count + other._count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._count * other._count / total
        self._mean += delta * other._count / total
        self._count = total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        """Mean of observations; 0.0 when empty."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Population variance; 0.0 with fewer than two observations."""
        return self._m2 / self._count if self._count >= 2 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        """Smallest observation; +inf when empty."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation; -inf when empty."""
        return self._max

    def __repr__(self) -> str:
        return (
            f"StreamingStats(count={self._count}, mean={self.mean:.6g}, "
            f"stdev={self.stdev:.6g})"
        )
