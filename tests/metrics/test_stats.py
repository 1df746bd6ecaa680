"""Tests for streaming statistics and sample sets."""

from __future__ import annotations

import math
import tracemalloc
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.histogram import SampleSet
from repro.metrics.stats import StreamingStats

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestStreamingStats:
    def test_empty(self):
        stats = StreamingStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.min == math.inf
        assert stats.max == -math.inf

    def test_single_value(self):
        stats = StreamingStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.min == stats.max == 5.0

    def test_rejects_nonfinite(self):
        stats = StreamingStats()
        with pytest.raises(ValueError):
            stats.add(float("nan"))
        with pytest.raises(ValueError):
            stats.add(float("inf"))

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy_property(self, values):
        stats = StreamingStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert stats.variance == pytest.approx(
            np.var(values), rel=1e-6, abs=1e-4
        )
        assert stats.min == min(values)
        assert stats.max == max(values)

    @given(
        st.lists(finite_floats, min_size=1, max_size=50),
        st.lists(finite_floats, min_size=1, max_size=50),
    )
    def test_merge_equals_sequential_property(self, a, b):
        merged = StreamingStats()
        merged.extend(a)
        other = StreamingStats()
        other.extend(b)
        merged.merge(other)

        sequential = StreamingStats()
        sequential.extend(a + b)
        assert merged.count == sequential.count
        assert merged.mean == pytest.approx(
            sequential.mean, rel=1e-9, abs=1e-6
        )
        assert merged.variance == pytest.approx(
            sequential.variance, rel=1e-6, abs=1e-4
        )

    def test_merge_with_empty(self):
        stats = StreamingStats()
        stats.extend([1.0, 2.0])
        stats.merge(StreamingStats())
        assert stats.count == 2
        empty = StreamingStats()
        empty.merge(stats)
        assert empty.count == 2
        assert empty.mean == pytest.approx(1.5)


class TestSampleSet:
    def test_median_odd(self):
        samples = SampleSet([3.0, 1.0, 2.0])
        assert samples.median() == 2.0

    def test_median_even_interpolates(self):
        samples = SampleSet([1.0, 2.0, 3.0, 4.0])
        assert samples.median() == pytest.approx(2.5)

    def test_quantiles_match_numpy(self):
        values = [float(i) for i in range(101)]
        samples = SampleSet(values)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert samples.quantile(q) == pytest.approx(
                np.quantile(values, q)
            )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SampleSet().median()
        with pytest.raises(ValueError):
            SampleSet().mean()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SampleSet([float("nan")])

    def test_quantile_domain(self):
        samples = SampleSet([1.0])
        with pytest.raises(ValueError):
            samples.quantile(1.5)

    def test_summary_statistics(self):
        samples = SampleSet([1.0, 2.0, 3.0])
        assert samples.mean() == pytest.approx(2.0)
        assert samples.min() == 1.0
        assert samples.max() == 3.0
        assert samples.stdev() == pytest.approx(1.0)
        assert len(samples) == 3


class ListSampleSet:
    """The list-backed SampleSet (a Python float per sample), vendored
    verbatim as the oracle for the float64-buffer one."""

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._values: list[float] = []
        self.extend(values)

    def add(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"samples must be finite, got {value!r}")
        self._values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def extend_array(self, values: np.ndarray) -> None:
        """Bulk-append a numpy array of samples (one finite check).

        The vectorized simulator folds whole outcome cohorts into the
        collector at once; looping :meth:`add` over a million floats
        would dominate its runtime.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if not np.isfinite(values).all():
            raise ValueError("samples must be finite")
        self._values.extend(values.tolist())

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (linear interpolation); requires samples."""
        if not self._values:
            raise ValueError("quantile of an empty sample set")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        return float(np.quantile(self._values, q))

    def median(self) -> float:
        """Exact median — the statistic Figure 2 reports."""
        return self.quantile(0.5)

    def mean(self) -> float:
        if not self._values:
            raise ValueError("mean of an empty sample set")
        return float(np.mean(self._values))

    def stdev(self) -> float:
        if len(self._values) < 2:
            return 0.0
        return float(np.std(self._values, ddof=1))

    def min(self) -> float:
        if not self._values:
            raise ValueError("min of an empty sample set")
        return min(self._values)

    def max(self) -> float:
        if not self._values:
            raise ValueError("max of an empty sample set")
        return max(self._values)


def as_array(kind: str, values: list[float]) -> np.ndarray:
    """``values`` as one of the array shapes the engine and callers pass."""
    if kind == "float32":
        return np.asarray(values, dtype=np.float32)
    if kind == "int64":
        return np.asarray([int(value) for value in values], dtype=np.int64)
    if kind == "strided":
        return np.repeat(np.asarray(values, dtype=np.float64), 2)[::2]
    return np.asarray(values, dtype=np.float64)


sample_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), finite_floats),
        st.tuples(st.just("extend"), st.lists(finite_floats, max_size=20)),
        st.tuples(
            st.sampled_from(["float64", "float32", "int64", "strided"]),
            st.lists(finite_floats, max_size=50),
        ),
    ),
    max_size=12,
)


def apply(samples, op) -> None:
    kind, payload = op
    if kind == "add":
        samples.add(payload)
    elif kind == "extend":
        samples.extend(payload)
    else:
        samples.extend_array(as_array(kind, payload))


def outcome(call):
    """A statistic's value, or the ValueError message it raised."""
    try:
        return call()
    except ValueError as error:
        return ("ValueError", str(error))


class TestSampleSetParity:
    """The float64 buffer answers exactly what the list of floats did."""

    @given(sample_ops)
    def test_statistics_equal_the_list_backed_oracle(self, ops):
        samples, oracle = SampleSet(), ListSampleSet()
        for op in ops:
            apply(samples, op)
            apply(oracle, op)
        assert samples.values == oracle.values
        assert list(samples) == list(oracle)
        assert len(samples) == len(oracle)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert outcome(lambda: samples.quantile(q)) == outcome(
                lambda: oracle.quantile(q)
            )
        for name in ("median", "mean", "stdev", "min", "max"):
            mine = outcome(getattr(samples, name))
            theirs = outcome(getattr(oracle, name))
            assert mine == theirs and type(mine) is type(theirs)

    @given(
        sample_ops,
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.sampled_from(["add", "extend", "float64", "float32", "strided"]),
    )
    def test_nonfinite_raises_the_same_error(self, ops, bad, kind):
        samples, oracle = SampleSet(), ListSampleSet()
        for op in ops:
            apply(samples, op)
            apply(oracle, op)
        op = (kind, bad if kind == "add" else [1.0, bad, 2.0])
        with pytest.raises(ValueError) as mine:
            apply(samples, op)
        with pytest.raises(ValueError) as theirs:
            apply(oracle, op)
        assert str(mine.value) == str(theirs.value)
        assert samples.values == oracle.values

    def test_extend_array_stores_8_bytes_per_sample(self):
        """100k float64 samples grow traced memory by at most 1 MiB.

        800,000 B of samples plus the buffer's growth slack (~850 kB
        measured); a list of Python floats took ~3.2 MB.
        """
        values = np.random.default_rng(0).uniform(0.0, 1.0, 100_000)
        samples = SampleSet()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples.extend_array(values)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(samples) == 100_000
        assert grown <= 1 << 20
