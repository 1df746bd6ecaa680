"""Tests for the metrics registry: instruments, snapshots, exposition.

The two load-bearing contracts: ``observe_array`` must be
aggregate-equivalent to scalar ``observe`` (the vectorized engine
records cohorts, the gateway records scalars, and cluster merging adds
them together), and every snapshot must render as valid Prometheus
text exposition — the same validator the smoke tools run against a
live ``/metrics`` scrape.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    METRIC_CATALOG,
    Counter,
    Gauge,
    Histogram,
    HistogramSeries,
    MetricsRegistry,
    PhaseTimer,
    merge_snapshots,
    render_prometheus,
    validate_exposition,
)


class TestCounter:
    def test_unlabelled_counts(self):
        counter = Counter("requests_total", "requests")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        assert counter.total() == 5

    def test_labelled_series_are_independent(self):
        counter = Counter("shed_total", "", ("reason",))
        counter.inc(reason="queue full")
        counter.inc(2, reason="policy")
        assert counter.value(reason="queue full") == 1
        assert counter.value(reason="policy") == 2
        assert counter.total() == 3
        assert counter.as_dict() == {"queue full": 1, "policy": 2}

    def test_negative_increment_rejected(self):
        counter = Counter("c", "")
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)

    def test_missing_label_rejected(self):
        counter = Counter("c", "", ("reason",))
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc()

    @pytest.mark.parametrize(
        "labels, given",
        [
            ({"reason": "x"}, "('reason',)"),
            ({"reason": "x", "kind": "y", "extra": "z"}, "('extra', 'kind', 'reason')"),
            ({"reason": "x", "kin": "y"}, "('kin', 'reason')"),
        ],
    )
    def test_label_mismatch_message(self, labels, given):
        counter = Counter("c", "", ("reason", "kind"))
        with pytest.raises(ValueError) as raised:
            counter.inc(**labels)
        assert str(raised.value) == (
            f"expected labels ('reason', 'kind'), got {given}"
        )
        assert counter.total() == 0

    def test_integer_counts_stay_integers(self):
        counter = Counter("c", "")
        counter.inc(2)
        counter.inc(3)
        assert isinstance(counter.value(), int)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth", "")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="aggregation"):
            Gauge("g", "", agg="median")


class TestHistogram:
    def test_bucketing_and_stats(self):
        histogram = Histogram("h", "", buckets=(1, 10, 100))
        series = histogram.labels()
        for value in (0.5, 5, 5, 50, 500):
            series.observe(value)
        assert series.counts.tolist() == [1, 2, 1, 1]
        assert len(series) == 5
        assert series.min() == 0.5
        assert series.max() == 500
        assert series.mean() == pytest.approx(112.1)

    def test_boundary_lands_in_lower_bucket(self):
        # side="left": a value equal to a bound counts as <= bound,
        # matching Prometheus le semantics.
        series = Histogram("h", "", buckets=(1, 10)).labels()
        series.observe(1.0)
        assert series.counts.tolist() == [1, 0, 0]

    def test_empty_series_stats_raise(self):
        series = Histogram("h", "").labels()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.max()

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Histogram("h", "", buckets=(1, 1, 2))


class TestObserveArrayEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_bulk_matches_scalar_aggregates(self, values):
        bounds = (0.001, 0.1, 1.0, 10.0, 1000.0)
        scalar = HistogramSeries(np.asarray(bounds))
        bulk = HistogramSeries(np.asarray(bounds))
        for value in values:
            scalar.observe(value)
        bulk.observe_array(np.asarray(values))
        assert scalar.counts.tolist() == bulk.counts.tolist()
        assert scalar.count == bulk.count
        assert scalar.min() == bulk.min()
        assert scalar.max() == bulk.max()
        # The two paths add in different orders, so a float sum may
        # differ in its last bits; integer samples sum exactly.
        assert scalar.mean() == pytest.approx(bulk.mean(), rel=1e-9, abs=1e-6)
        rounded = [float(round(value)) for value in values]
        scalar_int = HistogramSeries(np.asarray(bounds))
        for value in rounded:
            scalar_int.observe(value)
        bulk_int = HistogramSeries(np.asarray(bounds))
        bulk_int.observe_array(np.asarray(rounded))
        assert scalar_int.mean() == bulk_int.mean() == np.mean(rounded)

    @pytest.mark.parametrize(
        "value",
        [
            0.001,  # equal to the first bound
            10.0,  # equal to an inner bound
            1000.0,  # equal to the last bound
            -3.0,  # below the first bound
            0.0,
            -0.0,
            5e9,  # above the last bound
            float("inf"),
            float("-inf"),
            float("nan"),
        ],
    )
    def test_scalar_path_matches_bulk_on_edge_values(self, value):
        bounds = np.asarray((0.001, 0.1, 1.0, 10.0, 1000.0))
        scalar = HistogramSeries(bounds)
        bulk = HistogramSeries(bounds)
        scalar.observe(value)
        bulk.observe_array(np.asarray([value]))
        assert scalar.counts.tolist() == bulk.counts.tolist()
        assert scalar.count == bulk.count == 1
        # NaN-aware: a NaN sample must give NaN on both paths.
        np.testing.assert_array_equal(
            [scalar.sum, scalar.min(), scalar.max()],
            [bulk.sum, bulk.min(), bulk.max()],
        )

    def test_nan_lands_in_the_overflow_bucket(self):
        bounds = np.asarray((1.0, 10.0))
        scalar = HistogramSeries(bounds)
        bulk = HistogramSeries(bounds)
        stream = [float("nan"), 1.0, float("-inf"), 10.0, float("inf"), 0.5]
        for value in stream:
            scalar.observe(value)
        bulk.observe_array(np.asarray(stream))
        assert scalar.counts.tolist() == bulk.counts.tolist() == [3, 1, 2]

    def test_empty_array_is_a_noop(self):
        series = HistogramSeries(np.asarray([1.0]))
        series.observe_array(np.asarray([]))
        assert len(series) == 0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help")
        second = registry.counter("c")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("reason",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("m", labels=("status",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok", labels=("bad-label",))

    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", labels=("reason",)).inc(reason="full")
        registry.gauge("g").set(3)
        registry.histogram("h", buckets=(1, 2)).observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["format"] == "repro-metrics/v1"
        json.dumps(snapshot)  # must not raise
        assert [m["name"] for m in snapshot["metrics"]] == ["c", "g", "h"]

    def test_catalog_names_are_valid(self):
        registry = MetricsRegistry()
        for name, help_text in METRIC_CATALOG.items():
            registry.counter(name, help_text)
        assert registry.names() == tuple(sorted(METRIC_CATALOG))


class TestThreadSafety:
    def test_concurrent_updates_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("worker",))
        histogram = registry.histogram("h", buckets=(10, 100))
        threads = 8
        per_thread = 2_000
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            series = histogram.labels()
            barrier.wait()
            for i in range(per_thread):
                counter.inc(worker=str(worker % 2))
                series.observe(float(i % 150))

        pool = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.total() == threads * per_thread
        series = histogram.labels()
        assert series.count == threads * per_thread
        assert int(series.counts.sum()) == threads * per_thread

    def test_snapshot_during_writes_is_coherent(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                counter.inc()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                snapshot = registry.snapshot()
                problems = validate_exposition(
                    render_prometheus(snapshot)
                )
                assert not problems, problems
        finally:
            stop.set()
            thread.join()


class TestMergeSnapshots:
    def _worker(self, admitted: int, depth: float) -> dict:
        registry = MetricsRegistry()
        registry.counter("admitted_total").inc(admitted)
        registry.gauge("high_water", agg="max").set(depth)
        registry.histogram("sizes", buckets=(1, 10)).observe(admitted)
        return registry.snapshot()

    def test_counters_add_and_max_gauges_take_extremes(self):
        merged = merge_snapshots([self._worker(3, 5.0), self._worker(7, 2.0)])
        by_name = {m["name"]: m for m in merged["metrics"]}
        assert by_name["admitted_total"]["series"][0]["value"] == 10
        assert by_name["high_water"]["series"][0]["value"] == 5.0
        sizes = by_name["sizes"]["series"][0]
        assert sizes["count"] == 2
        assert sizes["buckets"] == [0, 2, 0]
        assert sizes["min"] == 3.0
        assert sizes["max"] == 7.0

    def test_disjoint_label_sets_union(self):
        left = MetricsRegistry()
        left.counter("shed", labels=("reason",)).inc(reason="full")
        right = MetricsRegistry()
        right.counter("shed", labels=("reason",)).inc(2, reason="policy")
        merged = merge_snapshots([left.snapshot(), right.snapshot()])
        series = merged["metrics"][0]["series"]
        values = {
            row["labels"]["reason"]: row["value"] for row in series
        }
        assert values == {"full": 1, "policy": 2}

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots([]) == {
            "format": "repro-metrics/v1",
            "metrics": [],
        }

    def test_merged_snapshot_renders_validly(self):
        merged = merge_snapshots([self._worker(3, 5.0), self._worker(7, 2.0)])
        problems = validate_exposition(render_prometheus(merged))
        assert not problems, problems


class TestPrometheusRendering:
    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "dist", buckets=(1, 10))
        for value in (0.5, 5, 50):
            histogram.observe(value)
        text = registry.render()
        assert '# TYPE h histogram' in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="10"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert 'h_count 3' in text
        assert not validate_exposition(text)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("reason",)).inc(
            reason='say "no"\nplease\\'
        )
        text = registry.render()
        assert r'reason="say \"no\"\nplease\\"' in text
        assert not validate_exposition(text)

    def test_validator_flags_garbage(self):
        assert validate_exposition("not a metric line at all{")
        assert validate_exposition("orphan_sample 1")  # no TYPE

    def test_validator_accepts_empty_exposition(self):
        assert validate_exposition("") == []


class TestPhaseTimer:
    def test_accumulates_and_summarises(self):
        timer = PhaseTimer()
        timer.observe("arrive", 0.5, items=100)
        timer.observe("arrive", 0.5, items=300)
        timer.observe("solve", 0.25, items=50)
        summary = timer.summary()
        assert summary["arrive"]["seconds"] == 1.0
        assert summary["arrive"]["cohorts"] == 2
        assert summary["arrive"]["items"] == 400
        assert summary["arrive"]["items_per_second"] == pytest.approx(400.0)
        assert list(summary) == ["arrive", "solve"]

    def test_publish_lands_in_catalog_counters(self):
        timer = PhaseTimer()
        timer.observe("arrive", 0.5, items=10)
        registry = MetricsRegistry()
        timer.publish(registry)
        seconds = registry.get("sim_phase_seconds_total")
        assert seconds.value(phase="arrive") == 0.5
        items = registry.get("sim_phase_items_total")
        assert items.value(phase="arrive") == 10

    def test_render_is_one_line(self):
        timer = PhaseTimer()
        assert timer.render() == "(no phases timed)"
        timer.observe("arrive", 1.0, items=10)
        assert "arrive 1.00s/1 cohorts" in timer.render()
