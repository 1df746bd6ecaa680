"""Tests for windowed time series and the timeline collector."""

from __future__ import annotations

import math

import pytest

from repro.core.records import (
    ClientRequest,
    IssuerDecision,
    ResponseStatus,
    ServedResponse,
)
from repro.metrics.timeseries import TimelineCollector, TimeSeries


class TestTimeSeries:
    def test_counts_per_window(self):
        series = TimeSeries(window=1.0)
        for t in (0.1, 0.2, 1.5, 2.9):
            series.add(t)
        assert series.counts() == [(0.0, 2), (1.0, 1), (2.0, 1)]

    def test_gap_windows_reported_as_zero(self):
        series = TimeSeries(window=1.0)
        series.add(0.5)
        series.add(3.5)
        counts = dict(series.counts())
        assert counts[1.0] == 0
        assert counts[2.0] == 0

    def test_rates(self):
        series = TimeSeries(window=2.0)
        for t in (0.0, 0.5, 1.0, 1.5):
            series.add(t)
        assert series.rates()[0] == (0.0, 2.0)  # 4 events / 2 s

    def test_means(self):
        series = TimeSeries(window=1.0)
        series.add(0.1, 10.0)
        series.add(0.9, 20.0)
        series.add(2.1, 5.0)
        means = dict(series.means())
        assert means[0.0] == pytest.approx(15.0)
        assert math.isnan(means[1.0])
        assert means[2.0] == pytest.approx(5.0)

    def test_span(self):
        series = TimeSeries(window=2.0)
        assert series.span == (0.0, 0.0)
        series.add(3.0)
        series.add(9.0)
        assert series.span == (2.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(window=0.0)
        series = TimeSeries()
        with pytest.raises(ValueError):
            series.add(-1.0)
        with pytest.raises(ValueError):
            series.add(1.0, float("nan"))


def make_response(status=ResponseStatus.SERVED, latency=0.05):
    request = ClientRequest(
        client_ip="23.0.0.1", resource="/r", timestamp=0.0, features={}
    )
    decision = IssuerDecision(
        request=request,
        reputation_score=1.0,
        difficulty=3,
        policy_name="p",
        model_name="m",
    )
    return ServedResponse(decision=decision, status=status, latency=latency)


class TestTimelineCollector:
    def test_served_and_request_rates_split(self):
        timeline = TimelineCollector(window=1.0)
        timeline.observe("benign", make_response(), at=0.5)
        timeline.observe(
            "benign", make_response(status=ResponseStatus.ABANDONED), at=0.6
        )
        assert dict(timeline.request_rate("benign"))[0.0] == 2.0
        assert dict(timeline.served_rate("benign"))[0.0] == 1.0

    def test_latency_means_only_served(self):
        timeline = TimelineCollector(window=1.0)
        timeline.observe("c", make_response(latency=0.1), at=0.2)
        timeline.observe(
            "c",
            make_response(status=ResponseStatus.REJECTED, latency=9.0),
            at=0.3,
        )
        means = dict(timeline.latency_means("c"))
        assert means[0.0] == pytest.approx(0.1)
