"""The fast engine's cohort plumbing against its plain reference.

``FastSimulation._push_grouped`` skips the sort for sorted times and
pushes a sorted single-bucket group as one segment, and
``_merge_segments`` concatenates each run of same-kind segments once.
Both must leave exactly what the always-sort, pairwise reference in
``tests/oracle/cohorts.py`` leaves: the same pushes (time, kind,
columns, order), hence the same calendar and the same cohorts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import AIPoWFramework
from repro.net.sim.fastsim import FastSimulation, _merge_segments
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from tests.oracle import cohorts


class RecordingQueue:
    """Stands in for the calendar: keeps every push, in order."""

    def __init__(self) -> None:
        self.pushes: list[tuple[float, tuple]] = []

    def push(self, when, item) -> None:
        self.pushes.append((when, item))


def _payload(times: np.ndarray) -> tuple:
    n = times.size
    return (
        np.arange(n, dtype=np.int64),
        np.arange(n, dtype=np.int64)[::-1] * 3,
        times * 2.0 + 1.0,
    )


def _assert_same_pushes(got, want) -> None:
    assert len(got) == len(want)
    for (g_when, (g_kind, g_cols)), (w_when, (w_kind, w_cols)) in zip(
        got, want
    ):
        assert type(g_when) is float and g_when == w_when
        assert g_kind == w_kind
        assert len(g_cols) == len(w_cols)
        for g, w in zip(g_cols, w_cols):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def _pushes(tick, times: np.ndarray, payload: tuple):
    sim = FastSimulation(
        AIPoWFramework(ConstantModel(1.0), FixedPolicy(0)), tick=tick
    )
    sim._queue = RecordingQueue()
    sim._push_grouped(times, "xmit", payload)
    reference = RecordingQueue()
    cohorts.push_grouped(reference, tick, times, "xmit", payload)
    return sim._queue.pushes, reference.pushes


class TestPushGrouped:
    @pytest.mark.parametrize(
        "tick, times, segments",
        [
            (0.005, [0.011, 0.012, 0.0149], 1),  # sorted, one bucket
            (0.005, [0.001, 0.006, 0.006, 0.011], 3),  # sorted, three
            (0.005, [0.012, 0.011, 0.0149], 1),  # unsorted, one bucket
            (0.005, [0.011, 0.001, 0.006, 0.001], 3),  # unsorted, three
            (None, [0.5, 0.5, 0.5], 1),  # exact times, one instant
            (None, [0.1, 0.2, 0.2, 0.3], 3),  # exact, sorted
            (None, [0.3, 0.1, 0.3, 0.2], 3),  # exact, unsorted
            (0.005, [0.7], 1),
            (None, [0.7], 1),
            (0.005, [], 0),
        ],
    )
    def test_matches_reference(self, tick, times, segments):
        times = np.asarray(times, dtype=np.float64)
        got, want = _pushes(tick, times, _payload(times))
        _assert_same_pushes(got, want)
        assert len(got) == segments

    def test_sorted_single_bucket_is_pushed_whole(self):
        times = np.array([0.011, 0.012, 0.0149])
        payload = _payload(times)
        got, _ = _pushes(0.005, times, payload)
        ((when, (_, columns)),) = got
        assert when == 0.011
        assert all(g is p for g, p in zip(columns, payload))

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(
                    [0.0, 0.001, 0.004, 0.005, 0.0051, 0.01, 0.25, 1.0]
                ),
                st.floats(min_value=0.0, max_value=2.0),
            ),
            max_size=40,
        ),
        presort=st.booleans(),
        tick=st.sampled_from([None, 0.005, 0.1, 10.0]),
    )
    def test_random_groups_match_reference(self, values, presort, tick):
        times = np.asarray(
            sorted(values) if presort else values, dtype=np.float64
        )
        got, want = _pushes(tick, times, _payload(times))
        _assert_same_pushes(got, want)


def _segment(kind: str, start: int, size: int) -> tuple:
    ids = np.arange(start, start + size, dtype=np.int64)
    return (kind, (ids, ids * 0.5, ids.astype(np.int8)))


class TestMergeSegments:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.lists(
            st.tuples(
                st.sampled_from(["arrive", "solve", "xmit"]),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=25,
        )
    )
    def test_matches_pairwise_concatenation(self, shape):
        segments, start = [], 0
        for kind, size in shape:
            segments.append(_segment(kind, start, size))
            start += size
        got = _merge_segments(segments)
        want = cohorts.merge_segments(segments)
        assert [kind for kind, _ in got] == [kind for kind, _ in want]
        for (_, g_cols), (_, w_cols) in zip(got, want):
            assert len(g_cols) == len(w_cols)
            for g, w in zip(g_cols, w_cols):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)

    def test_runs_merge_only_when_adjacent(self):
        segments = [
            _segment("arrive", 0, 2),
            _segment("arrive", 2, 3),
            _segment("solve", 5, 1),
            _segment("arrive", 6, 2),
        ]
        merged = _merge_segments(segments)
        assert [kind for kind, _ in merged] == ["arrive", "solve", "arrive"]
        assert merged[0][1][0].tolist() == [0, 1, 2, 3, 4]
        assert merged[2][1][0].tolist() == [6, 7]
