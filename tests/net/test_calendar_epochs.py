"""Epoch slicing: ``drain_until`` windows must equal one full drain.

``FastSimulation.step(bound)`` drains its calendar queue in bounded
windows; correctness rests on consecutive ``drain_until`` windows
visiting exactly the cohorts an uninterrupted ``drain`` would, in the
same (time, FIFO) order — including events pushed mid-drain, the way
the simulator schedules follow-on work while processing a cohort.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.net.sim.calendar import CalendarQueue


class TestBasics:
    def test_stops_at_bound(self):
        queue = CalendarQueue()
        for when in (1.0, 2.0, 3.0):
            queue.push(when, when)
        drained = list(queue.drain_until(2.0))
        assert [when for when, _ in drained] == [1.0, 2.0]
        assert queue.peek_time() == 3.0

    def test_bound_compares_quantized_keys(self):
        # tick=0.1 lifts 1.04 to the 1.1 bucket, past a 1.05 bound: a
        # window boundary must never split (or early-release) a cohort.
        queue = CalendarQueue(tick=0.1)
        queue.push(1.04, "a")
        assert list(queue.drain_until(1.05)) == []
        assert list(queue.drain_until(1.1)) == [
            (pytest.approx(1.1), ["a"])
        ]

    def test_empty_queue_yields_nothing(self):
        assert list(CalendarQueue().drain_until(10.0)) == []

    def test_includes_pushes_made_while_draining(self):
        queue = CalendarQueue()
        queue.push(1.0, "first")
        seen = []
        for when, items in queue.drain_until(3.0):
            seen.extend(items)
            if "first" in items:
                queue.push(2.0, "second")  # lands inside the window
                queue.push(4.0, "later")  # lands past it
        assert seen == ["first", "second"]
        assert queue.peek_time() == 4.0


# The same collision-heavy grid as test_calendar.py, plus per-cohort
# follow-on pushes scheduled a fixed delta after their cause — the
# simulator's actual scheduling pattern.
_SCHEDULES = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 2.5, 2.5, 7.0]),
    min_size=0,
    max_size=120,
)
_DELTAS = st.sampled_from([0.0, 0.25, 0.5, 1.75])
_EPOCHS = st.sampled_from([0.25, 0.5, 1.0, 3.0])
_TICKS = st.sampled_from([None, 0.25])


def _run(queue: CalendarQueue, windows, times, delta):
    """Drain via ``windows`` (an iterator factory), with follow-ons.

    Every item whose value is a first-generation sequence number
    schedules one follow-on event ``delta`` later — exercising pushes
    that land inside and beyond the current epoch window.
    """
    flattened = []
    for when, items in windows():
        for item in items:
            flattened.append((when, item))
            if isinstance(item, int) and item < len(times):
                queue.push(when + delta, f"follow-{item}")
    return flattened


@seed(20260806)
@settings(max_examples=150, deadline=None)
@given(times=_SCHEDULES, delta=_DELTAS, epoch=_EPOCHS, tick=_TICKS)
def test_epoch_windows_equal_uninterrupted_drain(
    times, delta, epoch, tick
):
    """Property: chained drain_until == drain, with mid-drain pushes."""
    full = CalendarQueue(tick=tick)
    sliced = CalendarQueue(tick=tick)
    for sequence, when in enumerate(times):
        full.push(when, sequence)
        sliced.push(when, sequence)

    reference = _run(full, full.drain, times, delta)

    windowed = []
    bound = epoch
    # Everything lands below this; a real driver loops "while events
    # remain", which FastSimulation.step's return value encodes.
    horizon = max(times, default=0.0) + delta + 2 * epoch
    while bound <= horizon:
        here = bound

        windowed.extend(
            _run(sliced, lambda: sliced.drain_until(here), times, delta)
        )
        bound += epoch
    assert not sliced

    assert windowed == reference
