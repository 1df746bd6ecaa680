"""Unit tests for the event bus."""

from __future__ import annotations

from repro.core.events import EventBus, EventKind


def test_global_subscriber_sees_all_kinds():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.emit(EventKind.SCORED, 1.0, score=5.0)
    bus.emit(EventKind.PUZZLE_ISSUED, 2.0)
    assert [e.kind for e in seen] == [
        EventKind.SCORED,
        EventKind.PUZZLE_ISSUED,
    ]


def test_kind_subscriber_filters():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append, kinds=[EventKind.SCORED])
    bus.emit(EventKind.SCORED, 1.0)
    bus.emit(EventKind.PUZZLE_ISSUED, 2.0)
    assert len(seen) == 1
    assert seen[0].kind is EventKind.SCORED


def test_payload_and_timestamp_carried():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.emit(EventKind.SCORED, 42.5, score=3.3, extra="x")
    event = seen[0]
    assert event.timestamp == 42.5
    assert event.payload == {"score": 3.3, "extra": "x"}


def test_failing_subscriber_does_not_break_others():
    bus = EventBus()
    seen = []

    def broken(_event):
        raise RuntimeError("observer bug")

    bus.subscribe(broken)
    bus.subscribe(seen.append)
    bus.emit(EventKind.SCORED, 1.0)
    assert len(seen) == 1


def test_multiple_kind_registration_single_call():
    bus = EventBus()
    seen = []
    bus.subscribe(
        seen.append, kinds=[EventKind.SCORED, EventKind.RESPONSE_SERVED]
    )
    bus.emit(EventKind.SCORED, 1.0)
    bus.emit(EventKind.RESPONSE_SERVED, 2.0)
    bus.emit(EventKind.PUZZLE_ISSUED, 3.0)
    assert len(seen) == 2
