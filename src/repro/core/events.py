"""Structured event hooks for observing the framework pipeline.

The framework emits one event per pipeline stage (scored, policy applied,
puzzle issued, solution verified, response served/denied).  Subscribers —
metrics collectors, loggers, tests — register callbacks on an
:class:`EventBus`.  Emission is synchronous and exceptions in subscribers
are isolated so a broken observer cannot take down the data plane.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
from typing import Any, Callable, Iterable

__all__ = ["EventKind", "FrameworkEvent", "EventBus"]

logger = logging.getLogger(__name__)


class EventKind(enum.Enum):
    """Pipeline stages at which the framework emits events."""

    REQUEST_RECEIVED = "request_received"
    REQUEST_SHED = "request_shed"
    SCORED = "scored"
    POLICY_APPLIED = "policy_applied"
    PUZZLE_ISSUED = "puzzle_issued"
    SOLUTION_RECEIVED = "solution_received"
    SOLUTION_VERIFIED = "solution_verified"
    SOLUTION_REJECTED = "solution_rejected"
    RESPONSE_SERVED = "response_served"


@dataclasses.dataclass(frozen=True, slots=True)
class FrameworkEvent:
    """One observation of the pipeline.

    ``payload`` carries stage-specific data (the request, score,
    difficulty, puzzle, verification outcome, ...) keyed by short names;
    it is intentionally a plain dict so observers stay decoupled from
    internal types.
    """

    kind: EventKind
    timestamp: float
    payload: dict[str, Any]


Subscriber = Callable[[FrameworkEvent], None]


class EventBus:
    """Synchronous fan-out of :class:`FrameworkEvent` to subscribers.

    Subscribers may register for specific kinds or for all events.
    A subscriber raising an exception is logged and skipped; the
    remaining subscribers still run.
    """

    def __init__(self) -> None:
        self._by_kind: dict[EventKind, list[Subscriber]] = {}
        self._global: list[Subscriber] = []

    def subscribe(
        self,
        subscriber: Subscriber,
        kinds: Iterable[EventKind] | None = None,
    ) -> None:
        """Register ``subscriber`` for ``kinds`` (or every kind if None)."""
        if kinds is None:
            self._global.append(subscriber)
            return
        for kind in kinds:
            self._by_kind.setdefault(kind, []).append(subscriber)

    def has_subscribers(self, kind: EventKind) -> bool:
        """True when an event of ``kind`` would reach at least one subscriber.

        The framework's batch path checks this once per pipeline stage
        to skip building per-request events nobody would see.
        """
        return bool(self._global) or bool(self._by_kind.get(kind))

    def emit(self, kind: EventKind, timestamp: float, **payload: Any) -> None:
        """Build and deliver an event to all matching subscribers.

        Returns without building the event when nothing is subscribed —
        emission sits on the per-request hot path, so the no-observer
        case must cost a dictionary lookup, not an allocation.
        """
        by_kind = self._by_kind.get(kind)
        if self._global:
            targets = self._global + by_kind if by_kind else list(self._global)
        elif by_kind:
            targets = list(by_kind)
        else:
            return
        event = FrameworkEvent(kind=kind, timestamp=timestamp, payload=payload)
        for subscriber in targets:
            try:
                subscriber(event)
            except Exception:  # noqa: BLE001 - observer isolation by design
                logger.exception("event subscriber %r failed", subscriber)
