"""Windowed time series: how metrics evolve during a run.

Aggregate metrics hide dynamics — an attack's onset, the moment a
load-adaptive policy kicks in, recovery after the flood ends.  A
:class:`TimeSeries` buckets observations into fixed windows and exposes
per-window statistics; :class:`TimelineCollector` builds per-class
latency/goodput timelines directly from simulation responses.
"""

from __future__ import annotations

import math

from typing import Callable

from repro.core.events import EventBus, EventKind, FrameworkEvent
from repro.core.records import ServedResponse

__all__ = ["TimeSeries", "TimelineCollector"]


class TimeSeries:
    """Fixed-window aggregation of (time, value) observations."""

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = window
        self._sums: dict[int, float] = {}
        self._counts: dict[int, int] = {}

    def add(self, timestamp: float, value: float = 1.0) -> None:
        """Record ``value`` at ``timestamp``."""
        if not math.isfinite(timestamp) or timestamp < 0:
            raise ValueError(f"timestamp must be finite and >= 0: {timestamp!r}")
        if not math.isfinite(value):
            raise ValueError(f"value must be finite: {value!r}")
        index = int(timestamp / self.window)
        self._sums[index] = self._sums.get(index, 0.0) + value
        self._counts[index] = self._counts.get(index, 0) + 1

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def span(self) -> tuple[float, float]:
        """(start, end) of the covered time range; (0, 0) when empty."""
        if not self._counts:
            return (0.0, 0.0)
        indexes = sorted(self._counts)
        return (
            indexes[0] * self.window,
            (indexes[-1] + 1) * self.window,
        )

    def _index_range(self) -> range:
        if not self._counts:
            return range(0)
        indexes = sorted(self._counts)
        return range(indexes[0], indexes[-1] + 1)

    def counts(self) -> list[tuple[float, int]]:
        """(window_start, observation_count) for every covered window."""
        return [
            (i * self.window, self._counts.get(i, 0))
            for i in self._index_range()
        ]

    def rates(self) -> list[tuple[float, float]]:
        """(window_start, observations_per_second)."""
        return [
            (start, count / self.window)
            for start, count in self.counts()
        ]

    def means(self) -> list[tuple[float, float]]:
        """(window_start, mean value); empty windows report NaN."""
        out = []
        for i in self._index_range():
            count = self._counts.get(i, 0)
            mean = self._sums[i] / count if count else math.nan
            out.append((i * self.window, mean))
        return out


class TimelineCollector:
    """Per-class latency and goodput timelines from responses.

    Observe responses (directly, or off an event bus with
    :meth:`attach`) and read back, per class: request rate, served
    rate, and mean served latency per window.
    """

    def __init__(self, window: float = 1.0) -> None:
        self.window = window
        self._latency: dict[str, TimeSeries] = {}
        self._served: dict[str, TimeSeries] = {}
        self._requests: dict[str, TimeSeries] = {}
        self._classifier: Callable[[ServedResponse], str] | None = None

    def attach(
        self, bus: EventBus, classifier: Callable[[ServedResponse], str]
    ) -> "TimelineCollector":
        """Observe every RESPONSE_SERVED on ``bus``; returns self.

        ``classifier`` maps a response to its class; the event's
        timestamp is the completion time.
        """
        self._classifier = classifier
        bus.subscribe(self._on_event, kinds=[EventKind.RESPONSE_SERVED])
        return self

    def _on_event(self, event: FrameworkEvent) -> None:
        response = event.payload["response"]
        self.observe(self._classifier(response), response, at=event.timestamp)

    def observe(self, cls: str, response: ServedResponse, at: float) -> None:
        """Fold one terminal response (completed at time ``at``)."""
        self._series(self._requests, cls).add(at)
        if response.served:
            self._series(self._served, cls).add(at)
            self._series(self._latency, cls).add(at, response.latency)

    def _series(self, store: dict[str, TimeSeries], cls: str) -> TimeSeries:
        if cls not in store:
            store[cls] = TimeSeries(self.window)
        return store[cls]

    def served_rate(self, cls: str) -> list[tuple[float, float]]:
        """(window_start, served/second) for ``cls``."""
        return self._series(self._served, cls).rates()

    def request_rate(self, cls: str) -> list[tuple[float, float]]:
        return self._series(self._requests, cls).rates()

    def latency_means(self, cls: str) -> list[tuple[float, float]]:
        """(window_start, mean served latency seconds) for ``cls``."""
        return self._series(self._latency, cls).means()
