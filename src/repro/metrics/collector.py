"""Metrics collection from framework events.

:class:`MetricsCollector` subscribes to a framework's
:class:`~repro.core.events.EventBus` and accumulates per-outcome and
per-class measurements: latency sample sets, difficulty distribution,
score distribution, and outcome counters.  A *classifier* callable maps
each response to a breakdown key (e.g. profile name, "benign"/"attack"),
enabling the throttling experiment's per-class latency comparison.

:class:`GatewayMetrics` covers the serving tier the collector cannot
see: admission-queue depth, the batch-size distribution the
micro-batcher actually achieved, and shed counters broken down by
reason — fed directly by the gateway plus ``REQUEST_SHED`` events off
the same bus.  It only records, into
:class:`~repro.obs.registry.MetricsRegistry` instruments; every
serving summary is read back from a registry snapshot by
:func:`gateway_summary`, whether the snapshot is one process's or a
:func:`~repro.obs.registry.merge_snapshots` of a cluster's workers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.core.events import EventBus, EventKind, FrameworkEvent
from repro.core.records import ResponseStatus, ServedResponse
from repro.metrics.histogram import SampleSet
from repro.metrics.stats import StreamingStats

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "MetricsCollector",
    "ClassMetrics",
    "GatewayMetrics",
    "gateway_summary",
]

Classifier = Callable[[ServedResponse], str]


class ClassMetrics:
    """Accumulated measurements for one breakdown class."""

    def __init__(self) -> None:
        self.latencies = SampleSet()
        self.served_latencies = SampleSet()
        self.scores = StreamingStats()
        self.difficulties = StreamingStats()
        self.attempts = StreamingStats()
        self.outcomes: dict[ResponseStatus, int] = {
            status: 0 for status in ResponseStatus
        }

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    @property
    def served(self) -> int:
        return self.outcomes[ResponseStatus.SERVED]

    @property
    def goodput_fraction(self) -> float:
        """Fraction of requests that ended in a served resource."""
        total = self.total
        return self.served / total if total else 0.0

    def observe(self, response: ServedResponse) -> None:
        """Fold one response into the accumulators."""
        self.outcomes[response.status] += 1
        self.latencies.add(response.latency)
        if response.served:
            self.served_latencies.add(response.latency)
        self.scores.add(response.decision.reputation_score)
        self.difficulties.add(response.decision.difficulty)
        self.attempts.add(response.solve_attempts)


class MetricsCollector:
    """Collects responses, optionally broken down by a classifier.

    Use either as an event subscriber (``collector.attach(bus)``) or by
    calling :meth:`observe` directly from simulator code.
    """

    #: Key under which unclassified traffic accumulates.
    OVERALL = "overall"

    def __init__(self, classifier: Classifier | None = None) -> None:
        self._classifier = classifier
        self._classes: dict[str, ClassMetrics] = {}

    def attach(self, bus: EventBus) -> "MetricsCollector":
        """Subscribe to RESPONSE_SERVED events on ``bus``; returns self."""
        bus.subscribe(self._on_event, kinds=[EventKind.RESPONSE_SERVED])
        return self

    def _on_event(self, event: FrameworkEvent) -> None:
        response = event.payload.get("response")
        if isinstance(response, ServedResponse):
            self.observe(response)

    def observe(self, response: ServedResponse) -> None:
        """Fold ``response`` into the overall and per-class metrics."""
        self._class(self.OVERALL).observe(response)
        if self._classifier is not None:
            self._class(self._classifier(response)).observe(response)

    def _class(self, key: str) -> ClassMetrics:
        if key not in self._classes:
            self._classes[key] = ClassMetrics()
        return self._classes[key]

    @property
    def overall(self) -> ClassMetrics:
        """Metrics across all traffic."""
        return self._class(self.OVERALL)

    def class_names(self) -> tuple[str, ...]:
        """Breakdown keys seen so far (excluding the overall bucket)."""
        return tuple(
            sorted(k for k in self._classes if k != self.OVERALL)
        )

    def for_class(self, key: str) -> ClassMetrics:
        """Metrics for one breakdown class; empty metrics if unseen."""
        return self._class(key)


class GatewayMetrics:
    """Serving-tier measurements for the admission gateway.

    The gateway reports every flush (:meth:`observe_flush`), every
    shed decision (:meth:`observe_shed`) and every connection that
    ended without its terminal reply
    (:meth:`observe_connection_error`); alternatively
    :meth:`attach` subscribes the shed side to ``REQUEST_SHED`` events
    so any bus observer sees the same stream the metrics do.

    Records into :class:`~repro.obs.registry.MetricsRegistry`
    instruments (``gateway_admitted_total``, ``gateway_shed_total{reason}``,
    ``gateway_flushes_total``, ``gateway_batch_size``,
    ``gateway_queue_depth``, ``gateway_admission_wait_seconds``,
    ``gateway_connection_errors_total{kind}``) and keeps no count of
    its own: pass a shared ``registry`` to expose them, or omit it for
    a private one, and read totals with :func:`gateway_summary` over
    ``registry.snapshot()``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        # Deferred: importing ``repro.obs`` loads its HTTP endpoint
        # (http.server, email), which most users of this module never
        # serve.
        from repro.obs.registry import (
            COUNT_BUCKETS,
            METRIC_CATALOG,
            SECONDS_BUCKETS,
            MetricsRegistry,
        )

        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._admitted = registry.counter(
            "gateway_admitted_total",
            METRIC_CATALOG["gateway_admitted_total"],
        )
        self._shed = registry.counter(
            "gateway_shed_total",
            METRIC_CATALOG["gateway_shed_total"],
            labels=("reason",),
        )
        self._flushes = registry.counter(
            "gateway_flushes_total",
            METRIC_CATALOG["gateway_flushes_total"],
        )
        self.batch_sizes = registry.histogram(
            "gateway_batch_size",
            METRIC_CATALOG["gateway_batch_size"],
            buckets=COUNT_BUCKETS,
        ).labels()
        self.queue_depths = registry.histogram(
            "gateway_queue_depth",
            METRIC_CATALOG["gateway_queue_depth"],
            buckets=COUNT_BUCKETS,
        ).labels()
        self.admission_waits = registry.histogram(
            "gateway_admission_wait_seconds",
            METRIC_CATALOG["gateway_admission_wait_seconds"],
            buckets=SECONDS_BUCKETS,
        ).labels()
        self._connection_errors = registry.counter(
            "gateway_connection_errors_total",
            METRIC_CATALOG["gateway_connection_errors_total"],
            labels=("kind",),
        )

    def attach(self, bus: EventBus) -> "GatewayMetrics":
        """Subscribe to REQUEST_SHED events on ``bus``; returns self."""
        bus.subscribe(self._on_event, kinds=[EventKind.REQUEST_SHED])
        return self

    def _on_event(self, event: FrameworkEvent) -> None:
        reason = event.payload.get("reason")
        depth = event.payload.get("queue_depth")
        self.observe_shed(
            str(reason or "unspecified"),
            queue_depth=depth if isinstance(depth, (int, float)) else None,
        )

    def observe_flush(
        self,
        batch_size: int,
        queue_depth: int,
        admitted: int | None = None,
        waits: Sequence[float] = (),
    ) -> None:
        """Record one admission batch and the depth it drained from.

        ``admitted`` is the number of requests that actually received a
        challenge; it defaults to ``batch_size`` but callers whose
        batches can partially fail (the gateway's scalar fallback)
        pass the true count.  ``waits`` is the seconds each request of
        the batch spent queued before this flush took it.
        """
        self.batch_sizes.observe(batch_size)
        self.queue_depths.observe(queue_depth)
        self._flushes.inc()
        self._admitted.inc(batch_size if admitted is None else admitted)
        self.admission_waits.observe_array(waits)

    def observe_connection_error(self, kind: str) -> None:
        """Record one connection closed without its terminal reply.

        ``kind``: ``protocol`` (malformed line), ``oversize`` (a line
        past the cap), ``timeout`` (a line not delivered within
        ``io_timeout``, as the deadline sweep finds it), ``reset`` (the
        peer left first), or ``accept`` (the listener could not accept
        a connection, out of descriptors, and backs off for a second).
        """
        self._connection_errors.inc(kind=kind)

    def observe_shed(
        self, reason: str, queue_depth: int | float | None = None
    ) -> None:
        """Record one shed request (optionally with the depth seen)."""
        self._shed.inc(reason=reason)
        if queue_depth is not None:
            self.queue_depths.observe(float(queue_depth))


def gateway_summary(snapshot: Mapping) -> dict:
    """The serving summary, read from a registry snapshot.

    ``snapshot`` is one registry's
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot` (one worker)
    or a :func:`~repro.obs.registry.merge_snapshots` of N; a merge
    keeps its inputs under ``parts``, which become ``per_worker``.
    Counters sum, the mean batch size is ``sum / count`` of
    ``gateway_batch_size`` and the queue-depth high-water mark is the
    max of ``gateway_queue_depth``, so the totals of N merged workers
    equal those of one registry fed every worker's operations.
    """
    parts = snapshot.get("parts") or (snapshot,)
    return {
        "workers": len(parts),
        **_gateway_totals(snapshot),
        "per_worker": [_gateway_totals(part) for part in parts],
    }


def _gateway_totals(snapshot: Mapping) -> dict:
    series = {
        metric["name"]: metric["series"]
        for metric in snapshot.get("metrics", ())
    }

    def total(name: str) -> int:
        return int(sum(row["value"] for row in series.get(name, ())))

    # The size and depth histograms are unlabelled: one row or none.
    batches = series.get("gateway_batch_size") or [{"sum": 0.0, "count": 0}]
    depths = series.get("gateway_queue_depth") or [{"max": None}]
    return {
        "admitted": total("gateway_admitted_total"),
        "shed": total("gateway_shed_total"),
        "shed_reasons": {
            row["labels"]["reason"]: int(row["value"])
            for row in series.get("gateway_shed_total", ())
        },
        "flushes": total("gateway_flushes_total"),
        "mean_batch_size": (
            batches[0]["sum"] / batches[0]["count"]
            if batches[0]["count"] else 0.0
        ),
        "max_queue_depth": depths[0]["max"] or 0.0,
    }
