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
the same bus.

Multi-worker serving adds one wrinkle: each gateway worker process
owns a private :class:`GatewayMetrics`, so cluster totals must be
assembled from per-worker summaries shipped over the control channel.
:meth:`GatewayMetrics.summary` reduces one worker to a JSON-safe dict
and :func:`aggregate_gateway_summaries` folds any number of those into
cluster totals (counter sums, flush-weighted mean batch size, max of
max queue depths).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.core.events import EventBus, EventKind, FrameworkEvent
from repro.core.records import ResponseStatus, ServedResponse
from repro.metrics.histogram import SampleSet
from repro.metrics.stats import StreamingStats

__all__ = [
    "MetricsCollector",
    "ClassMetrics",
    "GatewayMetrics",
    "aggregate_gateway_summaries",
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


#: Bucket bounds for the gateway's size/depth distributions — powers of
#: two up to the default queue limit, matching how batches actually
#: cluster (the exact-mode series retains raw samples regardless, so
#: summary statistics never depend on the bucketing).
_GATEWAY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
#: A request waits a few loop passes (tens of microseconds) when the
#: gateway is idle and up to ``batch_window`` or a flush or two under load.
_WAIT_BUCKETS = (
    2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0,
)


class GatewayMetrics:
    """Serving-tier measurements for the admission gateway.

    The gateway reports every flush (:meth:`observe_flush`), every
    shed decision (:meth:`observe_shed`) and every connection that
    ended without its terminal reply
    (:meth:`observe_connection_error`); alternatively
    :meth:`attach` subscribes the shed side to ``REQUEST_SHED`` events
    so any bus observer sees the same stream the metrics do.

    Backed by :class:`~repro.obs.registry.MetricsRegistry` instruments
    (``gateway_admitted_total``, ``gateway_shed_total{reason}``,
    ``gateway_flushes_total``, ``gateway_batch_size``,
    ``gateway_queue_depth``, ``gateway_admission_wait_seconds``,
    ``gateway_connection_errors_total{kind}``) so one ``/metrics``
    scrape sees the same
    numbers :meth:`summary` ships; pass a shared ``registry`` to expose
    them, or omit it for a private one (isolated, as before).  The
    size/depth series run in exact mode, so :meth:`summary` output is
    bit-identical to the retained-sample implementation it replaced.
    """

    def __init__(self, registry=None) -> None:
        from repro.obs.registry import METRIC_CATALOG, MetricsRegistry

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
            buckets=_GATEWAY_BUCKETS,
            exact=True,
        ).labels()
        self.queue_depths = registry.histogram(
            "gateway_queue_depth",
            METRIC_CATALOG["gateway_queue_depth"],
            buckets=_GATEWAY_BUCKETS,
            exact=True,
        ).labels()
        self.admission_waits = registry.histogram(
            "gateway_admission_wait_seconds",
            METRIC_CATALOG["gateway_admission_wait_seconds"],
            buckets=_WAIT_BUCKETS,
        ).labels()
        self._connection_errors = registry.counter(
            "gateway_connection_errors_total",
            METRIC_CATALOG["gateway_connection_errors_total"],
            labels=("kind",),
        )

    @property
    def admitted_count(self) -> int:
        return int(self._admitted.value())

    @property
    def shed_count(self) -> int:
        return int(self._shed.total())

    @property
    def shed_reasons(self) -> dict[str, int]:
        """Shed counts by reason (a copy; mutate via :meth:`observe_shed`)."""
        return {
            reason: int(count)
            for reason, count in self._shed.as_dict().items()
        }

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
        self.batch_sizes.add(batch_size)
        self.queue_depths.add(queue_depth)
        self._flushes.inc()
        self._admitted.inc(batch_size if admitted is None else admitted)
        self.admission_waits.observe_array(waits)

    def observe_connection_error(self, kind: str) -> None:
        """Record one connection closed without its terminal reply.

        ``kind``: ``protocol`` (malformed line), ``oversize``,
        ``timeout``, or ``reset`` (the peer left first).
        """
        self._connection_errors.inc(kind=kind)

    def observe_shed(
        self, reason: str, queue_depth: int | float | None = None
    ) -> None:
        """Record one shed request (optionally with the depth seen)."""
        self._shed.inc(reason=reason)
        if queue_depth is not None:
            self.queue_depths.add(float(queue_depth))

    @property
    def mean_batch_size(self) -> float:
        """Average achieved batch size (0.0 before the first flush)."""
        return self.batch_sizes.mean() if len(self.batch_sizes) else 0.0

    @property
    def max_queue_depth(self) -> float:
        """Deepest queue observed (0.0 before the first observation)."""
        return self.queue_depths.max() if len(self.queue_depths) else 0.0

    def summary(self) -> dict:
        """JSON-safe reduction, shippable across a process boundary."""
        return {
            "admitted": self.admitted_count,
            "shed": self.shed_count,
            "shed_reasons": dict(self.shed_reasons),
            "flushes": len(self.batch_sizes),
            "mean_batch_size": self.mean_batch_size,
            "max_queue_depth": self.max_queue_depth,
        }


def aggregate_gateway_summaries(
    summaries: Sequence[Mapping],
) -> dict:
    """Fold per-worker :meth:`GatewayMetrics.summary` dicts into totals.

    Counters sum, shed reasons merge, the mean batch size is weighted
    by each worker's flush count, and the queue-depth high-water mark
    is the max across workers.  The input summaries ride along under
    ``per_worker`` so nothing is lost in the reduction.
    """
    summaries = list(summaries)
    flushes = sum(int(s.get("flushes", 0)) for s in summaries)
    weighted = sum(
        float(s.get("mean_batch_size", 0.0)) * int(s.get("flushes", 0))
        for s in summaries
    )
    shed_reasons: dict[str, int] = {}
    for s in summaries:
        for reason, count in dict(s.get("shed_reasons", {})).items():
            shed_reasons[reason] = shed_reasons.get(reason, 0) + int(count)
    return {
        "workers": len(summaries),
        "admitted": sum(int(s.get("admitted", 0)) for s in summaries),
        "shed": sum(int(s.get("shed", 0)) for s in summaries),
        "shed_reasons": shed_reasons,
        "flushes": flushes,
        "mean_batch_size": weighted / flushes if flushes else 0.0,
        "max_queue_depth": max(
            (float(s.get("max_queue_depth", 0.0)) for s in summaries),
            default=0.0,
        ),
        "per_worker": [dict(s) for s in summaries],
    }
