"""Sampled request spans: per-request causality through the pipeline.

A :class:`RequestTracer` subscribes to a framework's
:class:`~repro.core.events.EventBus` and, for one request in every
``sample_every``, records a *span*: the ordered list of pipeline stages
the request passed through (gateway accept → accumulator flush → score
→ policy → puzzle issue → solution → verify → respond), each stamped
with the event's own timestamp *and* a monotonic offset measured at the
subscriber — so intra-batch stage costs are visible even when the
framework stamps a whole flush with one wall-clock instant.

Spans are plain dicts, dumped as JSONL (one header line, one span per
line) and rendered by ``repro trace``.  In cluster mode each
:class:`~repro.net.gateway.cluster.ShardWorker` runs its own tracer and
ships finished spans to the parent over the control channel at
shutdown; ``id_prefix`` keeps span ids unique across shards exactly
like the replay recorder's trace ids.

Cost contract: an unattached tracer costs nothing (the bus skips event
construction with no subscribers); an attached tracer costs one dict
lookup per event for unsampled requests, and one span per
``sample_every`` requests; the gateway tests pin that span count.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from typing import IO, Iterable

from repro.core.events import EventBus, EventKind, FrameworkEvent

__all__ = ["RequestTracer", "load_spans", "render_spans", "SPANS_FORMAT"]

SPANS_FORMAT = "repro-trace-spans/v1"

#: Event kind -> span stage name, in pipeline order.
STAGE_BY_KIND = {
    EventKind.REQUEST_RECEIVED: "flush",
    EventKind.SCORED: "score",
    EventKind.POLICY_APPLIED: "policy",
    EventKind.PUZZLE_ISSUED: "issue",
    EventKind.SOLUTION_RECEIVED: "solution",
    EventKind.SOLUTION_VERIFIED: "verify",
    EventKind.SOLUTION_REJECTED: "verify",
    EventKind.RESPONSE_SERVED: "respond",
    EventKind.REQUEST_SHED: "shed",
}

#: Stages a fully served request passes through, in order — the
#: reconstruction test asserts a cluster-recorded span contains these.
FULL_PATH = ("accept", "flush", "score", "policy", "issue",
             "solution", "verify", "respond")


def _request_of(event: FrameworkEvent):
    payload = event.payload
    request = payload.get("request")
    if request is not None:
        return request
    decision = payload.get("decision")
    if decision is not None:
        return decision.request
    response = payload.get("response")
    if response is not None:
        return response.decision.request
    return None


class RequestTracer:
    """Samples 1-in-N requests into structured spans.

    Parameters
    ----------
    sample_every:
        Sampling stride; 1 traces every request.  The decision is made
        at the first event that names a request (arrival at the
        framework, or a shed), and the whole span rides on it.
    id_prefix:
        Prepended to span ids (``"w3"`` → ``w3-0``, ``w3-1`` ...) so
        cluster shards produce globally unique ids.
    max_spans:
        Bound on *finished* spans retained (oldest dropped) and on
        concurrently open spans (oldest force-closed as ``unresolved``);
        keeps soak runs from accumulating unbounded span lists.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        given, finished spans count into ``trace_spans_total`` by
        outcome.
    """

    KINDS = tuple(STAGE_BY_KIND)

    def __init__(
        self,
        sample_every: int = 100,
        *,
        id_prefix: str = "",
        max_spans: int = 10_000,
        registry=None,
    ) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.sample_every = int(sample_every)
        self.id_prefix = id_prefix
        self.max_spans = int(max_spans)
        self._seen = 0
        self._next_id = 0
        self._active: OrderedDict[int, dict] = OrderedDict()
        self.spans: list[dict] = []
        self._counter = None
        if registry is not None:
            from repro.obs.registry import METRIC_CATALOG

            self._counter = registry.counter(
                "trace_spans_total",
                METRIC_CATALOG["trace_spans_total"],
                labels=("outcome",),
            )

    # -- wiring --------------------------------------------------------
    def attach(self, bus: EventBus) -> "RequestTracer":
        """Subscribe to every traced pipeline stage on ``bus``."""
        bus.subscribe(self._on_event, kinds=self.KINDS)
        return self

    def detach(self, bus: EventBus) -> None:
        bus.unsubscribe(self._on_event)

    # -- event handling ------------------------------------------------
    def _on_event(self, event: FrameworkEvent) -> None:
        request = _request_of(event)
        if request is None:
            return
        # Events name a request only by object, so open spans are found
        # by ``id(request)``; each open span holds its request, so that
        # id cannot be handed to a later request while the span is open.
        key = id(request)
        span = self._active.get(key)
        stage = STAGE_BY_KIND[event.kind]
        if span is None:
            # Only a request's first pipeline contact (framework arrival
            # or a pre-admission shed) can open a span; later stages of
            # unsampled requests fall through here and cost one lookup.
            if event.kind not in (
                EventKind.REQUEST_RECEIVED, EventKind.REQUEST_SHED
            ):
                return
            self._seen += 1
            if (self._seen - 1) % self.sample_every != 0:
                return
            span = self._open(request)
            self._active[key] = span
            if len(self._active) > self.max_spans:
                _, evicted = self._active.popitem(last=False)
                self._finish(evicted, outcome="unresolved")
        now = time.monotonic()
        record: dict = {
            "stage": stage,
            "at": event.timestamp,
            "offset_ms": (now - span["_mono0"]) * 1000.0,
        }
        payload = event.payload
        if event.kind is EventKind.SCORED:
            span["score"] = payload.get("score")
        elif event.kind is EventKind.POLICY_APPLIED:
            span["difficulty"] = payload.get("difficulty")
            span["policy"] = payload.get("policy")
        elif event.kind is EventKind.PUZZLE_ISSUED:
            decision = payload.get("decision")
            if decision is not None:
                span["score"] = decision.reputation_score
                span["difficulty"] = decision.difficulty
        elif event.kind is EventKind.SOLUTION_RECEIVED:
            solution = payload.get("solution")
            if solution is not None:
                record["attempts"] = solution.attempts
        elif event.kind is EventKind.SOLUTION_REJECTED:
            status = payload.get("status")
            record["status"] = getattr(status, "value", str(status))
        elif event.kind is EventKind.REQUEST_SHED:
            record["reason"] = payload.get("reason")
            record["queue_depth"] = payload.get("queue_depth")
        span["stages"].append(record)

        if event.kind is EventKind.REQUEST_SHED:
            self._close(key, span, outcome="shed")
        elif event.kind is EventKind.RESPONSE_SERVED:
            response = payload.get("response")
            status = getattr(response, "status", None)
            span["status"] = getattr(status, "value", None)
            span["latency_ms"] = (
                response.latency * 1000.0 if response is not None else None
            )
            outcome = (
                "served"
                if response is not None and response.served
                else "denied"
            )
            self._close(key, span, outcome=outcome)

    def _open(self, request) -> dict:
        span_id = f"{self.id_prefix}-{self._next_id}" if (
            self.id_prefix
        ) else str(self._next_id)
        self._next_id += 1
        mono0 = time.monotonic()
        return {
            "span_id": span_id,
            "client_ip": request.client_ip,
            "resource": request.resource,
            "accept_ts": request.timestamp,
            "sample_every": self.sample_every,
            # The accept stage is derived from the request's own
            # timestamp: the gateway stamps it at socket accept, before
            # the request waits in the admission queue.
            "stages": [{"stage": "accept", "at": request.timestamp,
                        "offset_ms": 0.0}],
            "_mono0": mono0,
            "_request": request,
        }

    def _close(self, key: int, span: dict, outcome: str) -> None:
        self._active.pop(key, None)
        self._finish(span, outcome)

    def _finish(self, span: dict, outcome: str) -> None:
        span.pop("_mono0", None)
        span.pop("_request", None)
        span["outcome"] = outcome
        self.spans.append(span)
        if len(self.spans) > self.max_spans:
            del self.spans[: len(self.spans) - self.max_spans]
        if self._counter is not None:
            self._counter.inc(outcome=outcome)

    # -- extraction ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def drain(self) -> list[dict]:
        """Finish any still-open spans and return every span recorded.

        Used at shutdown: a request whose client never returned a
        solution still yields a (truncated) span, marked
        ``unresolved``.
        """
        for key in list(self._active):
            span = self._active.pop(key)
            self._finish(span, outcome="unresolved")
        return list(self.spans)

    def dump(self, path, meta: dict | None = None) -> None:
        """Write spans as JSONL: a header line, then one span per line."""
        spans = self.drain()
        with open(path, "w", encoding="utf-8") as handle:
            write_spans(handle, spans, meta=meta)


def write_spans(
    handle: IO[str], spans: Iterable[dict], meta: dict | None = None
) -> int:
    """Write a span stream to an open text handle; returns span count."""
    header = {"format": SPANS_FORMAT, "meta": meta or {}}
    handle.write(json.dumps(header, separators=(",", ":")) + "\n")
    count = 0
    for span in spans:
        handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        count += 1
    return count


def load_spans(path) -> tuple[dict, list[dict]]:
    """Read a span JSONL file; returns ``(header_meta, spans)``."""
    meta: dict = {}
    spans: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not JSON ({exc})"
                ) from None
            if lineno == 1 and document.get("format") == SPANS_FORMAT:
                meta = document.get("meta", {})
                continue
            if "stages" not in document:
                raise ValueError(
                    f"{path}:{lineno}: not a trace span (no stages)"
                )
            spans.append(document)
    return meta, spans


def render_spans(spans: Iterable[dict], limit: int | None = None) -> str:
    """Human-readable waterfall rendering for ``repro trace``."""
    lines: list[str] = []
    shown = 0
    total = 0
    for span in spans:
        total += 1
        if limit is not None and shown >= limit:
            continue
        shown += 1
        header = (
            f"span {span.get('span_id', '?')}  "
            f"{span.get('client_ip', '?')} {span.get('resource', '')}  "
            f"outcome={span.get('outcome', '?')}"
        )
        if span.get("status"):
            header += f" status={span['status']}"
        if span.get("latency_ms") is not None:
            header += f" latency={span['latency_ms']:.1f}ms"
        if span.get("difficulty") is not None:
            score = span.get("score")
            scored = f" score={score:.2f}" if score is not None else ""
            header += f"{scored} difficulty={span['difficulty']}"
        lines.append(header)
        previous = 0.0
        for record in span.get("stages", ()):
            offset = float(record.get("offset_ms", 0.0))
            delta = offset - previous
            previous = offset
            extras = "".join(
                f" {key}={record[key]}"
                for key in ("reason", "queue_depth", "attempts", "status")
                if record.get(key) is not None
            )
            lines.append(
                f"  {record['stage']:<9} +{delta:8.2f}ms "
                f"(t={offset:8.2f}ms){extras}"
            )
        lines.append("")
    if limit is not None and total > shown:
        lines.append(f"... {total - shown} more spans (use --limit)")
    return "\n".join(lines).rstrip("\n")
