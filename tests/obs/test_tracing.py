"""Tests for sampled request tracing: spans, sampling, serialization."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.events import EventBus, EventKind
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import (
    FULL_PATH,
    RequestTracer,
    load_spans,
    render_spans,
)
from repro.policies.linear import policy_1
from repro.pow.solver import HashSolver
from repro.reputation.ensemble import ConstantModel


def make_request(ip="203.0.113.9") -> ClientRequest:
    return ClientRequest(
        client_ip=ip, resource="/data", timestamp=100.0, features={}
    )


def emit_arrival(bus: EventBus, request) -> None:
    bus.emit(EventKind.REQUEST_RECEIVED, request.timestamp, request=request)


def emit_served(bus: EventBus, request, served=True) -> None:
    response = SimpleNamespace(
        decision=SimpleNamespace(request=request),
        status=SimpleNamespace(value="served" if served else "denied"),
        latency=0.025,
        served=served,
    )
    bus.emit(EventKind.RESPONSE_SERVED, request.timestamp, response=response)


class TestSampling:
    def test_stride_picks_first_of_every_n(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=3).attach(bus)
        requests = [make_request(f"10.0.0.{i}") for i in range(7)]
        for request in requests:
            emit_arrival(bus, request)
            emit_served(bus, request)
        assert [s["client_ip"] for s in tracer.spans] == [
            "10.0.0.0", "10.0.0.3", "10.0.0.6",
        ]

    def test_sample_every_one_traces_everything(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=1).attach(bus)
        for i in range(4):
            request = make_request(f"10.0.0.{i}")
            emit_arrival(bus, request)
            emit_served(bus, request)
        assert len(tracer) == 4

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError, match="sample_every"):
            RequestTracer(sample_every=0)

    def test_unsampled_requests_leave_no_trace(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=2).attach(bus)
        sampled, skipped = make_request("10.0.0.1"), make_request("10.0.0.2")
        emit_arrival(bus, sampled)
        emit_arrival(bus, skipped)
        emit_served(bus, skipped)
        emit_served(bus, sampled)
        assert len(tracer.spans) == 1
        assert tracer.spans[0]["client_ip"] == "10.0.0.1"


class TestSpanContents:
    def test_full_pipeline_span_through_real_framework(self):
        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        tracer = RequestTracer(sample_every=1).attach(framework.events)
        request = make_request()
        challenge = framework.challenge(request, now=100.0)
        solution = HashSolver().solve(challenge.puzzle, request.client_ip)
        response = framework.redeem(challenge, solution, now=100.5)
        assert response.served
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        stages = [record["stage"] for record in span["stages"]]
        # The gateway-only stages (accept/flush) are absent when the
        # tracer rides the bare framework: challenge() starts at score.
        for stage in ("score", "policy", "issue", "solution",
                      "verify", "respond"):
            assert stage in stages, stages
        assert span["outcome"] == "served"
        assert span["status"] == "served"
        assert span["score"] == 0.0
        assert span["difficulty"] == 1
        assert span["latency_ms"] == pytest.approx(500.0)

    def test_shed_closes_span_with_reason(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=1).attach(bus)
        request = make_request()
        bus.emit(
            EventKind.REQUEST_SHED,
            request.timestamp,
            request=request,
            reason="queue full",
            queue_depth=512,
        )
        (span,) = tracer.spans
        assert span["outcome"] == "shed"
        assert span["stages"][-1]["stage"] == "shed"
        assert span["stages"][-1]["reason"] == "queue full"
        assert span["stages"][-1]["queue_depth"] == 512

    def test_denied_response_closes_span_as_denied(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=1).attach(bus)
        request = make_request()
        emit_arrival(bus, request)
        emit_served(bus, request, served=False)
        assert tracer.spans[0]["outcome"] == "denied"

    def test_span_ids_carry_shard_prefix(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=1, id_prefix="w3").attach(bus)
        for _ in range(2):
            request = make_request()
            emit_arrival(bus, request)
            emit_served(bus, request)
        assert [s["span_id"] for s in tracer.spans] == ["w3-0", "w3-1"]

    def test_offsets_are_monotone_within_a_span(self):
        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        tracer = RequestTracer(sample_every=1).attach(framework.events)
        request = make_request()
        challenge = framework.challenge(request, now=100.0)
        solution = HashSolver().solve(challenge.puzzle, request.client_ip)
        framework.redeem(challenge, solution, now=100.5)
        offsets = [r["offset_ms"] for r in tracer.spans[0]["stages"]]
        assert offsets == sorted(offsets)


class TestDrainAndBounds:
    def test_drain_marks_open_spans_unresolved(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=1).attach(bus)
        emit_arrival(bus, make_request())
        spans = tracer.drain()
        assert [s["outcome"] for s in spans] == ["unresolved"]
        # Drain is terminal for the active set; a second drain returns
        # the same finished spans without duplicating.
        assert tracer.drain() == spans

    def test_max_spans_bounds_finished_list(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=1, max_spans=3).attach(bus)
        for i in range(5):
            request = make_request(f"10.0.0.{i}")
            emit_arrival(bus, request)
            emit_served(bus, request)
        assert [s["client_ip"] for s in tracer.spans] == [
            "10.0.0.2", "10.0.0.3", "10.0.0.4",
        ]

    def test_oldest_open_span_evicted_as_unresolved(self):
        bus = EventBus()
        tracer = RequestTracer(sample_every=1, max_spans=2).attach(bus)
        # Spans are keyed by id(request), so keep the requests alive —
        # a freed request's address can be reused by the next one.
        requests = [make_request(f"10.0.0.{i}") for i in range(3)]
        for request in requests:
            emit_arrival(bus, request)
        evicted = [s for s in tracer.spans if s["outcome"] == "unresolved"]
        assert [s["client_ip"] for s in evicted] == ["10.0.0.0"]

    def test_abandoned_span_is_not_reentered_by_a_later_request(self):
        # A flood client never answers: its span stays open.  CPython
        # hands a freed object's id() to the next allocation of the same
        # size, so a tracer that kept only the id would file the next
        # request's stages under the abandoned span.
        bus = EventBus()
        tracer = RequestTracer(sample_every=1).attach(bus)
        ips = [f"10.0.0.{i}" for i in range(50)]
        for ip in ips:
            request = make_request(ip)
            emit_arrival(bus, request)
            del request  # the caller drops it; nothing else holds it
        spans = tracer.drain()
        assert [s["client_ip"] for s in spans] == ips
        for span in spans:
            assert [r["stage"] for r in span["stages"]] == ["accept", "flush"]
            assert "_request" not in span

    def test_registry_counts_outcomes(self):
        registry = MetricsRegistry()
        bus = EventBus()
        tracer = RequestTracer(sample_every=1, registry=registry).attach(bus)
        request = make_request()
        emit_arrival(bus, request)
        emit_served(bus, request)
        emit_arrival(bus, make_request("10.9.9.9"))
        tracer.drain()
        counter = registry.get("trace_spans_total")
        assert counter.as_dict() == {"served": 1, "unresolved": 1}


class TestSerialization:
    def _traced_spans(self) -> RequestTracer:
        bus = EventBus()
        tracer = RequestTracer(sample_every=1).attach(bus)
        for i in range(3):
            request = make_request(f"10.0.0.{i}")
            emit_arrival(bus, request)
            emit_served(bus, request)
        return tracer

    def test_dump_load_round_trip(self, tmp_path):
        tracer = self._traced_spans()
        path = tmp_path / "spans.jsonl"
        tracer.dump(path, meta={"recorder": "test", "sample_every": 1})
        meta, spans = load_spans(path)
        assert meta == {"recorder": "test", "sample_every": 1}
        assert spans == tracer.spans

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            load_spans(path)

    def test_load_rejects_span_without_stages(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"span_id": "0"}\n')
        with pytest.raises(ValueError, match="no stages"):
            load_spans(path)

    def test_render_waterfall_and_limit(self):
        tracer = self._traced_spans()
        text = render_spans(tracer.spans)
        assert "span 0  10.0.0.0 /data  outcome=served" in text
        assert "accept" in text and "respond" in text
        limited = render_spans(tracer.spans, limit=1)
        assert "... 2 more spans (use --limit)" in limited

    def test_full_path_constant_matches_stage_vocabulary(self):
        # FULL_PATH is what the cluster test reconstructs; every name in
        # it must be producible by the tracer ("accept" is synthesized,
        # the rest come from event kinds).
        from repro.obs.tracing import STAGE_BY_KIND

        producible = set(STAGE_BY_KIND.values()) | {"accept"}
        assert set(FULL_PATH) <= producible
