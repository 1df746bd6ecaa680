"""TraceReplayer: targets, pacing, config guards, and the live path."""

from __future__ import annotations

import pytest

from repro.core.spec import FrameworkSpec
from repro.replay import replayer as replayer_module
from repro.replay import (
    TraceReplayer,
    diff_decisions,
    loopback_plan,
    parse_target,
    replay_live,
    run_campaign,
    spec_from_trace,
    spec_hash,
)
from repro.traffic.trace import Trace


class VirtualClock:
    """The replayer's ``time``: stands still until asked to sleep."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture(scope="module")
def recorded():
    """One small recorded campaign shared by the module's tests."""
    return run_campaign("benign-baseline").trace


class TestParseTarget:
    @pytest.mark.parametrize(
        ("target", "expected"),
        [
            ("inproc", ("inproc", 1)),
            ("gateway", ("gateway", 1)),
            ("cluster:2", ("cluster", 2)),
            ("cluster:8", ("cluster", 8)),
        ],
    )
    def test_valid(self, target, expected):
        assert parse_target(target) == expected

    @pytest.mark.parametrize(
        "target", ["", "prod", "cluster:", "cluster:0", "cluster:x"]
    )
    def test_invalid(self, target):
        with pytest.raises(ValueError):
            parse_target(target)


class TestReplay:
    def test_replays_all_requests(self, recorded):
        result = TraceReplayer(recorded).run()
        assert result.requests == len(recorded)
        assert len(result.decisions) == len(recorded)

    def test_decisions_preserve_request_ids(self, recorded):
        result = TraceReplayer(recorded).run()
        assert [d.request_id for d in result.decisions] == [
            e.request.request_id for e in recorded
        ]

    def test_output_trace_is_dumpable_v2(self, recorded, tmp_path):
        result = TraceReplayer(recorded).run()
        path = tmp_path / "replayed.jsonl"
        result.trace.dump_jsonl(path)
        loaded = Trace.load_jsonl(path)
        assert loaded.decisions() == result.decisions
        assert loaded.header.meta["replay_target"] == "inproc"

    def test_spec_rebuilt_from_header(self, recorded):
        spec = spec_from_trace(recorded)
        assert spec == FrameworkSpec(feedback=False)
        assert spec_hash(spec) == recorded.header.config_hash

    def test_explicit_spec_allows_config_b(self, recorded):
        """Config-A-vs-config-B: a different policy, diffed on purpose."""
        result = TraceReplayer(
            recorded, spec=FrameworkSpec(policy="policy-1", feedback=False)
        ).run()
        report = diff_decisions(recorded.decisions(), result.decisions)
        assert not report.identical
        fields = {diff.field for diff in report.field_diffs}
        assert "difficulty" in fields or "policy_name" in fields
        # Scores come from the same model either way.
        assert "score" not in fields

    def test_pacing_slows_replay(self, recorded, monkeypatch):
        """Pacing at ``speed`` sleeps out each recorded gap divided by
        ``speed``: one sleep per inter-batch gap, summing to the
        trace's span over ``speed``, with the recorded decisions.
        """
        clock = VirtualClock()
        monkeypatch.setattr(replayer_module, "time", clock)
        paced = TraceReplayer(recorded, speed=20.0).run()
        instants = {entry.request.timestamp for entry in recorded}
        assert len(clock.sleeps) == len(instants) - 1
        assert sum(clock.sleeps) == pytest.approx(recorded.duration() / 20.0)
        assert diff_decisions(recorded.decisions(), paced.decisions).identical

    def test_accelerated_replay_vs_recorded_pacing(self, recorded, monkeypatch):
        """Recorded-time pacing sleeps out the trace; full speed never
        sleeps; both replays decide exactly what was recorded.

        The replayer's clock is virtual (only sleeps advance it), so
        the requested sleeps are exact: one per inter-batch gap,
        summing to the trace's span.
        """
        clock = VirtualClock()
        monkeypatch.setattr(replayer_module, "time", clock)
        fast = TraceReplayer(recorded).run()
        assert clock.sleeps == []

        paced = TraceReplayer(recorded, speed=1.0).run()
        instants = {entry.request.timestamp for entry in recorded}
        assert len(clock.sleeps) == len(instants) - 1
        assert sum(clock.sleeps) == pytest.approx(recorded.duration())

        reference = recorded.decisions()
        assert diff_decisions(reference, fast.decisions).identical
        assert diff_decisions(reference, paced.decisions).identical

    def test_empty_trace_replays(self):
        result = TraceReplayer(Trace([])).run()
        assert result.requests == 0
        assert result.decisions == []

    def test_negative_speed_rejected(self, recorded):
        with pytest.raises(ValueError):
            TraceReplayer(recorded, speed=-1.0)

    def test_schema_violating_entry_fails_alone(self, recorded):
        """One bad request in a batch is an error decision, not a crash.

        Its co-batched neighbours decide exactly what they decide in a
        replay without it.
        """
        import dataclasses

        def at(entry, when, **changes):
            request = dataclasses.replace(
                entry.request, timestamp=when, **changes
            )
            return dataclasses.replace(entry, request=request)

        first = list(recorded)[:4]
        when = first[0].request.timestamp
        good = [at(entry, when) for entry in first]
        bad = at(first[1], when, features={})
        clean = TraceReplayer(Trace(good, header=recorded.header)).run()
        mixed = TraceReplayer(
            Trace([good[0], bad, *good[2:]], header=recorded.header)
        ).run()
        errors = [d for d in mixed.decisions if d.verdict == "error"]
        assert [d.request_id for d in errors] == [bad.request.request_id]
        assert "missing features" in errors[0].detail
        assert diff_decisions(
            [d for d in clean.decisions if d.request_id != errors[0].request_id],
            [d for d in mixed.decisions if d.verdict != "error"],
        ).identical

    def test_cluster_routes_by_consistent_hash(self, recorded):
        """Same client, same shard: decisions match inproc exactly."""
        inproc = TraceReplayer(recorded).run()
        cluster = TraceReplayer(recorded, target="cluster:4").run()
        assert diff_decisions(
            inproc.decisions, cluster.decisions
        ).identical


class TestLiveReplay:
    def test_live_record_then_inproc_replay_bit_identical(self):
        """The acceptance loop: record a live gateway run, replay it
        against the same config in-process, get the identical stream."""
        live = replay_live(
            run_campaign("benign-baseline").trace,
            spec=FrameworkSpec(feedback=False),
        )
        assert live.decisions, "live gateway recorded nothing"
        recorded = live.trace
        # A live recording carries the serving tier's header.
        assert recorded.header.meta["recorder"] == "serve"
        replayed = TraceReplayer(recorded).run()
        report = diff_decisions(recorded.decisions(), replayed.decisions)
        assert report.identical, report.render()

    @pytest.mark.slow
    def test_cluster_live_replay_matches_inproc(self, recorded):
        """Two workers over TCP decide what one process decides."""
        live = replay_live(recorded, target="cluster:2")
        assert live.trace.header.meta["recorder"] == "cluster"
        assert {d.request_id.split("-")[0] for d in live.decisions} == {
            "w0", "w1"
        }
        inproc = TraceReplayer(recorded).run()
        report = diff_decisions(
            inproc.decisions,
            live.decisions,
            match_by="position",
            ignore={"client_ip"},
        )
        assert report.identical, report.render()

    def test_inproc_is_not_a_live_target(self, recorded):
        with pytest.raises(ValueError, match="live targets"):
            replay_live(recorded, target="inproc")

    def test_loopback_plan_distinct_and_stable(self, recorded):
        plan = loopback_plan(list(recorded))
        ips = {e.request.client_ip for e in recorded}
        assert set(plan) == ips
        assert len(set(plan.values())) == len(ips)
        for mapped in plan.values():
            assert mapped.startswith("127.")
        assert loopback_plan(list(recorded)) == plan

    def test_loopback_addresses_kept_verbatim(self):
        entries = [_live_entry("127.0.5.9", 1.0)]
        assert loopback_plan(entries) == {"127.0.5.9": "127.0.5.9"}

    def test_mixed_trace_never_collides(self):
        """A generated address must not collide with a recorded
        loopback client appearing later in the trace."""
        entries = [
            _live_entry("10.0.0.1", 1.0),   # would generate 127.0.1.1
            _live_entry("127.0.1.1", 2.0),  # recorded verbatim
            _live_entry("10.0.0.2", 3.0),
        ]
        plan = loopback_plan(entries)
        assert plan["127.0.1.1"] == "127.0.1.1"
        assert len(set(plan.values())) == 3


def _live_entry(ip: str, timestamp: float):
    from repro.core.records import ClientRequest
    from repro.traffic.trace import TraceEntry

    return TraceEntry(
        request=ClientRequest(
            client_ip=ip,
            resource="/r",
            timestamp=timestamp,
            features={},
        ),
        profile="live",
        true_score=0.0,
    )
