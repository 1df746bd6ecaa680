"""TraceRecorder: capture from frameworks, gateways, and clusters."""

from __future__ import annotations

from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.core.spec import FrameworkSpec
from repro.net.gateway.server import GatewayServer
from repro.net.live.client import LiveClient
from repro.policies.linear import policy_1
from repro.replay import TraceRecorder, spec_hash
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import BENIGN_PROFILE
from tests.oracle import Simulation


def make_request(ip="23.4.5.6", request_id="", timestamp=1.0):
    return ClientRequest(
        client_ip=ip,
        resource="/r",
        timestamp=timestamp,
        features={},
        request_id=request_id,
    )


class TestFrameworkCapture:
    def test_challenge_captured_with_decision(self):
        framework = AIPoWFramework(ConstantModel(4.0), policy_1())
        recorder = TraceRecorder().attach(framework.events)
        challenge = framework.challenge(make_request(), now=1.0)
        assert len(recorder) == 1
        entry = recorder.entries[0]
        decision = entry.decision
        assert decision.verdict == "admit"
        assert decision.score == 4.0
        assert decision.difficulty == challenge.decision.difficulty
        assert decision.policy_name == "policy-1"
        assert decision.puzzle_seed == challenge.puzzle.seed
        assert decision.puzzle_algorithm == "sha256"

    def test_batch_capture_in_request_order(self):
        framework = AIPoWFramework(ConstantModel(2.0), policy_1())
        recorder = TraceRecorder().attach(framework.events)
        requests = [
            make_request(ip=f"23.0.0.{i}", request_id=f"q{i}")
            for i in range(1, 6)
        ]
        framework.challenge_batch(requests, now=2.0)
        assert [e.decision.request_id for e in recorder.entries] == [
            "q1", "q2", "q3", "q4", "q5",
        ]

    def test_ids_assigned_when_missing(self):
        framework = AIPoWFramework(ConstantModel(2.0), policy_1())
        recorder = TraceRecorder(id_prefix="w3").attach(framework.events)
        framework.challenge(make_request(), now=1.0)
        framework.challenge(make_request(), now=2.0)
        ids = [e.request.request_id for e in recorder.entries]
        assert ids == ["w3-1", "w3-2"]
        assert [e.decision.request_id for e in recorder.entries] == ids

    def test_capture_error(self):
        recorder = TraceRecorder()
        recorder.capture_error(make_request(), "schema mismatch")
        decision = recorder.entries[0].decision
        assert decision.verdict == "error"
        assert decision.detail == "schema mismatch"
        assert decision.difficulty == -1

    def test_sources_stamp_profile_and_truth(self):
        framework = AIPoWFramework(ConstantModel(2.0), policy_1())
        recorder = TraceRecorder(
            sources={"23.4.5.6": ("benign", 1.5)}
        ).attach(framework.events)
        framework.challenge(make_request(), now=1.0)
        framework.challenge(make_request(ip="99.9.9.9"), now=2.0)
        assert recorder.entries[0].profile == "benign"
        assert recorder.entries[0].true_score == 1.5
        assert recorder.entries[1].profile == "live"
        assert recorder.entries[1].true_score == 0.0

    def test_trace_carries_header(self):
        recorder = TraceRecorder()
        trace = recorder.trace(
            config_hash="beef", seed=9, meta={"k": "v"}
        )
        assert trace.header.config_hash == "beef"
        assert trace.header.seed == 9
        assert trace.header.meta == {"k": "v"}


class TestSimulatorCapture:
    def test_simulation_records_every_admission(self):
        generator = WorkloadGenerator(seed=11)
        clients = generator.population(BENIGN_PROFILE, 4)
        workload = generator.open_loop_trace(clients, duration=3.0)
        framework = FrameworkSpec(feedback=False).build()
        recorder = TraceRecorder()
        report = Simulation(framework, seed=5, recorder=recorder).run(
            workload
        )
        assert len(recorder) == report.requests == len(workload)
        entry = recorder.entries[0]
        assert entry.profile == "benign"
        assert entry.true_score > 0.0
        assert entry.decision.verdict == "admit"
        # Request ids come from the generator, not the recorder.
        assert entry.request.request_id.startswith("req-")


class TestGatewayCapture:
    def test_live_gateway_run_is_recorded(self):
        framework = AIPoWFramework(ConstantModel(1.0), policy_1())
        recorder = TraceRecorder()
        with GatewayServer(framework, recorder=recorder) as server:
            client = LiveClient(server.address)
            for _ in range(3):
                assert client.fetch("/index.html", {}).ok
        assert len(recorder) == 3
        for entry in recorder.entries:
            assert entry.decision.verdict == "admit"
            assert entry.profile == "live"
            assert entry.request.client_ip == "127.0.0.1"
        ids = [e.request.request_id for e in recorder.entries]
        assert len(set(ids)) == 3

    def test_recorded_gateway_trace_round_trips(self, tmp_path):
        import random

        from repro.reputation.dataset import synthesize_features

        spec = FrameworkSpec(
            feedback=False, cache_ttl=None, corpus_size=600
        )
        features = synthesize_features(0.2, random.Random(3))
        framework = spec.build()
        recorder = TraceRecorder()
        with GatewayServer(framework, recorder=recorder) as server:
            client = LiveClient(server.address)
            assert client.fetch("/index.html", features).ok
        path = tmp_path / "live.jsonl"
        recorder.dump(path, config_hash=spec_hash(spec))
        from repro.traffic.trace import Trace

        loaded = Trace.load_jsonl(path)
        assert len(loaded) == 1
        assert loaded.header.config_hash == spec_hash(spec)


class TestClusterCapture:
    def test_cluster_records_merged_trace_that_replays(self, tmp_path):
        """Record a live 2-worker cluster run, replay it in-process:
        the merged trace reproduces bit-identically (the acceptance
        loop, cluster edition)."""
        from repro.net.gateway.cluster import GatewayCluster
        from repro.replay import TraceReplayer, diff_decisions, feed_live
        from repro.traffic.trace import Trace, TraceEntry

        import random

        from repro.reputation.dataset import synthesize_features
        from repro.state import HashRing

        spec = FrameworkSpec(
            feedback=False, corpus_size=1200, cache_ttl=3600.0
        )
        path = tmp_path / "cluster.jsonl"
        # Pick addresses that land on both shards so the merge path is
        # exercised (consistent hashing is deterministic, so choose by
        # asking the same ring the cluster routes with).
        ring = HashRing(2)
        picked: list[str] = []
        by_shard = {0: 0, 1: 0}
        octet = 1
        while min(by_shard.values()) < 3:
            ip = f"127.0.9.{octet}"
            octet += 1
            shard = ring.shard_for(ip)
            if by_shard[shard] >= 3:
                continue
            by_shard[shard] += 1
            picked.append(ip)
        rng = random.Random(7)
        entries = [
            TraceEntry(
                request=ClientRequest(
                    client_ip=ip,
                    resource="/index.html",
                    timestamp=float(i),
                    features=synthesize_features(0.3, rng),
                ),
                profile="live",
                true_score=0.0,
            )
            for i, ip in enumerate(picked)
        ]
        cluster = GatewayCluster(spec, workers=2, record_path=path)
        with cluster:
            feed_live(cluster.address, entries)
        loaded = Trace.load_jsonl(path)
        assert len(loaded) == 6
        assert loaded.header.meta["recorder"] == "cluster"
        shards = {
            e.request.request_id.split("-")[0] for e in loaded
        }
        assert len(shards) == 2, (
            f"expected both workers to record, saw prefixes {shards}"
        )
        # The parent merged the workers' partials and removed them.
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

        replayed = TraceReplayer(loaded).run()
        report = diff_decisions(loaded.decisions(), replayed.decisions)
        assert report.identical, report.render()


class TestSpecHash:
    def test_stable_across_equal_specs(self):
        assert spec_hash(FrameworkSpec()) == spec_hash(FrameworkSpec())

    def test_differs_across_specs(self):
        assert spec_hash(FrameworkSpec()) != spec_hash(
            FrameworkSpec(policy="policy-1")
        )

    def test_accepts_mappings(self):
        import dataclasses

        spec = FrameworkSpec(feedback=False)
        assert spec_hash(spec) == spec_hash(dataclasses.asdict(spec))
