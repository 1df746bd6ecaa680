"""Tests for the behavioural feedback reputation wrapper."""

from __future__ import annotations

import pytest

from repro.core.framework import AIPoWFramework
from repro.core.records import (
    ClientRequest,
    IssuerDecision,
    ResponseStatus,
    ServedResponse,
)
from repro.policies.linear import policy_1
from repro.pow.puzzle import Solution
from repro.pow.solver import HashSolver
from repro.reputation.ensemble import ConstantModel
from repro.reputation.feedback import FeedbackConfig, FeedbackReputationModel

IP = "110.4.5.6"


def request_at(t: float, ip: str = IP) -> ClientRequest:
    return ClientRequest(
        client_ip=ip, resource="/r", timestamp=t, features={}
    )


def response_with(status: ResponseStatus, t: float = 0.0, ip: str = IP):
    decision = IssuerDecision(
        request=request_at(t, ip),
        reputation_score=5.0,
        difficulty=6,
        policy_name="p",
        model_name="m",
    )
    return ServedResponse(decision=decision, status=status, latency=0.1)


class TestOffsets:
    def test_fresh_ip_has_zero_offset(self):
        model = FeedbackReputationModel(ConstantModel(5.0))
        assert model.offset_for(IP, now=0.0) == 0.0
        assert model.score_request(request_at(0.0)) == 5.0

    def test_bad_outcomes_raise_score(self):
        model = FeedbackReputationModel(ConstantModel(5.0))
        for i in range(3):
            model.observe(response_with(ResponseStatus.REJECTED, t=float(i)))
        assert model.score_request(request_at(3.0)) == pytest.approx(
            8.0, abs=0.1
        )

    def test_penalty_clamped(self):
        config = FeedbackConfig(penalty_step=2.0, max_penalty=3.0)
        model = FeedbackReputationModel(ConstantModel(5.0), config)
        for i in range(10):
            model.observe(response_with(ResponseStatus.REPLAYED, t=float(i)))
        assert model.offset_for(IP, now=9.0) <= 3.0 + 1e-9

    def test_served_outcomes_earn_trust(self):
        config = FeedbackConfig(reward_step=0.5, max_reward=2.0)
        model = FeedbackReputationModel(ConstantModel(5.0), config)
        for i in range(10):
            model.observe(response_with(ResponseStatus.SERVED, t=float(i)))
        assert model.offset_for(IP, now=9.0) == pytest.approx(-2.0)
        assert model.score_request(request_at(9.0)) == pytest.approx(3.0)

    def test_neutral_outcomes_ignored(self):
        model = FeedbackReputationModel(ConstantModel(5.0))
        model.observe(response_with(ResponseStatus.ABANDONED))
        model.observe(response_with(ResponseStatus.EXPIRED))
        assert model.offset_for(IP, now=1.0) == 0.0

    def test_decay_halves_offset_per_half_life(self):
        config = FeedbackConfig(penalty_step=4.0, half_life=100.0)
        model = FeedbackReputationModel(ConstantModel(0.0), config)
        model.observe(response_with(ResponseStatus.REJECTED, t=0.0))
        assert model.offset_for(IP, now=0.0) == pytest.approx(4.0)
        assert model.offset_for(IP, now=100.0) == pytest.approx(2.0)
        assert model.offset_for(IP, now=300.0) == pytest.approx(0.5)

    def test_score_clamped_to_scale(self):
        model = FeedbackReputationModel(ConstantModel(9.0))
        for i in range(10):
            model.observe(response_with(ResponseStatus.REJECTED, t=float(i)))
        assert model.score_request(request_at(10.0)) == 10.0

    def test_offsets_are_per_ip(self):
        model = FeedbackReputationModel(ConstantModel(5.0))
        model.observe(response_with(ResponseStatus.REJECTED, ip="110.1.1.1"))
        assert model.offset_for("110.2.2.2", now=1.0) == 0.0
        assert model.offset_for("110.1.1.1", now=0.0) > 0.0


class TestEviction:
    def test_tracked_ips_bounded(self):
        model = FeedbackReputationModel(
            ConstantModel(5.0), max_tracked_ips=10
        )
        for i in range(30):
            model.observe(
                response_with(ResponseStatus.REJECTED, ip=f"110.0.0.{i + 1}")
            )
        assert model.tracked_ips <= 10

    def test_a_ring_caps_each_partition_and_evicts_from_it(self):
        # On a ring the count is the address's partition, so each node
        # holds at most the cap and a victim comes from the same node.
        from repro.state import ShardedStateStore

        store = ShardedStateStore(2)
        model = FeedbackReputationModel(
            ConstantModel(5.0), max_tracked_ips=3, store=store
        )
        for i in range(40):
            model.observe(
                response_with(ResponseStatus.REJECTED, ip=f"110.0.0.{i + 1}")
            )
            sizes = [len(child.namespace("feedback")) for child in store.stores]
            assert max(sizes) <= 3, i
        assert sizes == [3, 3]

    def test_eviction_reads_one_page_and_agrees_across_backends(self):
        # Past the cap, a new address ranks only the oldest page: a
        # bounded frame count per new address over the wire whatever
        # the table size, and the same victim as the in-memory store.
        from repro.obs.registry import MetricsRegistry
        from repro.reputation.feedback import EVICTION_PAGE
        from repro.state import (
            InMemoryStateStore,
            RemoteStateStore,
            StateServer,
        )

        cap = 3 * EVICTION_PAGE  # more than one remote page
        outcomes = (
            ResponseStatus.REJECTED,
            ResponseStatus.SERVED,
            ResponseStatus.ABANDONED,
        )
        registry = MetricsRegistry()
        with StateServer() as server:
            remote = RemoteStateStore(server.address, registry=registry)
            try:
                stores = (InMemoryStateStore(), remote)
                models = [
                    FeedbackReputationModel(
                        ConstantModel(5.0), max_tracked_ips=cap, store=store
                    )
                    for store in stores
                ]
                frames = registry.get("netstore_client_requests_total")
                for i in range(cap + 40):
                    response = response_with(
                        outcomes[i % 3], t=float(i),
                        ip=f"110.0.{i // 250}.{i % 250 + 1}",
                    )
                    before = frames.total()
                    for model in models:
                        model.observe(response)
                    # get; put + len; one page; delete.
                    assert frames.total() - before <= 4
                    local, wired = (
                        store.namespace("feedback").dump() for store in stores
                    )
                    assert wired == local, i
                assert [model.tracked_ips for model in models] == [cap, cap]
            finally:
                remote.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackReputationModel(ConstantModel(1.0), max_tracked_ips=0)
        with pytest.raises(ValueError):
            FeedbackConfig(penalty_step=-1.0)
        with pytest.raises(ValueError):
            FeedbackConfig(half_life=0.0)


class TestFrameworkIntegration:
    def test_attacker_difficulty_escalates_across_exchanges(
        self, failing_nonce
    ):
        """A client submitting junk solutions gets harder puzzles."""
        model = FeedbackReputationModel(
            ConstantModel(4.0), FeedbackConfig(penalty_step=2.0)
        )
        framework = AIPoWFramework(model, policy_1())
        model.attach(framework)

        difficulties = []
        for i in range(4):
            request = request_at(float(i))
            challenge = framework.challenge(request, now=float(i))
            difficulties.append(challenge.decision.difficulty)
            junk = Solution(
                puzzle_seed=challenge.puzzle.seed,
                nonce=failing_nonce(challenge.puzzle, request.client_ip),
            )
            framework.redeem(challenge, junk, now=float(i) + 0.1)

        assert difficulties[0] < difficulties[-1]
        assert difficulties == sorted(difficulties)

    def test_honest_client_difficulty_stable_or_falling(self):
        model = FeedbackReputationModel(
            ConstantModel(4.0), FeedbackConfig(reward_step=0.5)
        )
        framework = AIPoWFramework(model, policy_1())
        model.attach(framework)
        solver = HashSolver()

        difficulties = []
        for i in range(4):
            request = request_at(float(i))
            challenge = framework.challenge(request, now=float(i))
            difficulties.append(challenge.decision.difficulty)
            solution = solver.solve(challenge.puzzle, IP)
            framework.redeem(challenge, solution, now=float(i) + 0.1)

        assert difficulties[-1] <= difficulties[0]

    def test_attach_moves_the_offset_table_into_the_framework_store(self):
        model = FeedbackReputationModel(ConstantModel(4.0))
        model.observe(response_with(ResponseStatus.REJECTED, t=0.0))
        framework = AIPoWFramework(model, policy_1())
        assert model.attach(framework) is model
        assert framework.feedback is model
        assert model.store is framework.store
        assert model.offset_for(IP, now=0.0) == pytest.approx(1.0)
        assert [ip for ip, _ in framework.store.namespace("feedback").dump()] == [IP]

    def test_name_composes(self):
        model = FeedbackReputationModel(ConstantModel(1.0))
        assert model.name == "feedback(constant(1))"
