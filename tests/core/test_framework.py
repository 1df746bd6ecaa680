"""Integration tests for the adaptive-issuer pipeline."""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.core.config import FrameworkConfig, PowConfig
from repro.core.events import EventKind
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest, ResponseStatus
from repro.policies.linear import LinearPolicy, policy_1, policy_2
from repro.policies.table import FixedPolicy
from repro.pow.generator import PuzzleGenerator
from repro.pow.puzzle import Solution
from repro.pow.solver import HashSolver
from repro.reputation.dabr import DAbRModel
from repro.reputation.ensemble import ConstantModel


class FakeClock:
    """Deterministic clock advancing a fixed step per call."""

    def __init__(self, start: float = 100.0, step: float = 0.01):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def make_request(features=None, ip="203.0.113.9") -> ClientRequest:
    return ClientRequest(
        client_ip=ip,
        resource="/data",
        timestamp=100.0,
        features=features or {},
    )


@pytest.fixture()
def easy_framework():
    """Constant score 0 + Policy 1 => 1-difficult puzzles (instant)."""
    return AIPoWFramework(ConstantModel(0.0), policy_1())


class TestChallenge:
    def test_decision_captures_score_and_policy(self, easy_framework):
        challenge = easy_framework.challenge(make_request(), now=100.0)
        decision = challenge.decision
        assert decision.reputation_score == 0.0
        assert decision.difficulty == 1
        assert decision.policy_name == "policy-1"
        assert decision.model_name == "constant(0)"

    def test_difficulty_follows_score(self):
        for score, expected in [(0.0, 5), (4.0, 9), (10.0, 15)]:
            framework = AIPoWFramework(ConstantModel(score), policy_2())
            challenge = framework.challenge(make_request(), now=1.0)
            assert challenge.decision.difficulty == expected

    def test_difficulty_clamped_to_config_max(self):
        config = FrameworkConfig(pow=PowConfig(max_difficulty=6))
        framework = AIPoWFramework(ConstantModel(10.0), policy_2(), config)
        challenge = framework.challenge(make_request(), now=1.0)
        assert challenge.decision.difficulty == 6

    def test_difficulty_raised_to_config_min(self):
        config = FrameworkConfig(min_difficulty=3)
        framework = AIPoWFramework(ConstantModel(0.0), FixedPolicy(0), config)
        challenge = framework.challenge(make_request(), now=1.0)
        assert challenge.decision.difficulty == 3

    def test_puzzle_carries_issue_time_and_difficulty(self, easy_framework):
        challenge = easy_framework.challenge(make_request(), now=123.0)
        assert challenge.puzzle.timestamp == 123.0
        assert challenge.puzzle.difficulty == 1

    def test_each_challenge_gets_fresh_seed(self, easy_framework):
        first = easy_framework.challenge(make_request(), now=1.0)
        second = easy_framework.challenge(make_request(), now=1.0)
        assert first.puzzle.seed != second.puzzle.seed


class TestRedeem:
    def test_valid_solution_is_served(self, easy_framework):
        request = make_request()
        challenge = easy_framework.challenge(request, now=100.0)
        solution = HashSolver().solve(challenge.puzzle, request.client_ip)
        response = easy_framework.redeem(challenge, solution, now=100.5)
        assert response.status is ResponseStatus.SERVED
        assert response.body == "resource:/data"
        assert response.latency == pytest.approx(0.5)

    def test_wrong_nonce_rejected(self, failing_nonce):
        request = make_request()
        framework = AIPoWFramework(ConstantModel(10.0), policy_2())
        challenge = framework.challenge(request, now=100.0)
        bad = Solution(
            puzzle_seed=challenge.puzzle.seed,
            nonce=failing_nonce(challenge.puzzle, request.client_ip),
        )
        response = framework.redeem(challenge, bad, now=100.1)
        assert response.status is ResponseStatus.REJECTED
        assert response.status is ResponseStatus.REJECTED

    def test_expired_solution(self, easy_framework):
        request = make_request()
        challenge = easy_framework.challenge(request, now=100.0)
        solution = HashSolver().solve(challenge.puzzle, request.client_ip)
        late = 100.0 + easy_framework.config.pow.ttl + 1.0
        response = easy_framework.redeem(challenge, solution, now=late)
        assert response.status is ResponseStatus.EXPIRED

    def test_replayed_solution(self, easy_framework):
        request = make_request()
        challenge = easy_framework.challenge(request, now=100.0)
        solution = HashSolver().solve(challenge.puzzle, request.client_ip)
        first = easy_framework.redeem(challenge, solution, now=100.1)
        second = easy_framework.redeem(challenge, solution, now=100.2)
        assert first.status is ResponseStatus.SERVED
        assert second.status is ResponseStatus.REPLAYED

    def test_latency_attribution_with_explicit_send_time(self, easy_framework):
        request = make_request()
        challenge = easy_framework.challenge(request, now=100.0)
        solution = HashSolver().solve(challenge.puzzle, request.client_ip)
        response = easy_framework.redeem(
            challenge, solution, now=103.0, request_sent_at=101.0
        )
        assert response.latency == pytest.approx(2.0)


class TestProcess:
    def test_full_exchange_with_fake_clock(self, easy_framework):
        clock = FakeClock(start=100.0, step=0.02)
        response = easy_framework.process(
            make_request(), HashSolver(), clock=clock
        )
        assert response.served
        assert response.latency > 0
        assert response.solve_attempts >= 1

    def test_process_with_real_model(self, framework, sample_request):
        response = framework.process(sample_request, HashSolver())
        assert response.served
        assert 0.0 <= response.decision.reputation_score <= 10.0
        assert response.decision.difficulty >= 5  # policy-2 floor


class TestDeny:
    def test_deny_records_abandonment(self, easy_framework):
        challenge = easy_framework.challenge(make_request(), now=100.0)
        response = easy_framework.deny(
            challenge, ResponseStatus.ABANDONED, now=130.0
        )
        assert response.status is ResponseStatus.ABANDONED
        assert response.latency == pytest.approx(30.0)

    def test_deny_refuses_served_status(self, easy_framework):
        challenge = easy_framework.challenge(make_request(), now=100.0)
        with pytest.raises(ValueError):
            easy_framework.deny(challenge, ResponseStatus.SERVED, now=101.0)


class TestEvents:
    def test_pipeline_emits_ordered_events(self, easy_framework):
        kinds = []
        easy_framework.events.subscribe(lambda e: kinds.append(e.kind))
        request = make_request()
        challenge = easy_framework.challenge(request, now=100.0)
        solution = HashSolver().solve(challenge.puzzle, request.client_ip)
        easy_framework.redeem(challenge, solution, now=100.1)
        assert kinds == [
            EventKind.REQUEST_RECEIVED,
            EventKind.SCORED,
            EventKind.POLICY_APPLIED,
            EventKind.PUZZLE_ISSUED,
            EventKind.SOLUTION_RECEIVED,
            EventKind.SOLUTION_VERIFIED,
            EventKind.RESPONSE_SERVED,
        ]

    def test_rejection_emits_rejected_event(
        self, easy_framework, failing_nonce
    ):
        kinds = []
        easy_framework.events.subscribe(lambda e: kinds.append(e.kind))
        framework = AIPoWFramework(
            ConstantModel(10.0), policy_2(), events=easy_framework.events
        )
        request = make_request()
        challenge = framework.challenge(request, now=100.0)
        nonce = failing_nonce(challenge.puzzle, request.client_ip)
        framework.redeem(
            challenge,
            Solution(puzzle_seed=challenge.puzzle.seed, nonce=nonce),
            now=100.1,
        )
        assert EventKind.SOLUTION_REJECTED in kinds
        assert EventKind.SOLUTION_VERIFIED not in kinds


class TestPolicyRandomisationDeterminism:
    def test_same_seed_same_difficulty_sequence(self):
        from repro.policies.error_range import policy_3

        def run(seed: int) -> list[int]:
            config = dataclasses.replace(FrameworkConfig(), policy_seed=seed)
            framework = AIPoWFramework(
                ConstantModel(5.0), policy_3(), config
            )
            return [
                framework.challenge(make_request(), now=1.0).decision.difficulty
                for _ in range(10)
            ]

        assert run(1) == run(1)
        assert run(1) != run(2) or run(1) != run(3)


class TestCallBudget:
    """Why one batch of n is cheaper than n batches of one.

    ``challenge_batch`` makes one call each to the model's batch
    scorer, the policy's batch map and the generator's batch mint,
    whatever n is; n ``challenge`` calls make n of each.  The decisions
    are the same either way (``tests/test_batch_parity.py``); the
    speed this buys is ``admit-inproc``'s number in perfbench.
    """

    STAGES = (
        (DAbRModel, "score_requests"),
        (LinearPolicy, "difficulty_batch"),
        (PuzzleGenerator, "generate_batch"),
    )

    def count_stage_calls(self, monkeypatch) -> collections.Counter:
        calls: collections.Counter = collections.Counter()
        for owner, name in self.STAGES:
            original = getattr(owner, name)

            def counted(self, *args, _original=original, _name=name, **kw):
                calls[_name] += 1
                return _original(self, *args, **kw)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("n", [1, 64])
    def test_one_batch_scores_maps_and_mints_once(
        self, monkeypatch, fitted_dabr, corpus_split, n
    ):
        _, test = corpus_split
        requests = [
            ClientRequest(
                client_ip=example.ip,
                resource="/index.html",
                timestamp=0.0,
                features=example.features,
            )
            for example in test[:n]
        ]
        framework = AIPoWFramework(fitted_dabr, policy_2())
        calls = self.count_stage_calls(monkeypatch)

        assert len(framework.challenge_batch(requests, now=0.0)) == n
        stages = [name for _, name in self.STAGES]
        assert calls == dict.fromkeys(stages, 1)

        calls.clear()
        for request in requests:
            framework.challenge(request, now=0.0)
        assert calls == dict.fromkeys(stages, n)
