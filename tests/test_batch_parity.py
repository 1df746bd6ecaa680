"""Batch-of-one vs batch-of-n parity for the admission pipeline.

Admission has one kernel: ``challenge`` is ``challenge_batch`` with
n = 1, ``score`` / ``score_request`` are batches of one of
``score_batch`` / ``score_requests``, and ``difficulty_for`` of
``difficulty_batch``.  Batching changes the cost model, never the
decisions: for every shipped model × policy combination (and for
third-party plugins adapted by ``batch_scores`` / ``batch_difficulties``)
a loop of batches of one must reproduce one batch of n exactly —
scores, difficulties, RNG draws and outcomes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import FrameworkConfig, PowConfig
from repro.core.errors import PolicyDomainError
from repro.core.framework import AIPoWFramework
from repro.core.interfaces import batch_difficulties, batch_scores
from repro.core.records import ClientRequest
from repro.policies.composite import MaxOfPolicy, MinOfPolicy
from repro.policies.error_range import ErrorRangePolicy, policy_3
from repro.policies.exponential import ExponentialPolicy
from repro.policies.fractional import FractionalLinearPolicy
from repro.policies.linear import policy_1, policy_2
from repro.policies.stepwise import StepwisePolicy
from repro.policies.table import FixedPolicy, TablePolicy
from repro.pow.generator import PuzzleGenerator
from repro.pow.seeds import CountingSeedSource, SequentialSeedSource
from repro.pow.solver import SampledSolver
from repro.reputation.base import BaseReputationModel
from repro.reputation.caching import CachedModel
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus
from repro.reputation.ensemble import (
    AverageEnsemble,
    ConstantModel,
    MaxEnsemble,
    NoisyModel,
)
from repro.reputation.feedback import FeedbackReputationModel
from repro.reputation.knn import KNNReputationModel
from repro.reputation.logistic import LogisticReputationModel

CORPUS = generate_corpus(size=1600, seed=7)
TRAIN, TEST = CORPUS.split()

DABR = DAbRModel().fit(TRAIN)
KNN = KNNReputationModel(k=7).fit(TRAIN)
LOGISTIC = LogisticReputationModel(iterations=60).fit(TRAIN)

REQUESTS = [
    ClientRequest(
        client_ip=example.ip,
        resource="/index.html",
        timestamp=10.0,
        features=example.features,
    )
    for example in TEST[:48]
]


class ScalarOnlyModel:
    """Third-party model with only the scalar methods: adapter-looped."""

    name = "scalar-only"

    def score(self, features) -> float:
        return float(sum(features.values())) % 10.0

    def score_request(self, request) -> float:
        return self.score(request.features)


class ProtocolOnlyModel:
    """Third-party model with exactly the protocol's batch methods."""

    name = "protocol-only"

    def score_batch(self, features) -> np.ndarray:
        return np.asarray(features, dtype=np.float64).sum(axis=1) % 10.0

    def score_requests(self, requests) -> np.ndarray:
        return np.array(
            [float(sum(r.features.values())) % 10.0 for r in requests]
        )


class ScalarOnlyPolicy:
    """Third-party policy with only ``difficulty_for``: adapter-looped."""

    name = "scalar-only"

    def difficulty_for(self, score: float, rng: random.Random) -> int:
        return int(score) + 2 + rng.randint(0, 1)


class ProtocolOnlyPolicy:
    """Third-party policy with exactly the protocol's ``difficulty_batch``."""

    name = "protocol-only"

    def difficulty_batch(self, scores, rng: random.Random) -> np.ndarray:
        return np.floor_divide(np.asarray(scores), 2).astype(np.int64) + 1


MODEL_FACTORIES = {
    "dabr": lambda: DABR,
    "knn": lambda: KNN,
    "logistic": lambda: LOGISTIC,
    "constant": lambda: ConstantModel(4.0),
    "average": lambda: AverageEnsemble([DABR, LOGISTIC], [2.0, 1.0]),
    "max": lambda: MaxEnsemble([DABR, KNN]),
    "noisy": lambda: NoisyModel(DABR, epsilon=1.5, rng=random.Random(3)),
    "cached": lambda: CachedModel(DABR, ttl=100.0),
    "feedback": lambda: FeedbackReputationModel(DABR),
    "scalar-only": lambda: ScalarOnlyModel(),
    "protocol-only": lambda: ProtocolOnlyModel(),
}

POLICY_FACTORIES = {
    "policy-1": policy_1,
    "policy-2": policy_2,
    "policy-3": policy_3,
    "stepwise": lambda: StepwisePolicy([3.0, 7.0], [2, 6, 12]),
    "table": lambda: TablePolicy(list(range(1, 12))),
    "fixed": lambda: FixedPolicy(5),
    "exponential": lambda: ExponentialPolicy(),
    "fractional": lambda: FractionalLinearPolicy(),
    "max-of-policy-3": lambda: MaxOfPolicy([policy_3(), policy_1()]),
    "scalar-only": ScalarOnlyPolicy,
    "protocol-only": ProtocolOnlyPolicy,
}


@pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
def test_challenge_batch_matches_scalar_loop(model_name, policy_name):
    """A loop of ``challenge`` (batches of one) equals one batch of n.

    Stateful wrappers (cache, feedback, noisy RNG) and
    randomized policies get a fresh instance per path with identical
    seeds, so both paths start from the same state.
    """
    make_model = MODEL_FACTORIES[model_name]
    make_policy = POLICY_FACTORIES[policy_name]

    scalar_fw = AIPoWFramework(
        make_model(), make_policy(), rng=random.Random(42)
    )
    batch_fw = AIPoWFramework(
        make_model(), make_policy(), rng=random.Random(42)
    )

    scalar = [scalar_fw.challenge(r, now=10.0) for r in REQUESTS]
    batch = batch_fw.challenge_batch(REQUESTS, now=10.0)

    # Full dataclass equality: also guards the batch path's trusted
    # (validation-skipping) construction against future field drift.
    assert [c.decision for c in scalar] == [c.decision for c in batch]
    assert [c.puzzle.difficulty for c in scalar] == [
        c.puzzle.difficulty for c in batch
    ]
    assert all(c.puzzle.timestamp == 10.0 for c in batch)


class TestScoreBatchParity:
    @pytest.mark.parametrize(
        "model", [DABR, KNN, LOGISTIC], ids=["dabr", "knn", "logistic"]
    )
    def test_score_batch_bit_identical_to_scalar(self, model):
        matrix = CORPUS.feature_matrix()[:64]
        batch = model.score_batch(matrix)
        scalar = [model.score(e.features) for e in CORPUS[:64]]
        assert batch.tolist() == scalar

    def test_batch_size_does_not_change_scores(self):
        """A request's score is independent of its batch's size."""
        for model in (DABR, KNN, LOGISTIC):
            full = model.score_requests(REQUESTS)
            halves = np.concatenate(
                [
                    model.score_requests(REQUESTS[:7]),
                    model.score_requests(REQUESTS[7:]),
                ]
            )
            assert full.tolist() == halves.tolist()

    def test_scalar_only_subclass_uses_loop_fallback(self):
        """The one adapter loops a scalar-only model in request order."""
        model = ScalarOnlyModel()
        batch = batch_scores(model, REQUESTS)
        scalar = [model.score_request(r) for r in REQUESTS]
        assert batch.tolist() == scalar
        ones = [batch_scores(ProtocolOnlyModel(), [r])[0] for r in REQUESTS]
        assert batch_scores(ProtocolOnlyModel(), REQUESTS).tolist() == ones

    def test_unimplemented_hooks_raise(self):
        class Empty(BaseReputationModel):
            def _fit(self, corpus):
                pass

        model = Empty().fit(TRAIN)
        with pytest.raises(NotImplementedError):
            model.score(TEST[0].features)
        with pytest.raises(NotImplementedError):
            model.score_batch(CORPUS.feature_matrix()[:2])


class TestDifficultyBatch:
    def test_matches_scalar_for_every_builtin(self):
        """Batches of one equal a batch of n for every policy, RNG too."""
        scores = np.linspace(0.0, 10.0, 41)
        for name, make_policy in POLICY_FACTORIES.items():
            batch_rng = random.Random(9)
            scalar_rng = random.Random(9)
            batch = batch_difficulties(make_policy(), scores, batch_rng)
            scalar = [
                int(batch_difficulties(make_policy(), [s], scalar_rng)[0])
                for s in scores
            ]
            assert batch.tolist() == scalar, name

    @pytest.mark.parametrize(
        "combinator, reduce", [(MaxOfPolicy, max), (MinOfPolicy, min)]
    )
    def test_max_min_draw_members_per_score(self, combinator, reduce):
        """Randomized members draw interleaved, one score at a time."""
        scores = np.linspace(0.0, 10.0, 41)
        members = [policy_3(), ErrorRangePolicy(epsilon=1.5)]
        got = combinator(members).difficulty_batch(scores, random.Random(5))
        rng = random.Random(5)
        expected = [
            reduce(rng.randint(*m.interval(float(s))) for m in members)
            for s in scores
        ]
        assert got.tolist() == expected
        rng = random.Random(5)
        ones = [combinator(members).difficulty_for(s, rng) for s in scores]
        assert ones == expected

    def test_domain_violation_raises(self):
        with pytest.raises(PolicyDomainError):
            policy_2().difficulty_batch([1.0, 11.0], random.Random(0))
        with pytest.raises(PolicyDomainError):
            policy_2().difficulty_batch([-0.5], random.Random(0))

    def test_empty_batch(self):
        out = policy_2().difficulty_batch([], random.Random(0))
        assert out.tolist() == []

    def test_fractional_batch_matches_scalar(self):
        policy = FractionalLinearPolicy(base=1.5, slope=0.8)
        scores = [0.0, 2.5, 10.0]
        batch = policy.fractional_difficulty_batch(scores)
        assert batch.tolist() == [
            policy.fractional_difficulty_for(s) for s in scores
        ]


class TestGenerateBatch:
    def test_identical_to_issue_with_same_seed_stream(self):
        config = PowConfig(secret_key=b"parity-key")
        scalar_gen = PuzzleGenerator(config, SequentialSeedSource(100))
        batch_gen = PuzzleGenerator(config, SequentialSeedSource(100))
        ips = [r.client_ip for r in REQUESTS[:16]]
        difficulties = list(range(16))
        scalar = [
            scalar_gen.issue(ip, d, now=3.0)
            for ip, d in zip(ips, difficulties)
        ]
        batch = batch_gen.generate_batch(ips, difficulties, now=3.0)
        assert scalar == batch
        assert batch_gen.issued_count == 16

    def test_per_puzzle_timestamps(self):
        generator = PuzzleGenerator(seed_source=SequentialSeedSource())
        times = [1.0, 2.0, 3.0]
        batch = generator.generate_batch(["1.2.3.4"] * 3, [1, 2, 3], times)
        assert [p.timestamp for p in batch] == times

    def test_counting_source_counts_batch_draws(self):
        source = CountingSeedSource(SequentialSeedSource())
        generator = PuzzleGenerator(seed_source=source)
        generator.generate_batch(["1.2.3.4"] * 5, [1] * 5, now=0.0)
        assert source.count == 5

    def test_batch_validation_errors(self):
        generator = PuzzleGenerator()
        with pytest.raises(ValueError):
            generator.generate_batch(["1.2.3.4"], [1, 2], now=0.0)
        with pytest.raises(ValueError):
            generator.generate_batch([""], [1], now=0.0)
        with pytest.raises(ValueError):
            generator.generate_batch(["1.2.3.4"], [-1], now=0.0)

    def test_batch_puzzles_verify(self):
        """Trusted-path construction still yields verifiable puzzles."""
        from repro.pow.verifier import PuzzleVerifier

        config = PowConfig()
        generator = PuzzleGenerator(config)
        verifier = PuzzleVerifier(config)
        solver = SampledSolver(rng=random.Random(5))
        [puzzle] = generator.generate_batch(["9.8.7.6"], [3], now=0.0)
        solution = solver.solve(puzzle, "9.8.7.6")
        verified = verifier.verify(puzzle, solution, "9.8.7.6", now=1.0)
        assert verified.difficulty == 3


class TestCachedModelBatch:
    def test_duplicate_ips_hit_within_batch(self):
        scalar_model = CachedModel(DABR)
        batch_model = CachedModel(DABR)
        doubled = REQUESTS[:8] + REQUESTS[:8]
        scalar = [scalar_model.score_request(r) for r in doubled]
        batch = batch_model.score_requests(doubled)
        assert batch.tolist() == scalar
        assert (batch_model.hits, batch_model.misses) == (
            scalar_model.hits,
            scalar_model.misses,
        )

    def test_prewarmed_cache_hits(self):
        model = CachedModel(DABR)
        first = model.score_requests(REQUESTS[:8])
        second = model.score_requests(REQUESTS[:8])
        assert second.tolist() == first.tolist()
        assert model.hits == 8
        assert model.misses == 8

    def test_batch_of_one_at_capacity_writes_then_evicts(self):
        """n = 1 on a full cache inserts, then evicts the oldest entry."""
        model = CachedModel(DABR, max_entries=3)
        scores = [model.score_requests([r])[0] for r in REQUESTS[:5]]
        assert scores == DABR.score_requests(REQUESTS[:5]).tolist()
        assert list(model._cache) == [r.client_ip for r in REQUESTS[2:5]]
        assert model.score_request(REQUESTS[4]) == scores[4]
        assert (model.hits, model.misses) == (1, 5)

    def test_eviction_pressure_matches_scalar(self):
        """Batches that could overflow the cache match batches of one."""
        scalar_model = CachedModel(DABR, max_entries=3)
        batch_model = CachedModel(DABR, max_entries=3)
        churn = REQUESTS[:6] + REQUESTS[:2] + REQUESTS[4:8]
        scalar = [scalar_model.score_request(r) for r in churn]
        batch = batch_model.score_requests(churn)
        assert batch.tolist() == scalar
        assert (batch_model.hits, batch_model.misses) == (
            scalar_model.hits,
            scalar_model.misses,
        )
        assert list(batch_model._cache) == list(scalar_model._cache)


class TestProcessBatch:
    def test_outcomes_match_scalar_process(self):
        """End-to-end: same served/denied outcomes on both paths."""
        config = FrameworkConfig(pow=PowConfig(max_difficulty=12))
        scalar_fw = AIPoWFramework(DABR, policy_1(), config)
        batch_fw = AIPoWFramework(DABR, policy_1(), config)
        clock = lambda: 50.0  # noqa: E731 - frozen clock for determinism
        requests = REQUESTS[:12]
        scalar = [
            scalar_fw.process(r, SampledSolver(rng=random.Random(1)), clock)
            for r in requests
        ]
        batch = batch_fw.process_batch(
            requests, SampledSolver(rng=random.Random(1)), clock
        )
        assert [r.status for r in scalar] == [r.status for r in batch]
        assert [r.decision.reputation_score for r in scalar] == [
            r.decision.reputation_score for r in batch
        ]
        assert [r.decision.difficulty for r in scalar] == [
            r.decision.difficulty for r in batch
        ]

    def test_empty_batch(self):
        framework = AIPoWFramework(ConstantModel(0.0), FixedPolicy(0))
        assert framework.challenge_batch([]) == []
        assert (
            framework.process_batch(
                [], SampledSolver(rng=random.Random(0))
            )
            == []
        )


class TestEventParity:
    def test_batch_emits_per_request_events(self):
        from repro.core.events import EventKind

        framework = AIPoWFramework(ConstantModel(2.0), policy_2())
        seen: list = []
        framework.events.subscribe(lambda e: seen.append(e))
        framework.challenge_batch(REQUESTS[:5], now=1.0)
        kinds = [e.kind for e in seen]
        # Stage-major ordering: all five REQUEST_RECEIVED first, then
        # all five SCORED, and so on, request order kept within stages.
        assert kinds == (
            [EventKind.REQUEST_RECEIVED] * 5
            + [EventKind.SCORED] * 5
            + [EventKind.POLICY_APPLIED] * 5
            + [EventKind.PUZZLE_ISSUED] * 5
        )
        received = [
            e.payload["request"].client_ip
            for e in seen
            if e.kind is EventKind.REQUEST_RECEIVED
        ]
        assert received == [r.client_ip for r in REQUESTS[:5]]

    def test_mismatched_timestamps_rejected(self):
        framework = AIPoWFramework(ConstantModel(2.0), policy_2())
        with pytest.raises(ValueError):
            framework.challenge_batch(REQUESTS[:3], now=[1.0, 2.0])
