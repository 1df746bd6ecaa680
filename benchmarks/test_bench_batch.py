"""Bench: one batch of n vs n batches of one.

The acceptance gate of the batch spine: at batch size 1024 the
``challenge_batch`` path must admit requests at least 5x faster than
calling :meth:`AIPoWFramework.challenge` in a loop (each call a batch of
one), while producing bit-identical :class:`IssuerDecision` scores and
difficulties.  The
pytest-benchmark variants archive the absolute numbers; the plain test
enforces the ratio so it also runs in the tier-1 suite.
"""

from __future__ import annotations

import time

import pytest

from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.policies.linear import policy_2
from repro.reputation.dataset import generate_corpus

BATCH = 1024
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def admission_setup(fitted_dabr):
    _, test = generate_corpus(size=4000, seed=7).split()
    requests = [
        ClientRequest(
            client_ip=test[i % len(test)].ip,
            resource="/index.html",
            timestamp=0.0,
            features=test[i % len(test)].features,
        )
        for i in range(BATCH)
    ]
    return AIPoWFramework(fitted_dabr, policy_2()), requests


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_batch_5x_faster_with_identical_decisions(admission_setup):
    """The tentpole gate: >=5x at batch 1024, decisions bit-identical."""
    framework, requests = admission_setup

    scalar_challenges = [framework.challenge(r, now=0.0) for r in requests]
    batch_challenges = framework.challenge_batch(requests, now=0.0)
    assert [c.decision.reputation_score for c in scalar_challenges] == [
        c.decision.reputation_score for c in batch_challenges
    ]
    assert [c.decision.difficulty for c in scalar_challenges] == [
        c.decision.difficulty for c in batch_challenges
    ]

    scalar_best = best_of(
        lambda: [framework.challenge(r, now=0.0) for r in requests],
        repeats=3,
    )
    batch_best = best_of(
        lambda: framework.challenge_batch(requests, now=0.0),
        repeats=5,
    )
    speedup = scalar_best / batch_best
    assert speedup >= MIN_SPEEDUP, (
        f"batch admission speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.0f}x floor (scalar {scalar_best * 1e3:.1f} ms, "
        f"batch {batch_best * 1e3:.1f} ms for {BATCH} requests)"
    )


def test_scalar_admission_1024(benchmark, admission_setup):
    """Archive the scalar loop's admission cost at batch 1024."""
    framework, requests = admission_setup
    challenges = benchmark(
        lambda: [framework.challenge(r, now=0.0) for r in requests]
    )
    assert len(challenges) == BATCH
    benchmark.extra_info["requests"] = BATCH


def test_batch_admission_1024(benchmark, admission_setup):
    """Archive the batch path's admission cost at batch 1024."""
    framework, requests = admission_setup
    challenges = benchmark(
        lambda: framework.challenge_batch(requests, now=0.0)
    )
    assert len(challenges) == BATCH
    benchmark.extra_info["requests"] = BATCH


def test_batch_scoring_1024(benchmark, fitted_dabr, admission_setup):
    """Archive the model-side batch scoring cost alone."""
    _, requests = admission_setup
    scores = benchmark(lambda: fitted_dabr.score_requests(requests))
    assert len(scores) == BATCH
