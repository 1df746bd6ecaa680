"""Combination matrix: every model family × every policy family.

The paper's central claim about the *framework* (as opposed to any one
configuration) is modularity — "each component can be customized".
These tests run a real end-to-end exchange for the full cross product
of shipped models and policies, so a regression in any pairing is
caught even if no focused test exercises it.
"""

from __future__ import annotations

import random

import pytest

from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.policies import (
    ErrorRangePolicy,
    ExponentialPolicy,
    FixedPolicy,
    LinearPolicy,
    StepwisePolicy,
    TablePolicy,
    build_policy,
)
from repro.pow.solver import HashSolver
from repro.reputation import (
    AverageEnsemble,
    CachedModel,
    ConstantModel,
    DAbRModel,
    FeedbackReputationModel,
    KNNReputationModel,
    LogisticReputationModel,
    generate_corpus,
)

# Low-difficulty policies keep the matrix fast (the cross product runs
# dozens of real solves).
POLICY_FACTORIES = {
    "linear": lambda: LinearPolicy(base=1),
    "error-range": lambda: ErrorRangePolicy(epsilon=1.0),
    "stepwise": lambda: StepwisePolicy([5.0], [1, 4]),
    "exponential": lambda: ExponentialPolicy(base=1, growth=1.2),
    "table": lambda: TablePolicy([1] * 5 + [3] * 6),
    "fixed": lambda: FixedPolicy(2),
    "dsl-composite": lambda: build_policy(
        {
            "kind": "clamp", "low": 0, "high": 8,
            "inner": {"kind": "max", "members": [
                {"kind": "linear", "base": 1},
                {"kind": "stepwise", "thresholds": [8.0],
                 "difficulties": [0, 6]},
            ]},
        }
    ),
}


@pytest.fixture(scope="module")
def trained_models():
    corpus = generate_corpus(size=1200, seed=7)
    train, test = corpus.split()
    dabr = DAbRModel().fit(train)
    models = {
        "dabr": dabr,
        "knn": KNNReputationModel(k=7).fit(train),
        "logistic": LogisticReputationModel(iterations=80).fit(train),
        "constant": ConstantModel(4.0),
        "cached-dabr": CachedModel(DAbRModel().fit(train)),
        "feedback-constant": FeedbackReputationModel(ConstantModel(4.0)),
        "ensemble": AverageEnsemble([dabr, ConstantModel(2.0)]),
    }
    return models, test


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
@pytest.mark.parametrize(
    "model_name",
    [
        "dabr", "knn", "logistic", "constant",
        "cached-dabr", "feedback-constant", "ensemble",
    ],
)
def test_every_model_policy_pairing_serves(
    trained_models, model_name, policy_name
):
    models, test = trained_models
    framework = AIPoWFramework(
        models[model_name], POLICY_FACTORIES[policy_name]()
    )
    example = test[0]
    request = ClientRequest(
        client_ip=example.ip,
        resource="/matrix",
        timestamp=0.0,
        features=example.features,
    )
    response = framework.process(request, HashSolver())
    assert response.served, f"{model_name} x {policy_name} failed"
    assert 0.0 <= response.decision.reputation_score <= 10.0
    assert response.decision.difficulty >= 0


def test_matrix_difficulties_vary_with_model(trained_models):
    """Sanity: the matrix is not degenerate — models disagree."""
    models, test = trained_models
    rng = random.Random(1)
    example = max(test, key=lambda e: e.true_score)
    request = ClientRequest(
        client_ip=example.ip,
        resource="/matrix",
        timestamp=0.0,
        features=example.features,
    )
    scores = {
        name: models[name].score_request(request)
        for name in ("dabr", "knn", "logistic", "constant")
    }
    assert len({round(s, 3) for s in scores.values()}) > 1
