"""Ensembling and post-processing wrappers for reputation models.

Production reputation pipelines rarely trust a single signal.  These
wrappers compose models while preserving the :class:`ReputationModel`
protocol, so the framework can consume an ensemble exactly like DAbR:

* :class:`AverageEnsemble` — weighted mean of member scores;
* :class:`MaxEnsemble` — most-pessimistic member wins (fail-closed);
* :class:`NoisyModel` — adds bounded noise to a base model, used by the
  benches to study how policy choice copes with AI-model error (the
  motivation for the paper's Policy 3).

Every wrapper implements only the batch scoring API (``score_batch``
for raw feature matrices, ``score_requests`` for request sequences),
batching through each member; :class:`~repro.reputation.base.BatchModel`
derives the scalar ``score`` / ``score_request`` as a batch of one.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.core.interfaces import ReputationModel, batch_scores
from repro.core.records import ClientRequest
from repro.reputation.base import (
    SCORE_HIGH,
    SCORE_LOW,
    BatchModel,
    clamp_score,
    model_score_batch,
)

__all__ = ["AverageEnsemble", "MaxEnsemble", "NoisyModel", "ConstantModel"]


def _batch_length(features) -> int:
    """Row count of feature rows (a lone raw vector counts as 1)."""
    if isinstance(features, np.ndarray) and features.ndim < 2:
        return 1
    return len(features)


class ConstantModel(BatchModel):
    """Scores every request the same — the "no AI" baseline.

    With score 0 and a linear policy this degenerates the framework to
    classic uniform PoW (every client gets the same puzzle), which is
    exactly the state of the art the paper improves upon.
    """

    def __init__(self, value: float = 0.0) -> None:
        self.value = clamp_score(value)

    @property
    def name(self) -> str:
        return f"constant({self.value:g})"

    def score_batch(self, features: np.ndarray) -> np.ndarray:
        return np.full(_batch_length(features), self.value)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        return np.full(len(requests), self.value)


class AverageEnsemble(BatchModel):
    """Weighted-average ensemble over fitted reputation models."""

    def __init__(
        self,
        members: Sequence[ReputationModel],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        if weights is None:
            weights = [1.0] * len(members)
        if len(weights) != len(members):
            raise ValueError(
                f"got {len(weights)} weights for {len(members)} members"
            )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        self._members = tuple(members)
        self._weights = tuple(float(w) for w in weights)

    @property
    def name(self) -> str:
        inner = "+".join(m.name for m in self._members)
        return f"avg({inner})"

    def score_batch(self, features: np.ndarray) -> np.ndarray:
        total = sum(
            w * model_score_batch(m, features)
            for m, w in zip(self._members, self._weights)
        )
        return np.clip(total / sum(self._weights), SCORE_LOW, SCORE_HIGH)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        total = sum(
            w * batch_scores(m, requests)
            for m, w in zip(self._members, self._weights)
        )
        return np.clip(total / sum(self._weights), SCORE_LOW, SCORE_HIGH)


class MaxEnsemble(BatchModel):
    """Fail-closed ensemble: the highest (worst) member score wins."""

    def __init__(self, members: Sequence[ReputationModel]) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        self._members = tuple(members)

    @property
    def name(self) -> str:
        inner = "+".join(m.name for m in self._members)
        return f"max({inner})"

    def score_batch(self, features: np.ndarray) -> np.ndarray:
        stacked = np.maximum.reduce(
            [model_score_batch(m, features) for m in self._members]
        )
        return np.clip(stacked, SCORE_LOW, SCORE_HIGH)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        stacked = np.maximum.reduce(
            [batch_scores(m, requests) for m in self._members]
        )
        return np.clip(stacked, SCORE_LOW, SCORE_HIGH)


class NoisyModel(BatchModel):
    """Wraps a model and perturbs its scores with uniform noise ±ε.

    Models the scoring error the DAbR paper reports; Policy 3's
    error-range mapping exists precisely to absorb this.  Noise is drawn
    from the provided RNG so experiments stay reproducible: one value
    per row, in row order, whatever the batch size.
    """

    def __init__(
        self,
        inner: ReputationModel,
        epsilon: float,
        rng: random.Random | None = None,
    ) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        self._inner = inner
        self.epsilon = epsilon
        self._rng = rng or random.Random(0x0E44)

    @property
    def name(self) -> str:
        return f"noisy({self._inner.name},eps={self.epsilon:g})"

    def _noise(self, count: int) -> np.ndarray:
        uniform = self._rng.uniform
        return np.array(
            [uniform(-self.epsilon, self.epsilon) for _ in range(count)]
        )

    def score_batch(self, features: np.ndarray) -> np.ndarray:
        base = model_score_batch(self._inner, features)
        return np.clip(base + self._noise(len(base)), SCORE_LOW, SCORE_HIGH)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        base = batch_scores(self._inner, requests)
        return np.clip(base + self._noise(len(base)), SCORE_LOW, SCORE_HIGH)
