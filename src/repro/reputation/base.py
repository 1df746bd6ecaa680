"""Shared scaffolding for reputation models.

Concrete models (DAbR, k-NN, logistic) share the same life-cycle:
construct → :meth:`fit` on a corpus → score feature matrices.
:class:`BaseReputationModel` centralises schema handling, the
fitted-state guard, and score clamping so each model only implements
one scoring hook, ``_score_matrix`` (a whole normalised matrix at once).

Batch is the contract for every model, base or wrapper: each implements
``score_batch`` and ``score_requests``, and :class:`BatchModel` derives
the scalar ``score`` / ``score_request`` from them as a batch of one —
so one request and many take the same code and get the same score.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import ModelNotFittedError
from repro.core.records import ClientRequest
from repro.reputation.dataset import ThreatIntelCorpus
from repro.reputation.features import DEFAULT_SCHEMA, FeatureSchema

__all__ = [
    "BaseReputationModel",
    "BatchModel",
    "clamp_score",
    "model_chain",
    "model_score_batch",
]

#: Reputation scores are confined to the paper's [0, 10] scale.
SCORE_LOW = 0.0
SCORE_HIGH = 10.0


def clamp_score(score: float) -> float:
    """Clamp ``score`` into the canonical [0, 10] range."""
    return min(max(float(score), SCORE_LOW), SCORE_HIGH)


def is_mapping_rows(rows) -> bool:
    """True when feature ``rows`` are mappings rather than a raw matrix.

    The feature-level batch (``score_batch``) takes either a raw
    ``(n, k)`` matrix in schema column order or ``n`` feature mappings;
    ``score(features)`` is ``score_batch([features])``.
    """
    return (
        not isinstance(rows, np.ndarray)
        and len(rows) > 0
        and isinstance(rows[0], Mapping)
    )


def model_score_batch(model, features) -> np.ndarray:
    """Score feature rows through ``model``, batch if it can.

    Uses the model's ``score_batch`` when present; otherwise loops the
    scalar :meth:`score` over the rows as mappings (matrix rows are
    converted back through the model's schema, ``DEFAULT_SCHEMA`` when
    it declares none).  Lets ensembles and wrappers compose third-party
    scalar-only models into the batch pipeline.
    """
    batch = getattr(model, "score_batch", None)
    if batch is not None:
        return np.asarray(batch(features), dtype=np.float64)
    if not is_mapping_rows(features):
        schema = getattr(model, "schema", None) or DEFAULT_SCHEMA
        matrix = np.atleast_2d(np.asarray(features, dtype=np.float64))
        features = [schema.to_mapping(row) for row in matrix]
    return np.array([model.score(row) for row in features], dtype=np.float64)


def model_chain(model):
    """Yield ``model`` and each wrapped model, outermost first.

    The one traversal rule for model wrapper chains (``.base`` for
    feedback wrappers, ``.inner`` for caches),
    cycle-guarded, so chain inspections cannot drift apart.
    """
    node, seen = model, set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        yield node
        link = getattr(node, "base", None)  # not ``or``: an empty cache is falsy
        node = link if link is not None else getattr(node, "inner", None)


class BatchModel:
    """Scalar scoring derived once from the batch methods.

    Models implement ``score_batch`` and ``score_requests``; mixing
    this in makes ``score`` and ``score_request`` batches of one.
    """

    def score(self, features: Mapping[str, float]) -> float:
        """Score one feature mapping, clamped to [0, 10]."""
        return float(self.score_batch([features])[0])

    def score_request(self, request: ClientRequest) -> float:
        """Score one :class:`ClientRequest`."""
        return float(self.score_requests([request])[0])


class BaseReputationModel(BatchModel):
    """Template base class for reputation scorers.

    Subclasses implement :meth:`_fit` (consume the corpus) and
    :meth:`_score_matrix`; the base class handles vectorisation,
    normalisation, the not-fitted guard, and clamping to [0, 10].
    """

    #: Overridden by subclasses with a short registry-friendly name.
    model_name = "base"

    def __init__(self, schema: FeatureSchema | None = None) -> None:
        self.schema = schema or DEFAULT_SCHEMA
        self._fitted = False

    @property
    def name(self) -> str:
        """Registry-friendly model name."""
        return self.model_name

    def fit(self, corpus: ThreatIntelCorpus) -> "BaseReputationModel":
        """Train on ``corpus``; returns self for chaining."""
        if len(corpus) == 0:
            raise ValueError("cannot fit on an empty corpus")
        if corpus.schema.names != self.schema.names:
            raise ValueError(
                "corpus schema does not match model schema: "
                f"{corpus.schema.names} vs {self.schema.names}"
            )
        self._fit(corpus)
        self._fitted = True
        return self

    def score_batch(self, features) -> np.ndarray:
        """Scores for feature rows, clamped to [0, 10].

        ``features`` holds *unnormalised* feature rows in schema column
        order (what :meth:`FeatureSchema.vectorize_batch` produces), or
        feature mappings, which are vectorised first.  For the shipped
        models this is one vectorised pass — the hot path of
        :meth:`AIPoWFramework.challenge_batch`.
        """
        if not self._fitted:
            raise ModelNotFittedError(
                f"{type(self).__name__} must be fit() before scoring"
            )
        if is_mapping_rows(features):
            features = self.schema.vectorize_batch(features)
        matrix = self.schema.normalize(features)
        return np.clip(self._score_matrix(matrix), SCORE_LOW, SCORE_HIGH)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        """Vector of scores for a sequence of :class:`ClientRequest`."""
        return self.score_batch(
            self.schema.vectorize_batch(
                [request.features for request in requests]
            )
        )

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _fit(self, corpus: ThreatIntelCorpus) -> None:
        raise NotImplementedError

    def _score_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Score each row of a *normalised* matrix."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _score_matrix"
        )
