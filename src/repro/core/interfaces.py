"""Protocols for the framework's pluggable components.

The paper stresses that "the framework is modular and each component can
be customized".  These :class:`typing.Protocol` definitions are the
contract each replaceable part must satisfy:

* :class:`ReputationModel` — the AI model producing a score in [0, 10];
* :class:`Policy` — the score → difficulty mapping;
* :class:`PuzzleIssuer` — generates authenticated puzzles;
* :class:`PuzzleVerifier` — checks returned solutions;
* :class:`PuzzleSolver` — the client-side grinder.

Concrete implementations live in :mod:`repro.reputation`,
:mod:`repro.policies` and :mod:`repro.pow`; the framework in
:mod:`repro.core.framework` composes them without caring which concrete
classes were chosen.  All protocols are ``runtime_checkable`` so tests and
the registry can sanity-check third-party plugins with ``isinstance``.

The model and policy contracts are batch methods; :func:`batch_scores`
and :func:`batch_difficulties` are the one place a scalar-only
third-party plugin is adapted to them.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.records import ClientRequest

__all__ = [
    "ReputationModel",
    "Policy",
    "PuzzleIssuer",
    "PuzzleVerifier",
    "PuzzleSolver",
    "batch_scores",
    "batch_difficulties",
]


@runtime_checkable
class ReputationModel(Protocol):
    """The AI subsystem: maps request features to a reputation score.

    Scores follow the paper's convention: a float in ``[0, 10]`` where
    *higher means less trustworthy*.  Implementations must be
    deterministic for a fixed fitted state and input features.

    The contract is the batch: ``score_batch`` (raw feature matrix →
    score vector) and ``score_requests`` (request sequence → score
    vector).  Scoring one request is a batch of one (the shipped models
    derive ``score`` / ``score_request`` that way); a third-party model
    with only ``score_request`` still plugs in through
    :func:`batch_scores`.
    """

    @property
    def name(self) -> str: ...

    def score_batch(self, features):
        """Scores in [0, 10] for a raw ``(n, k)`` feature matrix."""
        ...

    def score_requests(self, requests: Sequence[ClientRequest]):
        """Vector of scores, aligned with ``requests``."""
        ...


@runtime_checkable
class Policy(Protocol):
    """Maps reputation scores to puzzle difficulties (leading zero bits).

    Implementations may be randomized (the paper's Policy 3 draws the
    difficulty from an interval); they receive the RNG explicitly and
    consume it once per score in array order, so runs stay
    reproducible.  ``difficulty_for`` on the shipped policies is a batch
    of one; a third-party policy with only ``difficulty_for`` still
    plugs in through :func:`batch_difficulties`.
    """

    @property
    def name(self) -> str: ...

    def difficulty_batch(self, scores, rng: random.Random):
        """Vector of difficulties, aligned with ``scores`` ∈ [0, 10]."""
        ...


def batch_scores(model, requests: Sequence[ClientRequest]) -> np.ndarray:
    """``model``'s scores for ``requests`` — the one scoring adapter.

    The model's ``score_requests`` when it has one; a scalar-only
    third-party model is looped through ``score_request`` in request
    order.  The framework, the reputation wrappers and the vectorized
    simulator all score through here.
    """
    batch = getattr(model, "score_requests", None)
    if batch is not None:
        return np.asarray(batch(requests), dtype=np.float64)
    return np.array(
        [model.score_request(request) for request in requests],
        dtype=np.float64,
    )


def batch_difficulties(policy, scores, rng: random.Random) -> np.ndarray:
    """``policy``'s difficulties for ``scores`` — the one policy adapter.

    The policy's ``difficulty_batch`` when it has one; a scalar-only
    third-party policy is looped through ``difficulty_for``, consuming
    ``rng`` in score order exactly as a batch would.
    """
    batch = getattr(policy, "difficulty_batch", None)
    if batch is not None:
        return np.asarray(batch(scores, rng))
    return np.array(
        [policy.difficulty_for(float(score), rng) for score in scores],
        dtype=np.int64,
    )


@runtime_checkable
class PuzzleIssuer(Protocol):
    """Generates PoW puzzles carrying timestamp, unique seed, difficulty."""

    def issue(self, client_ip: str, difficulty: int, now: float):
        """Create a puzzle bound to ``client_ip`` at time ``now``."""
        ...


@runtime_checkable
class PuzzleVerifier(Protocol):
    """Lightweight server-side check of a returned puzzle solution."""

    def verify(self, puzzle, solution, client_ip: str, now: float):
        """Validate ``solution``; raise a ``PuzzleError`` subclass if bad."""
        ...


@runtime_checkable
class PuzzleSolver(Protocol):
    """Client-side component that grinds nonces until the target is met."""

    def solve(self, puzzle, client_ip: str):
        """Return a solution whose hash has the required zero prefix."""
        ...
