"""Policy engine scaffolding.

A *policy* is the paper's rule-based strategy mapping a client's
reputation score R ∈ [0, 10] to a puzzle difficulty.  Policies receive
the RNG explicitly (Policy 3 is randomized) and declare their domain so
out-of-range scores fail loudly rather than silently clamping an
attacker to an easy puzzle.

:class:`BasePolicy` provides domain validation and a shared
``describe()``; subclasses implement ``_difficulty_batch``.  Batch is
the contract: ``difficulty_for`` is a batch of one everywhere
(:class:`BatchPolicy`), so one score and many go through the same code.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.errors import PolicyDomainError

__all__ = ["BasePolicy", "BatchPolicy", "SCORE_DOMAIN"]

#: The closed reputation-score domain shared by all built-in policies.
SCORE_DOMAIN = (0.0, 10.0)


class BatchPolicy:
    """``difficulty_for`` derived once from ``difficulty_batch``."""

    def difficulty_for(self, score: float, rng: random.Random) -> int:
        """Map ``score`` to a puzzle difficulty: a batch of one."""
        return int(self.difficulty_batch([score], rng)[0])


class BasePolicy(BatchPolicy):
    """Template base class for difficulty policies.

    Subclasses implement :meth:`_difficulty_batch`, receiving validated
    scores; the base class enforces the domain and the non-negativity
    of every result.
    """

    #: Overridden by subclasses with a short registry-friendly name.
    policy_name = "base"

    def __init__(
        self, domain: tuple[float, float] = SCORE_DOMAIN
    ) -> None:
        low, high = domain
        if not low < high:
            raise ValueError(f"invalid domain [{low}, {high}]")
        self.domain = (float(low), float(high))

    @property
    def name(self) -> str:
        """Registry-friendly policy name."""
        return self.policy_name

    def difficulty_batch(
        self, scores, rng: random.Random
    ) -> np.ndarray:
        """Vector of difficulties for a vector of scores.

        The whole batch is domain-validated up front (:meth:`_in_domain`),
        randomized policies consume ``rng`` once per score in array
        order, and the non-negativity of every result is enforced.  Returns an
        ``int64`` array aligned with ``scores``.
        """
        scores = self._in_domain(scores)
        difficulties = np.asarray(self._difficulty_batch(scores, rng))
        if difficulties.size and difficulties.min() < 0:
            index = int(np.argmin(difficulties))
            raise ValueError(
                f"{type(self).__name__} produced negative difficulty "
                f"{int(difficulties[index])} for score {float(scores[index])}"
            )
        return difficulties.astype(np.int64)

    def _in_domain(self, scores) -> np.ndarray:
        """``scores`` as ``float64``, all inside the declared domain.

        Raises :class:`~repro.core.errors.PolicyDomainError` naming the
        first score outside it.
        """
        scores = np.asarray(scores, dtype=np.float64)
        low, high = self.domain
        inside = (scores >= low) & (scores <= high)
        if not inside.all():
            raise PolicyDomainError(float(scores[np.argmin(inside)]), low, high)
        return scores

    def describe(self) -> str:
        """Human-readable one-line description for reports and the CLI."""
        return f"{self.name} on scores in [{self.domain[0]}, {self.domain[1]}]"

    def _difficulty_batch(self, scores: np.ndarray, rng: random.Random):
        """Difficulties for validated scores, ``rng`` drawn in array order."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
