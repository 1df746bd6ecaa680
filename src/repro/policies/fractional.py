"""Fractional (real-valued) difficulty policies.

Pairs with :mod:`repro.pow.fractional`: a fractional policy maps the
reputation score to a *real* difficulty so expected work can track the
score continuously rather than in power-of-two steps.  The class still
satisfies the integer :class:`~repro.core.interfaces.Policy` protocol
(rounding up, against the client) so it drops into the standard
framework; callers using the fractional PoW path read
:meth:`fractional_difficulty_for` instead.
"""

from __future__ import annotations

import random

import numpy as np

from repro.policies.base import BasePolicy

__all__ = ["FractionalLinearPolicy"]


class FractionalLinearPolicy(BasePolicy):
    """``difficulty = slope * score + base`` with no rounding.

    Parameters
    ----------
    base:
        Real difficulty at score 0.
    slope:
        Real difficulty increase per score point.
    """

    def __init__(
        self,
        base: float = 1.0,
        slope: float = 1.0,
        name: str | None = None,
    ) -> None:
        super().__init__()
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        if slope <= 0:
            raise ValueError(f"slope must be > 0, got {slope}")
        self.base = base
        self.slope = slope
        self._name = name or f"fractional-linear(base={base:g})"

    @property
    def name(self) -> str:
        return self._name

    def fractional_difficulty_for(self, score: float) -> float:
        """The real-valued difficulty (what the fractional solver uses)."""
        return float(self.fractional_difficulty_batch([score])[0])

    def fractional_difficulty_batch(self, scores) -> np.ndarray:
        """Vector of real-valued difficulties, domain-checked."""
        return self.slope * self._in_domain(scores) + self.base

    def _difficulty_batch(self, scores: np.ndarray, rng: random.Random):
        return np.ceil(self.slope * scores + self.base).astype(np.int64)

    def describe(self) -> str:
        return (
            f"{self.name}: difficulty = {self.slope:g} * R + {self.base:g} "
            "(real-valued)"
        )
