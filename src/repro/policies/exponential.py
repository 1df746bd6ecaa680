"""Exponential-tax policy.

A linear difficulty ladder doubles the *work* per score point (work is
``2**d``).  Sometimes an operator wants the ladder itself to accelerate:
barely-suspicious clients pay almost nothing while clearly-hostile ones
fall off a cliff.  :class:`ExponentialPolicy` provides that shape:

``difficulty = base + floor(scale * (growth ** score - 1))``

so the difficulty curve is convex in the score.
"""

from __future__ import annotations

import random

import numpy as np

from repro.policies.base import BasePolicy

__all__ = ["ExponentialPolicy"]


class ExponentialPolicy(BasePolicy):
    """Convex score → difficulty mapping.

    Parameters
    ----------
    base:
        Difficulty at score 0.
    growth:
        Per-score-point multiplier (> 1).
    scale:
        Vertical scale of the exponential term.
    """

    def __init__(
        self,
        base: int = 1,
        growth: float = 1.3,
        scale: float = 1.0,
        name: str | None = None,
    ) -> None:
        super().__init__()
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        self.base = base
        self.growth = growth
        self.scale = scale
        self._name = name or f"exponential(growth={growth:g})"

    @property
    def name(self) -> str:
        return self._name

    def _difficulty_batch(self, scores: np.ndarray, rng: random.Random):
        return self.base + np.floor(
            self.scale * (self.growth**scores - 1.0)
        ).astype(np.int64)

    def describe(self) -> str:
        return (
            f"{self.name}: difficulty = {self.base} + "
            f"floor({self.scale:g} * ({self.growth:g}^R - 1))"
        )
