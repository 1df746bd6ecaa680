"""Linear reputation → difficulty mappings (paper §III.A).

Policy 1 maps a 1-difficult puzzle to reputation score 0, a 2-difficult
puzzle to score 1, and so on: ``d = ceil(R) + 1``.  Policy 2 starts the
ladder at difficulty 5 — ``d = ceil(R) + 5`` — so latency "increases
significantly with higher reputation scores, delaying service for
untrustworthy clients".

Both are instances of :class:`LinearPolicy`, which generalises the
pattern to ``d = round-up(slope * R) + base``; the ablation bench sweeps
``base`` to chart the honest-tax/attacker-throttle trade-off.
"""

from __future__ import annotations

import random

import numpy as np

from repro.policies.base import BasePolicy

__all__ = ["LinearPolicy", "policy_1", "policy_2"]


class LinearPolicy(BasePolicy):
    """``difficulty = ceil(slope * score) + base``.

    Parameters
    ----------
    base:
        Difficulty at score 0.  The paper's Policy 1 uses 1, Policy 2
        uses 5.
    slope:
        Difficulty increase per score point (default 1, as in the
        paper, where integer scores map to consecutive difficulties).
    name:
        Registry/reporting name; defaults to ``linear(base=..)``.
    """

    def __init__(
        self,
        base: int = 1,
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
        self._name = name or f"linear(base={base})"

    @property
    def name(self) -> str:
        return self._name

    def _difficulty_batch(self, scores: np.ndarray, rng: random.Random):
        return np.ceil(self.slope * scores).astype(np.int64) + self.base

    def describe(self) -> str:
        return (
            f"{self.name}: difficulty = ceil({self.slope:g} * R) + {self.base}"
        )


def policy_1() -> LinearPolicy:
    """The paper's Policy 1: score 0 → 1-difficult, score 10 → 11-difficult."""
    return LinearPolicy(base=1, name="policy-1")


def policy_2() -> LinearPolicy:
    """The paper's Policy 2: score 0 → 5-difficult, score 10 → 15-difficult."""
    return LinearPolicy(base=5, name="policy-2")
