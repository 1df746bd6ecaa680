"""Policy combinators.

Real deployments compose postures: "at least as hard as the baseline",
"never above the emergency cap", "hardest of the region policies".
These combinators keep each rule small and testable while satisfying the
:class:`~repro.core.interfaces.Policy` protocol themselves.

A wrapper over one inner policy maps the whole batch through it, so the
inner RNG draws come in array order, as in a per-score loop.  The
max/min combinators walk the scores one at a time and ask every member
per score, interleaving the members' draws exactly as they always have.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.core.interfaces import Policy, batch_difficulties
from repro.policies.base import BatchPolicy

__all__ = ["MaxOfPolicy", "MinOfPolicy", "ClampPolicy", "OffsetPolicy"]


def _per_score(reduce, members, scores, rng: random.Random) -> np.ndarray:
    """``reduce`` over every member's verdict, one score at a time."""
    return np.array(
        [
            reduce(int(batch_difficulties(m, [score], rng)[0]) for m in members)
            for score in scores
        ],
        dtype=np.int64,
    )


class MaxOfPolicy(BatchPolicy):
    """The hardest verdict among member policies wins (fail-closed)."""

    def __init__(self, members: Sequence[Policy]) -> None:
        if not members:
            raise ValueError("MaxOfPolicy needs at least one member")
        self.members = tuple(members)

    @property
    def name(self) -> str:
        return f"max({','.join(m.name for m in self.members)})"

    def difficulty_batch(self, scores, rng: random.Random) -> np.ndarray:
        return _per_score(max, self.members, scores, rng)


class MinOfPolicy(BatchPolicy):
    """The gentlest verdict among member policies wins (fail-open)."""

    def __init__(self, members: Sequence[Policy]) -> None:
        if not members:
            raise ValueError("MinOfPolicy needs at least one member")
        self.members = tuple(members)

    @property
    def name(self) -> str:
        return f"min({','.join(m.name for m in self.members)})"

    def difficulty_batch(self, scores, rng: random.Random) -> np.ndarray:
        return _per_score(min, self.members, scores, rng)


class ClampPolicy(BatchPolicy):
    """Clamps an inner policy's output into ``[low, high]``."""

    def __init__(self, inner: Policy, low: int = 0, high: int = 32) -> None:
        if low < 0:
            raise ValueError(f"low must be >= 0, got {low}")
        if high < low:
            raise ValueError(f"high {high} must be >= low {low}")
        self.inner = inner
        self.low = low
        self.high = high

    @property
    def name(self) -> str:
        return f"clamp({self.inner.name},[{self.low},{self.high}])"

    def difficulty_batch(self, scores, rng: random.Random) -> np.ndarray:
        inner = batch_difficulties(self.inner, scores, rng)
        return np.clip(inner, self.low, self.high).astype(np.int64)


class OffsetPolicy(BatchPolicy):
    """Adds a fixed offset to an inner policy (floored at zero)."""

    def __init__(self, inner: Policy, offset: int) -> None:
        self.inner = inner
        self.offset = int(offset)

    @property
    def name(self) -> str:
        sign = "+" if self.offset >= 0 else ""
        return f"offset({self.inner.name},{sign}{self.offset})"

    def difficulty_batch(self, scores, rng: random.Random) -> np.ndarray:
        inner = batch_difficulties(self.inner, scores, rng)
        return np.maximum(inner + self.offset, 0).astype(np.int64)
