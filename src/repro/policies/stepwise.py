"""Stepwise (piecewise-constant) policies.

An operator often thinks in bands — "good / suspicious / hostile" —
rather than per-point difficulties.  :class:`StepwisePolicy` maps score
bands to fixed difficulties; it is also the natural encoding for
security postures like "free below 3, expensive above 8".
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.policies.base import BasePolicy

__all__ = ["StepwisePolicy"]


class StepwisePolicy(BasePolicy):
    """Piecewise-constant mapping defined by ascending thresholds.

    Parameters
    ----------
    thresholds:
        Strictly increasing score cut-points ``t_1 < ... < t_k`` within
        the domain.
    difficulties:
        ``k + 1`` difficulty levels: scores below ``t_1`` get
        ``difficulties[0]``, scores in ``[t_i, t_{i+1})`` get
        ``difficulties[i]``, scores ≥ ``t_k`` get ``difficulties[k]``.
        Levels must be non-decreasing — a policy that got *easier* for
        worse clients would invert the framework's core property.
    """

    def __init__(
        self,
        thresholds: Sequence[float],
        difficulties: Sequence[int],
        name: str | None = None,
    ) -> None:
        super().__init__()
        thresholds = tuple(float(t) for t in thresholds)
        difficulties = tuple(int(d) for d in difficulties)
        if len(difficulties) != len(thresholds) + 1:
            raise ValueError(
                f"need {len(thresholds) + 1} difficulties for "
                f"{len(thresholds)} thresholds, got {len(difficulties)}"
            )
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"thresholds must be strictly increasing: {thresholds}")
        if any(d < 0 for d in difficulties):
            raise ValueError(f"difficulties must be >= 0: {difficulties}")
        if any(b < a for a, b in zip(difficulties, difficulties[1:])):
            raise ValueError(
                f"difficulties must be non-decreasing: {difficulties}"
            )
        low, high = self.domain
        if thresholds and (thresholds[0] <= low or thresholds[-1] > high):
            raise ValueError(
                f"thresholds must lie inside ({low}, {high}]: {thresholds}"
            )
        self.thresholds = thresholds
        self.difficulties = difficulties
        self._thresholds_arr = np.array(thresholds, dtype=np.float64)
        self._difficulties_arr = np.array(difficulties, dtype=np.int64)
        self._name = name or f"stepwise({len(difficulties)} bands)"

    @property
    def name(self) -> str:
        return self._name

    def _difficulty_batch(self, scores: np.ndarray, rng: random.Random):
        # side="right" places a score equal to a threshold in the band
        # above it: band i is [t_i, t_{i+1}).
        bands = np.searchsorted(self._thresholds_arr, scores, side="right")
        return self._difficulties_arr[bands]

    def describe(self) -> str:
        bands = ", ".join(
            f"<{t:g}→{d}" for t, d in zip(self.thresholds, self.difficulties)
        )
        return f"{self.name}: {bands}, else→{self.difficulties[-1]}"
