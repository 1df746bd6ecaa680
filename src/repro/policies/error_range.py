"""Policy 3: error-range mapping (paper §III.B).

DAbR's score carries an error ε — the reported score may be higher or
lower than the ground truth.  Policy 3 compensates by randomising the
difficulty over the error interval: for a score ``s`` with
``d = ceil(s + 1)``, the issued difficulty is uniform over the integer
interval ``[ceil(d - ε), ceil(d + ε)]`` (clamped below at 0).

The paper observes that the resulting rate of latency increase sits
between Policy 1 and Policy 2; the `fig2` bench reproduces that
ordering, and the ``abl-epsilon`` bench sweeps ε.

Note the ceiling semantics the paper specifies: for *fractional* ε the
interval is asymmetric **upward** — ε = 2.5 yields ``[d-2, d+3]`` — so
the expected difficulty exceeds ``d`` and the policy's latency growth
lands between the two linear policies, exactly as Figure 2 shows.  The
default ε is therefore 2.5 (roughly the DAbR error envelope measured by
the `acc80` experiment's ``epsilon_p90``).
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.policies.base import BasePolicy

__all__ = ["ErrorRangePolicy", "policy_3"]


class ErrorRangePolicy(BasePolicy):
    """Uniform-over-error-interval difficulty mapping.

    Parameters
    ----------
    epsilon:
        The AI model's score error ε (≥ 0).  ``epsilon=0`` degenerates
        to the deterministic ``d = ceil(s + 1)`` — i.e. Policy 1 on
        integer scores.
    base:
        Offset used when computing ``d = ceil(s + base)``; the paper
        uses 1.
    name:
        Registry/reporting name.
    """

    def __init__(
        self,
        epsilon: float = 2.5,
        base: float = 1.0,
        name: str | None = None,
    ) -> None:
        super().__init__()
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        self.epsilon = epsilon
        self.base = base
        self._name = name or f"error-range(eps={epsilon:g})"

    @property
    def name(self) -> str:
        return self._name

    def interval(self, score: float) -> tuple[int, int]:
        """The closed integer difficulty interval for ``score``.

        ``d_i = ceil(s_i + base)``; bounds are ``ceil(d_i ± ε)`` with the
        lower bound clamped at 0.
        """
        d = math.ceil(score + self.base)
        low = max(0, math.ceil(d - self.epsilon))
        high = math.ceil(d + self.epsilon)
        return low, high

    def _difficulty_batch(self, scores: np.ndarray, rng: random.Random):
        # Interval arithmetic is vectorised; the uniform draws stay
        # sequential in array order, so the draws a score gets do not
        # depend on how the scores are batched.
        d = np.ceil(scores + self.base)
        lows = np.maximum(0.0, np.ceil(d - self.epsilon)).astype(np.int64)
        highs = np.ceil(d + self.epsilon).astype(np.int64)
        randint = rng.randint
        return np.array(
            [randint(int(lo), int(hi)) for lo, hi in zip(lows, highs)],
            dtype=np.int64,
        )

    def describe(self) -> str:
        return (
            f"{self.name}: difficulty ~ U[ceil(d-ε), ceil(d+ε)], "
            f"d = ceil(R + {self.base:g}), ε = {self.epsilon:g}"
        )


def policy_3(epsilon: float = 2.5) -> ErrorRangePolicy:
    """The paper's Policy 3 with the given DAbR error ε (default 2.5)."""
    return ErrorRangePolicy(epsilon=epsilon, name="policy-3")
