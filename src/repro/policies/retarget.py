"""Rate-retargeting policy: the score-blind adaptive baseline.

Classic PoW defenses without an AI model adjust one global difficulty
to hold the *served-request rate* at a sustainable target (Bitcoin's
retargeting, kaPoW's load-based tuning).  :class:`RetargetingPolicy`
implements that baseline: it ignores the reputation score entirely and
retargets the shared difficulty from observed throughput.

Its role in this reproduction is contrast: the `throttle` experiment's
"uniform-pow" column uses a *fixed* uniform difficulty; this policy is
the strongest score-blind alternative, and it still cannot discriminate
— benign clients pay exactly what attackers pay.  The AI-assisted
issuer's advantage is *who* pays, not *how much* total work is issued.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.policies.base import BatchPolicy

__all__ = ["RetargetingPolicy"]


class RetargetingPolicy(BatchPolicy):
    """Holds served throughput near a target by moving one difficulty.

    Parameters
    ----------
    target_rate:
        Desired served requests per second.
    initial_difficulty:
        Starting point of the shared difficulty.
    min_difficulty / max_difficulty:
        Clamp bounds for the retargeted difficulty.
    window:
        Seconds of observation folded into each adjustment.
    max_step:
        Largest difficulty change per adjustment (damping, like
        Bitcoin's 4x retarget clamp).
    """

    def __init__(
        self,
        target_rate: float = 50.0,
        initial_difficulty: int = 5,
        min_difficulty: int = 0,
        max_difficulty: int = 32,
        window: float = 1.0,
        max_step: float = 2.0,
    ) -> None:
        if target_rate <= 0:
            raise ValueError(f"target_rate must be > 0, got {target_rate}")
        if not min_difficulty <= initial_difficulty <= max_difficulty:
            raise ValueError(
                "need min_difficulty <= initial_difficulty <= max_difficulty"
            )
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if max_step <= 0:
            raise ValueError(f"max_step must be > 0, got {max_step}")
        self.target_rate = target_rate
        self.min_difficulty = min_difficulty
        self.max_difficulty = max_difficulty
        self.window = window
        self.max_step = max_step
        self._level = float(initial_difficulty)
        self._window_start: float | None = None
        self._window_count = 0
        self.adjustments = 0

    @property
    def name(self) -> str:
        return f"retarget({self.target_rate:g}/s)"

    @property
    def current_difficulty(self) -> float:
        """The shared difficulty as last retargeted."""
        return self._level

    def observe_served(self, now: float) -> None:
        """Record one served request at time ``now``; retarget on window end.

        The adjustment is logarithmic — observed/target rate ratio maps
        to a difficulty delta of ``log2(ratio)`` (work doubles per bit),
        clamped to ``max_step``.
        """
        if self._window_start is None:
            self._window_start = now
            self._window_count = 1
            return
        self._window_count += 1
        elapsed = now - self._window_start
        if elapsed < self.window:
            return
        rate = self._window_count / elapsed
        delta = math.log2(max(rate / self.target_rate, 1e-9))
        delta = max(-self.max_step, min(self.max_step, delta))
        self._level = min(
            float(self.max_difficulty),
            max(float(self.min_difficulty), self._level + delta),
        )
        self.adjustments += 1
        self._window_start = now
        self._window_count = 0

    def difficulty_batch(self, scores, rng: random.Random) -> np.ndarray:
        """Score-blind: every client gets the current shared difficulty."""
        return np.full(len(scores), int(round(self._level)), dtype=np.int64)

    def describe(self) -> str:
        return (
            f"{self.name}: shared difficulty {self._level:.2f}, "
            f"retargets every {self.window:g}s toward "
            f"{self.target_rate:g} served/s"
        )
