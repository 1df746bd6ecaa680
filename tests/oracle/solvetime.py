"""Client solve-time model for the callback reference engines.

The number of hash evaluations needed to solve a ``d``-difficult puzzle
is geometric with mean ``2**d`` (see :mod:`repro.pow.difficulty`); solve
time is attempts divided by the client's hash rate.  Sampling this
distribution instead of grinding real hashes is what lets the simulator
run thousands of high-difficulty exchanges per second while preserving
the latency distribution exactly (DESIGN.md §2).  The shipped engine
samples the same distribution in bulk
(:func:`repro.net.sim.fastsim.sample_attempts_array`).
"""

from __future__ import annotations

import dataclasses
import random

from repro.core.config import TimingConfig
from repro.pow.difficulty import expected_attempts, median_attempts
from repro.pow.solver import sample_attempts

__all__ = ["SolveTimeModel", "SolveSample"]


@dataclasses.dataclass(frozen=True, slots=True)
class SolveSample:
    """One sampled solve: attempt count and the implied wall time."""

    attempts: int
    seconds: float


class SolveTimeModel:
    """Samples solve times for a client of a given hash rate.

    Parameters
    ----------
    timing:
        Calibrated timing constants; the default hash rate is
        ``1 / timing.seconds_per_attempt`` (the paper-calibrated
        ~37 k attempts/s).
    """

    def __init__(self, timing: TimingConfig | None = None) -> None:
        self.timing = timing or TimingConfig()

    @property
    def default_hash_rate(self) -> float:
        """Hash evaluations per second implied by the timing config."""
        return 1.0 / self.timing.seconds_per_attempt

    def sample(
        self,
        difficulty: int,
        rng: random.Random,
        hash_rate: float | None = None,
    ) -> SolveSample:
        """Draw one solve: geometric attempts at ``hash_rate``."""
        rate = self.default_hash_rate if hash_rate is None else hash_rate
        if rate <= 0:
            raise ValueError(f"hash_rate must be > 0, got {rate}")
        attempts = sample_attempts(difficulty, rng)
        return SolveSample(attempts=attempts, seconds=attempts / rate)

    def mean_seconds(
        self, difficulty: int, hash_rate: float | None = None
    ) -> float:
        """Expected solve time at ``difficulty``."""
        rate = self.default_hash_rate if hash_rate is None else hash_rate
        return expected_attempts(difficulty) / rate

    def median_seconds(
        self, difficulty: int, hash_rate: float | None = None
    ) -> float:
        """Median solve time at ``difficulty`` (what Figure 2 tracks)."""
        rate = self.default_hash_rate if hash_rate is None else hash_rate
        return median_attempts(difficulty) / rate
