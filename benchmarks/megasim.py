"""The `megasim` gate: vectorized vs callback simulation throughput.

The gate of the million-agent simulation core: the *identical*
100k-agent workload (steady benign Poisson traffic plus a pulsing
botnet) is driven through the callback reference engine
(:class:`tests.oracle.Simulation`) and through the shipped vectorized
:class:`~repro.net.sim.fastsim.FastSimulation`, and the run reports
each engine's request and event throughput plus the speedup.  It times
test code, so it lives with the benchmarks rather than in the
``repro export`` registry.

Both engines make the *same admission decisions* — the DAbR scores and
policy difficulties are pure functions of the per-agent features, so
the experiment asserts the decision aggregates (request counts, served
counts, mean/extreme difficulty) match exactly.  Timing randomness
(solve-attempt draws) comes from different RNG streams, so latency
distributions agree statistically rather than bit for bit — the
decision-stream bit-parity claim is gated separately, per golden-trace
scenario, by ``tests/replay/test_fastsim_parity.py``.

``benchmarks/test_bench_megasim.py`` enforces the ≥25x floor in the
tier-1 suite; locally the ratio lands well above it.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.bench.results import ExperimentResult
from repro.core.framework import AIPoWFramework
from repro.net.sim import patterns
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.fastsim import FastSimulation
from repro.policies.linear import policy_2
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE
from tests.oracle import Simulation

__all__ = ["MegasimConfig", "run_megasim_throughput", "build_workload"]


@dataclasses.dataclass(frozen=True, slots=True)
class MegasimConfig:
    """Parameters of the megasim throughput experiment.

    The default is the acceptance-gate shape: 100k agents, one second
    of simulated traffic, ~100k requests.  ``benign_rate`` and the
    botnet pulse keep arrival instants scattered, so the callback
    engine sees realistic batch sizes (mostly 1) while the calendar
    queue quantizes the same instants into thousand-agent cohorts —
    the structural difference being measured.
    """

    agents: int = 100_000
    benign_fraction: float = 0.8
    benign_rate: float = 0.5
    bot_rate: float = 3.0
    duration: float = 1.0
    tick: float = 0.01
    max_difficulty: int = 16
    seed: int = 0xF457
    corpus_size: int = 4000
    corpus_seed: int = 7

    def __post_init__(self) -> None:
        if self.agents < 2:
            raise ValueError(f"agents must be >= 2, got {self.agents}")
        if not 0.0 < self.benign_fraction < 1.0:
            raise ValueError(
                f"benign_fraction must be in (0, 1), got {self.benign_fraction}"
            )
        if self.duration <= 0 or self.tick <= 0:
            raise ValueError("duration and tick must be > 0")

    @property
    def benign_agents(self) -> int:
        return int(self.agents * self.benign_fraction)

    @property
    def bot_agents(self) -> int:
        return self.agents - self.benign_agents


def build_workload(config: MegasimConfig):
    """Population + fire schedule + deciders shared by both engines."""
    from repro.attacks import BotnetAttacker

    population = AgentPopulation.make(
        [
            (BENIGN_PROFILE, config.benign_agents),
            (MALICIOUS_PROFILE, config.bot_agents),
        ],
        seed=config.seed,
    )
    rng = np.random.default_rng(config.seed ^ 0x9E37)
    benign = np.arange(config.benign_agents, dtype=np.int64)
    bots = np.arange(config.benign_agents, config.agents, dtype=np.int64)
    fire_times, fire_agents = patterns.merge_schedules(
        patterns.poisson_fires(
            benign, config.benign_rate, config.duration, rng
        ),
        patterns.pulse_fires(
            bots,
            config.bot_rate,
            config.duration,
            rng,
            on_seconds=0.4,
            off_seconds=0.4,
        ),
    )
    deciders = {
        MALICIOUS_PROFILE.name: BotnetAttacker(
            max_difficulty=config.max_difficulty
        )
    }
    return population, fire_times, fire_agents, deciders


def _framework(config: MegasimConfig) -> AIPoWFramework:
    train, _ = generate_corpus(
        size=config.corpus_size, seed=config.corpus_seed
    ).split()
    return AIPoWFramework(DAbRModel().fit(train), policy_2())


def _decision_fingerprint(report) -> dict:
    """Engine-independent decision aggregates."""
    overall = report.metrics.overall
    return {
        "requests": overall.total,
        "difficulty_mean": overall.difficulties.mean,
        "difficulty_min": overall.difficulties.min,
        "difficulty_max": overall.difficulties.max,
        "score_mean": overall.scores.mean,
    }


def _fingerprints_agree(left: dict, right: dict) -> bool:
    """Counts and extremes exactly; means within accumulation noise.

    The engines fold identical decision values through different
    accumulation orders (sequential Welford vs numpy block merges), so
    means agree to ~1e-12, not bit for bit.
    """
    import math

    return (
        left["requests"] == right["requests"]
        and left["difficulty_min"] == right["difficulty_min"]
        and left["difficulty_max"] == right["difficulty_max"]
        and math.isclose(
            left["difficulty_mean"], right["difficulty_mean"], rel_tol=1e-9
        )
        and math.isclose(
            left["score_mean"], right["score_mean"], rel_tol=1e-9
        )
    )


def run_megasim_throughput(
    config: MegasimConfig | None = None,
) -> ExperimentResult:
    """Measure callback vs vectorized engine throughput; tabulate both."""
    config = config or MegasimConfig()
    population, fire_times, fire_agents, deciders = build_workload(config)
    patiences = {p.name: p.patience for p in population.profiles}
    hash_rates = {p.name: p.hash_rate for p in population.profiles}

    fast = FastSimulation(
        _framework(config),
        seed=config.seed,
        solve_deciders=deciders,
        hash_rates=hash_rates,
        patiences=patiences,
        tick=config.tick,
    )
    started = time.perf_counter()
    fast_report = fast.run_fires(population, fire_times, fire_agents)
    fast_wall = time.perf_counter() - started

    trace = population.to_trace(fire_times, fire_agents)
    callback = Simulation(
        _framework(config),
        seed=config.seed,
        solve_deciders={
            name: decider.should_solve for name, decider in deciders.items()
        },
        hash_rates=hash_rates,
        patiences=patiences,
    )
    started = time.perf_counter()
    callback_report = callback.run(trace)
    callback_wall = time.perf_counter() - started

    fingerprints = (
        _decision_fingerprint(callback_report),
        _decision_fingerprint(fast_report),
    )
    if not _fingerprints_agree(*fingerprints):
        raise AssertionError(
            "engines disagree on admission decisions: "
            f"{fingerprints[0]} vs {fingerprints[1]}"
        )

    requests = fast_report.requests
    speedup = callback_wall / fast_wall if fast_wall > 0 else float("inf")
    rows = [
        [
            "callback",
            requests,
            callback_wall,
            requests / callback_wall,
            callback_report.events_processed / callback_wall,
        ],
        [
            "fastsim",
            requests,
            fast_wall,
            requests / fast_wall,
            fast_report.events_processed / fast_wall,
        ],
    ]
    return ExperimentResult(
        experiment_id="megasim",
        title=(
            "Vectorized simulation core - callback engine vs "
            "SoA/calendar-queue fastsim"
        ),
        headers=["engine", "requests", "wall_s", "requests_per_s", "events_per_s"],
        rows=rows,
        notes=[
            f"{config.agents:,} agents ({config.benign_agents:,} benign "
            f"poisson + {config.bot_agents:,} pulsing bots), identical "
            "workload on both engines",
            "admission decisions agree exactly "
            f"(mean difficulty {fingerprints[0]['difficulty_mean']:.3f}); "
            "latency draws come from different RNG streams",
            f"fastsim speedup: {speedup:.1f}x "
            f"(cohorts up to {fast.largest_arrival_batch:,} requests, "
            f"tick {config.tick:g}s)",
        ],
        extra={
            "speedup": speedup,
            "fast_wall": fast_wall,
            "callback_wall": callback_wall,
            "fast_events_per_s": fast_report.events_processed / fast_wall,
            "decision_fingerprint": fingerprints[0],
        },
    )
