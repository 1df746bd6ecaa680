"""Bench: vectorized simulation core vs the callback engine.

The acceptance gate of the million-agent simulation core: at 100k
agents the SoA/calendar-queue engine must simulate the identical
workload at least 25x faster than the callback ``EventEngine`` path,
while making exactly the same admission decisions.  The plain gate
test enforces the ratio in the tier-1 suite; the pytest-benchmark
variants archive the absolute engine costs for the nightly
regression check (BENCH_baseline.json).
"""

from __future__ import annotations

import pytest

from benchmarks.megasim import (
    MegasimConfig,
    build_workload,
    run_megasim_throughput,
)
from repro.core.framework import AIPoWFramework
from repro.net.sim.fastsim import FastSimulation
from repro.policies.linear import policy_2
from tests.oracle import Simulation

MIN_SPEEDUP = 25.0


def test_megasim_25x_gate_at_100k_agents():
    """The tentpole gate: >=25x at 100k agents, decisions identical.

    ``run_megasim_throughput`` itself asserts the two engines' decision
    aggregates (request counts, difficulty stats, mean score) match
    exactly; a mismatch raises before any ratio is checked.
    """
    result = run_megasim_throughput(MegasimConfig(agents=100_000))
    speedup = result.extra["speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"fastsim speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x "
        f"floor (callback {result.extra['callback_wall']:.2f}s, "
        f"fastsim {result.extra['fast_wall']:.2f}s)"
    )


@pytest.fixture(scope="module")
def gate_workload(fitted_dabr):
    config = MegasimConfig(agents=100_000)
    population, fire_times, fire_agents, deciders = build_workload(config)
    return config, population, fire_times, fire_agents, deciders


def test_fastsim_100k_agents(benchmark, gate_workload, fitted_dabr):
    """Archive the vectorized engine's cost on the 100k gate workload."""
    config, population, fire_times, fire_agents, deciders = gate_workload

    def run():
        simulation = FastSimulation(
            AIPoWFramework(fitted_dabr, policy_2()),
            seed=config.seed,
            solve_deciders=deciders,
            tick=config.tick,
        )
        return simulation.run_fires(population, fire_times, fire_agents)

    report = benchmark.pedantic(run, iterations=1, rounds=3)
    assert report.requests == fire_times.size
    benchmark.extra_info["requests"] = report.requests
    benchmark.extra_info["events"] = report.events_processed


def test_callback_reference_20k_agents(benchmark, fitted_dabr):
    """Archive the callback engine's cost at a fifth of the gate scale.

    20k agents keeps the nightly benchmark round affordable while
    still tracking the reference engine's per-request cost (which is
    what the speedup ratio divides by).
    """
    config = MegasimConfig(agents=20_000)
    population, fire_times, fire_agents, deciders = build_workload(config)
    trace = population.to_trace(fire_times, fire_agents)

    def run():
        simulation = Simulation(
            AIPoWFramework(fitted_dabr, policy_2()),
            seed=config.seed,
            solve_deciders={
                name: attacker.should_solve
                for name, attacker in deciders.items()
            },
        )
        return simulation.run(trace)

    report = benchmark.pedantic(run, iterations=1, rounds=2)
    assert report.requests == len(trace)
    benchmark.extra_info["requests"] = report.requests
