"""Bench: vectorized lossy-link substrate vs the callback engine.

The acceptance gate of the link substrate: at 40k agents behind a
lossy mobile access network the vectorized engine must simulate the
identical workload — same losses, same retries, same admission
decisions — at least 5x faster than the callback path.  The measured
ratio lands near 13x locally; the floor leaves headroom for slow CI
runners.  The pytest-benchmark variant archives the absolute fastsim
cost for the nightly regression check (BENCH_baseline.json).
"""

from __future__ import annotations

from benchmarks.megasim import build_workload
from benchmarks.netsim import NetsimConfig, run_netsim_throughput
from repro.core.framework import AIPoWFramework
from repro.net.sim.fastsim import FastSimulation
from repro.policies.linear import policy_2

MIN_SPEEDUP = 5.0


def test_netsim_5x_gate_at_40k_agents():
    """The link-substrate gate: >=5x at 40k agents, decisions identical.

    ``run_netsim_throughput`` itself asserts the two engines' decision
    aggregates match exactly and that request-leg link give-ups agree;
    a mismatch raises before any ratio is checked.
    """
    result = run_netsim_throughput(NetsimConfig(agents=40_000))
    speedup = result.extra["speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"fastsim lossy-link speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x floor (callback "
        f"{result.extra['callback_wall']:.2f}s, fastsim "
        f"{result.extra['fast_wall']:.2f}s)"
    )


def test_fastsim_lossy_40k_agents(benchmark, fitted_dabr):
    """Archive the vectorized engine's cost on the lossy 40k workload."""
    config = NetsimConfig(agents=40_000)
    mega = config.megasim_config()
    population, fire_times, fire_agents, deciders = build_workload(mega)

    def run():
        simulation = FastSimulation(
            AIPoWFramework(fitted_dabr, policy_2()),
            seed=config.seed,
            solve_deciders=deciders,
            tick=config.tick,
            links=config.link_set(),
        )
        return simulation.run_fires(population, fire_times, fire_agents)

    report = benchmark.pedantic(run, iterations=1, rounds=3)
    assert report.requests == fire_times.size
    assert report.link_stats is not None and report.link_stats.lost > 0
    benchmark.extra_info["requests"] = report.requests
    benchmark.extra_info["events"] = report.events_processed
    benchmark.extra_info["link_stats"] = report.link_stats.as_dict()
