"""Bench: telemetry overhead on the paths the paper's numbers come from.

The observability layer's cost contract (DESIGN.md §1.7): with
telemetry off the hot paths are *unchanged* — not merely fast, but
structurally uninstrumented — and the opt-in configurations stay
cheap: the fastsim phase timer within 3% and 1-in-100 request tracing
within 10%.

Wall-clock ratios on shared CI runners are noisy (this suite has seen
±20% drift between adjacent identical runs), so each timing gate runs
interleaved off/on pairs and asserts the *best* pair meets the bound —
a regression that slows the instrumented path for real moves every
pair, while scheduler noise cannot fake a fast one.  The structural
off-path gates are exact and noise-free.  The pytest-benchmark
variants archive absolute instrumented costs for the nightly
regression check (BENCH_baseline.json).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.megasim import MegasimConfig, build_workload
from repro.core.framework import AIPoWFramework
from repro.net.gateway.loadgen import LoadGenerator
from repro.net.gateway.server import GatewayServer
from repro.net.sim import fastsim as fastsim_module
from repro.net.sim.fastsim import FastSimulation
from repro.obs.registry import PhaseTimer
from repro.obs.tracing import RequestTracer
from repro.policies.linear import policy_1, policy_2
from repro.reputation.dataset import generate_corpus

PHASE_TIMER_MAX_RATIO = 1.03
TRACING_MIN_THROUGHPUT_FRACTION = 0.90
PAIRS = 5

CONNECTIONS = 64
REQUESTS_PER_CONNECTION = 2


@pytest.fixture(scope="module")
def mega_workload(fitted_dabr):
    config = MegasimConfig(agents=100_000)
    population, fire_times, fire_agents, deciders = build_workload(config)
    return config, population, fire_times, fire_agents, deciders


@pytest.fixture(scope="module")
def features():
    _, test = generate_corpus(size=4000, seed=7).split()
    return dict(test[0].features)


def simulate(fitted_dabr, workload, timer=None):
    config, population, fire_times, fire_agents, deciders = workload
    simulation = FastSimulation(
        AIPoWFramework(fitted_dabr, policy_2()),
        seed=config.seed,
        solve_deciders=deciders,
        tick=config.tick,
        phase_timer=timer,
    )
    report = simulation.run_fires(population, fire_times, fire_agents)
    assert report.requests == fire_times.size
    return report


def run_fastsim(fitted_dabr, workload, timer=None) -> float:
    started = time.perf_counter()
    simulate(fitted_dabr, workload, timer=timer)
    return time.perf_counter() - started


class CountingClock:
    """Stand-in for ``time.perf_counter`` that counts its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return time.monotonic()


@pytest.fixture(scope="module")
def fastsim_smoke_workload(fitted_dabr):
    config = MegasimConfig(agents=5_000)
    population, fire_times, fire_agents, deciders = build_workload(config)
    return config, population, fire_times, fire_agents, deciders


def test_fastsim_telemetry_off_is_uninstrumented(
    monkeypatch, fitted_dabr, fastsim_smoke_workload
):
    """With no phase timer the engine never even reads the clock.

    The exact formulation of "the instrumented-off hot path is
    unchanged": zero ``perf_counter`` calls during the run, so there
    is nothing left to measure, on any machine.  ``fastsim`` is the
    only simulation-side user of ``perf_counter``, so the global patch
    observes exactly the dispatch loop's reads.
    """
    clock = CountingClock()
    monkeypatch.setattr(fastsim_module.time, "perf_counter", clock)
    simulate(fitted_dabr, fastsim_smoke_workload)
    assert clock.calls == 0

    simulate(fitted_dabr, fastsim_smoke_workload, timer=PhaseTimer())
    assert clock.calls > 0


def test_fastsim_phase_timer_within_3pct(fitted_dabr, mega_workload):
    """Per-phase timing costs <=3% on the 100k-agent gate workload."""
    run_fastsim(fitted_dabr, mega_workload)  # warm-up
    ratios = []
    for index in range(PAIRS):
        # Alternate which side runs first so monotone machine drift
        # cannot systematically bias one side of the pair.
        if index % 2 == 0:
            off = run_fastsim(fitted_dabr, mega_workload)
            on = run_fastsim(
                fitted_dabr, mega_workload, timer=PhaseTimer()
            )
        else:
            on = run_fastsim(
                fitted_dabr, mega_workload, timer=PhaseTimer()
            )
            off = run_fastsim(fitted_dabr, mega_workload)
        ratios.append(on / off)
    assert min(ratios) <= PHASE_TIMER_MAX_RATIO, (
        f"phase timer never within {PHASE_TIMER_MAX_RATIO:.0%} of the "
        f"uninstrumented run across {PAIRS} pairs: {ratios}"
    )


def drive_gateway(fitted_dabr, features, tracer=None) -> LoadGenerator:
    server = GatewayServer(
        AIPoWFramework(fitted_dabr, policy_1()), tracer=tracer
    )
    with server:
        return LoadGenerator(
            server.address,
            connections=CONNECTIONS,
            requests_per_connection=REQUESTS_PER_CONNECTION,
            features=features,
        ).run()


def test_gateway_tracing_1in100_within_10pct(fitted_dabr, features):
    """1-in-100 sampled tracing keeps >=90% of untraced throughput."""
    drive_gateway(fitted_dabr, features)  # warm-up
    total = CONNECTIONS * REQUESTS_PER_CONNECTION
    fractions = []
    for _ in range(PAIRS):
        plain = drive_gateway(fitted_dabr, features)
        traced = drive_gateway(
            fitted_dabr, features, tracer=RequestTracer(sample_every=100)
        )
        assert plain.served == total, plain
        assert traced.served == total, traced
        fractions.append(traced.throughput / plain.throughput)
    assert max(fractions) >= TRACING_MIN_THROUGHPUT_FRACTION, (
        f"traced gateway never reached "
        f"{TRACING_MIN_THROUGHPUT_FRACTION:.0%} of untraced throughput "
        f"across {PAIRS} pairs: {fractions}"
    )


def test_fastsim_100k_agents_phase_timed(
    benchmark, fitted_dabr, mega_workload
):
    """Archive the instrumented engine's cost on the gate workload."""
    timers: list[PhaseTimer] = []

    def run():
        timer = PhaseTimer()
        timers.append(timer)
        return run_fastsim(fitted_dabr, mega_workload, timer=timer)

    benchmark.pedantic(run, iterations=1, rounds=3)
    summary = timers[-1].summary()
    assert summary, "phase timer recorded nothing"
    benchmark.extra_info["phases"] = {
        phase: row["seconds"] for phase, row in summary.items()
    }


def test_live_gateway_throughput_traced(benchmark, fitted_dabr, features):
    """Archive the gateway's round-trip cost with 1-in-100 tracing."""
    report = benchmark.pedantic(
        lambda: drive_gateway(
            fitted_dabr, features, tracer=RequestTracer(sample_every=100)
        ),
        rounds=1,
        iterations=1,
    )
    assert report.served == CONNECTIONS * REQUESTS_PER_CONNECTION
    benchmark.extra_info["rps"] = report.throughput
