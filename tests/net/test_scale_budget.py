"""The vectorized engine at scale: oracle aggregates and work counts.

Two seeded workloads, both steady benign Poisson traffic plus a
pulsing botnet: ``megasim`` (100k agents, no links) and ``netsim``
(40k agents behind a lossy mobile access network: hashed RTTs, 2%
loss, exponential-backoff retries).

* **Aggregates** — at a size the callback reference engine
  (:class:`tests.oracle.Simulation`) runs in about a second, both
  engines make the same admission decisions: request counts,
  difficulty extremes exactly, means to accumulation noise.  Per-request
  decision bit-parity is gated per golden trace by
  ``tests/replay/test_fastsim_parity.py``.
* **Cohorts** — why the engine is fast: the callback engine admits
  every request as its own event, while the calendar queue admits the
  gate workload in a pinned number of cohorts.  A change that splits
  cohorts, or adds link crossings, moves these counts on any machine.
* **Report memory** — folding the outcomes into the report costs a
  pinned number of traced bytes per outcome, and leaves the engine's
  outcome buffers empty.
* **Clock reads** — the telemetry contract (DESIGN.md §1.7): with no
  :class:`~repro.obs.registry.PhaseTimer` the engine never reads the
  clock, and with one it reads it exactly twice per timed cohort.

The engine's speed itself is perfbench's ``sim-pulse-botnet`` and
``sim-lossy-link`` workloads.
"""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from repro.attacks import BotnetAttacker
from repro.core.framework import AIPoWFramework
from repro.net.sim import fastsim as fastsim_module
from repro.net.sim import patterns
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.fastsim import FastSimulation
from repro.net.sim.links import LinkSet
from repro.obs.registry import PhaseTimer
from repro.policies.linear import policy_2
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE
from tests.oracle import Simulation
from tests.oracle.simulation import fires_to_trace

SEED = 0xF457
TICK = 0.01
LINK_PROFILE = "lossy-mobile"
LINK_SEED = 0x11AB


def build_workload(agents: int):
    """One second of benign Poisson traffic plus a pulsing botnet.

    80% benign agents firing at 0.5 req/s, 20% bots at 3 req/s in
    0.4 s on/off pulses.  Arrival instants stay scattered, so the
    callback engine sees batches of mostly 1 while the calendar queue
    quantizes the same instants into cohorts.  Returns the population,
    the fire schedule and the deciders both engines share.
    """
    benign_agents = int(agents * 0.8)
    population = AgentPopulation.make(
        [
            (BENIGN_PROFILE, benign_agents),
            (MALICIOUS_PROFILE, agents - benign_agents),
        ],
        seed=SEED,
    )
    rng = np.random.default_rng(SEED ^ 0x9E37)
    fire_times, fire_agents = patterns.merge_schedules(
        patterns.poisson_fires(
            np.arange(benign_agents, dtype=np.int64), 0.5, 1.0, rng
        ),
        patterns.pulse_fires(
            np.arange(benign_agents, agents, dtype=np.int64),
            3.0,
            1.0,
            rng,
            on_seconds=0.4,
            off_seconds=0.4,
        ),
    )
    deciders = {MALICIOUS_PROFILE.name: BotnetAttacker(max_difficulty=16)}
    return population, fire_times, fire_agents, deciders


def lossy_links() -> LinkSet:
    """Both populations ride the same loss/RTT-only access profile.

    No bandwidth cap: loss draws are hashed from request ids and retry
    schedules are exact float arithmetic, so the requests reaching
    admission are the same on both engines even under tick
    quantization (DESIGN.md §1.6).
    """
    return LinkSet(
        {
            BENIGN_PROFILE.name: LINK_PROFILE,
            MALICIOUS_PROFILE.name: LINK_PROFILE,
        },
        seed=LINK_SEED,
    )


@pytest.fixture(scope="module")
def model():
    train, _ = generate_corpus(size=4000, seed=7).split()
    return DAbRModel().fit(train)


def run_fast(model, agents: int, links=None, timer=None):
    """``(engine, report)`` of one seeded fastsim run."""
    population, fire_times, fire_agents, deciders = build_workload(agents)
    simulation = FastSimulation(
        AIPoWFramework(model, policy_2()),
        seed=SEED,
        solve_deciders=deciders,
        hash_rates={p.name: p.hash_rate for p in population.profiles},
        patiences={p.name: p.patience for p in population.profiles},
        tick=TICK,
        links=links,
        phase_timer=timer,
    )
    report = simulation.run_fires(population, fire_times, fire_agents)
    assert report.requests == fire_times.size
    return simulation, report


def run_callback(model, agents: int, links=None):
    population, fire_times, fire_agents, deciders = build_workload(agents)
    return Simulation(
        AIPoWFramework(model, policy_2()),
        seed=SEED,
        solve_deciders={
            name: decider.should_solve for name, decider in deciders.items()
        },
        hash_rates={p.name: p.hash_rate for p in population.profiles},
        patiences={p.name: p.patience for p in population.profiles},
        links=links,
    ).run(fires_to_trace(population, fire_times, fire_agents))


def assert_same_decisions(callback, fast) -> None:
    """Counts and extremes exactly; means within accumulation noise.

    The engines fold identical decision values through different
    accumulation orders (sequential Welford vs numpy block merges), so
    means agree to ~1e-12, not bit for bit.
    """
    left, right = callback.metrics.overall, fast.metrics.overall
    assert left.total == right.total
    assert left.difficulties.min == right.difficulties.min
    assert left.difficulties.max == right.difficulties.max
    assert math.isclose(
        left.difficulties.mean, right.difficulties.mean, rel_tol=1e-9
    )
    assert math.isclose(left.scores.mean, right.scores.mean, rel_tol=1e-9)


class TestOracleAggregates:
    def test_megasim_decisions_match_the_callback_engine(self, model):
        _, fast = run_fast(model, 5_000)
        assert_same_decisions(run_callback(model, 5_000), fast)

    def test_netsim_decisions_match_the_callback_engine(self, model):
        _, fast = run_fast(model, 5_000, links=lossy_links())
        callback = run_callback(model, 5_000, links=lossy_links())
        assert_same_decisions(callback, fast)
        # Request-leg outcomes are hash-keyed and exact on both
        # engines; solution-leg crossings are solve-timing-coupled and
        # agree only statistically (DESIGN.md §1.6).
        assert fast.link_stats.request_give_ups == (
            callback.link_stats.request_give_ups
        )
        assert fast.link_stats.lost > 0


class TestCohortBudget:
    def test_megasim_gate_workload_admits_in_101_cohorts(self, model):
        """75,910 requests, one admission call per 10 ms tick."""
        simulation, report = run_fast(model, 100_000)
        assert report.requests == 75_910
        assert simulation.arrival_batches == 101
        assert simulation.largest_arrival_batch == 1_064

    def test_netsim_gate_workload_cohorts_and_crossings(self, model):
        """Retries scatter arrivals, so cohorts are more and smaller."""
        simulation, report = run_fast(model, 40_000, links=lossy_links())
        assert report.requests == 30_534
        assert simulation.arrival_batches == 887
        assert simulation.largest_arrival_batch == 321
        stats = report.link_stats
        assert stats.crossings == 62_315
        assert (stats.lost, stats.retries, stats.queue_dropped) == (
            1_247, 1_247, 0
        )


class TestReportMemory:
    def test_megasim_report_fill_holds_one_column_above_its_buffers(
        self, model, monkeypatch
    ):
        """Traced bytes per outcome allocated and held inside the fill.

        Tracing starts as ``fill`` is entered, so the peak counts only
        what the fold allocates above its entry level.  Measured 50.6 B
        per outcome: the retained float64 samples (8 B each in the
        class's and the overall latencies and served latencies, so
        32 B per served outcome), one joined column and the
        statistics' temporaries.  Pinned at 64 B (~25% slack).  Samples
        kept as Python floats read 145 B, a ``tolist()`` on the way in
        74 B, joining every status's overall part, all four columns,
        before folding 83 B, and the list-backed fill that joined the report per class and
        again overall 200 B.
        """
        fill = fastsim_module._OutcomeBuffers.fill
        seen = {}

        def traced_fill(buffers, collector):
            tracemalloc.start()
            try:
                collector = fill(buffers, collector)
                seen["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            seen["outcomes"], seen["left"] = buffers.count, buffers._chunks
            return collector

        monkeypatch.setattr(
            fastsim_module._OutcomeBuffers, "fill", traced_fill
        )
        _, report = run_fast(model, 100_000)
        assert seen["outcomes"] == report.metrics.overall.total == 75_910
        assert seen["left"] == {}
        assert seen["peak"] <= 64 * seen["outcomes"]


class CountingClock:
    """Stand-in for ``time.perf_counter`` that counts its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return time.monotonic()


def test_fastsim_telemetry_off_is_uninstrumented(monkeypatch, model):
    """With no phase timer the engine never even reads the clock.

    The exact formulation of "the instrumented-off hot path is
    unchanged": zero ``perf_counter`` calls during the run, so there
    is nothing left to measure, on any machine.  ``fastsim`` is the
    only simulation-side user of ``perf_counter``, so the global patch
    observes exactly the dispatch loop's reads.
    """
    clock = CountingClock()
    monkeypatch.setattr(fastsim_module.time, "perf_counter", clock)
    run_fast(model, 5_000)
    assert clock.calls == 0

    run_fast(model, 5_000, timer=PhaseTimer())
    assert clock.calls > 0


def test_phase_timer_reads_the_clock_twice_per_timed_cohort(
    monkeypatch, model
):
    """The timer's whole cost: one read before and one after a phase."""
    clock = CountingClock()
    monkeypatch.setattr(fastsim_module.time, "perf_counter", clock)
    timer = PhaseTimer()
    simulation, _ = run_fast(model, 5_000, timer=timer)
    assert timer.cohorts == {"arrive": 101, "fifo": 522, "solve": 421}
    assert timer.cohorts["arrive"] == simulation.arrival_batches
    assert clock.calls == 2 * sum(timer.cohorts.values()) == 2_088
