"""The `netsim` gate: lossy-link simulation throughput, both engines.

The link-substrate sibling of ``benchmarks/megasim.py``: the same
shape of workload (steady benign Poisson traffic plus a pulsing
botnet) is pushed through a lossy mobile access network — per-agent
hashed RTTs, 2% request/solution loss, exponential-backoff retries —
on both the callback reference engine (:class:`tests.oracle.Simulation`)
and the shipped :class:`~repro.net.sim.fastsim.FastSimulation`, and
the run reports each engine's throughput plus the speedup.

The link profile is deliberately loss/RTT-only (no bandwidth cap):
loss draws are hashed from request ids and retry schedules are exact
float arithmetic, so the *set of requests reaching admission* — and
therefore every admission decision — is identical on both engines even
under calendar-queue tick quantization.  A bandwidth-capped queue
would couple exits to tick-quantized arrival instants and break that
exactness; that regime is parity-tested separately at ``tick=None``
(see ``tests/replay/test_links_parity.py`` and DESIGN.md §1.6).

``benchmarks/test_bench_netsim.py`` enforces the speedup floor in the
tier-1 suite; locally the ratio lands well above it.
"""

from __future__ import annotations

import dataclasses
import time

from benchmarks.megasim import (
    MegasimConfig,
    _decision_fingerprint,
    _fingerprints_agree,
    _framework,
    build_workload,
)
from repro.bench.results import ExperimentResult
from repro.net.sim.fastsim import FastSimulation
from repro.net.sim.links import LinkSet, resolve_link_profile
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE
from tests.oracle import Simulation

__all__ = ["NetsimConfig", "run_netsim_throughput"]


@dataclasses.dataclass(frozen=True, slots=True)
class NetsimConfig:
    """Parameters of the netsim throughput experiment.

    The default is the acceptance-gate shape: 40k agents on a lossy
    mobile access network, one second of simulated traffic.  Smaller
    than the megasim gate because the callback reference now pays for
    every retransmission event too.
    """

    agents: int = 40_000
    link_profile: str = "lossy-mobile"
    duration: float = 1.0
    tick: float = 0.01
    seed: int = 0xF457
    link_seed: int = 0x11AB

    def __post_init__(self) -> None:
        if self.agents < 2:
            raise ValueError(f"agents must be >= 2, got {self.agents}")
        if self.duration <= 0 or self.tick <= 0:
            raise ValueError("duration and tick must be > 0")
        profile = resolve_link_profile(self.link_profile)
        if profile.bandwidth is not None:
            raise ValueError(
                f"link profile {self.link_profile!r} is bandwidth-capped; "
                "the netsim gate needs a loss/RTT-only profile so "
                "decisions stay exact under tick quantization"
            )

    def megasim_config(self) -> MegasimConfig:
        return MegasimConfig(
            agents=self.agents,
            duration=self.duration,
            tick=self.tick,
            seed=self.seed,
        )

    def link_set(self) -> LinkSet:
        """Both populations ride the same access-network profile."""
        return LinkSet(
            {
                BENIGN_PROFILE.name: self.link_profile,
                MALICIOUS_PROFILE.name: self.link_profile,
            },
            seed=self.link_seed,
        )


def run_netsim_throughput(
    config: NetsimConfig | None = None,
) -> ExperimentResult:
    """Measure callback vs vectorized lossy-link throughput."""
    config = config or NetsimConfig()
    mega = config.megasim_config()
    population, fire_times, fire_agents, deciders = build_workload(mega)
    patiences = {p.name: p.patience for p in population.profiles}
    hash_rates = {p.name: p.hash_rate for p in population.profiles}

    fast = FastSimulation(
        _framework(mega),
        seed=config.seed,
        solve_deciders=deciders,
        hash_rates=hash_rates,
        patiences=patiences,
        tick=config.tick,
        links=config.link_set(),
    )
    started = time.perf_counter()
    fast_report = fast.run_fires(population, fire_times, fire_agents)
    fast_wall = time.perf_counter() - started

    trace = population.to_trace(fire_times, fire_agents)
    callback = Simulation(
        _framework(mega),
        seed=config.seed,
        solve_deciders={
            name: decider.should_solve for name, decider in deciders.items()
        },
        hash_rates=hash_rates,
        patiences=patiences,
        links=config.link_set(),
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
            "engines disagree on admission decisions under loss: "
            f"{fingerprints[0]} vs {fingerprints[1]}"
        )
    # Request-leg network outcomes are hash-keyed and exact on both
    # engines; solution-leg crossing counts are solve-timing-coupled
    # and only agree statistically (DESIGN.md §1.6).
    fast_stats = fast_report.link_stats
    callback_stats = callback_report.link_stats
    if fast_stats.request_give_ups != callback_stats.request_give_ups:
        raise AssertionError(
            "engines disagree on request-leg link give-ups: "
            f"{callback_stats.as_dict()} vs {fast_stats.as_dict()}"
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
        experiment_id="netsim",
        title=(
            "Vectorized lossy-link substrate - callback engine vs "
            "fastsim over a lossy access network"
        ),
        headers=["engine", "requests", "wall_s", "requests_per_s", "events_per_s"],
        rows=rows,
        notes=[
            f"{config.agents:,} agents behind {config.link_profile!r} "
            "links, identical workload on both engines",
            "admission decisions agree exactly "
            f"(mean difficulty {fingerprints[0]['difficulty_mean']:.3f}); "
            "request-leg loss/retry outcomes are hash-exact too",
            f"fastsim network: {fast_stats.summary()}",
            f"fastsim speedup: {speedup:.1f}x (tick {config.tick:g}s)",
        ],
        extra={
            "speedup": speedup,
            "fast_wall": fast_wall,
            "callback_wall": callback_wall,
            "fast_events_per_s": fast_report.events_processed / fast_wall,
            "decision_fingerprint": fingerprints[0],
            "link_stats": fast_stats.as_dict(),
        },
    )
