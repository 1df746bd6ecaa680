"""Campaign runner: named adversarial workloads that record golden traces.

A campaign composes the repo's building blocks into one reproducible
scenario: a framework recipe (:class:`~repro.core.spec.FrameworkSpec`),
client populations drawn from the built-in traffic profiles, volumetric
attackers (flood / botnet / adaptive) as per-profile solve deciders,
and optionally a *protocol probe* — a replay or pre-computation attack
driven through the same framework after the traffic run, so the trace
also witnesses the protocol defenses.

``run_campaign`` replays the campaign's workload through the
deterministic simulator with a :class:`~repro.replay.TraceRecorder`
attached, so the output is a v2 trace carrying every admission decision
— the golden traces under ``tests/golden/`` are exactly these, recorded
once and replayed forever by the differential harness.

Campaign recipes are replay-safe by construction: behavioural feedback
is disabled (it reacts to solve *outcomes*, which a challenge-only
replay does not reproduce) and policies are deterministic, so the
decision stream is a pure function of the recorded request stream.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping

from repro.attacks import make_attacker
from repro.attacks.protocol_attacks import AttackOutcome
from repro.bench.results import ExperimentResult
from repro.core.errors import ComponentNotFoundError
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.core.spec import FrameworkSpec
from repro.net.sim.links import LINK_PROFILES
from repro.net.sim.simulation import Simulation
from repro.pow.solver import HashSolver
from repro.replay.recorder import TraceRecorder, spec_hash
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import (
    BENIGN_PROFILE,
    MALICIOUS_PROFILE,
    STEALTH_PROFILE,
    ClientProfile,
)
from repro.traffic.trace import Trace

__all__ = [
    "CampaignSpec",
    "CampaignRun",
    "ScaleSpec",
    "CAMPAIGNS",
    "run_campaign",
]

#: Per-kind parameter catalogues a :class:`ScaleSpec` pattern may carry
#: (beyond ``kind``) — a misspelled or inapplicable key would otherwise
#: be silently dropped and the scenario would quietly run on defaults.
_PATTERN_PARAMS: dict[str, frozenset] = {
    "poisson": frozenset({"rate"}),
    "flash": frozenset({"waves", "wave_gap", "jitter"}),
    "pulse": frozenset({"rate", "on_seconds", "off_seconds"}),
    "diurnal": frozenset({"rate", "trough"}),
    "ramp": frozenset({"rate"}),
}

#: Flash-pattern defaults, shared between the duration-fit validator
#: and the schedule builder so the bound being checked is the bound
#: being built.
_FLASH_DEFAULTS = {"waves": 1, "wave_gap": 1.0, "jitter": 0.05}


def _flash_params(pattern: Mapping) -> tuple[int, float, float]:
    """``(waves, wave_gap, jitter)`` with the shared defaults applied."""
    return (
        int(pattern.get("waves", _FLASH_DEFAULTS["waves"])),
        float(pattern.get("wave_gap", _FLASH_DEFAULTS["wave_gap"])),
        float(pattern.get("jitter", _FLASH_DEFAULTS["jitter"])),
    )

_PROFILES: dict[str, ClientProfile] = {
    "benign": BENIGN_PROFILE,
    "malicious": MALICIOUS_PROFILE,
    "stealth": STEALTH_PROFILE,
}

#: Deterministic feature vector for protocol probes (canonical schema
#: keys, values inside the corpus range) — probes need scoreable
#: requests but no ground-truth population behind them.
_PROBE_IP = "110.99.99.99"


@dataclasses.dataclass(frozen=True)
class ScaleSpec:
    """Large-scale parameters routing a campaign onto the fast engine.

    A campaign carrying a ``ScaleSpec`` runs through the vectorized
    :class:`~repro.net.sim.fastsim.FastSimulation` over a
    struct-of-arrays population instead of the object-world simulator:
    no per-client objects, no recorded trace (a million-decision trace
    is an artefact nobody replays), cohorts quantized to ``tick``.

    Parameters
    ----------
    tick:
        Cohort quantization grid in seconds — the calendar queue's
        bucket width.
    patterns:
        ``profile_name -> pattern spec`` mapping choosing each
        population's arrival process: ``{"kind": "poisson" | "flash" |
        "pulse" | "diurnal" | "ramp", ...params}``.  Profiles without
        an entry fire Poisson at their profile request rate.
    server:
        Optional ``(challenge, verify, resource)`` cost triple for a
        hardware-scaled server model; ``None`` keeps the calibrated
        single-box defaults.
    feedback:
        Thread a :class:`~repro.net.sim.fastsim.FastFeedback` offset
        table through scoring — the batch port of behavioural
        feedback, for reward-farming scenarios.
    links:
        ``profile_name -> link profile name`` mapping assigning each
        population an access-network profile from
        :data:`~repro.net.sim.links.LINK_PROFILES` (per-agent RTT,
        loss, shared bandwidth, retries).  Profiles without an entry
        keep the ideal channel-only path.  Two populations naming the
        *same* link profile share one uplink queue — the
        shared-bottleneck case where an attack's volume congests
        benign clients and its own solution submissions.  Under
        ``procs > 1`` each worker owns its own link queues (DESIGN
        §1.8's envelope): per-agent delays still agree bit-for-bit,
        but cross-shard coupling through one bottleneck does not.
    procs:
        Worker-process count for the hash-sharded parallel driver
        (:class:`~repro.net.sim.parsim.ParallelSimulation`).  ``1``
        (the default) keeps the in-process engine; larger values
        partition agents by packed-IP hash across that many workers.
        Overridable from the CLI with ``repro campaign --procs N``.
    """

    tick: float = 0.005
    patterns: Mapping[str, Mapping] = dataclasses.field(
        default_factory=dict
    )
    server: tuple[float, float, float] | None = None
    feedback: bool = False
    links: Mapping[str, str] = dataclasses.field(default_factory=dict)
    procs: int = 1

    def __post_init__(self) -> None:
        if self.tick <= 0:
            raise ValueError(f"tick must be > 0, got {self.tick}")
        if self.procs < 1:
            raise ValueError(f"procs must be >= 1, got {self.procs}")
        for profile_name, link_name in self.links.items():
            if link_name not in LINK_PROFILES:
                raise ValueError(
                    f"unknown link profile {link_name!r} for profile "
                    f"{profile_name!r} (catalogue: "
                    f"{', '.join(sorted(LINK_PROFILES))})"
                )
        for profile_name, pattern in self.patterns.items():
            kind = pattern.get("kind", "poisson")
            if kind not in _PATTERN_PARAMS:
                raise ValueError(
                    f"unknown pattern kind {kind!r} for profile "
                    f"{profile_name!r} (catalogue: "
                    f"{', '.join(sorted(_PATTERN_PARAMS))})"
                )
            unknown = set(pattern) - _PATTERN_PARAMS[kind] - {"kind"}
            if unknown:
                raise ValueError(
                    f"pattern for profile {profile_name!r} carries "
                    f"parameters {sorted(unknown)} that {kind!r} does "
                    f"not accept (catalogue: "
                    f"{sorted(_PATTERN_PARAMS[kind])}) — they would be "
                    "silently ignored"
                )


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """One named, fully deterministic adversarial workload.

    Parameters
    ----------
    name / description:
        Registry key and one-line summary.
    spec:
        Framework recipe every run (and every replay) builds from.
        Must be replay-safe: deterministic policy, feedback off.
    duration / seed:
        Open-loop workload length (seconds) and master seed.
    populations:
        ``(profile_name, client_count)`` pairs over the built-in
        profiles.
    attackers:
        ``profile_name -> attacker spec`` mapping
        (see :func:`repro.attacks.make_attacker`).
    protocol_probe:
        ``"replay"``, ``"precompute"``, or ``None`` — an additional
        protocol-level attack driven through the framework after the
        traffic run.
    scale:
        Optional :class:`ScaleSpec`; when present the campaign runs on
        the vectorized engine (million-agent scenarios) and records no
        trace.
    """

    name: str
    description: str
    spec: FrameworkSpec = dataclasses.field(
        default_factory=lambda: FrameworkSpec(feedback=False)
    )
    duration: float = 4.0
    seed: int = 1234
    populations: tuple[tuple[str, int], ...] = (("benign", 10),)
    attackers: Mapping[str, Mapping] = dataclasses.field(
        default_factory=dict
    )
    protocol_probe: str | None = None
    scale: ScaleSpec | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not self.populations:
            raise ValueError("campaign needs at least one population")
        for profile_name, count in self.populations:
            if profile_name not in _PROFILES:
                raise ValueError(
                    f"unknown profile {profile_name!r}; "
                    f"builtins: {sorted(_PROFILES)}"
                )
            if count < 1:
                raise ValueError(
                    f"population count must be >= 1, got {count}"
                )
        population_names = {name for name, _ in self.populations}
        for attacker_profile in self.attackers:
            if attacker_profile not in population_names:
                raise ValueError(
                    f"attacker profile {attacker_profile!r} matches no "
                    f"population (have: {sorted(population_names)}) — "
                    "a typo here would silently record an attack-free "
                    "trace"
                )
        if self.protocol_probe not in (None, "replay", "precompute"):
            raise ValueError(
                f"unknown protocol probe {self.protocol_probe!r}"
            )
        if self.scale is not None:
            for pattern_profile in self.scale.patterns:
                if pattern_profile not in population_names:
                    raise ValueError(
                        f"pattern profile {pattern_profile!r} matches no "
                        f"population (have: {sorted(population_names)})"
                    )
            for link_profile in self.scale.links:
                if link_profile not in population_names:
                    raise ValueError(
                        f"link profile assignment {link_profile!r} "
                        f"matches no population (have: "
                        f"{sorted(population_names)}) — a typo here "
                        "would silently run on an ideal network"
                    )
            if self.protocol_probe is not None:
                raise ValueError(
                    "protocol probes are object-world; large-scale "
                    "campaigns cannot carry one"
                )
            if self.scale.feedback and self.spec.feedback:
                raise ValueError(
                    "scale.feedback models behavioural feedback as an "
                    "array offset table; the framework recipe must use "
                    "feedback=False (a stateful model would force "
                    "framework admission and neither feedback path "
                    "would actually run)"
                )
            for profile_name, pattern in self.scale.patterns.items():
                if pattern.get("kind") != "flash":
                    continue
                # Every other pattern kind is duration-bounded by
                # construction; wave schedules must fit too, or the
                # result would misreport the workload window.
                waves, wave_gap, jitter = _flash_params(pattern)
                last_fire = (waves - 1) * wave_gap + jitter
                if last_fire > self.duration:
                    raise ValueError(
                        f"flash pattern for profile {profile_name!r} "
                        f"fires until t={last_fire:g}s, past the "
                        f"campaign duration of {self.duration:g}s"
                    )

    @property
    def agents(self) -> int:
        """Total client count across populations."""
        return sum(count for _, count in self.populations)


@dataclasses.dataclass
class CampaignRun:
    """Everything one campaign run produced.

    ``trace`` is ``None`` for large-scale (``scale``) campaigns — they
    aggregate outcomes instead of recording per-decision traces.
    """

    spec: CampaignSpec
    trace: Trace | None
    result: ExperimentResult
    probe_outcome: AttackOutcome | None = None


CAMPAIGNS: dict[str, CampaignSpec] = {
    campaign.name: campaign
    for campaign in (
        CampaignSpec(
            name="benign-baseline",
            description="ordinary users only — the no-attack control",
            duration=4.0,
            seed=101,
            populations=(("benign", 12),),
        ),
        CampaignSpec(
            name="flood-burst",
            description="volumetric flood that never solves puzzles",
            duration=2.5,
            seed=202,
            populations=(("benign", 8), ("malicious", 3)),
            attackers={"malicious": {"kind": "flood"}},
        ),
        CampaignSpec(
            name="botnet-siege",
            description="solving botnet with a per-bot difficulty budget",
            spec=FrameworkSpec(policy="policy-1", feedback=False),
            duration=2.5,
            seed=303,
            populations=(("benign", 8), ("malicious", 3)),
            attackers={"malicious": {"kind": "botnet", "max_difficulty": 16}},
        ),
        CampaignSpec(
            name="stealth-adaptive",
            description="cost-aware stealth bots that walk away when "
            "puzzles stop paying",
            duration=3.0,
            seed=404,
            populations=(("benign", 8), ("stealth", 4)),
            attackers={
                "stealth": {"kind": "adaptive", "value_per_request": 0.2}
            },
        ),
        CampaignSpec(
            name="replay-probe",
            description="botnet traffic plus a protocol replay attack "
            "against the verifier's replay cache",
            duration=2.0,
            seed=505,
            populations=(("benign", 6), ("malicious", 2)),
            attackers={"malicious": {"kind": "botnet", "max_difficulty": 14}},
            protocol_probe="replay",
        ),
        CampaignSpec(
            name="precompute-probe",
            description="benign traffic plus a seed-prediction "
            "pre-computation attack",
            duration=2.0,
            seed=606,
            populations=(("benign", 6),),
            protocol_probe="precompute",
        ),
        # ------------------------------------------------------------
        # Large-scale scenarios (vectorized engine; no recorded trace).
        # A hardware-scaled server model (fast challenge/verify paths,
        # 50 us resource cost) stands in for a production box; the
        # calibrated single-machine defaults would turn any
        # million-request burst into a multi-hour queue.
        # ------------------------------------------------------------
        CampaignSpec(
            name="flash-crowd-1m",
            description="one million legitimate users stampede in a "
            "quarter-second wave — the benign overload case",
            duration=5.0,
            seed=710,
            populations=(("benign", 1_000_000),),
            scale=ScaleSpec(
                tick=0.02,
                patterns={
                    "benign": {"kind": "flash", "waves": 1, "jitter": 0.25}
                },
                server=(1e-5, 5e-6, 5e-5),
            ),
        ),
        CampaignSpec(
            name="flash-crowd-100k",
            description="hundred-thousand-user flash crowd in two "
            "waves — the CI-sized sibling of flash-crowd-1m",
            duration=4.0,
            seed=711,
            populations=(("benign", 100_000),),
            scale=ScaleSpec(
                tick=0.01,
                patterns={
                    "benign": {
                        "kind": "flash",
                        "waves": 2,
                        "wave_gap": 1.5,
                        "jitter": 0.1,
                    }
                },
                server=(1e-5, 5e-6, 5e-5),
            ),
        ),
        CampaignSpec(
            name="flash-crowd-4m",
            description="four million users stampede in one wave, "
            "hash-sharded across four worker processes — the "
            "multi-core campaign (tune workers with --procs)",
            duration=5.0,
            seed=717,
            populations=(("benign", 4_000_000),),
            scale=ScaleSpec(
                tick=0.02,
                patterns={
                    "benign": {"kind": "flash", "waves": 1, "jitter": 0.5}
                },
                server=(1e-5, 5e-6, 5e-5),
                procs=4,
            ),
        ),
        CampaignSpec(
            name="pulse-botnet-100k",
            description="100k-bot botnet pulsing in on/off waves over "
            "a steady benign population",
            spec=FrameworkSpec(policy="policy-1", feedback=False),
            duration=4.0,
            seed=712,
            populations=(("benign", 20_000), ("malicious", 100_000)),
            attackers={"malicious": {"kind": "botnet", "max_difficulty": 16}},
            scale=ScaleSpec(
                tick=0.005,
                patterns={
                    "malicious": {
                        "kind": "pulse",
                        "rate": 3.0,
                        "on_seconds": 0.5,
                        "off_seconds": 1.0,
                    }
                },
                server=(1e-5, 5e-6, 5e-5),
            ),
        ),
        CampaignSpec(
            name="diurnal-stealth-mix",
            description="diurnal benign load with a stealth adaptive "
            "botnet hiding in the daily rhythm",
            duration=6.0,
            seed=713,
            populations=(("benign", 150_000), ("stealth", 10_000)),
            attackers={
                "stealth": {"kind": "adaptive", "value_per_request": 0.2}
            },
            scale=ScaleSpec(
                tick=0.005,
                patterns={
                    "benign": {
                        "kind": "diurnal",
                        "rate": 1.0,
                        "trough": 0.1,
                    },
                    "stealth": {"kind": "poisson", "rate": 5.0},
                },
                server=(1e-5, 5e-6, 5e-5),
            ),
        ),
        CampaignSpec(
            name="poison-ramp-250k",
            description="50k bots farm behavioural-feedback rewards "
            "on a linear ramp under 200k benign users — the "
            "feedback-poisoning case (array-form offsets)",
            duration=5.0,
            seed=714,
            populations=(("benign", 200_000), ("malicious", 50_000)),
            attackers={"malicious": {"kind": "botnet", "max_difficulty": 20}},
            scale=ScaleSpec(
                tick=0.01,
                patterns={
                    "benign": {"kind": "poisson", "rate": 0.3},
                    "malicious": {"kind": "ramp", "rate": 4.0},
                },
                server=(1e-5, 5e-6, 5e-5),
                feedback=True,
            ),
        ),
        # ------------------------------------------------------------
        # Lossy-network scenarios (scale campaigns + link substrate).
        # ------------------------------------------------------------
        CampaignSpec(
            name="mobile-flash-crowd",
            description="10k mobile users flash-crowd through a lossy "
            "high-RTT access network — retries and loss reshape the "
            "arrival process before admission ever sees it",
            duration=4.0,
            seed=715,
            populations=(("benign", 10_000),),
            scale=ScaleSpec(
                tick=0.005,
                patterns={
                    "benign": {
                        "kind": "flash",
                        "waves": 2,
                        "wave_gap": 1.5,
                        "jitter": 0.2,
                    }
                },
                server=(1e-5, 5e-6, 5e-5),
                links={"benign": "lossy-mobile"},
            ),
        ),
        CampaignSpec(
            name="congestion-coupled-flood",
            description="a pulsing botnet shares one bandwidth-capped "
            "uplink with benign users — the flood congests the victims "
            "*and* the bots' own solution submissions",
            spec=FrameworkSpec(policy="policy-1", feedback=False),
            duration=3.0,
            seed=716,
            populations=(("benign", 20_000), ("malicious", 40_000)),
            attackers={"malicious": {"kind": "botnet", "max_difficulty": 16}},
            scale=ScaleSpec(
                tick=0.005,
                patterns={
                    "malicious": {
                        "kind": "pulse",
                        "rate": 3.0,
                        "on_seconds": 0.5,
                        "off_seconds": 1.0,
                    }
                },
                server=(1e-5, 5e-6, 5e-5),
                # Same link profile name on both populations = one
                # shared uplink queue (see ScaleSpec.links).
                links={
                    "benign": "congested-uplink",
                    "malicious": "congested-uplink",
                },
            ),
        ),
    )
}


def run_campaign(
    campaign: CampaignSpec | str,
    *,
    record_path=None,
    tracer=None,
    snapshot_path=None,
) -> CampaignRun:
    """Run ``campaign`` through the simulator, recording every decision.

    Returns the run (including the recorded v2 trace); when
    ``record_path`` is given the trace is also written there.  An
    optional :class:`~repro.obs.tracing.RequestTracer` rides on the
    framework's event bus and samples per-request spans (callback
    campaigns only: the vectorized engine emits no per-request
    events).  ``snapshot_path`` turns on the periodic registry
    snapshot writer (scale campaigns only: that is where the
    phase-timing and link registries live).
    """
    if isinstance(campaign, str):
        try:
            campaign = CAMPAIGNS[campaign]
        except KeyError:
            raise ComponentNotFoundError(
                "campaign", campaign, tuple(sorted(CAMPAIGNS))
            ) from None

    if campaign.scale is not None:
        if record_path is not None:
            raise ValueError(
                f"campaign {campaign.name!r} is large-scale: it "
                "aggregates outcomes instead of recording a "
                "per-decision trace"
            )
        if tracer is not None:
            raise ValueError(
                f"campaign {campaign.name!r} is large-scale: the "
                "vectorized engine emits no per-request events for a "
                "tracer to sample"
            )
        if snapshot_path is not None and campaign.scale.procs > 1:
            raise ValueError(
                f"campaign {campaign.name!r} runs {campaign.scale.procs} "
                "worker processes: the periodic snapshot writer samples "
                "the in-process engine, which a parallel run never "
                "builds — use --procs 1 for live snapshots"
            )
        return _run_scale_campaign(campaign, snapshot_path=snapshot_path)
    if snapshot_path is not None:
        raise ValueError(
            f"campaign {campaign.name!r} is not large-scale: metric "
            "snapshots cover the vectorized engine's phase and link "
            "registries (scale campaigns only)"
        )

    generator = WorkloadGenerator(seed=campaign.seed)
    populations = [
        (_PROFILES[name], count) for name, count in campaign.populations
    ]
    workload, clients = generator.mixed_trace(
        populations, duration=campaign.duration
    )
    framework = campaign.spec.build()
    recorder = TraceRecorder(
        sources={
            client.ip: (client.profile.name, client.true_score)
            for client in clients
        }
    ).attach(framework.events)
    if tracer is not None:
        tracer.attach(framework.events)

    solve_deciders = {}
    for profile_name, attacker_spec in campaign.attackers.items():
        solve_deciders[profile_name] = make_attacker(
            attacker_spec
        ).should_solve
    patiences = {
        profile.name: profile.patience for profile, _ in populations
    }
    simulation = Simulation(
        framework,
        seed=campaign.seed ^ 0x5CE4,
        solve_deciders=solve_deciders,
        patiences=patiences,
    )
    report = simulation.run(workload)

    probe_outcome = None
    if campaign.protocol_probe is not None:
        recorder.register_source(_PROBE_IP, "probe", 0.0)
        probe_outcome = _run_probe(
            campaign.protocol_probe,
            framework,
            features=dict(clients[0].features),
            start=campaign.duration + 1.0,
        )

    trace = recorder.trace(
        config_hash=spec_hash(campaign.spec),
        seed=campaign.seed,
        meta={
            "campaign": campaign.name,
            "spec": dataclasses.asdict(campaign.spec),
        },
    )
    if record_path is not None:
        trace.dump_jsonl(record_path)

    notes = [
        f"{report.requests} requests over {campaign.duration:g}s, "
        f"{len(trace)} decisions recorded",
        f"framework recipe hash {spec_hash(campaign.spec)}",
    ]
    if probe_outcome is not None:
        held = "defense held" if not probe_outcome.succeeded else "BREACHED"
        notes.append(
            f"protocol probe {probe_outcome.attack}: {held} — "
            f"{probe_outcome.detail}"
        )
    result = ExperimentResult(
        experiment_id=f"campaign:{campaign.name}",
        title=f"Campaign {campaign.name!r} - {campaign.description}",
        headers=["class", "requests", "goodput", "mean_difficulty"],
        rows=_class_rows(report),
        notes=notes,
        extra={
            "requests": report.requests,
            "served": report.served,
            "decisions": len(trace),
            "probe_succeeded": (
                None if probe_outcome is None else probe_outcome.succeeded
            ),
        },
    )
    return CampaignRun(
        spec=campaign,
        trace=trace,
        result=result,
        probe_outcome=probe_outcome,
    )


# ----------------------------------------------------------------------
# Large-scale campaigns (vectorized engine)
# ----------------------------------------------------------------------
def _build_fires(campaign: CampaignSpec, population, rng):
    """Per-profile fire schedules merged into one SoA workload."""
    import numpy as np

    from repro.net.sim import patterns as pat

    scale = campaign.scale
    schedules = []
    offset = 0
    for (profile_name, count), profile in zip(
        campaign.populations, population.profiles
    ):
        agents = np.arange(offset, offset + count, dtype=np.int64)
        offset += count
        pattern = dict(scale.patterns.get(profile_name, {}))
        kind = pattern.get("kind", "poisson")
        rate = float(pattern.get("rate", profile.request_rate))
        if kind == "flash":
            waves, wave_gap, jitter = _flash_params(pattern)
            schedules.append(
                pat.flash_waves(
                    agents,
                    rng,
                    waves=waves,
                    wave_gap=wave_gap,
                    jitter=jitter,
                )
            )
        elif kind == "pulse":
            schedules.append(
                pat.pulse_fires(
                    agents,
                    rate,
                    campaign.duration,
                    rng,
                    on_seconds=float(pattern.get("on_seconds", 1.0)),
                    off_seconds=float(pattern.get("off_seconds", 4.0)),
                )
            )
        elif kind == "diurnal":
            schedules.append(
                pat.diurnal_fires(
                    agents,
                    rate,
                    campaign.duration,
                    rng,
                    trough=float(pattern.get("trough", 0.15)),
                )
            )
        elif kind == "ramp":
            schedules.append(
                pat.ramp_fires(agents, rate, campaign.duration, rng)
            )
        else:  # poisson
            schedules.append(
                pat.poisson_fires(agents, rate, campaign.duration, rng)
            )
    return pat.merge_schedules(*schedules)


@dataclasses.dataclass
class _ScaleOutcome:
    """What either scale engine hands :func:`_run_scale_campaign`.

    ``wall`` is the engine's own run time (what surrounds it in
    ``run_campaign`` is set-up).  ``parallel`` holds what only a
    sharded run has — ``procs``, ``epoch``, ``shard_requests`` — and is
    ``None`` in process; it is also what names the engine in the notes.
    """

    report: object
    wall: float
    phase_timings: dict
    metrics_snapshot: dict
    feedback_offsets: object
    arrival_batches: int
    largest_arrival_batch: int
    parallel: dict | None = None


def _run_scale_campaign(
    campaign: CampaignSpec, snapshot_path=None
) -> CampaignRun:
    """Run a ``scale`` campaign through the vectorized engine.

    One runner: the workload is minted once, the engine recipe is
    written once (the picklable form the parallel driver ships to its
    workers), ``scale.procs`` picks between running it as one
    in-process engine or as that many worker shards, and the result is
    built from their common :class:`_ScaleOutcome`.
    """
    import numpy as np

    from repro.net.sim.agents import AgentPopulation
    from repro.net.sim.parsim import ParallelSimulation, render_phase_summary

    scale = campaign.scale
    population = AgentPopulation.make(
        [
            (_PROFILES[name], count)
            for name, count in campaign.populations
        ],
        seed=campaign.seed,
    )
    rng = np.random.default_rng(campaign.seed ^ 0x3AB)
    fires = _build_fires(campaign, population, rng)
    recipe = ParallelSimulation(
        campaign.spec,
        procs=scale.procs,
        seed=campaign.seed ^ 0x5CE4,
        server=scale.server,
        attacker_specs=campaign.attackers,
        hash_rates={p.name: p.hash_rate for p in population.profiles},
        patiences={p.name: p.patience for p in population.profiles},
        tick=scale.tick,
        links=scale.links,
        links_seed=campaign.seed ^ 0x11AB,
        feedback=scale.feedback,
    )
    if scale.procs > 1:
        outcome = _scale_parallel(recipe, population, fires)
    else:
        outcome = _scale_in_process(recipe, population, fires, snapshot_path)

    report, wall, parallel = outcome.report, outcome.wall, outcome.parallel
    events_per_second = (
        report.events_processed / wall if wall > 0 else 0.0
    )
    engine, workers, phases = "vectorized engine", "", "phase timing"
    if parallel is not None:
        engine, phases = "parallel engine", "phase timing (all workers)"
        workers = (
            f"{parallel['procs']} workers x {parallel['epoch']:g}s epochs, "
        )
    notes = [
        f"{campaign.agents:,} agents, {report.requests:,} requests over "
        f"{campaign.duration:g}s simulated",
        f"{engine}: {wall:.2f}s wall, "
        f"{events_per_second:,.0f} events/s, {workers}"
        f"{outcome.arrival_batches} arrival cohorts "
        f"(largest {outcome.largest_arrival_batch:,}), "
        f"tick {scale.tick:g}s",
        f"framework recipe hash {spec_hash(campaign.spec)}",
        f"{phases}: {render_phase_summary(outcome.phase_timings)}",
    ]
    if parallel is not None:
        notes.insert(
            2,
            "shard requests: "
            + ", ".join(f"{n:,}" for n in parallel["shard_requests"]),
        )
    if report.link_stats is not None:
        notes.append(f"network: {report.link_stats.summary()}")
    if outcome.feedback_offsets is not None:
        farming = _farming_note(
            campaign, population, outcome.feedback_offsets
        )
        if farming is not None:
            notes.append(farming)
    result = ExperimentResult(
        experiment_id=f"campaign:{campaign.name}",
        title=f"Campaign {campaign.name!r} - {campaign.description}",
        headers=["class", "requests", "goodput", "mean_difficulty"],
        rows=_class_rows(report),
        notes=notes,
        extra={
            "agents": campaign.agents,
            "requests": report.requests,
            "served": report.served,
            "events": report.events_processed,
            "wall_seconds": wall,
            "events_per_second": events_per_second,
            **(parallel or {}),
            "phase_timings": outcome.phase_timings,
            "metrics_snapshot": outcome.metrics_snapshot,
            **(
                {"link_stats": report.link_stats.as_dict()}
                if report.link_stats is not None
                else {}
            ),
        },
    )
    return CampaignRun(
        spec=campaign, trace=None, result=result, probe_outcome=None
    )


def _scale_in_process(
    recipe, population, fires, snapshot_path
) -> _ScaleOutcome:
    """The recipe as one engine over the whole population (its only shard)."""
    from repro.net.sim.fastsim import FastFeedback
    from repro.net.sim.parsim import build_shard_simulation
    from repro.obs.registry import MetricsRegistry

    simulation = build_shard_simulation(recipe, seed=recipe.seed)
    phase_timer = simulation.phase_timer
    feedback = FastFeedback(len(population)) if recipe.feedback else None

    def _snapshot() -> dict:
        # The run mutates phase_timer and the link stats in place;
        # publishing them into a fresh registry per snapshot gives the
        # writer monotone counters without double-counting — and the
        # run-end snapshot is the same call.
        live = MetricsRegistry()
        phase_timer.publish(live)
        if simulation.link_stats is not None:
            simulation.link_stats.publish(live)
        return live.snapshot()

    writer = None
    if snapshot_path is not None:
        from repro.obs.http import SnapshotWriter

        writer = SnapshotWriter(snapshot_path, _snapshot).start()
    started = time.perf_counter()
    try:
        report = simulation.run_fires(population, *fires, feedback=feedback)
    finally:
        wall = time.perf_counter() - started
        if writer is not None:
            writer.close()
    return _ScaleOutcome(
        report=report,
        wall=wall,
        phase_timings=phase_timer.summary(),
        metrics_snapshot=_snapshot(),
        feedback_offsets=None if feedback is None else feedback.offset,
        arrival_batches=simulation.arrival_batches,
        largest_arrival_batch=simulation.largest_arrival_batch,
    )


def _scale_parallel(recipe, population, fires) -> _ScaleOutcome:
    """The recipe hash-sharded across ``recipe.procs`` worker engines."""
    started = time.perf_counter()
    outcome = recipe.run_fires(population, *fires)
    wall = time.perf_counter() - started
    return _ScaleOutcome(
        report=outcome.report,
        wall=wall,
        phase_timings=outcome.phase_summary(),
        metrics_snapshot=outcome.metrics_snapshot,
        feedback_offsets=outcome.feedback_offsets,
        arrival_batches=outcome.arrival_batches,
        largest_arrival_batch=outcome.largest_arrival_batch,
        parallel={
            "procs": recipe.procs,
            "epoch": outcome.epoch,
            "shard_requests": list(outcome.shard_requests),
        },
    )


def _class_rows(report) -> list[list]:
    """Per-class result rows, shared by every campaign engine."""
    rows = []
    for cls in report.metrics.class_names():
        metrics = report.metrics.for_class(cls)
        rows.append(
            [
                cls,
                metrics.total,
                metrics.goodput_fraction,
                metrics.difficulties.mean,
            ]
        )
    return rows


def _farming_note(campaign, population, offsets) -> str | None:
    """The feedback reward-farming summary line, or ``None``.

    "Farming" means the *attackers* earning reward offsets; benign
    clients accumulate them too simply by being served, so count only
    agents from attacker-backed profiles.
    """
    import numpy as np

    attacker_ids = [
        pid
        for pid, profile in enumerate(population.profiles)
        if profile.name in campaign.attackers
    ]
    attacker_mask = np.isin(population.profile_id, attacker_ids)
    attacker_offsets = offsets[attacker_mask]
    if not attacker_offsets.size:
        return None
    farmed = int(np.sum(attacker_offsets < -1e-12))
    return (
        f"feedback offsets farmed by {farmed:,} of "
        f"{attacker_offsets.size:,} attacking clients "
        f"(attacker mean offset {float(attacker_offsets.mean()):+.3f}, "
        f"population mean {float(offsets.mean()):+.3f})"
    )


# ----------------------------------------------------------------------
# Protocol probes
# ----------------------------------------------------------------------
def _probe_request(features: Mapping, at: float) -> ClientRequest:
    return ClientRequest(
        client_ip=_PROBE_IP,
        resource="/probe",
        timestamp=at,
        features=features,
        request_id="",  # the recorder assigns rec-N ids
    )


def _run_probe(
    kind: str,
    framework: AIPoWFramework,
    *,
    features: Mapping,
    start: float,
) -> AttackOutcome:
    """Drive a protocol attack through the framework's own pipeline.

    Unlike :mod:`repro.attacks.protocol_attacks` (which attack a bare
    generator/verifier pair), the probes here go through
    ``challenge``/``redeem`` so every probe admission lands in the
    recorded trace too.
    """
    solver = HashSolver()
    if kind == "replay":
        challenge = framework.challenge(
            _probe_request(features, start), now=start
        )
        solution = solver.solve(challenge.puzzle, _PROBE_IP)
        first = framework.redeem(challenge, solution, now=start + 0.05)
        second = framework.redeem(challenge, solution, now=start + 0.10)
        if first.served and second.status.value == "replayed":
            return AttackOutcome(
                "replay",
                False,
                "second redemption rejected as replayed: cache held",
            )
        return AttackOutcome(
            "replay",
            second.served,
            f"first={first.status.value} second={second.status.value}",
        )

    # Pre-computation: observe issued seeds, extrapolate the next one,
    # then check the prediction against a real issuance.
    from repro.attacks.protocol_attacks import PrecomputationAttacker

    observed = []
    for index in range(3):
        challenge = framework.challenge(
            _probe_request(features, start + 0.1 * index),
            now=start + 0.1 * index,
        )
        observed.append(challenge.puzzle.seed)
    predicted = PrecomputationAttacker.predict_next_seed(observed)
    real = framework.challenge(
        _probe_request(features, start + 0.3), now=start + 0.3
    )
    if predicted == real.puzzle.seed:
        return AttackOutcome(
            "precomputation",
            True,
            "seed prediction succeeded: seeds are predictable",
        )
    return AttackOutcome(
        "precomputation",
        False,
        "seed prediction failed: unique unpredictable seeds defeat "
        "pre-computation",
    )
