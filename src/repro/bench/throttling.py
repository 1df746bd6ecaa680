"""Experiment `throttle`: "effectively throttles untrustworthy traffic".

The abstract's headline claim.  We replay the same mixed
benign-plus-botnet workload through the full simulator under three
server configurations:

1. **no-defense** — the server serves every request directly;
2. **uniform-pow** — classic PoW: one fixed difficulty for everyone
   (the "current state of the art" the paper criticises);
3. **ai-pow** — the paper's framework (DAbR + Policy 2).

Reported per class: goodput fraction, served-request rate, and median
served latency.  The paper's claim holds when the AI-assisted column
shows benign latency close to the no-defense baseline while the
attacker's served rate collapses — unlike uniform PoW, which taxes both
classes equally.
"""

from __future__ import annotations

import dataclasses

from repro.attacks.botnet import BotnetAttacker
from repro.bench.results import ExperimentResult
from repro.core.framework import AIPoWFramework
from repro.policies.linear import policy_2
from repro.policies.table import FixedPolicy
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus
from repro.reputation.ensemble import ConstantModel
from repro.net.sim.fastsim import FastSimulation, SimulationReport
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE

__all__ = ["ThrottlingConfig", "ThrottlingOutcome", "run_throttling"]


@dataclasses.dataclass(frozen=True, slots=True)
class ThrottlingConfig:
    """Parameters of the throttling experiment."""

    benign_clients: int = 25
    attacker_bots: int = 15
    duration: float = 30.0
    uniform_difficulty: int = 10
    corpus_size: int = 4000
    corpus_seed: int = 7
    workload_seed: int = 42
    sim_seed: int = 1234
    attacker_max_difficulty: int = 18

    def __post_init__(self) -> None:
        if self.benign_clients < 1 or self.attacker_bots < 1:
            raise ValueError("need at least one client of each class")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")


@dataclasses.dataclass
class ThrottlingOutcome:
    """Per-configuration simulation reports, keyed by setup name."""

    reports: dict[str, SimulationReport]
    config: ThrottlingConfig

    def row_for(self, setup: str, cls: str) -> list:
        report = self.reports[setup]
        metrics = report.metrics.for_class(cls)
        served_rate = (
            metrics.served / report.duration if report.duration else 0.0
        )
        median_ms = (
            metrics.served_latencies.median() * 1000.0
            if len(metrics.served_latencies)
            else float("nan")
        )
        return [
            setup,
            cls,
            metrics.total,
            metrics.goodput_fraction,
            served_rate,
            median_ms,
        ]


def _simulate(
    setup: str,
    config: ThrottlingConfig,
    framework: AIPoWFramework,
    pow_enabled: bool,
) -> SimulationReport:
    generator = WorkloadGenerator(seed=config.workload_seed)
    trace, _ = generator.mixed_trace(
        [
            (BENIGN_PROFILE, config.benign_clients),
            (MALICIOUS_PROFILE, config.attacker_bots),
        ],
        duration=config.duration,
    )
    attacker = BotnetAttacker(max_difficulty=config.attacker_max_difficulty)
    simulation = FastSimulation(
        framework,
        seed=config.sim_seed,
        pow_enabled=pow_enabled,
        solve_deciders={MALICIOUS_PROFILE.name: attacker.should_solve},
        patiences={
            BENIGN_PROFILE.name: BENIGN_PROFILE.patience,
            MALICIOUS_PROFILE.name: MALICIOUS_PROFILE.patience,
        },
    )
    return simulation.run(trace)


def run_throttling(config: ThrottlingConfig | None = None) -> ExperimentResult:
    """Run the three-setup comparison and tabulate per-class outcomes."""
    config = config or ThrottlingConfig()
    train, _ = generate_corpus(
        size=config.corpus_size, seed=config.corpus_seed
    ).split()
    dabr = DAbRModel().fit(train)

    setups = {
        "no-defense": (
            AIPoWFramework(ConstantModel(0.0), FixedPolicy(0)),
            False,
        ),
        "uniform-pow": (
            AIPoWFramework(
                ConstantModel(0.0), FixedPolicy(config.uniform_difficulty)
            ),
            True,
        ),
        "ai-pow": (AIPoWFramework(dabr, policy_2()), True),
    }

    outcome = ThrottlingOutcome(reports={}, config=config)
    rows = []
    for setup, (framework, pow_enabled) in setups.items():
        outcome.reports[setup] = _simulate(
            setup, config, framework, pow_enabled
        )
        for cls in ("benign", "malicious"):
            rows.append(outcome.row_for(setup, cls))

    ai = outcome.reports["ai-pow"]
    benign_ms = ai.metrics.for_class("benign").served_latencies
    malicious = ai.metrics.for_class("malicious")
    notes = [
        "paper claim: the framework throttles untrustworthy traffic while "
        "authentic requests stay fast",
        (
            f"ai-pow: benign median {benign_ms.median() * 1000:.0f} ms, "
            f"malicious goodput {malicious.goodput_fraction:.0%}"
            if len(benign_ms)
            else "ai-pow produced no served benign traffic (unexpected)"
        ),
    ]
    extra = {
        setup: {
            cls: {
                "goodput": report.metrics.for_class(cls).goodput_fraction,
                "served": report.metrics.for_class(cls).served,
                "total": report.metrics.for_class(cls).total,
            }
            for cls in ("benign", "malicious")
        }
        for setup, report in outcome.reports.items()
    }
    return ExperimentResult(
        experiment_id="throttle",
        title="Throttling - per-class outcomes under three server setups",
        headers=[
            "setup", "class", "requests", "goodput",
            "served_per_s", "median_served_ms",
        ],
        rows=rows,
        notes=notes,
        extra=extra,
    )
