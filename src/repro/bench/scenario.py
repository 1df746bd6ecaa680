"""Scenario runner: whole experiments as JSON documents.

The paper's framing is *policy driven*: operators specify behaviour as
data.  This module extends that to the entire experiment — a scenario
document names the model, the policy (full DSL), the client
populations, the attacker behaviour and the simulation parameters, and
:func:`run_scenario` produces the per-class outcome table.  The same
document can be replayed after any code or policy change.

Example document::

    {
      "name": "weekend-flood",
      "duration": 20.0,
      "seed": 99,
      "model": {"kind": "dabr", "corpus_size": 3000, "corpus_seed": 7},
      "policy": {"kind": "linear", "base": 5},
      "populations": [
        {"profile": "benign", "count": 20},
        {"profile": "malicious", "count": 10}
      ],
      "attackers": {"malicious": {"kind": "botnet", "max_difficulty": 18}},
      "pow_enabled": true
    }
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping

from repro.attacks import make_attacker
from repro.bench.results import ExperimentResult
from repro.core.errors import ConfigError
from repro.core.framework import AIPoWFramework
from repro.net.sim.fastsim import FastSimulation
from repro.policies.dsl import build_policy
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus
from repro.reputation.ensemble import ConstantModel
from repro.reputation.knn import KNNReputationModel
from repro.reputation.logistic import LogisticReputationModel
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import (
    BENIGN_PROFILE,
    MALICIOUS_PROFILE,
    STEALTH_PROFILE,
    ClientProfile,
)

__all__ = ["Scenario", "load_scenario", "run_scenario", "run_scenario_json"]

_BUILTIN_PROFILES = {
    "benign": BENIGN_PROFILE,
    "malicious": MALICIOUS_PROFILE,
    "stealth": STEALTH_PROFILE,
}


@dataclasses.dataclass
class Scenario:
    """A parsed, runnable scenario."""

    name: str
    duration: float
    seed: int
    framework: AIPoWFramework
    populations: list[tuple[ClientProfile, int]]
    solve_deciders: dict[str, Any]
    patiences: dict[str, float]
    pow_enabled: bool


def _build_model(spec: Mapping[str, Any]):
    kind = spec.get("kind", "dabr")
    if kind == "constant":
        return ConstantModel(float(spec.get("value", 0.0)))
    corpus = generate_corpus(
        size=int(spec.get("corpus_size", 3000)),
        seed=int(spec.get("corpus_seed", 7)),
    )
    train, _ = corpus.split()
    if kind == "dabr":
        return DAbRModel().fit(train)
    if kind == "knn":
        return KNNReputationModel(k=int(spec.get("k", 15))).fit(train)
    if kind == "logistic":
        return LogisticReputationModel().fit(train)
    raise ConfigError(f"unknown model kind {kind!r}")


def _build_profile(spec: Mapping[str, Any]) -> ClientProfile:
    name = spec.get("profile")
    if isinstance(name, str):
        try:
            return _BUILTIN_PROFILES[name]
        except KeyError:
            raise ConfigError(
                f"unknown profile {name!r}; "
                f"builtins: {sorted(_BUILTIN_PROFILES)}"
            ) from None
    if isinstance(name, Mapping):
        return ClientProfile(**name)
    raise ConfigError(f"population needs a 'profile' name or object: {spec!r}")


def load_scenario(data: Mapping[str, Any]) -> Scenario:
    """Validate and assemble a scenario from a JSON-style mapping."""
    if not isinstance(data, Mapping):
        raise ConfigError("scenario must be a mapping")
    known = {
        "name", "duration", "seed", "model", "policy",
        "populations", "attackers", "pow_enabled",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")

    duration = float(data.get("duration", 20.0))
    if duration <= 0:
        raise ConfigError(f"duration must be > 0, got {duration}")

    populations_spec = data.get("populations")
    if not populations_spec:
        raise ConfigError("scenario needs at least one population")
    populations = []
    patiences: dict[str, float] = {}
    for entry in populations_spec:
        profile = _build_profile(entry)
        count = int(entry.get("count", 1))
        if count < 1:
            raise ConfigError(f"population count must be >= 1, got {count}")
        populations.append((profile, count))
        patiences[profile.name] = profile.patience

    model = _build_model(data.get("model", {"kind": "dabr"}))
    policy = build_policy(data.get("policy", {"kind": "linear", "base": 5}))
    framework = AIPoWFramework(model, policy)

    solve_deciders = {}
    for profile_name, attacker_spec in (data.get("attackers") or {}).items():
        attacker = make_attacker(attacker_spec)
        solve_deciders[profile_name] = attacker.should_solve

    return Scenario(
        name=str(data.get("name", "scenario")),
        duration=duration,
        seed=int(data.get("seed", 1234)),
        framework=framework,
        populations=populations,
        solve_deciders=solve_deciders,
        patiences=patiences,
        pow_enabled=bool(data.get("pow_enabled", True)),
    )


def run_scenario(scenario: Scenario) -> ExperimentResult:
    """Simulate ``scenario`` and tabulate per-class outcomes."""
    generator = WorkloadGenerator(seed=scenario.seed)
    trace, _ = generator.mixed_trace(
        scenario.populations, duration=scenario.duration
    )
    simulation = FastSimulation(
        scenario.framework,
        seed=scenario.seed ^ 0x5CE4,
        pow_enabled=scenario.pow_enabled,
        solve_deciders=scenario.solve_deciders,
        patiences=scenario.patiences,
    )
    report = simulation.run(trace)

    rows = []
    for cls in report.metrics.class_names():
        metrics = report.metrics.for_class(cls)
        median_ms = (
            metrics.served_latencies.median() * 1000.0
            if len(metrics.served_latencies)
            else float("nan")
        )
        rows.append(
            [
                cls,
                metrics.total,
                metrics.goodput_fraction,
                median_ms,
                metrics.difficulties.mean,
            ]
        )
    return ExperimentResult(
        experiment_id=f"scenario:{scenario.name}",
        title=(
            f"Scenario {scenario.name!r} - {report.requests} requests over "
            f"{scenario.duration:g}s ({scenario.framework.policy.name})"
        ),
        headers=[
            "class", "requests", "goodput", "median_served_ms",
            "mean_difficulty",
        ],
        rows=rows,
        extra={
            "requests": report.requests,
            "served": report.served,
            "duration": report.duration,
        },
    )


def run_scenario_json(text: str) -> ExperimentResult:
    """Parse a scenario JSON document and run it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid scenario JSON: {exc}") from exc
    return run_scenario(load_scenario(data))
