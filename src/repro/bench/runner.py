"""Experiment runner: one entry point per paper artifact.

Maps experiment ids (DESIGN.md §4) to their harness functions and runs
them individually or as a suite.  Both the CLI and EXPERIMENTS.md are
generated through this module, so the documented numbers are always the
ones the code produces.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.ablations import (
    run_attacker_economics,
    run_base_offset_ablation,
    run_epsilon_ablation,
    run_granularity_ablation,
    run_verify_asymmetry,
)
from repro.bench.accuracy import run_accuracy
from repro.bench.calibration import run_calibration
from repro.bench.figure2 import run_figure2
from repro.bench.results import ExperimentResult
from repro.core.errors import ComponentNotFoundError

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]


def _figure2_result() -> ExperimentResult:
    return run_figure2().to_experiment_result()


#: Experiment id → zero-argument harness, per DESIGN.md's index.
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig2": _figure2_result,
    "cal31": run_calibration,
    "acc80": run_accuracy,
    "abl-policy": run_base_offset_ablation,
    "abl-epsilon": run_epsilon_ablation,
    "abl-econ": run_attacker_economics,
    "abl-granularity": run_granularity_ablation,
    "abl-verify": run_verify_asymmetry,
}

# `throttle` is appended lazily: it imports the simulator stack, and the
# run takes a few seconds — the mapping stays cheap to import.


def _throttle_result() -> ExperimentResult:
    from repro.bench.throttling import run_throttling

    return run_throttling()


def _onset_result() -> ExperimentResult:
    from repro.bench.onset import run_onset

    return run_onset()


def _shard_throughput_result() -> ExperimentResult:
    from repro.bench.shard import run_shard_throughput

    return run_shard_throughput()


def _kernels_result() -> ExperimentResult:
    from repro.bench.kernels import run_kernel_microbench

    return run_kernel_microbench()


EXPERIMENTS["throttle"] = _throttle_result
EXPERIMENTS["onset"] = _onset_result
EXPERIMENTS["thr-shard"] = _shard_throughput_result
EXPERIMENTS["kernels"] = _kernels_result


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by id; raises for unknown ids."""
    try:
        harness = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ComponentNotFoundError(
            "experiment", experiment_id, tuple(sorted(EXPERIMENTS))
        ) from None
    return harness()


def run_all() -> list[ExperimentResult]:
    """Run every registered experiment in declaration order."""
    return [harness() for harness in EXPERIMENTS.values()]
