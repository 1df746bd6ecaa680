"""The six workloads, by name.

Names and reasons live in ``BENCHMARK.json``; this module only maps a
name to the function that runs it.
"""

from __future__ import annotations

import dataclasses

__all__ = ["RunResult", "WORKLOADS", "run_workload"]


@dataclasses.dataclass
class RunResult:
    """What one run of one workload measured.

    ``metrics`` are the end-to-end values; ``layers`` the per-layer ones
    (filled by traced runs only).  ``failed`` counts operations that
    failed, were shed, timed out, were wrongly rejected, or belong to a
    failed output check.
    """

    attempted: int
    failed: int
    metrics: dict[str, float]
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    generator_bound: bool = False
    notes: list[str] = dataclasses.field(default_factory=list)
    #: The harness spans of a traced run, for ``--spans``.
    tracer: object | None = None


WORKLOADS = (
    "serve-steady",
    "serve-saturate",
    "admit-inproc",
    "admit-netstore",
    "sim-pulse-botnet",
    "sim-lossy-link",
)


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, scratch: str
) -> RunResult:
    """Run workload ``name`` once; imports are deferred to the family used."""
    if name.startswith("serve-"):
        from perfbench.workloads.serve import run_serve

        return run_serve(
            name == "serve-saturate", seed, seconds, traced, scratch
        )
    if name.startswith("admit-"):
        from perfbench.workloads.admit import run_admit

        return run_admit(
            name == "admit-netstore", seed, seconds, traced, scratch
        )
    if name == "sim-pulse-botnet":
        campaign = "pulse-botnet-100k"
    elif name == "sim-lossy-link":
        campaign = "congestion-coupled-flood"
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    from perfbench.workloads.sim import run_sim

    return run_sim(campaign, seed, seconds, traced)
