"""``sim-*``: whole scale campaigns through ``run_campaign``, repeated.

Each repetition is one complete campaign (population build, fire
schedule, framework build, vectorized engine).  Per-layer numbers are
read from what the engine always publishes (``extra["phase_timings"]``,
``extra["link_stats"]``), so the traced run costs nothing extra — the
tracing overhead on these workloads is zero by construction.
"""

from __future__ import annotations

import dataclasses
import re
import time

from repro.replay.campaign import CAMPAIGNS, run_campaign

from perfbench.calibrate import Calibrator
from perfbench.procs import self_peak_rss_mb
from perfbench.stats import median
from perfbench.workloads import RunResult

__all__ = ["run_sim"]

#: Timed repetitions a run never goes below, however short ``seconds`` is.
MIN_REPETITIONS = 3
#: Seconds between host-speed samples (each costs ~0.5 ms: ~2.5%, taken
#: back out of the repetition it interrupted).
CALIBRATION_INTERVAL = 0.02

_PHASES = ("arrive", "fifo", "solve", "xmit", "xmitsol")


def run_sim(campaign: str, seed: int, seconds: float, traced: bool) -> RunResult:
    spec = dataclasses.replace(CAMPAIGNS[campaign], seed=seed)
    run_campaign(spec)  # warm-up: lazy imports, allocator, page cache

    calibrator = Calibrator()
    grosses, raws, slowdowns, cpus, results = [], [], [], [], []
    began = calibrator.clock()
    calibrator.every(CALIBRATION_INTERVAL)
    try:
        # Stop when another repetition would overshoot the window by
        # more than it undershoots, so every run measures ~``seconds``.
        while len(raws) < MIN_REPETITIONS or (
            calibrator.clock() - began + median(raws) / 2 < seconds
        ):
            cpu0 = time.process_time()
            wall0 = calibrator.clock()
            run = run_campaign(spec)
            wall1 = calibrator.clock()
            cpus.append(time.process_time() - cpu0)
            grosses.append(wall1 - wall0)
            # The calibration kernel ran inside the repetition.
            raws.append(grosses[-1] - calibrator.spent(wall0, wall1))
            slowdowns.append(calibrator.slowdown(wall0, wall1))
            results.append(run.result)
    finally:
        calibrator.stop()
    #: Seconds per repetition at nominal host speed.
    walls = [raw / slowdown for raw, slowdown in zip(raws, slowdowns)]

    extras = [result.extra for result in results]
    first = extras[0]
    signature = (first["requests"], first["served"], first["events"])
    drifted = sum(
        1 for extra in extras
        if (extra["requests"], extra["served"], extra["events"]) != signature
    )
    difficulty = {row[0]: row[3] for row in results[0].rows}
    events = first["events"]
    # The engine reports its own wall time; what run_campaign spends
    # around it is the campaign's set-up, paid on every repetition.
    setups = [
        wall * (1.0 - extra["wall_seconds"] / gross)
        for wall, gross, extra in zip(walls, grosses, extras)
    ]

    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": median([events / wall for wall in walls]),
        "latency_p50_ms": median(walls) * 1e3,
        "peak_rss_mb": self_peak_rss_mb(),
        "throttle_bits": difficulty["malicious"] - difficulty["benign"],
    }
    result = RunResult(
        attempted=first["requests"] * len(walls),
        failed=first["requests"] * drifted,
        metrics=metrics,
        notes=[
            f"{len(walls)} repetitions of {campaign!r}; host slowdown "
            f"{median(slowdowns):.2f} (min {min(slowdowns):.2f}, "
            f"max {max(slowdowns):.2f})"
        ],
    )
    if drifted:
        result.notes.append(
            f"{drifted} repetitions disagree on requests/served/events"
        )
    if traced:
        result.layers = _layers(extras, results, metrics, cpus, slowdowns)
    return result


def _layers(extras, results, metrics, cpus, slowdowns) -> dict[str, float]:
    first = extras[0]
    layers = {
        "sample_count": float(len(extras)),
        "host.slowdown": median(slowdowns),
        "traced.throughput_per_s": metrics["throughput_per_s"],
        "traced.latency_p50_ms": metrics["latency_p50_ms"],
        "cpu_us_per_op": median(cpus) / first["events"] * 1e6,
        "replay.campaign.setup_s": metrics["setup_s"],
    }
    for phase in _PHASES:
        layers[f"net.sim.fastsim.{phase}_s"] = median([
            extra["phase_timings"].get(phase, {}).get("seconds", 0.0)
            for extra in extras
        ])
    layers["net.sim.fastsim.untimed_s"] = median([
        extra["wall_seconds"]
        - sum(phase["seconds"] for phase in extra["phase_timings"].values())
        for extra in extras
    ])
    layers["net.sim.fastsim.cohorts"] = float(
        sum(phase["cohorts"] for phase in first["phase_timings"].values())
    )
    largest = re.search(r"\(largest ([\d,]+)\)", " ".join(results[0].notes))
    layers["net.sim.fastsim.largest_cohort"] = (
        float(largest.group(1).replace(",", "")) if largest else 0.0
    )
    links = first.get("link_stats", {})
    for counter in ("crossings", "queue_dropped", "retries"):
        layers[f"net.sim.links.{counter}"] = float(links.get(counter, 0))

    from repro.bench.kernels import KernelBenchConfig, run_kernel_microbench
    from repro.net.sim.kernels import active_backend

    config = KernelBenchConfig()
    best = run_kernel_microbench(config).extra["best_seconds"]
    for kernel, by_backend in best.items():
        layers[f"net.sim.kernels.ns_per_item.{kernel}"] = (
            by_backend[active_backend()] / config.size * 1e9
        )
    return layers
