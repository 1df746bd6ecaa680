"""Result files: the metric contract, host fingerprint, and ``compare``.

``BENCHMARK.json`` at the root is the single list of metric names,
units, directions and bounds; the harness reads it rather than keeping
a second copy.  A result file holds one or more runs::

    {"format": "perfbench/v1", "fingerprint": {...}, "seconds": 12,
     "runs": [{"workload": ..., "seed": ..., "traced": false,
               "correct": true, "attempted": ..., "failed": ...,
               "generator_bound": false, "notes": [...],
               "metrics": {name: {"value": ..., "unit": ...}}}]}
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from perfbench import ROOT
from perfbench.stats import quartile_spread
from perfbench.workloads import RunResult

__all__ = [
    "FORMAT", "contract", "fingerprint", "run_record", "result_line",
    "render_run", "render_summary", "compare",
]

FORMAT = "perfbench/v1"


def contract() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint(seed: int) -> dict:
    """Where and on what these numbers were measured."""
    import numpy

    from repro.net.sim.kernels import active_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # an exported checkout is not a repository
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": active_backend(),
        "git_commit": commit,
        "seed": seed,
    }


def run_record(
    workload: str, seed: int, traced: bool, result: RunResult
) -> dict:
    """``result`` as a result-file run, every contract metric present.

    A traced run reports the per-layer list, an untraced one the
    end-to-end list; a layer the workload never enters reads 0.  A name
    the contract does not list is a bug in the workload, not a metric.
    """
    spec = contract()["per_layer" if traced else "end_to_end"]
    values = result.layers if traced else result.metrics
    unknown = set(values) - {entry["name"] for entry in spec}
    if unknown:
        raise KeyError(f"{workload}: metrics not in BENCHMARK.json: {sorted(unknown)}")
    if not traced:
        missing = [e["name"] for e in spec if e["name"] not in values]
        if missing:
            raise KeyError(f"{workload}: end-to-end metrics missing: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "generator_bound": result.generator_bound,
        "notes": result.notes,
        "metrics": {
            entry["name"]: {
                "value": float(values.get(entry["name"], 0.0)),
                "unit": entry["unit"],
            }
            for entry in spec
        },
    }


def result_line(record: dict) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    return json.dumps({
        key: record[key]
        for key in ("correct", "attempted", "failed", "metrics")
    })


def render_run(record: dict) -> str:
    """Every metric of one run by name, with its unit."""
    mode = "traced" if record["traced"] else "untraced"
    lines = [f"== {record['workload']} seed {record['seed']} ({mode}) =="]
    width = max(len(name) for name in record["metrics"])
    for name, metric in record["metrics"].items():
        lines.append(f"{name:<{width}}  {metric['value']:>16.6g} {metric['unit']}")
    lines.append(
        f"attempted {record['attempted']}, failed {record['failed']}"
        + (", GENERATOR BOUND" if record["generator_bound"] else "")
    )
    lines.extend(f"note: {note}" for note in record["notes"])
    return "\n".join(lines)


def _medians(document: dict) -> dict[tuple[str, str], dict]:
    """(workload, metric) -> median, spread and flag over the untraced runs."""
    grouped: dict[tuple[str, str], list[float]] = {}
    flags: dict[str, list[bool]] = {}
    for run in document["runs"]:
        if run["traced"]:
            continue
        flags.setdefault(run["workload"], []).append(run["generator_bound"])
        for name, metric in run["metrics"].items():
            grouped.setdefault((run["workload"], name), []).append(metric["value"])
    return {
        key: {
            "median": statistics.median(values),
            "spread": quartile_spread(values),
            "runs": len(values),
            # A median shrugs off a flagged minority; it cannot be
            # trusted once most of what it is taken over is flagged.
            "generator_bound": 2 * sum(flags[key[0]]) > len(flags[key[0]]),
        }
        for key, values in grouped.items()
    }


def render_summary(document: dict) -> str:
    """Median and same-code spread of every end-to-end metric, per workload."""
    bounds = {e["name"]: e["bound"] for e in contract()["end_to_end"]}
    lines = [
        f"{'workload':<18}{'metric':<18}{'median':>14}{'spread':>8}"
        f"{'bound':>7}{'runs':>6}"
    ]
    for (workload, name), stat in sorted(_medians(document).items()):
        lines.append(
            f"{workload:<18}{name:<18}{stat['median']:>14.6g}"
            f"{stat['spread']:>8.1%}{bounds[name]:>7.0%}{stat['runs']:>6}"
            + ("  generator bound" if stat["generator_bound"] else "")
        )
    return "\n".join(lines)


def compare(base: dict, change: dict, out=sys.stdout) -> int:
    """Print per (workload, metric) deltas; return 1 on any regression.

    The change's median may be worse than the base's by at most the
    metric's bound.  A pair is *unresolved* — reported, never passed
    or failed — when either side was generator-bound: the number then
    describes the load generator, not the server.
    """
    metrics = {entry["name"]: entry for entry in contract()["end_to_end"]}
    before, after = _medians(base), _medians(change)
    for side, document in (("base", base), ("change", change)):
        print(f"{side}: {json.dumps(document['fingerprint'])}", file=out)
    print(
        f"{'workload':<18}{'metric':<18}{'base':>14}{'change':>14}"
        f"{'worse by':>10}{'bound':>8}{'spread':>8}  verdict",
        file=out,
    )
    regressions = 0
    for key in sorted(before.keys() & after.keys()):
        workload, name = key
        entry = metrics.get(name)
        if entry is None:
            continue
        old, new = before[key], after[key]
        delta = (new["median"] - old["median"]) / abs(old["median"])
        worse = delta if entry["better"] == "lower" else -delta
        spread = max(old["spread"], new["spread"])
        if old["generator_bound"] or new["generator_bound"]:
            verdict = "unresolved (generator bound)"
        elif worse > entry["bound"]:
            verdict = "REGRESSION"
            regressions += 1
        else:
            verdict = "ok"
        print(
            f"{workload:<18}{name:<18}{old['median']:>14.6g}"
            f"{new['median']:>14.6g}{worse:>+10.1%}{entry['bound']:>8.0%}"
            f"{spread:>8.1%}  {verdict}",
            file=out,
        )
    incorrect = [
        f"{run['workload']} seed {run['seed']}"
        for run in change["runs"] if not run["correct"]
    ]
    for name in incorrect:
        print(f"change has a failed output check: {name}", file=out)
    return 1 if regressions or incorrect else 0
