"""``python -m perfbench run|compare`` — see ``perfbench/README.md``.

``run --workload W`` measures one workload in this process and prints
every metric by name, then — as the last line — the one JSON object the
benchmark contract asks for.  ``run`` without ``--workload`` runs all
six, each in a fresh process, and can write a result file (``--out``)
that ``compare`` judges against another one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from perfbench import ROOT, import_program


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload, or all six")
    run.add_argument("--workload", default=None,
                     help="one workload name from BENCHMARK.json (default: all)")
    run.add_argument("--seed", type=int, default=1,
                     help="workload input seed (default 1)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured window (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: per-layer metrics from a traced run")
    run.add_argument("--traced", dest="trace", action="store_const", const=1,
                     help="same as --trace 1; with all workloads, a traced "
                          "pass after the untraced one, plus the overhead")
    run.add_argument("--repeat", type=int, default=1, metavar="N",
                     help="all workloads: N runs each, seeds SEED..SEED+N-1")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="write the result file here")
    run.add_argument("--spans", default=None, metavar="FILE",
                     help="one workload, traced: dump the harness spans (JSONL)")
    compare = commands.add_parser(
        "compare", help="judge result file B against A by the bounds"
    )
    compare.add_argument("base", metavar="A.json")
    compare.add_argument("change", metavar="B.json")
    return parser


def _write(path: str, seed: int, seconds: float, runs: list[dict]) -> None:
    from perfbench import report

    head = {
        "format": report.FORMAT,
        "fingerprint": report.fingerprint(seed),
        "seconds": seconds,
    }
    # One run per line, so a trajectory point diffs and greps by run.
    lines = ",\n".join("  " + json.dumps(run) for run in runs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(head, indent=1)[:-2])
        handle.write(f',\n "runs": [\n{lines}\n ]\n}}\n')


def _run_one(args, seconds: float) -> int:
    from perfbench import procs, report
    from perfbench.workloads import run_workload

    traced = bool(args.trace)
    with procs.scratch_dir() as scratch:
        result = run_workload(args.workload, args.seed, seconds, traced, scratch)
    record = report.run_record(args.workload, args.seed, traced, result)
    if args.spans and result.tracer is not None:
        result.tracer.dump(args.spans)
    if args.out:
        _write(args.out, args.seed, seconds, [record])
    print(report.render_run(record))
    print(report.result_line(record), flush=True)
    return 0 if record["correct"] else 1


def _run_all(args, seconds: float) -> int:
    from perfbench import procs, report

    names = [entry["name"] for entry in report.contract()["workloads"]]
    runs: list[dict] = []
    status = 0
    with procs.scratch_dir() as scratch:
        part = os.path.join(scratch, "part.json")
        for name in names:
            for trace in range(args.trace + 1):
                for seed in range(args.seed, args.seed + args.repeat):
                    # A fresh interpreter per run: no warm caches, peak
                    # RSS or leaked sockets carried between workloads.
                    code = subprocess.run(
                        [sys.executable, "-m", "perfbench", "run",
                         "--workload", name, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace),
                         "--out", part],
                        cwd=ROOT,
                    ).returncode
                    status = status or code
                    if os.path.exists(part):
                        with open(part, encoding="utf-8") as handle:
                            runs.extend(json.load(handle)["runs"])
                        os.unlink(part)
    print("== end-to-end medians; spread = (Q3 - Q1) / median over the runs ==")
    print(report.render_summary({"runs": runs}))
    if args.trace:
        print("== tracing overhead (traced vs untraced medians) ==")
        for name in names:
            for metric in ("throughput_per_s", "latency_p50_ms"):
                plain = [r["metrics"][metric]["value"] for r in runs
                         if r["workload"] == name and not r["traced"]]
                traced = [r["metrics"][f"traced.{metric}"]["value"] for r in runs
                          if r["workload"] == name and r["traced"]]
                if plain and traced:
                    ratio = statistics.median(traced) / statistics.median(plain)
                    print(f"{name:<18}{metric:<18}{ratio - 1:>+8.1%}")
    if args.out:
        _write(args.out, args.seed, seconds, runs)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    from perfbench import procs, report

    if args.command == "compare":
        documents = []
        for path in (args.base, args.change):
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        return report.compare(*documents)
    import_program()  # fails, with no result printed, without the program
    procs.terminate_on_sigterm()
    seconds = args.seconds
    if seconds is None:
        seconds = float(report.contract()["run_seconds"])
    if args.workload is None:
        return _run_all(args, seconds)
    return _run_one(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
