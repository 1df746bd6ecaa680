"""Parent-vs-change fingerprint of the vectorized simulation engine.

For a behaviour-preserving change to ``fastsim.py`` / ``campaign.py``:
run once per checkout, then compare — any difference is a bug in the
refactor, not a deviation to accept.

    PYTHONPATH=<parent>/src python tools/sim_equivalence.py parent.json
    PYTHONPATH=src          python tools/sim_equivalence.py change.json
    python tools/sim_equivalence.py --compare parent.json change.json

Fingerprints (bit-exact: floats by ``repr``, sample sets by SHA-256):
six scale campaigns at their own seed and seeds 1 and 2 (rows,
requests, served, events, link_stats, cohort counts), ``FastSimulation
.run`` over the six golden-campaign workloads with PoW on and off
(metrics rows, events, decision log), and ``run_sessions`` over a
20-session closed-loop fixture at three seeds, with and without a
horizon.  Takes about a minute per side; pass ``closed`` / ``golden`` /
``campaigns`` after the output path to run a subset.  Uses only
``run_campaign`` and ``FastSimulation``, so it runs on any checkout
since PR 8.
"""

import dataclasses
import hashlib
import json
import re
import sys


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def metrics_rows(metrics):
    rows = []
    for cls in list(metrics.class_names()) + [None]:
        m = metrics.overall if cls is None else metrics.for_class(cls)
        rows.append(
            (
                cls,
                m.total,
                m.served,
                sorted((s.value, n) for s, n in m.outcomes.items()),
                digest(list(m.latencies.values)),
                repr(m.scores.mean),
                repr(m.difficulties.mean),
                repr(m.attempts.mean),
                repr(m.difficulties.max),
            )
        )
    return rows


def campaigns(out):
    from repro.replay.campaign import CAMPAIGNS, run_campaign

    for name in (
        "pulse-botnet-100k",
        "congestion-coupled-flood",
        "mobile-flash-crowd",
        "flash-crowd-100k",
        "diurnal-stealth-mix",
        "poison-ramp-250k",
    ):
        base = CAMPAIGNS[name]
        for seed in (base.seed, 1, 2):
            spec = dataclasses.replace(base, seed=seed)
            result = run_campaign(spec).result
            extra = result.extra
            cohorts = next(
                re.search(r"(\d+) arrival cohorts \(largest ([\d,]+)\)", n)
                for n in result.notes
                if "arrival cohorts" in n
            ).groups()
            farming = [n for n in result.notes if n.startswith("feedback")]
            out[f"campaign/{name}/seed={seed}"] = {
                "rows": repr(result.rows),
                "requests": extra["requests"],
                "served": extra["served"],
                "events": extra["events"],
                "link_stats": extra.get("link_stats"),
                "cohorts": cohorts[0],
                "largest": cohorts[1],
                "phase_cohorts": {
                    k: v["cohorts"] for k, v in extra["phase_timings"].items()
                },
                "farming": farming,
            }
            print(name, seed, extra["requests"], extra["served"], flush=True)


def golden_runs(out):
    from repro.attacks import make_attacker
    from repro.net.sim.fastsim import FastSimulation
    from repro.replay.campaign import CAMPAIGNS, _PROFILES
    from repro.traffic.generator import WorkloadGenerator

    for name in (
        "benign-baseline",
        "botnet-siege",
        "flood-burst",
        "precompute-probe",
        "replay-probe",
        "stealth-adaptive",
    ):
        campaign = CAMPAIGNS[name]
        populations = [
            (_PROFILES[p], count) for p, count in campaign.populations
        ]
        workload, _ = WorkloadGenerator(seed=campaign.seed).mixed_trace(
            populations, duration=campaign.duration
        )
        for pow_enabled in (True, False):
            sim = FastSimulation(
                campaign.spec.build(),
                seed=campaign.seed ^ 0x5CE4,
                pow_enabled=pow_enabled,
                solve_deciders={
                    p: make_attacker(s).should_solve
                    for p, s in campaign.attackers.items()
                },
                patiences={p.name: p.patience for p, _ in populations},
                decision_log=True,
            )
            report = sim.run(workload)
            out[f"golden/{name}/pow={pow_enabled}"] = {
                "rows": digest(metrics_rows(report.metrics)),
                "requests": report.requests,
                "events": report.events_processed,
                "duration": repr(report.duration),
                "batches": sim.arrival_batches,
                "largest": sim.largest_arrival_batch,
                "decisions": digest(
                    [
                        (w, i.tolist(), s.tolist(), d.tolist())
                        for w, i, s, d in sim.decisions
                    ]
                ),
            }
            print(name, pow_enabled, report.requests, flush=True)


def closed_loop(out):
    from repro.core.framework import AIPoWFramework
    from repro.net.sim.closedloop import SessionSpec
    from repro.net.sim.fastsim import FastSimulation
    from repro.policies.linear import policy_2
    from repro.reputation.ensemble import ConstantModel
    from repro.traffic.generator import WorkloadGenerator
    from repro.traffic.profiles import BENIGN_PROFILE

    clients = WorkloadGenerator(seed=7).population(BENIGN_PROFILE, 20)
    sessions = [
        SessionSpec(client=c, exchanges=4, think_time=0.3) for c in clients
    ]
    for seed in (3, 4, 5):
        for until in (None, 1.0):
            sim = FastSimulation(
                AIPoWFramework(ConstantModel(2.0), policy_2()), seed=seed
            )
            report = sim.run_sessions(sessions, until=until)
            out[f"closed/seed={seed}/until={until}"] = {
                "rows": digest(metrics_rows(report.metrics)),
                "completed": report.completed_exchanges,
                "events": sim.events_processed,
                "duration": repr(report.duration),
                "batches": sim.arrival_batches,
                "largest": sim.largest_arrival_batch,
            }


def main():
    if sys.argv[1] == "--compare":
        a = json.load(open(sys.argv[2]))
        b = json.load(open(sys.argv[3]))
        bad = 0
        for key in sorted(set(a) | set(b)):
            same = a.get(key) == b.get(key)
            bad += not same
            print(("EQUAL " if same else "DIFF  ") + key)
            if not same:
                print("   ", a.get(key), "\n   ", b.get(key))
        print(f"{len(a)} items, {bad} differ")
        sys.exit(1 if bad else 0)
    out = {}
    only = sys.argv[2:] or ["closed", "golden", "campaigns"]
    if "closed" in only:
        closed_loop(out)
    if "golden" in only:
        golden_runs(out)
    if "campaigns" in only:
        campaigns(out)
    json.dump(out, open(sys.argv[1], "w"), indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
