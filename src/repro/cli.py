"""Command-line interface: ``python -m repro`` / ``repro-pow``.

Subcommands map one-to-one onto the experiment harness plus two
interactive modes:

* ``figure2``   — regenerate the paper's Figure 2 (table + ASCII chart);
* ``calibrate`` — the 31 ms calibration table and this machine's hash rate;
* ``accuracy``  — the DAbR 80 % accuracy experiment;
* ``throttle``  — the three-setup throttling comparison;
* ``ablations`` — the policy/epsilon/economics ablation tables;
* ``demo``      — one full challenge/solve/verify exchange, verbosely;
* ``serve``     — run the micro-batching admission gateway in the
  foreground (one process, or ``--workers N`` gateway worker processes
  sharded by client-IP hash; SIGTERM drains gracefully either way);
* ``state``     — admission-state tooling: merge a serve
  ``--state-dir`` into one snapshot file, re-split a snapshot for a
  different worker count, inspect either, host a store over the
  network (``state serve``) or reshape a multi-node store live
  (``state topology``);
* ``record``    — capture a campaign workload's admission decisions as
  a replayable v2 trace (simulator, live gateway, or live cluster);
* ``replay``    — feed a recorded trace back through any serving
  configuration and diff the decision streams;
* ``campaign``  — run a named adversarial scenario spec (optionally
  recording its golden trace; large-scale scenarios run on the
  vectorized engine and record no trace);
* ``trace``     — render a sampled-span dump (from ``serve --trace-out``
  or ``campaign --trace-out``) as a per-stage waterfall;
* ``kernels``   — microbench the residual per-cohort array kernels on
  every available backend (numpy always; numba when importable);
* ``profile``   — run any registered experiment under cProfile and
  print the top cumulative hotspots;
* ``all``       — every experiment, in DESIGN.md order.
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a sampling rate, a count)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-pow",
        description=(
            "Reproduction of 'A Policy Driven AI-Assisted PoW Framework' "
            "(DSN 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig2 = sub.add_parser("figure2", help="regenerate Figure 2")
    fig2.add_argument("--trials", type=int, default=30)
    fig2.add_argument("--epsilon", type=float, default=2.5)
    fig2.add_argument("--seed", type=int, default=0xF162)
    fig2.add_argument(
        "--mode", choices=("modeled", "grind"), default="modeled",
        help="modeled: calibrated sampling; grind: real hashing",
    )
    fig2.add_argument("--chart", action="store_true", help="ASCII chart too")

    cal = sub.add_parser("calibrate", help="31 ms calibration experiment")
    cal.add_argument("--trials", type=int, default=200)
    cal.add_argument(
        "--measure-hash-rate", action="store_true",
        help="also grind real puzzles to measure this machine's hash rate",
    )

    acc = sub.add_parser("accuracy", help="DAbR 80%% accuracy experiment")
    acc.add_argument("--corpus-size", type=int, default=6000)
    acc.add_argument("--seed", type=int, default=7)

    thr = sub.add_parser("throttle", help="throttling comparison")
    thr.add_argument("--duration", type=float, default=30.0)
    thr.add_argument("--benign", type=int, default=25)
    thr.add_argument("--bots", type=int, default=15)

    sub.add_parser("ablations", help="policy/epsilon/economics ablations")

    demo = sub.add_parser("demo", help="one verbose end-to-end exchange")
    demo.add_argument("--score", type=float, default=None,
                      help="force this reputation score instead of DAbR")
    demo.add_argument("--policy", default="policy-2",
                      help="policy registry name (policy-1/2/3, ...)")

    serve = sub.add_parser(
        "serve", help="run the micro-batching admission gateway"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377)
    serve.add_argument("--policy", default="policy-2")
    # The gateway is the only server; the old mode flag is still
    # accepted so existing command lines keep working.
    serve.add_argument(
        "--gateway", action="store_true", help=argparse.SUPPRESS
    )
    # Gateway settings default to None: GatewayOptions states the
    # defaults, for one process and every cluster worker alike.
    serve.add_argument(
        "--batch-window", type=float, metavar="SECONDS",
        help="gateway: upper bound on how long a batch stays open; it "
             "normally closes as soon as arrivals stop",
    )
    serve.add_argument(
        "--max-batch", type=int,
        help="gateway: flush as soon as this many requests queue",
    )
    serve.add_argument(
        "--queue-limit", type=int,
        help="gateway: bound on queued admissions before shedding",
    )
    serve.add_argument(
        "--shed-policy",
        choices=(
            "drop-newest", "drop-reputation", "drop-global-reputation"
        ),
        help="gateway: victim selection when the queue is full "
             "(drop-global-reputation needs --state-server)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="gateway worker processes, each owning one admission-state "
             "shard routed by client-IP hash (1 serves in this process)",
    )
    serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="restore admission state from DIR's shard snapshots at boot "
             "and rewrite them at graceful shutdown",
    )
    serve.add_argument(
        "--state-server", default=None, metavar="ADDR[,ADDR...]",
        help="keep admission state on running `repro state serve` "
             "node(s) (host:port or unix:/path; several addresses form "
             "a consistent-hash multi-node store) instead of in-process "
             "dicts; workers survive restarts statefully and may share "
             "reputation (excludes --state-dir)",
    )
    serve.add_argument(
        "--replicas", type=int, metavar="N",
        help="virtual nodes per shard on the consistent-hash ring "
             "(must match the ring the state was written under)",
    )
    serve.add_argument(
        "--record", default=None, metavar="FILE",
        help="capture every admission decision into a replayable v2 "
             "trace, written to FILE at graceful shutdown",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text), /healthz and /summary "
             "on this port (0 picks a free port; any serve mode)",
    )
    serve.add_argument(
        "--metrics-snapshots", default=None, metavar="FILE",
        help="append a timestamped registry snapshot to FILE (JSONL) "
             "every second while serving",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="sample request spans and dump them to FILE (JSONL) at "
             "graceful shutdown; render with `repro trace FILE`",
    )
    serve.add_argument(
        "--trace-every", type=_positive_int, default=100, metavar="N",
        help="with --trace-out: sample every Nth request (default 100)",
    )

    state = sub.add_parser(
        "state", help="admission-state snapshot and network tooling"
    )
    state_sub = state.add_subparsers(dest="state_command", required=True)
    snap = state_sub.add_parser(
        "snapshot",
        help="merge a serve --state-dir into one snapshot file",
    )
    snap.add_argument("--state-dir", required=True, metavar="DIR")
    snap.add_argument("--out", required=True, metavar="FILE")
    restore = state_sub.add_parser(
        "restore",
        help="split a snapshot file into per-shard state for --workers N",
    )
    restore.add_argument("--snapshot", required=True, metavar="FILE",
                         help="merged snapshot produced by `state snapshot`")
    restore.add_argument("--state-dir", required=True, metavar="DIR")
    restore.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N"
    )
    restore.add_argument(
        "--replicas", type=_positive_int, default=64, metavar="N",
        help="virtual nodes per shard on the split ring (recorded in "
             "the shard files; must match at `serve --state-dir` time)",
    )
    show = state_sub.add_parser(
        "show", help="summarise a snapshot file or a state directory"
    )
    show.add_argument("path", help="snapshot file or state directory")
    state_serve = state_sub.add_parser(
        "serve",
        help="host an admission state store over TCP/AF_UNIX for "
             "`serve --state-server` workers",
    )
    state_serve.add_argument(
        "--bind", default="127.0.0.1:0", metavar="ADDR",
        help="listen address: host:port (port 0 picks a free port) or "
             "unix:/path (default 127.0.0.1:0)",
    )
    state_serve.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help="restore the store from FILE at boot (if it exists) and "
             "rewrite it at graceful shutdown",
    )
    state_serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /summary on this port "
             "(0 picks a free port)",
    )
    topo = state_sub.add_parser(
        "topology",
        help="inspect or reshape a multi-node state cluster live "
             "(hands off only the moved keyspace slice)",
    )
    topo.add_argument(
        "--nodes", required=True, metavar="ADDR[,ADDR...]",
        help="current cluster membership, in ring order",
    )
    topo.add_argument(
        "--add", default=None, metavar="ADDR",
        help="grow: reshard onto the cluster plus this node",
    )
    topo.add_argument(
        "--remove", default=None, metavar="ADDR",
        help="shrink: drain this node's keyspace onto the rest",
    )
    topo.add_argument(
        "--replicas", type=int, default=64, metavar="N",
        help="virtual nodes per shard on the consistent-hash ring",
    )

    analyze = sub.add_parser(
        "analyze", help="closed-form policy comparison and synthesis"
    )
    analyze.add_argument(
        "--targets", type=float, nargs="*", default=None,
        help="per-score latency budgets (seconds) to synthesize a policy for",
    )

    scenario = sub.add_parser(
        "scenario", help="run a JSON scenario document through the simulator"
    )
    scenario.add_argument("file", help="path to the scenario JSON")

    record = sub.add_parser(
        "record",
        help="capture a campaign workload's admission decisions as a "
             "replayable trace",
    )
    record.add_argument("--out", required=True, metavar="FILE",
                        help="trace file to write (v2 JSONL)")
    record.add_argument(
        "--scenario", default="benign-baseline", metavar="NAME",
        help="campaign spec to drive (see `repro campaign --list`)",
    )
    record.add_argument(
        "--target", default="sim",
        help="serving path to record: sim (simulator, default), "
             "gateway (live TCP), or cluster:N (live multi-worker)",
    )

    replay = sub.add_parser(
        "replay",
        help="feed a recorded trace through a serving configuration "
             "and compare decision streams",
    )
    replay.add_argument("--trace", required=True, metavar="FILE",
                        help="v2 trace produced by record/campaign/serve")
    replay.add_argument(
        "--target", default=None,
        help="replay path: inproc (default), gateway, or cluster:N; "
             "with --live, the server to feed: gateway (default) or "
             "cluster:N, the targets `record` serves",
    )
    replay.add_argument(
        "--live", action="store_true",
        help="replay over real TCP through a served target instead of "
             "in-process (decisions then diff by position)",
    )
    replay.add_argument(
        "--speed", type=float, default=0.0, metavar="X",
        help="pace requests at recorded gaps / X; 0 (default) replays "
             "as fast as the pipeline admits",
    )
    replay.add_argument("--out", default=None, metavar="FILE",
                        help="write the replayed decision trace here")
    replay.add_argument(
        "--diff", action="store_true",
        help="diff replayed decisions against the trace's recorded ones "
             "(exit 1 on divergence)",
    )
    replay.add_argument(
        "--diff-report", default=None, metavar="FILE",
        help="with --diff: also write the structured diff report (JSON)",
    )

    campaign = sub.add_parser(
        "campaign", help="run a named adversarial scenario spec"
    )
    campaign.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="campaign name (omit with --list to enumerate)",
    )
    campaign.add_argument(
        "--record", default=None, metavar="FILE",
        help="also write the recorded golden trace here",
    )
    campaign.add_argument(
        "--list", action="store_true", help="list available campaigns"
    )
    campaign.add_argument(
        "--link", action="append", default=None, metavar="POP=PROFILE",
        help="override a scale campaign's link assignment (repeatable), "
        "e.g. --link benign=lossy-mobile; POP=none removes a link",
    )
    campaign.add_argument(
        "--list-links", action="store_true",
        help="list available link profiles and exit",
    )
    campaign.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="sample request spans during the run and dump them to "
             "FILE (campaigns without scale only; render with "
             "`repro trace`)",
    )
    campaign.add_argument(
        "--trace-every", type=_positive_int, default=1, metavar="N",
        help="with --trace-out: sample every Nth request (default 1)",
    )
    campaign.add_argument(
        "--metrics-snapshots", default=None, metavar="FILE",
        help="write periodic registry snapshots (phase timings, link "
             "counters) to FILE during a large-scale campaign",
    )

    trace = sub.add_parser(
        "trace",
        help="render a sampled-span dump as a per-stage waterfall",
    )
    trace.add_argument(
        "file", help="spans JSONL written by --trace-out"
    )
    trace.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="spans to render before summarising the rest (default 20)",
    )

    kernels = sub.add_parser(
        "kernels",
        help="microbench the per-cohort array kernels on every "
             "available backend",
    )
    kernels.add_argument(
        "--size", type=_positive_int, default=100_000, metavar="N",
        help="elements per kernel invocation (default 100000)",
    )
    kernels.add_argument(
        "--repeats", type=_positive_int, default=30, metavar="N",
        help="timed repeats per kernel/backend; the minimum is "
             "reported (default 30)",
    )

    profile = sub.add_parser(
        "profile",
        help="run an experiment under cProfile and print hotspots",
    )
    profile.add_argument(
        "experiment", metavar="EXPERIMENT-ID",
        help="registered experiment id (fig2, thr-shard, kernels, ...)",
    )
    profile.add_argument(
        "--top", type=_positive_int, default=20,
        help="number of cumulative-time rows to print (default 20)",
    )
    profile.add_argument(
        "--out", default=None, metavar="FILE",
        help="also dump raw pstats data here (snakeviz/pstats readable)",
    )

    export = sub.add_parser(
        "export", help="run every experiment and write JSON results"
    )
    export.add_argument("--out", default="results", help="output directory")

    sub.add_parser("all", help="run every experiment")
    return parser


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.bench.figure2 import Figure2Config, check_shape, run_figure2

    config = Figure2Config(
        trials=args.trials, epsilon=args.epsilon,
        seed=args.seed, mode=args.mode,
    )
    result = run_figure2(config)
    print(result.to_experiment_result().render())
    if args.chart:
        print()
        print(result.render_chart())
    problems = check_shape(result)
    if problems:
        print("\nSHAPE CHECK FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nshape check: OK (P1 slow, P2 steep, P3 in between)")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.bench.calibration import (
        CalibrationConfig,
        measure_hash_rate,
        run_calibration,
    )

    print(run_calibration(CalibrationConfig(trials=args.trials)).render())
    if args.measure_hash_rate:
        rate = measure_hash_rate()
        print(f"\nmeasured hash rate: {rate:,.0f} evaluations/s "
              f"({1e6 / rate:.2f} us/attempt)")
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.bench.accuracy import AccuracyConfig, run_accuracy

    config = AccuracyConfig(corpus_size=args.corpus_size, seed=args.seed)
    print(run_accuracy(config).render())
    return 0


def _cmd_throttle(args: argparse.Namespace) -> int:
    from repro.bench.throttling import ThrottlingConfig, run_throttling

    config = ThrottlingConfig(
        benign_clients=args.benign,
        attacker_bots=args.bots,
        duration=args.duration,
    )
    print(run_throttling(config).render())
    return 0


def _cmd_ablations(_args: argparse.Namespace) -> int:
    from repro.bench.ablations import (
        run_attacker_economics,
        run_base_offset_ablation,
        run_epsilon_ablation,
    )

    for result in (
        run_base_offset_ablation(),
        run_epsilon_ablation(),
        run_attacker_economics(),
    ):
        print(result.render())
        print()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import time

    from repro.core.framework import AIPoWFramework
    from repro.core.records import ClientRequest
    from repro.policies import POLICY_REGISTRY
    from repro.pow.solver import HashSolver
    from repro.reputation.dabr import DAbRModel
    from repro.reputation.dataset import generate_corpus
    from repro.reputation.ensemble import ConstantModel

    policy = POLICY_REGISTRY.create(args.policy)
    corpus = generate_corpus(size=2000, seed=7)
    train, test = corpus.split()
    if args.score is not None:
        model = ConstantModel(args.score)
        example = test[0]
        print(f"model: constant score {args.score:g}")
    else:
        model = DAbRModel().fit(train)
        example = max(test, key=lambda e: e.true_score)
        print("model: DAbR fitted on the synthetic corpus")

    framework = AIPoWFramework(model, policy)
    request = ClientRequest(
        client_ip=example.ip,
        resource="/index.html",
        timestamp=time.time(),
        features=example.features,
    )
    print(f"client {example.ip}: true score {example.true_score:.2f}")

    challenge = framework.challenge(request)
    decision = challenge.decision
    print(f"scored {decision.reputation_score:.2f} -> "
          f"{decision.policy_name} -> difficulty {decision.difficulty}")
    print(f"puzzle: {challenge.puzzle.to_wire()}")

    solution = HashSolver().solve(challenge.puzzle, example.ip)
    print(f"solved in {solution.attempts} attempts "
          f"({solution.elapsed * 1000:.1f} ms)")

    response = framework.redeem(challenge, solution)
    print(f"verdict: {response.status.value}, "
          f"latency {response.latency_ms:.1f} ms, body {response.body!r}")
    return 0 if response.served else 1


def _install_shutdown_signals() -> "threading.Event":
    """SIGTERM/SIGINT → one shutdown event, for graceful drains."""
    import signal
    import threading

    shutdown = threading.Event()

    def _handler(_signum, _frame):
        shutdown.set()

    signal.signal(signal.SIGINT, _handler)
    signal.signal(signal.SIGTERM, _handler)
    return shutdown


def _jsonl_records(path) -> int:
    """Records in a JSONL artifact: every line after its header."""
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.spec import FrameworkSpec
    from repro.net.gateway.cluster import GatewayCluster, build_front
    from repro.net.gateway.server import GatewayOptions

    spec = FrameworkSpec(policy=args.policy)
    if args.record and spec.feedback:
        # Feedback reacts to solve *outcomes*; a challenge-only replay
        # cannot reproduce those, so scores will drift.  Recording stays
        # useful (the diff harness will show the drift), but
        # bit-identical replay needs a feedback-free recipe — which
        # campaigns use by construction.
        print(
            "note: behavioural feedback is enabled; challenge-only "
            "replays of this trace will show score drift "
            "(`repro record`/`repro campaign` traces replay "
            "bit-identically)",
            flush=True,
        )
    settings = {
        key: getattr(args, key)
        for key in (
            "max_batch", "batch_window", "queue_limit", "shed_policy",
            "state_dir", "state_server", "replicas",
        )
        if getattr(args, key) is not None
    }
    settings.update(
        record_path=args.record,
        trace_path=args.trace_out,
        trace_every=args.trace_every if args.trace_out else 0,
    )
    # One process is shard 0 of 1, assembled by the build_gateway every
    # cluster worker runs; from here on both fronts take the same calls.
    try:
        options = GatewayOptions(**settings)
        server, close = build_front(
            spec,
            options,
            workers=None if args.workers == 1 else args.workers,
            host=args.host,
            port=args.port,
        )
    except ValueError as exc:
        print(exc)
        return 2
    tuning = (
        f"batch<={options.max_batch}, "
        f"window {options.batch_window * 1000:g} ms, "
        f"queue<={options.queue_limit}, {options.shed_policy}"
    )
    cluster = isinstance(server, GatewayCluster)
    if not cluster:
        mode = f"gateway ({tuning})"
    else:
        mode = (
            f"{server.workers} gateway workers sharded by client-IP hash "
            f"({tuning}"
            + (f", state {args.state_dir}" if args.state_dir else "")
            + (
                f", state-server {args.state_server}"
                if args.state_server else ""
            )
            + ")"
        )

    shutdown = _install_shutdown_signals()
    try:
        server.start()
    except ValueError as exc:
        # e.g. a state directory split for a different worker count.
        print(exc)
        return 2
    except (OSError, RuntimeError) as exc:
        # The cluster's listener raises the bind error itself; the
        # in-process gateway reports it as the cause of its own error.
        reason = exc if isinstance(exc, OSError) else exc.__cause__
        if not isinstance(reason, OSError):
            raise
        print(f"cannot listen on {args.host}:{args.port}: "
              f"{os.strerror(reason.errno) if reason.errno else reason}")
        return 2
    metrics_server = None
    snapshot_writer = None
    try:
        host, port = server.address
        print(f"serving AI-assisted PoW on {host}:{port} "
              f"(policy {args.policy}, {mode}); Ctrl-C or SIGTERM to stop",
              flush=True)
        if args.metrics_port is not None:
            from repro.obs.http import MetricsHTTPServer

            metrics_server = MetricsHTTPServer(
                server.metrics_snapshot,
                host=args.host,
                port=args.metrics_port,
                health_provider=server.health,
            ).start()
            print(f"metrics on {metrics_server.url}/metrics", flush=True)
        if args.metrics_snapshots:
            from repro.obs.http import SnapshotWriter

            snapshot_writer = SnapshotWriter(
                args.metrics_snapshots, server.metrics_snapshot
            ).start()
        shutdown.wait()
        print("\nshutting down")
    finally:
        server.stop()
        if metrics_server is not None:
            metrics_server.close()
        if snapshot_writer is not None:
            snapshot_writer.close()
            print(
                f"{snapshot_writer.lines} metric snapshots -> "
                f"{args.metrics_snapshots}"
            )
    # The stop drained the server: queued admissions resolved as shed,
    # in-flight exchanges got their grace, and a cluster's workers
    # exited, shipped their final registry snapshots and had their
    # partial recordings and span dumps merged.
    from repro.metrics.collector import gateway_summary

    summary = gateway_summary(server.metrics_snapshot())
    print(
        f"admitted {summary['admitted']} in {summary['flushes']} batches "
        f"(mean size {summary['mean_batch_size']:.1f}), "
        f"shed {summary['shed']}"
    )
    close()
    if args.state_dir:
        print(f"state written to {args.state_dir}")
    if args.record:
        print(f"recorded {_jsonl_records(args.record)} decisions "
              f"-> {args.record}")
    if args.trace_out:
        print(f"{_jsonl_records(args.trace_out)} sampled spans "
              f"-> {args.trace_out}")
    if cluster and any(code not in (0, None) for code in server.exit_codes):
        print(f"worker exit codes: {server.exit_codes}")
        return 1
    return 0


def _cmd_state(args: argparse.Namespace) -> int:
    from repro.state import (
        load_snapshot,
        merge_snapshots,
        read_shard_files,
        save_snapshot,
        split_snapshot,
        write_shard_files,
    )

    if args.state_command == "serve":
        from repro.obs.registry import MetricsRegistry
        from repro.state.net import StateServer

        registry = MetricsRegistry()
        server = StateServer(
            address=args.bind,
            snapshot_path=args.snapshot,
            registry=registry,
        )
        shutdown = _install_shutdown_signals()
        try:
            server.start()
        except ValueError as exc:
            print(exc)
            return 2
        metrics_server = None
        try:
            print(
                f"serving admission state on {server.address}"
                + (f" (snapshot {args.snapshot})" if args.snapshot else "")
                + "; Ctrl-C or SIGTERM to stop",
                flush=True,
            )
            if args.metrics_port is not None:
                from repro.obs.http import MetricsHTTPServer

                host = server.address.split(":", 1)[0]
                if host.startswith("unix"):
                    host = "127.0.0.1"
                metrics_server = MetricsHTTPServer(
                    registry.snapshot, host=host, port=args.metrics_port
                ).start()
                print(f"metrics on {metrics_server.url}/metrics",
                      flush=True)
            shutdown.wait()
            print("\nshutting down")
        finally:
            server.stop()
            if metrics_server is not None:
                metrics_server.close()
        if args.snapshot:
            print(f"state written to {args.snapshot}")
        return 0

    if args.state_command == "topology":
        from repro.state.sharded import MultiNodeStateStore

        nodes = [
            part.strip() for part in args.nodes.split(",") if part.strip()
        ]
        if not nodes:
            print(f"no addresses in --nodes {args.nodes!r}")
            return 2
        if args.add and args.remove:
            print("--add and --remove are exclusive; apply one change "
                  "at a time")
            return 2
        try:
            store = MultiNodeStateStore(nodes, replicas=args.replicas)
        except ValueError as exc:
            print(exc)
            return 2
        try:
            if args.add is None and args.remove is None:
                for node in store.stores:
                    topology = node.topology()
                    print(
                        f"{node.address}: epoch "
                        f"{topology.get('epoch', 0)}, "
                        f"{len(node)} entries"
                    )
                return 0
            if args.add is not None:
                if args.add in nodes:
                    print(f"{args.add} is already a member")
                    return 2
                target = nodes + [args.add]
            else:
                if args.remove not in nodes:
                    print(f"{args.remove} is not a member of {nodes}")
                    return 2
                target = [n for n in nodes if n != args.remove]
                if not target:
                    print("cannot remove the last node")
                    return 2
            report = store.apply_topology(target)
        except ValueError as exc:
            print(exc)
            return 2
        finally:
            store.close()
        print(report.summary())
        for address, moved in report.per_node:
            print(f"  {address}: {moved} entries handed off")
        return 0

    if args.state_command == "snapshot":
        try:
            shards = read_shard_files(args.state_dir)
        except ValueError as exc:
            print(exc)
            return 2
        if not shards:
            print(f"no shard snapshots in {args.state_dir}")
            return 1
        merged = merge_snapshots(shards)
        save_snapshot(merged, args.out)
        entries = sum(
            len(e) for e in merged.get("namespaces", {}).values()
        )
        print(
            f"merged {len(shards)} shard(s) -> {args.out} "
            f"({entries} entries)"
        )
        return 0

    if args.state_command == "restore":
        try:
            merged = load_snapshot(args.snapshot)
            parts = split_snapshot(merged, args.workers, args.replicas)
            paths = write_shard_files(
                args.state_dir, parts, replicas=args.replicas
            )
        except ValueError as exc:
            print(exc)
            return 2
        for path in paths:
            print(f"wrote {path}")
        return 0

    # show
    import pathlib

    path = pathlib.Path(args.path)
    try:
        if path.is_dir():
            shards = read_shard_files(path)
            if not shards:
                print(f"no shard snapshots in {path}")
                return 1
            documents = [
                (f"shard {i}", doc) for i, doc in enumerate(shards)
            ]
        else:
            document = load_snapshot(path)
            kind = document.get("kind")
            if kind == "shard-file":
                documents = [(
                    f"shard {document['shard']} of {document['shards']}",
                    document["state"],
                )]
            else:
                documents = [("snapshot", document)]
    except ValueError as exc:
        print(exc)
        return 2
    for label, document in documents:
        print(f"{label}:")
        namespaces = document.get("namespaces", {})
        if not namespaces:
            print("  (empty)")
        for name, entries in namespaces.items():
            print(f"  {name}: {len(entries)} entries")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import random

    from repro.analysis.comparison import compare_policies
    from repro.analysis.synthesis import synthesize_table_policy
    from repro.policies import paper_policies

    print(compare_policies(paper_policies()).render())
    if args.targets:
        policy = synthesize_table_policy(args.targets)
        rng = random.Random(0)
        print(f"\nsynthesized policy for {len(args.targets)} budgets:")
        print(f"  {policy.describe()}")
        for score in range(len(args.targets)):
            print(
                f"  score {score}: difficulty "
                f"{policy.difficulty_for(float(score), rng)} "
                f"(budget {args.targets[score]:g}s)"
            )
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.replay import CAMPAIGNS, record_live, run_campaign

    if args.scenario not in CAMPAIGNS:
        print(f"unknown campaign {args.scenario!r}; "
              f"available: {', '.join(sorted(CAMPAIGNS))}")
        return 2
    campaign = CAMPAIGNS[args.scenario]
    if campaign.scale is not None:
        print(f"campaign {args.scenario!r} is large-scale: it aggregates "
              "outcomes and records no per-decision trace")
        return 2

    if args.target == "sim":
        run = run_campaign(campaign, record_path=args.out)
        print(run.result.render())
        print(f"\nrecorded {len(run.trace)} decisions -> {args.out}")
        return 0

    # Live capture: generate the campaign's open-loop workload, then
    # drive it sequentially through a real server with recording on.
    from repro.replay.campaign import _PROFILES
    from repro.traffic.generator import WorkloadGenerator

    generator = WorkloadGenerator(seed=campaign.seed)
    workload, _clients = generator.mixed_trace(
        [(_PROFILES[name], count) for name, count in campaign.populations],
        duration=campaign.duration,
    )
    entries = list(workload)
    try:
        trace = record_live(
            entries, campaign.spec, args.out, target=args.target
        )
    except ValueError as exc:
        print(exc)
        return 2
    print(f"fed {len(entries)} live requests through {args.target}; "
          f"recorded {len(trace)} decisions -> {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.errors import TraceFormatError
    from repro.replay import TraceReplayer, diff_decisions, replay_live
    from repro.traffic.trace import Trace

    try:
        trace = Trace.load_jsonl(args.trace)
    except TraceFormatError as exc:
        print(f"{args.trace}: {exc}")
        return 2
    try:
        if args.live:
            if args.speed:
                print("--speed only paces in-process replays; live replay "
                      "feeds sequentially at full speed")
                return 2
            result = replay_live(trace, target=args.target or "gateway")
        else:
            result = TraceReplayer(
                trace, target=args.target or "inproc", speed=args.speed
            ).run()
    except ValueError as exc:
        print(exc)
        return 2
    print(
        f"replayed {result.requests} requests through {result.target}: "
        f"{len(result.decisions)} decisions in {result.elapsed:.3f}s "
        f"({result.throughput:,.0f}/s)"
    )
    if args.out:
        result.trace.dump_jsonl(args.out)
        print(f"decision trace written to {args.out}")
    if not args.diff:
        return 0

    recorded = trace.decisions()
    if not recorded:
        print("trace carries no recorded decisions to diff against")
        return 2
    # Live replays match by position (the server assigned fresh request
    # ids) and ignore client_ip (recorded clients are remapped onto
    # loopback source addresses; see repro.replay.loopback_plan).
    report = diff_decisions(
        recorded,
        result.decisions,
        match_by="position" if args.live else "request_id",
        ignore={"client_ip"} if args.live else (),
    )
    print()
    print(report.render())
    if args.diff_report:
        with open(args.diff_report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"diff report written to {args.diff_report}")
    return 0 if report.identical else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from repro.net.sim.links import LINK_PROFILES
    from repro.replay import CAMPAIGNS, run_campaign

    if args.list_links:
        for name in sorted(LINK_PROFILES):
            profile = LINK_PROFILES[name]
            print(f"{name}: {profile.note}")
        return 0
    if args.list or args.scenario is None:
        for name in sorted(CAMPAIGNS):
            campaign = CAMPAIGNS[name]
            tag = (
                f" [scale: {campaign.agents:,} agents]"
                if campaign.scale is not None
                else ""
            )
            print(f"{name}: {campaign.description}{tag}")
        return 0 if args.list else 2
    if args.scenario not in CAMPAIGNS:
        print(f"unknown campaign {args.scenario!r}; "
              f"available: {', '.join(sorted(CAMPAIGNS))}")
        return 2
    campaign = CAMPAIGNS[args.scenario]
    if args.link:
        if campaign.scale is None:
            print(f"campaign {args.scenario!r} is not large-scale; "
                  "--link applies only to scale campaigns (the link "
                  "substrate lives in the vectorized engine)")
            return 2
        links = dict(campaign.scale.links)
        for override in args.link:
            pop, sep, profile = override.partition("=")
            if not sep or not pop or not profile:
                print(f"--link expects POP=PROFILE, got {override!r}")
                return 2
            if profile == "none":
                links.pop(pop, None)
            else:
                links[pop] = profile
        try:
            campaign = _dc.replace(
                campaign,
                scale=_dc.replace(campaign.scale, links=links),
            )
        except ValueError as exc:
            # Unknown profile / population — the specs validate loudly.
            print(exc)
            return 2
    tracer = None
    if args.trace_out:
        from repro.obs.tracing import RequestTracer

        tracer = RequestTracer(sample_every=args.trace_every)
    try:
        run = run_campaign(
            campaign,
            record_path=args.record,
            tracer=tracer,
            snapshot_path=args.metrics_snapshots,
        )
    except ValueError as exc:
        # e.g. --record of a large-scale campaign (they aggregate
        # outcomes; the library owns that rule).
        print(exc)
        return 2
    print(run.result.render())
    if args.record:
        print(f"\ngolden trace written to {args.record}")
    if tracer is not None:
        tracer.dump(
            args.trace_out,
            meta={
                "recorder": "campaign",
                "campaign": campaign.name,
                "sample_every": args.trace_every,
            },
        )
        print(f"{len(tracer)} sampled spans -> {args.trace_out}")
    if args.metrics_snapshots and campaign.scale is not None:
        print(f"metric snapshots -> {args.metrics_snapshots}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tracing import load_spans, render_spans

    try:
        meta, spans = load_spans(args.file)
    except ValueError as exc:
        print(exc)
        return 2
    if not spans:
        print(f"{args.file}: no spans recorded")
        return 1
    outcomes: dict[str, int] = {}
    for span in spans:
        outcome = span.get("outcome", "?")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    breakdown = ", ".join(
        f"{count} {outcome}" for outcome, count in sorted(outcomes.items())
    )
    source = meta.get("recorder") or meta.get("campaign")
    origin = f" from {source}" if source else ""
    print(f"{len(spans)} sampled spans{origin} ({breakdown})")
    print()
    print(render_spans(spans, limit=args.limit))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from repro.bench.runner import EXPERIMENTS, run_experiment
    from repro.core.errors import ComponentNotFoundError

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_experiment(args.experiment)
    except ComponentNotFoundError:
        print(f"unknown experiment {args.experiment!r}; "
              f"available: {', '.join(sorted(EXPERIMENTS))}")
        return 2
    finally:
        profiler.disable()
    print(result.render())
    print()
    stats = pstats.Stats(profiler)
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    print(f"top {args.top} hotspots by cumulative time:")
    stats.print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw profile written to {args.out}")
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.bench.kernels import KernelBenchConfig, run_kernel_microbench

    result = run_kernel_microbench(
        KernelBenchConfig(size=args.size, repeats=args.repeats)
    )
    print(result.render())
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.bench.scenario import run_scenario_json

    with open(args.file, encoding="utf-8") as handle:
        result = run_scenario_json(handle.read())
    print(result.render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    import pathlib

    from repro.bench.runner import EXPERIMENTS

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for experiment_id, harness in EXPERIMENTS.items():
        result = harness()
        path = out_dir / f"{experiment_id}.json"
        path.write_text(result.to_json(), encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _cmd_all(_args: argparse.Namespace) -> int:
    from repro.bench.runner import run_all

    for result in run_all():
        print(result.render())
        print()
    return 0


_COMMANDS = {
    "figure2": _cmd_figure2,
    "calibrate": _cmd_calibrate,
    "accuracy": _cmd_accuracy,
    "throttle": _cmd_throttle,
    "ablations": _cmd_ablations,
    "demo": _cmd_demo,
    "serve": _cmd_serve,
    "state": _cmd_state,
    "analyze": _cmd_analyze,
    "record": _cmd_record,
    "replay": _cmd_replay,
    "campaign": _cmd_campaign,
    "trace": _cmd_trace,
    "kernels": _cmd_kernels,
    "profile": _cmd_profile,
    "scenario": _cmd_scenario,
    "export": _cmd_export,
    "all": _cmd_all,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary of every subcommand: a file that cannot be
    read or written (``OSError``) or an input the library refuses
    (``ReproError``) ends the command with its message on one line and
    exit 2, never a traceback.
    """
    args = build_parser().parse_args(argv)
    from repro.core.errors import ReproError

    try:
        return _COMMANDS[args.command](args)
    except (OSError, ReproError) as exc:
        print(exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
