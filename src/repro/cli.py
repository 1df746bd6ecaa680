"""Command-line interface: ``python -m repro`` / ``repro-pow``.

Subcommands map one-to-one onto the experiment harness plus two
interactive modes:

* ``figure2``   — regenerate the paper's Figure 2 (table + ASCII chart);
* ``calibrate`` — the 31 ms calibration table and this machine's hash rate;
* ``accuracy``  — the DAbR 80 % accuracy experiment;
* ``throttle``  — the three-setup throttling comparison;
* ``ablations`` — the policy/epsilon/economics ablation tables;
* ``demo``      — one full challenge/solve/verify exchange, verbosely;
* ``serve``     — run the live TCP server in the foreground (one
  process, or ``--workers N`` gateway worker processes sharded by
  client-IP hash; SIGTERM drains gracefully either way);
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
  vectorized engine — or, with ``--procs N``, hash-sharded across N
  worker processes — and record no trace);
* ``trace``     — render a sampled-span dump (from ``serve --trace-out``
  or ``campaign --trace-out``) as a per-stage waterfall;
* ``kernels``   — microbench the residual per-cohort array kernels on
  every available backend (numpy always; numba when importable);
* ``profile``   — run any registered experiment under cProfile and
  print the top cumulative hotspots (multi-process experiments fold
  their workers' profiles in);
* ``all``       — every experiment, in DESIGN.md order.
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main", "build_parser"]


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

    serve = sub.add_parser("serve", help="run the live TCP server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377)
    serve.add_argument("--policy", default="policy-2")
    serve.add_argument(
        "--gateway", action="store_true",
        help="serve through the async micro-batching admission gateway "
             "instead of one thread per connection",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.002, metavar="SECONDS",
        help="gateway: upper bound on how long a batch stays open; it "
             "normally closes as soon as arrivals stop (default 2 ms)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="gateway: flush as soon as this many requests queue",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=256,
        help="gateway: bound on queued admissions before shedding",
    )
    serve.add_argument(
        "--shed-policy",
        choices=(
            "drop-newest", "drop-reputation", "drop-global-reputation"
        ),
        default="drop-newest",
        help="gateway: victim selection when the queue is full "
             "(drop-global-reputation needs --state-server)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="gateway worker processes, each owning one admission-state "
             "shard routed by client-IP hash (N > 1 implies --gateway)",
    )
    serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="restore admission state from DIR's shard snapshots at boot "
             "and rewrite them at graceful shutdown (gateway modes only)",
    )
    serve.add_argument(
        "--state-server", default=None, metavar="ADDR[,ADDR...]",
        help="keep admission state on running `repro state serve` "
             "node(s) (host:port or unix:/path; several addresses form "
             "a consistent-hash multi-node store) instead of in-process "
             "dicts; workers survive restarts statefully and may share "
             "reputation (cluster mode only, excludes --state-dir)",
    )
    serve.add_argument(
        "--replicas", type=int, default=64, metavar="N",
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
        "--trace-every", type=int, default=100, metavar="N",
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
    restore.add_argument("--workers", type=int, default=1, metavar="N")
    restore.add_argument(
        "--replicas", type=int, default=64, metavar="N",
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
        "--target", default="inproc",
        help="replay path: inproc (default), gateway, or cluster:N",
    )
    replay.add_argument(
        "--live", action="store_true",
        help="replay over real TCP through a gateway instead of "
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
             "FILE (callback campaigns only; render with `repro trace`)",
    )
    campaign.add_argument(
        "--trace-every", type=int, default=1, metavar="N",
        help="with --trace-out: sample every Nth request (default 1)",
    )
    campaign.add_argument(
        "--metrics-snapshots", default=None, metavar="FILE",
        help="write periodic registry snapshots (phase timings, link "
             "counters) to FILE during a large-scale campaign",
    )
    campaign.add_argument(
        "--procs", type=int, default=None, metavar="N",
        help="override a scale campaign's worker-process count: 1 runs "
             "the in-process engine, N>1 hash-shards agents across N "
             "processes (see DESIGN.md §1.8)",
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
        "--size", type=int, default=100_000, metavar="N",
        help="elements per kernel invocation (default 100000)",
    )
    kernels.add_argument(
        "--repeats", type=int, default=30, metavar="N",
        help="timed repeats per kernel/backend; the minimum is "
             "reported (default 30)",
    )

    profile = sub.add_parser(
        "profile",
        help="run an experiment under cProfile and print hotspots",
    )
    profile.add_argument(
        "experiment", metavar="EXPERIMENT-ID",
        help="registered experiment id (fig2, thr-batch, megasim, ...)",
    )
    profile.add_argument(
        "--top", type=int, default=20,
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


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.spec import FrameworkSpec

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 2
    if args.state_dir and args.workers == 1 and not args.gateway:
        print("--state-dir requires --gateway or --workers > 1")
        return 2
    if args.state_server and args.workers == 1:
        print("--state-server requires --workers > 1 (cluster mode)")
        return 2
    if args.state_server and args.state_dir:
        print("--state-server and --state-dir are exclusive: state "
              "lives on the server(s), not in local shard files")
        return 2
    if (
        args.shed_policy == "drop-global-reputation"
        and not args.state_server
    ):
        print("--shed-policy drop-global-reputation needs "
              "--state-server (the global view lives there)")
        return 2
    if args.replicas < 1:
        print(f"--replicas must be >= 1, got {args.replicas}")
        return 2
    if args.trace_every < 1:
        print(f"--trace-every must be >= 1, got {args.trace_every}")
        return 2
    if (
        args.metrics_snapshots
        and args.workers > 1
        and args.metrics_port is None
    ):
        # Workers only publish registry snapshots to the parent when an
        # endpoint consumes them; the writer rides the same stream.
        print("--metrics-snapshots with --workers > 1 requires "
              "--metrics-port")
        return 2
    spec = FrameworkSpec(policy=args.policy)
    recorder = None
    if args.record:
        if spec.feedback:
            # Feedback reacts to solve *outcomes*; a challenge-only
            # replay cannot reproduce those, so scores will drift.
            # Recording stays useful (the diff harness will show the
            # drift), but bit-identical replay needs a feedback-free
            # recipe — which campaigns use by construction.
            print(
                "note: behavioural feedback is enabled; challenge-only "
                "replays of this trace will show score drift "
                "(`repro record`/`repro campaign` traces replay "
                "bit-identically)",
                flush=True,
            )
        if args.workers == 1:
            from repro.replay import TraceRecorder

            recorder = TraceRecorder()

    registry = None
    tracer = None
    if args.workers > 1:
        from repro.net.gateway.cluster import GatewayCluster

        server = GatewayCluster(
            spec,
            workers=args.workers,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            batch_window=args.batch_window,
            queue_limit=args.queue_limit,
            shed_policy=args.shed_policy,
            state_dir=args.state_dir,
            state_server=args.state_server,
            replicas=args.replicas,
            record_path=args.record,
            metrics_port=args.metrics_port,
            trace_every=args.trace_every if args.trace_out else 0,
            trace_path=args.trace_out,
        )
        mode = (
            f"{args.workers} gateway workers sharded by client-IP hash "
            f"(batch<={args.max_batch}, "
            f"window {args.batch_window * 1000:g} ms, "
            f"queue<={args.queue_limit}, {args.shed_policy}"
            + (f", state {args.state_dir}" if args.state_dir else "")
            + (
                f", state-server {args.state_server}"
                if args.state_server else ""
            )
            + ")"
        )
        metrics = None
    elif args.gateway:
        from repro.metrics.collector import GatewayMetrics
        from repro.net.gateway.cluster import make_shed_policy
        from repro.net.gateway.server import GatewayServer
        from repro.state import read_shard_file, write_shard_file

        framework = spec.build()
        if args.state_dir:
            try:
                snapshot = read_shard_file(args.state_dir, 0, 1)
            except ValueError as exc:
                print(exc)
                return 2
            if snapshot is not None:
                framework.restore(snapshot)
        metrics = GatewayMetrics()
        registry = metrics.registry
        if args.trace_out:
            from repro.obs.tracing import RequestTracer

            tracer = RequestTracer(
                sample_every=args.trace_every, registry=registry
            )
        server = GatewayServer(
            framework,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            batch_window=args.batch_window,
            queue_limit=args.queue_limit,
            shed_policy=make_shed_policy(args.shed_policy),
            metrics=metrics,
            recorder=recorder,
            tracer=tracer,
        )
        mode = (
            f"gateway (batch<={args.max_batch}, "
            f"window {args.batch_window * 1000:g} ms, "
            f"queue<={args.queue_limit}, {args.shed_policy})"
        )
    else:
        from repro.core.events import EventKind
        from repro.net.live.server import LiveServer
        from repro.obs.registry import METRIC_CATALOG, MetricsRegistry

        metrics = None
        framework = spec.build()
        if recorder is not None:
            recorder.attach(framework.events)
        registry = MetricsRegistry()
        responses = registry.counter(
            "pipeline_responses_total",
            METRIC_CATALOG["pipeline_responses_total"],
            labels=("status",),
        )

        def _count_response(event) -> None:
            response = event.payload.get("response")
            if response is not None:
                responses.inc(status=response.status.value)

        framework.events.subscribe(
            _count_response, kinds=[EventKind.RESPONSE_SERVED]
        )
        if args.trace_out:
            from repro.obs.tracing import RequestTracer

            tracer = RequestTracer(
                sample_every=args.trace_every, registry=registry
            ).attach(framework.events)
        server = LiveServer(framework, host=args.host, port=args.port)
        mode = "thread-per-connection"

    shutdown = _install_shutdown_signals()
    try:
        server.start()
    except ValueError as exc:
        # e.g. a state directory split for a different worker count.
        print(exc)
        return 2
    metrics_server = None
    snapshot_writer = None
    try:
        host, port = server.address
        print(f"serving AI-assisted PoW on {host}:{port} "
              f"(policy {args.policy}, {mode}); Ctrl-C or SIGTERM to stop",
              flush=True)
        metrics_url = None
        if args.workers > 1:
            metrics_url = server.metrics_url
        elif args.metrics_port is not None:
            from repro.obs.http import MetricsHTTPServer

            metrics_server = MetricsHTTPServer(
                registry.snapshot, host=args.host, port=args.metrics_port
            ).start()
            metrics_url = metrics_server.url
        if metrics_url is not None:
            print(f"metrics on {metrics_url}/metrics", flush=True)
        if args.metrics_snapshots:
            from repro.obs.http import SnapshotWriter

            provider = (
                server.metrics_snapshot
                if args.workers > 1
                else registry.snapshot
            )
            snapshot_writer = SnapshotWriter(
                args.metrics_snapshots, provider
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
    # in-flight exchanges got their grace, workers exited 0.
    if args.workers > 1:
        summary = server.metrics_summary
        print(
            f"workers {summary.get('workers', 0)}: "
            f"admitted {summary.get('admitted', 0)} in "
            f"{summary.get('flushes', 0)} batches "
            f"(mean size {summary.get('mean_batch_size', 0.0):.1f}), "
            f"shed {summary.get('shed', 0)}"
        )
        if args.record and server.recorded_trace is not None:
            print(
                f"recorded {len(server.recorded_trace)} decisions "
                f"-> {args.record}"
            )
        if args.trace_out:
            print(
                f"{len(server.trace_spans)} sampled spans "
                f"-> {args.trace_out}"
            )
        if any(code not in (0, None) for code in server.exit_codes):
            print(f"worker exit codes: {server.exit_codes}")
            return 1
    elif metrics is not None:
        print(
            f"admitted {metrics.admitted_count} in "
            f"{len(metrics.batch_sizes)} batches "
            f"(mean size {metrics.mean_batch_size:.1f}), "
            f"shed {metrics.shed_count}"
        )
        if args.gateway and args.state_dir:
            write_shard_file(
                args.state_dir, 0, 1, server.framework.snapshot()
            )
            print(f"state written to {args.state_dir}")
    if recorder is not None:
        import dataclasses

        from repro.replay import spec_hash

        recorder.dump(
            args.record,
            config_hash=spec_hash(spec),
            meta={
                "recorder": "serve",
                "spec": dataclasses.asdict(spec),
            },
        )
        print(f"recorded {len(recorder)} decisions -> {args.record}")
    if tracer is not None and args.workers == 1:
        tracer.dump(
            args.trace_out,
            meta={"recorder": "serve", "sample_every": args.trace_every},
        )
        print(f"{len(tracer)} sampled spans -> {args.trace_out}")
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
        except (ValueError, OSError) as exc:
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
        from repro.state.net import MultiNodeStateStore

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
                for node in store.nodes:
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
        except (ConnectionError, OSError, ValueError) as exc:
            print(exc)
            return 2
        finally:
            store.close()
        print(report.summary())
        for address, moved in report.per_node:
            print(f"  -> {address}: {moved} entries received")
        return 0

    if args.state_command == "snapshot":
        try:
            shards = read_shard_files(args.state_dir)
        except (ValueError, OSError) as exc:
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
        if args.workers < 1:
            print(f"--workers must be >= 1, got {args.workers}")
            return 2
        if args.replicas < 1:
            print(f"--replicas must be >= 1, got {args.replicas}")
            return 2
        try:
            merged = load_snapshot(args.snapshot)
            parts = split_snapshot(merged, args.workers, args.replicas)
            paths = write_shard_files(
                args.state_dir, parts, replicas=args.replicas
            )
        except (ValueError, OSError) as exc:
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
            elif kind == "sharded":
                documents = [
                    (f"shard {i}", doc)
                    for i, doc in enumerate(document.get("shards", []))
                ]
            else:
                documents = [("snapshot", document)]
    except (ValueError, OSError) as exc:
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
    import dataclasses

    from repro.replay import (
        CAMPAIGNS,
        feed_live,
        parse_target,
        run_campaign,
        spec_hash,
    )

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

    try:
        kind, workers = parse_target(args.target)
    except ValueError as exc:
        print(exc)
        return 2
    if kind == "inproc":
        print("record targets: sim, gateway, cluster:N "
              "(inproc is a replay target)")
        return 2

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
    if kind == "gateway":
        from repro.net.gateway.server import GatewayServer
        from repro.replay import TraceRecorder

        framework = campaign.spec.build()
        recorder = TraceRecorder()
        with GatewayServer(framework, recorder=recorder) as server:
            feed_live(server.address, entries)
        recorder.dump(
            args.out,
            config_hash=spec_hash(campaign.spec),
            seed=campaign.seed,
            meta={
                "campaign": campaign.name,
                "recorder": "gateway-live",
                "spec": dataclasses.asdict(campaign.spec),
            },
        )
        recorded = len(recorder)
    else:
        from repro.net.gateway.cluster import GatewayCluster

        cluster = GatewayCluster(
            campaign.spec, workers=workers, record_path=args.out
        )
        with cluster:
            feed_live(cluster.address, entries)
        recorded = (
            len(cluster.recorded_trace)
            if cluster.recorded_trace is not None
            else 0
        )
    print(f"fed {len(entries)} live requests through {args.target}; "
          f"recorded {recorded} decisions -> {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.errors import TraceFormatError
    from repro.replay import (
        TraceReplayer,
        diff_decisions,
        replay_live_gateway,
    )
    from repro.traffic.trace import Trace

    try:
        trace = Trace.load_jsonl(args.trace)
    except TraceFormatError as exc:
        print(f"{args.trace}: {exc}")
        return 2
    if args.live:
        if args.target not in ("inproc", "gateway"):
            print("--live replays through a gateway; cluster targets "
                  "are in-process only")
            return 2
        if args.speed:
            print("--speed only paces in-process replays; live replay "
                  "feeds sequentially at full speed")
            return 2
        result = replay_live_gateway(trace)
    else:
        try:
            result = TraceReplayer(
                trace, target=args.target, speed=args.speed
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
    if args.procs is not None:
        if campaign.scale is None:
            print(f"campaign {args.scenario!r} is not large-scale; "
                  "--procs applies only to scale campaigns (the "
                  "parallel driver shards the vectorized engine)")
            return 2
        try:
            campaign = _dc.replace(
                campaign,
                scale=_dc.replace(campaign.scale, procs=args.procs),
            )
        except ValueError as exc:
            print(exc)
            return 2
    tracer = None
    if args.trace_out:
        from repro.obs.tracing import RequestTracer

        if args.trace_every < 1:
            print(f"--trace-every must be >= 1, got {args.trace_every}")
            return 2
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
    except OSError as exc:
        print(exc)
        return 2
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
    import glob
    import pstats
    import tempfile

    from repro.bench.runner import EXPERIMENTS, run_experiment
    from repro.core.errors import ComponentNotFoundError
    from repro.net.sim.parsim import PROFILE_DIR_ENV

    if args.top < 1:
        print(f"--top must be >= 1, got {args.top}")
        return 2
    profiler = cProfile.Profile()
    # Parallel experiments spend their time in worker processes, which
    # the parent's profiler cannot see; the env hook makes each worker
    # dump its own pstats here so the report covers the actual work.
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        os.environ[PROFILE_DIR_ENV] = tmp
        profiler.enable()
        try:
            result = run_experiment(args.experiment)
        except ComponentNotFoundError:
            print(f"unknown experiment {args.experiment!r}; "
                  f"available: {', '.join(sorted(EXPERIMENTS))}")
            return 2
        finally:
            profiler.disable()
            os.environ.pop(PROFILE_DIR_ENV, None)
        print(result.render())
        print()
        stats = pstats.Stats(profiler)
        worker_dumps = sorted(
            glob.glob(os.path.join(tmp, "parsim-worker-*.pstats"))
        )
        for dump in worker_dumps:
            stats.add(dump)
    if worker_dumps:
        print(f"aggregated {len(worker_dumps)} worker profiles into "
              "the parent's (multi-process experiment)")
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    print(f"top {args.top} hotspots by cumulative time:")
    stats.print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw profile written to {args.out}")
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.bench.kernels import KernelBenchConfig, run_kernel_microbench

    if args.size < 1:
        print(f"--size must be >= 1, got {args.size}")
        return 2
    if args.repeats < 1:
        print(f"--repeats must be >= 1, got {args.repeats}")
        return 2
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
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
