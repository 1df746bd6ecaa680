"""``serve-*``: a real ``repro serve --gateway`` child under live traffic.

``serve-steady`` is an open loop at a fixed rate well below the knee —
small batches, so the accumulator window, wire parsing and
per-connection asyncio cost dominate, and a benign quarter exercises
verify/replay/feedback.  ``serve-saturate`` is a closed loop of 32
challenge-only callers against the same server command — the same
accumulator used the other way, CPU-bound in batches of 16-32.

Output checks: every exchange launched in the window gets exactly one
well-formed reply per request line it sent (a puzzle, then ``OK`` for
benign clients); anything else — refused connect, ``ERR`` (shed),
closed socket, time-out — counts as failed.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import socket
import time
import urllib.request

from repro.net.live import protocol
from repro.obs.tracing import load_spans
from repro.pow.generator import PuzzleGenerator
from repro.pow.puzzle import Solution

from perfbench import inputs
from perfbench.calibrate import Calibrator
from perfbench.loadgen import Exchange, LoadGenerator
from perfbench.procs import Child
from perfbench.stats import median, percentile, top_percentile
from perfbench.trace import Tracer
from perfbench.workloads import RunResult

__all__ = ["run_serve", "STEADY_RATE", "SATURATE_CALLERS"]

#: Offered rate of ``serve-steady`` (requests/s), ~40% of the reference
#: box's knee, and its benign share.
STEADY_RATE = 1000.0
BENIGN_SHARE = 0.25
#: Callers kept waiting on ``serve-saturate``.
SATURATE_CALLERS = 32
#: The policy the admit and sim workloads use too.  Under the CLI's
#: default policy-2 (+4 bits) the benign quarter's hashing costs the
#: single generator thread 0.16 CPU and stalls it 6-14 ms at a time,
#: which showed as late_p99 of 6-11 ms and tripped ``generator_bound``.
SERVE_POLICY = "policy-1"
#: Seconds between host-speed samples in the generator's loop (each
#: holds the loop for ~0.25 ms, a third of a benign client's solve).
CALIBRATION_INTERVAL = 0.02
#: Seconds of unrecorded traffic before the measured window.
WARM_UP = 1.0
#: Set-ups per run; the median is reported, the last one is measured on.
SETUP_ROUNDS = 3

_SERVE_BANNER = r"serving AI-assisted PoW on ([\d.]+):(\d+)"
_METRICS_BANNER = r"metrics on (http://[\d.]+:\d+)/metrics"
#: Lines timed per protocol function in a traced run.
_PROTOCOL_SAMPLE = 2000


def _probe(address: tuple[str, int], client: inputs.ServeClient) -> None:
    """One blocking challenge-only exchange: the server really serves."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(client.request_line)
        reply = sock.makefile("rb").readline()
    if not reply.startswith(b"PUZZLE "):
        raise RuntimeError(f"server's first reply was {reply!r}")


class _Window:
    """Server and generator CPU sampled at the window's two edges."""

    def __init__(self, child: Child) -> None:
        self._child = child
        self.edges: list[tuple[float, float, float]] = []

    def mark(self) -> None:
        self.edges.append(
            (time.monotonic(), self._child.cpu_seconds(), time.process_time())
        )

    @property
    def seconds(self) -> float:
        return self.edges[1][0] - self.edges[0][0]

    @property
    def server_cpu(self) -> float:
        return self.edges[1][1] - self.edges[0][1]

    @property
    def generator_cpu(self) -> float:
        return self.edges[1][2] - self.edges[0][2]


def _drive(
    generator: LoadGenerator, calibrator: Calibrator, child: Child,
    clients: list[inputs.ServeClient], offsets: list[float] | None,
    seconds: float,
) -> tuple[_Window, float, float]:
    """Closed loop over ``clients``, or open loop when given ``offsets``."""
    # The inputs are ~10^5 long-lived objects; keep the collector from
    # re-walking them mid-window (a 10-25 ms stall of the only thread).
    gc.collect()
    gc.freeze()
    window = _Window(child)
    start = generator.clock() + 0.05
    opens, closes = start + WARM_UP, start + WARM_UP + seconds
    generator.call_at(opens, window.mark)
    generator.call_at(closes, window.mark)

    def calibrate() -> None:
        calibrator.sample()
        if generator.clock() < closes:
            generator.call_at(generator.clock() + CALIBRATION_INTERVAL, calibrate)

    generator.call_at(start, calibrate)
    if offsets is None:
        generator.closed_loop(itertools.cycle(clients), SATURATE_CALLERS, closes)
    else:
        generator.open_loop(clients, offsets, start)
    return window, opens, closes


def run_serve(
    saturate: bool, seed: int, seconds: float, traced: bool, scratch: str
) -> RunResult:
    args = ["serve", "--gateway", "--port", "0", "--policy", SERVE_POLICY]
    spans_path = os.path.join(scratch, "gateway-spans.jsonl")
    if traced:
        args += ["--metrics-port", "0", "--trace-out", spans_path,
                 "--trace-every", "10"]
    # Inputs first: generating them takes longer than the warm-up.
    offsets = None
    if saturate:
        clients = inputs.pick_clients(seed, 1 << 16, BENIGN_SHARE)
    else:
        offsets = inputs.poisson_schedule(seed, STEADY_RATE, WARM_UP + seconds)
        clients = inputs.pick_clients(seed, len(offsets), BENIGN_SHARE)

    calibrator = Calibrator()
    setups: list[float] = []
    with contextlib.ExitStack() as live:

        def set_up():
            """Start a server and see it serve; ``live`` owns the child."""
            child = live.enter_context(Child(args, _SERVE_BANNER, scratch))
            address = (child.match.group(1), int(child.match.group(2)))
            _probe(address, clients[0])
            return child, address

        for _ in range(SETUP_ROUNDS):
            live.close()  # the previous round's; the last one is measured on
            (child, address), took = calibrator.bracket(set_up)
            setups.append(took)

        with LoadGenerator(address) as generator:
            window, opens, closes = _drive(
                generator, calibrator, child, clients, offsets, seconds
            )
        summary = None
        if traced:
            url = child.find(_METRICS_BANNER).group(1) + "/summary"
            with urllib.request.urlopen(url, timeout=10.0) as reply:
                summary = json.load(reply)
    # Leaving the block sent SIGTERM and reaped the child: its rusage is
    # final and, when traced, its span file is written.
    slowdown = calibrator.slowdown(opens, closes)

    if saturate:
        measured = [
            x for x in generator.exchanges
            if x.due >= opens and x.finished is not None and x.finished <= closes
        ]
    else:
        measured = [x for x in generator.exchanges if x.due >= opens]
    good = [x for x in measured if x.ok]
    failed = len(measured) - len(good)
    admit = [x.admitted - x.due for x in good]
    benign = [x for x in good if x.client.benign]
    hostile = [x for x in good if not x.client.benign]

    def mean_difficulty(exchanges: list[Exchange]) -> float:
        return sum(x.difficulty for x in exchanges) / len(exchanges)

    # The closed loop is CPU-bound, so its numbers scale with the host's
    # momentary speed and are reported at nominal speed.  The open loop
    # is not: it completes what it is offered, and its latency is mostly
    # the 2 ms batch window and queueing at ~50% utilisation — measured
    # over 24 runs, scaling it made its spread worse (7.6% vs 6.4%).
    scale = slowdown if saturate else 1.0
    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": len(good) / window.seconds * scale,
        "latency_p50_ms": median(admit) / scale * 1e3,
        "peak_rss_mb": child.peak_rss_mb,
        "throttle_bits": mean_difficulty(hostile) - mean_difficulty(benign),
    }

    late = [x.launched - x.due for x in measured]
    generator_share = window.generator_cpu / window.seconds
    server_share = window.server_cpu / window.seconds
    if saturate:
        generator_bound = generator_share > 0.85 and server_share < 0.9
    else:
        generator_bound = percentile(late, 99.0) * 1e3 > 10.0
    notes = [
        f"{len(measured)} exchanges measured ({len(benign)} benign), "
        f"generator CPU {generator_share:.2f}, server CPU {server_share:.2f}, "
        f"late p99 {percentile(late, 99.0) * 1e3:.2f} ms",
        f"host slowdown {slowdown:.2f}; server CPU "
        f"{window.server_cpu / len(good) * 1e6:.0f} us per exchange",
    ]
    errors = sorted({x.error for x in measured if not x.ok})
    if errors:
        notes.append(f"failures: {'; '.join(str(e) for e in errors[:5])}")
    if child.exit_status != 0:
        failed = max(failed, 1)
        notes.append(f"server exited with status {child.exit_status}")

    result = RunResult(
        attempted=len(measured), failed=failed, metrics=metrics,
        generator_bound=generator_bound, notes=notes,
    )
    if traced:
        result.tracer = _exchange_spans(measured)
        result.layers = _layers(
            generator, measured, good, admit, late, generator_share,
            summary, spans_path, metrics, slowdown, window,
        )
    return result


def _exchange_spans(measured: list[Exchange]) -> Tracer:
    """Each measured exchange as a span with its stages as children."""
    tracer = Tracer()
    for x in measured:
        root = len(tracer.spans)
        tracer.spans.append(["loadgen.exchange", -1, x.due, x.finished])
        for name, began, ended in (
            ("loadgen.late", x.due, x.launched),
            ("loadgen.connect", x.launched, x.connected),
            ("net.gateway.admit", x.connected, x.admitted),
            ("client.solve_and_redeem", x.admitted, x.finished),
        ):
            if began is not None and ended is not None:
                tracer.spans.append([name, root, began, ended])
    return tracer


def _layers(
    generator: LoadGenerator, measured, good, admit, late,
    generator_share: float, summary: dict, spans_path: str,
    metrics: dict, slowdown: float, window: _Window,
) -> dict[str, float]:
    benign = [x for x in good if x.solve]
    exchange = [x.finished - x.due for x in benign]
    connect = [x.connected - x.launched for x in good]
    tail = top_percentile(len(admit))
    layers = {
        "sample_count": float(len(good)),
        "host.slowdown": slowdown,
        "traced.throughput_per_s": metrics["throughput_per_s"],
        "traced.latency_p50_ms": metrics["latency_p50_ms"],
        "cpu_us_per_op": window.server_cpu / len(good) * 1e6,
        "loadgen.sent": float(len(measured)),
        "loadgen.late_p50_ms": median(late) * 1e3,
        "loadgen.late_p99_ms": percentile(late, 99.0) * 1e3,
        "loadgen.cpu_share": generator_share,
        "loadgen.inflight_max": float(generator.inflight_max),
        "loadgen.connect_p50_us": median(connect) * 1e6,
        "loadgen.admit_p99_ms": percentile(admit, 99.0) * 1e3,
        "loadgen.admit_p999_ms": percentile(admit, 99.9) * 1e3,
        "loadgen.admit_top_pct": tail,
        "loadgen.admit_top_ms": percentile(admit, tail) * 1e3,
        "loadgen.exchange_p50_ms": median(exchange) * 1e3,
        "loadgen.exchange_p99_ms": percentile(exchange, 99.0) * 1e3,
        "pow.solver.solve_us_benign":
            median([x.solve_seconds for x in benign]) * 1e6,
        "pow.solver.hashes_per_solve":
            sum(x.solve_hashes for x in benign) / max(1, len(benign)),
    }
    layers.update(_protocol_layers(good))
    layers.update(_gateway_layers(summary, spans_path, admit, connect))
    return layers


def _protocol_layers(good: list[Exchange]) -> dict[str, float]:
    """Direct timed calls of the wire functions on the generated lines."""
    sample = good[:_PROTOCOL_SAMPLE]
    lines = [x.client.request_line.decode("ascii") for x in sample]
    issuer = PuzzleGenerator()
    puzzles = [
        issuer.issue(x.client.ip, x.difficulty, now=1_700_000_000.0)
        for x in sample
    ]
    solutions = [
        Solution(puzzle_seed=p.seed, nonce=123456, attempts=1000).to_wire()
        for p in puzzles
    ]

    def mean_us(call, items) -> float:
        began = time.perf_counter()
        for item in items:
            call(item)
        return (time.perf_counter() - began) / len(items) * 1e6

    return {
        "net.live.protocol.parse_request_us":
            mean_us(protocol.parse_request, lines),
        "net.live.protocol.encode_puzzle_us":
            mean_us(lambda puzzle: puzzle.to_wire(), puzzles),
        "net.live.protocol.parse_solution_us":
            mean_us(Solution.from_wire, solutions),
        "net.live.protocol.bytes_per_exchange":
            sum(x.bytes for x in good) / len(good),
    }


def _series(summary: dict, name: str) -> list[dict]:
    for metric in summary["metrics"]:
        if metric["name"] == name:
            return metric["series"]
    return []


def _gateway_layers(
    summary: dict, spans_path: str, admit, connect
) -> dict[str, float]:
    """The server's own counters (/summary) and sampled spans (JSONL).

    Both cover the child's whole life — probe and warm-up included — not
    just the measured window.
    """
    batches = _series(summary, "gateway_batch_size")
    depth = _series(summary, "gateway_queue_depth")
    layers = {
        "net.gateway.batch_size_mean":
            batches[0]["sum"] / batches[0]["count"] if batches else 0.0,
        "net.gateway.flushes": float(sum(
            s["value"] for s in _series(summary, "gateway_flushes_total")
        )),
        "net.gateway.queue_depth_max": depth[0]["max"] if depth else 0.0,
        "net.gateway.shed": float(sum(
            s["value"] for s in _series(summary, "gateway_shed_total")
        )),
    }
    _, spans = load_spans(spans_path)
    gaps: dict[str, list[float]] = {
        "accept_to_flush": [], "flush_to_issue": [],
        "issue_to_solution": [], "solution_to_respond": [],
    }
    for span in spans:
        # The server keys open spans by id(request), and a flood client
        # that never answers leaves its span open to be re-entered by a
        # later request reusing the id.  The accept belongs to the first
        # flush and issue; a solution answers the latest issue.
        stages: dict[str, dict] = {}
        latest: dict[str, dict] = {}
        for stage in span["stages"]:
            stages.setdefault(stage["stage"], stage)
            latest[stage["stage"]] = stage
        if "flush" in stages and "issue" in stages:
            # accept is stamped on the wall clock by the gateway; the
            # later stages are monotonic offsets from the flush.
            gaps["accept_to_flush"].append(
                (stages["flush"]["at"] - stages["accept"]["at"]) * 1e3
            )
            gaps["flush_to_issue"].append(
                stages["issue"]["offset_ms"] - stages["flush"]["offset_ms"]
            )
        if "solution" in stages and "respond" in stages:
            gaps["issue_to_solution"].append(
                stages["solution"]["offset_ms"] - latest["issue"]["offset_ms"]
            )
            gaps["solution_to_respond"].append(
                stages["respond"]["offset_ms"] - stages["solution"]["offset_ms"]
            )

    def mean(values) -> float:
        return sum(values) / len(values) if values else 0.0

    for name, values in gaps.items():
        layers[f"net.gateway.{name}_ms"] = mean(values)
    layers["net.gateway.unattributed_ms"] = (
        mean(admit) * 1e3
        - mean(connect) * 1e3
        - layers["net.gateway.accept_to_flush_ms"]
        - layers["net.gateway.flush_to_issue_ms"]
    )
    return layers
