"""``admit-*``: the admission pipeline in-process, store local or remote.

Both workloads drive the identical request stream through
``challenge_batch`` (flushes of 16) and ``redeem``; the only difference
is the store the framework is built over — ``InMemoryStateStore`` or a
``RemoteStateStore`` talking to a ``repro state serve`` child.  Only
time inside ``challenge_batch``/``redeem`` is measured; building
requests and solving puzzles is the client's work and is untimed.

Output checks: honest solutions are served, bogus ones rejected, and
the SHA-256 over the ``(ip, score, difficulty)`` decision stream equals
that of a fresh in-memory reference framework replaying the same
stream — for ``admit-netstore`` that is the remote-vs-local parity
check, for ``admit-inproc`` a determinism check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import time
from array import array

from repro.core.errors import SolutionInvalidError
from repro.core.records import ClientRequest, ResponseStatus
from repro.core.spec import FrameworkSpec
from repro.pow.generator import PuzzleGenerator
from repro.pow.puzzle import Solution
from repro.pow.solver import HashSolver
from repro.pow.verifier import PuzzleVerifier
from repro.state import InMemoryStateStore
from repro.state.net import RemoteStateStore

from perfbench.calibrate import Calibrator
from perfbench.inputs import FLUSH_SIZE, AdmitStream
from perfbench.procs import Child, self_peak_rss_mb
from perfbench.stats import median, percentile
from perfbench.trace import TimedProxy, TimedStore, Tracer
from perfbench.workloads import RunResult

__all__ = ["run_admit", "SETUP_ROUNDS"]

#: offsets frozen: decisions must not depend on how fast the harness runs.
SPEC = FrameworkSpec(policy="policy-1", feedback_half_life=math.inf)

#: Set-ups per run; the median is reported, the last one is measured on.
SETUP_ROUNDS = 3

_STATE_BANNER = r"serving admission state on ([\d.]+:\d+)"
#: Flushes sampled for the direct generator/verifier timings.
_DIRECT_SAMPLE = 256


@dataclasses.dataclass
class AdmitLog:
    """Everything one pass of :func:`drive` observed."""

    flush_seconds: array = dataclasses.field(default_factory=lambda: array("d"))
    redeem_seconds: array = dataclasses.field(default_factory=lambda: array("d"))
    #: Host slowdown sampled right after each flush and its redeems.
    flush_slowdown: array = dataclasses.field(default_factory=lambda: array("d"))
    cpu_seconds: float = 0.0
    #: Peak RSS once every client has been seen once — a fixed amount
    #: of work, where the peak at the end grows with the host's speed.
    first_pass_rss_mb: float = 0.0
    requests: int = 0
    failed: int = 0
    #: Running SHA-256 of the decision stream after each first-pass flush.
    chain: list[str] = dataclasses.field(default_factory=list)
    #: First-pass difficulty (sum, count) per class: benign, hostile.
    difficulty: dict[bool, list[float]] = dataclasses.field(
        default_factory=lambda: {True: [0.0, 0], False: [0.0, 0]}
    )
    solve_seconds: list[float] = dataclasses.field(default_factory=list)
    solve_hashes: list[int] = dataclasses.field(default_factory=list)
    #: (ips, difficulties, timestamp) of recent flushes, and
    #: (puzzle, solution, ip, now) of recent honest redeems.
    issue_sample: list[tuple] = dataclasses.field(default_factory=list)
    verify_sample: list[tuple] = dataclasses.field(default_factory=list)

    @property
    def timed_seconds(self) -> float:
        return sum(self.flush_seconds) + sum(self.redeem_seconds)


def _bogus_solution(checker: PuzzleVerifier, puzzle, ip: str, now: float):
    """A well-formed solution whose digest misses the target."""
    for nonce in range(1 << 16):
        candidate = Solution(puzzle_seed=puzzle.seed, nonce=nonce, attempts=1)
        try:
            checker.verify(puzzle, candidate, ip, now=now)
        except SolutionInvalidError:
            return candidate
    raise RuntimeError(f"no invalid nonce found for difficulty {puzzle.difficulty}")


def drive(
    framework,
    stream: AdmitStream,
    *,
    seconds: float | None = None,
    flushes: int | None = None,
    tracer: Tracer | None = None,
    calibrator: Calibrator | None = None,
) -> AdmitLog:
    """Drive ``stream`` for ``seconds`` of wall time or exactly ``flushes``."""
    log = AdmitLog()
    solver = HashSolver()
    checker = PuzzleVerifier(framework.config.pow)  # stateless: no replay cache
    hasher = hashlib.sha256()
    perf, cpu = time.perf_counter, time.process_time

    def timed(name, call, *args, **kwargs):
        cpu0 = cpu()
        if tracer is not None:
            index = tracer.begin(name)
            result = call(*args, **kwargs)
            elapsed = tracer.end(index)
        else:
            began = perf()
            result = call(*args, **kwargs)
            elapsed = perf() - began
        log.cpu_seconds += cpu() - cpu0
        return result, elapsed

    began = perf()
    index = 0
    while (index < flushes) if flushes is not None else (perf() - began < seconds):
        at, clients, bogus = stream.flush(index)
        requests = [
            ClientRequest(
                client_ip=stream.ips[c],
                resource="/index.html",
                timestamp=at,
                features=stream.features[c],
            )
            for c in clients
        ]
        challenges, elapsed = timed(
            "core.framework.challenge_batch",
            framework.challenge_batch, requests, now=at,
        )
        log.flush_seconds.append(elapsed)
        log.requests += len(requests)

        first_pass = index < stream.PASS_FLUSHES
        if first_pass:
            for challenge in challenges:
                decision = challenge.decision
                hasher.update(
                    f"{decision.request.client_ip}|"
                    f"{decision.reputation_score!r}|"
                    f"{decision.difficulty}\n".encode("ascii")
                )
            log.chain.append(hasher.hexdigest())
        if tracer is not None and len(log.issue_sample) < _DIRECT_SAMPLE:
            log.issue_sample.append((
                [r.client_ip for r in requests],
                [c.decision.difficulty for c in challenges],
                at,
            ))

        now = at + 0.001
        for c, coin, challenge in zip(clients, bogus, challenges):
            benign = stream.benign[c]
            if first_pass:
                tally = log.difficulty[benign]
                tally[0] += challenge.decision.difficulty
                tally[1] += 1
            ip = stream.ips[c]
            if benign:
                solution = solver.solve(challenge.puzzle, ip)
                expected = ResponseStatus.SERVED
                if tracer is not None:
                    log.solve_seconds.append(solution.elapsed)
                    log.solve_hashes.append(solution.attempts)
                    if len(log.verify_sample) < _DIRECT_SAMPLE:
                        log.verify_sample.append(
                            (challenge.puzzle, solution, ip, now)
                        )
            elif coin:
                solution = _bogus_solution(checker, challenge.puzzle, ip, now)
                expected = ResponseStatus.REJECTED
            else:
                continue  # never answers
            response, elapsed = timed(
                "core.framework.redeem",
                framework.redeem, challenge, solution, now=now,
            )
            log.redeem_seconds.append(elapsed)
            if response.status is not expected:
                log.failed += 1
        index += 1
        if calibrator is not None:
            # Between timed calls, never inside one.
            log.flush_slowdown.append(calibrator.sample())
        if index == stream.PASS_FLUSHES:
            log.first_pass_rss_mb = self_peak_rss_mb()
    if not log.first_pass_rss_mb:
        log.first_pass_rss_mb = self_peak_rss_mb()
    return log


def _build(store, tracer: Tracer | None):
    """``SPEC`` over ``store``, with timing proxies on its seams when traced."""
    if tracer is None:
        return SPEC.build(store=store), None
    framework = SPEC.build(store=TimedStore(store, tracer))
    feedback = framework.model  # FeedbackReputationModel(CachedModel(DAbR))
    cache = feedback.base
    # The bus calls ``feedback.observe`` through the instance, so a
    # timed instance attribute is the seam for the feedback write path.
    feedback.observe = tracer.timed("reputation.feedback_observe", feedback.observe)
    framework.model = TimedProxy(feedback, tracer, {
        "score_requests": "reputation.score",
        "score_request": "reputation.score",
    })
    framework.policy = TimedProxy(framework.policy, tracer, {
        "difficulty_batch": "policies.difficulty",
        "difficulty_for": "policies.difficulty",
    })
    return framework, cache


def _warm_up(framework, features: dict[str, float]) -> None:
    """One flush and one redeem from addresses outside the population."""
    at = 1_600_000_000.0
    requests = [
        ClientRequest(
            client_ip=f"192.0.2.{i + 1}", resource="/index.html",
            timestamp=at, features=features,
        )
        for i in range(FLUSH_SIZE)
    ]
    challenges = framework.challenge_batch(requests, now=at)
    solution = HashSolver().solve(challenges[0].puzzle, requests[0].client_ip)
    framework.redeem(challenges[0], solution, now=at)


def _loopback_rx_bytes() -> int:
    """Bytes received on ``lo`` so far (0 when /proc/net/dev is unreadable)."""
    try:
        with open("/proc/net/dev", encoding="ascii") as handle:
            for line in handle:
                name, _, rest = line.partition(":")
                if name.strip() == "lo":
                    return int(rest.split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def run_admit(
    remote: bool, seed: int, seconds: float, traced: bool, scratch: str
) -> RunResult:
    tracer = Tracer() if traced else None
    registry = None
    if remote and traced:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    stream = AdmitStream(seed)

    calibrator = Calibrator()
    setups: list[float] = []
    with contextlib.ExitStack() as live:

        def set_up():
            """One complete set-up; ``live`` owns the child and the socket."""
            child = None
            if remote:
                child = live.enter_context(
                    Child(["state", "serve", "--bind", "127.0.0.1:0"],
                          _STATE_BANNER, scratch)
                )
                store = live.enter_context(
                    RemoteStateStore(child.match.group(1), registry=registry)
                )
            else:
                store = InMemoryStateStore()
            framework, cache = _build(store, tracer)
            _warm_up(framework, stream.features[0])
            return child, framework, cache

        for _ in range(SETUP_ROUNDS):
            live.close()  # the previous round's; the last one is measured on
            (child, framework, cache), took = calibrator.bracket(set_up)
            setups.append(took)

        if tracer is not None:
            tracer.spans.clear()  # set-up and warm-up are not the workload
        counters0 = _client_counters(registry)
        rx0 = _loopback_rx_bytes()
        server_cpu0 = child.cpu_seconds() if child else 0.0
        began = calibrator.clock()
        log = drive(
            framework, stream, seconds=seconds, tracer=tracer,
            calibrator=calibrator,
        )
        slowdown = calibrator.slowdown(began, calibrator.clock())
        server_cpu = (child.cpu_seconds() - server_cpu0) if child else 0.0
        rx_bytes = _loopback_rx_bytes() - rx0
        roundtrips, retries = (
            after - before
            for after, before in zip(_client_counters(registry), counters0)
        )

    reference = drive(
        SPEC.build(store=InMemoryStateStore()), stream,
        flushes=stream.PASS_FLUSHES,
    )
    compared = min(len(log.chain), stream.PASS_FLUSHES)
    parity = log.chain[compared - 1] == reference.chain[compared - 1]
    failed = log.failed + reference.failed
    notes = [
        f"{log.requests} requests in {len(log.flush_seconds)} flushes, "
        f"{len(log.redeem_seconds)} redeems; decision digest over "
        f"{compared * FLUSH_SIZE} requests "
        f"{'matches' if parity else 'DIFFERS FROM'} the in-memory reference",
        f"host slowdown {slowdown:.2f}",
    ]
    if not parity:
        # Every decision after the first divergent one is suspect.
        failed += log.requests

    benign, hostile = reference.difficulty[True], reference.difficulty[False]
    timed_seconds = log.timed_seconds
    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": log.requests / timed_seconds * slowdown,
        # Flush by flush: a median is bimodal on a host with two speeds.
        "latency_p50_ms": median([
            took / slow
            for took, slow in zip(log.flush_seconds, log.flush_slowdown)
        ]) * 1e3,
        "peak_rss_mb": log.first_pass_rss_mb,
        "throttle_bits": hostile[0] / hostile[1] - benign[0] / benign[1],
    }
    result = RunResult(
        attempted=log.requests, failed=failed, metrics=metrics, notes=notes
    )
    if tracer is not None:
        result.tracer = tracer
        result.layers = _layers(
            log, tracer, cache, framework, remote,
            roundtrips, retries, rx_bytes, server_cpu, metrics, slowdown,
        )
    return result


def _client_counters(registry) -> tuple[float, float]:
    """(requests, retries) the remote store's client has counted so far."""
    if registry is None:
        return 0.0, 0.0
    return (
        float(registry.get("netstore_client_requests_total").total()),
        float(registry.get("netstore_client_retries_total").total()),
    )


def _layers(
    log: AdmitLog, tracer: Tracer, cache, framework, remote: bool,
    roundtrips: float, retries: float, rx_bytes: int, server_cpu: float,
    metrics: dict, slowdown: float,
) -> dict[str, float]:
    totals = tracer.totals()
    requests = log.requests
    flushes = len(log.flush_seconds)
    timed_seconds = log.timed_seconds

    def us_per_req(name: str, self_time: bool = False) -> float:
        layer = totals.get(name)
        if layer is None:
            return 0.0
        seconds = layer.self_seconds if self_time else layer.seconds
        return seconds / requests * 1e6

    def us_per_call(name: str) -> float:
        layer = totals.get(name)
        return layer.seconds / layer.count * 1e6 if layer else 0.0

    pow_config = framework.config.pow
    generator = PuzzleGenerator(pow_config)
    began = time.perf_counter()
    for ips, difficulties, at in log.issue_sample:
        generator.generate_batch(ips, difficulties, at)
    issue_us = (
        (time.perf_counter() - began)
        / (len(log.issue_sample) * FLUSH_SIZE) * 1e6
    )
    verifier = PuzzleVerifier(pow_config)
    verify_seconds = []
    for puzzle, solution, ip, now in log.verify_sample:
        began = time.perf_counter()
        verifier.verify(puzzle, solution, ip, now=now)
        verify_seconds.append(time.perf_counter() - began)

    store_ops = totals.get("state.store.op")
    store_seconds = store_ops.seconds if store_ops else 0.0
    store_count = store_ops.count if store_ops else 0
    layers = {
        "sample_count": float(flushes),
        "host.slowdown": slowdown,
        "traced.throughput_per_s": metrics["throughput_per_s"],
        "traced.latency_p50_ms": metrics["latency_p50_ms"],
        "cpu_us_per_op": (log.cpu_seconds + server_cpu) / requests * 1e6,
        "core.framework.challenge_batch_us_per_req":
            us_per_req("core.framework.challenge_batch"),
        "core.framework.redeem_us_per_req":
            totals["core.framework.redeem"].seconds
            / len(log.redeem_seconds) * 1e6,
        "core.framework.redeem_p50_us": median(log.redeem_seconds) * 1e6,
        "core.framework.flush_p99_ms": percentile(log.flush_seconds, 99.0) * 1e3,
        # challenge_batch minus its score and policy children, minus
        # what issuing the same puzzles costs when called directly.
        "core.framework.glue_self_us_per_req":
            us_per_req("core.framework.challenge_batch", self_time=True)
            - issue_us,
        "reputation.score_us_per_req": us_per_req("reputation.score"),
        "reputation.cache_hit_share": cache.hit_rate,
        "reputation.feedback_observe_us":
            us_per_call("reputation.feedback_observe"),
        "policies.difficulty_us_per_req": us_per_req("policies.difficulty"),
        "pow.generator.issue_us_per_puzzle": issue_us,
        "pow.verifier.verify_us": median(verify_seconds) * 1e6,
        "pow.solver.solve_us_benign": median(log.solve_seconds) * 1e6,
        "pow.solver.hashes_per_solve":
            sum(log.solve_hashes) / max(1, len(log.solve_hashes)),
        "state.store.ops_per_req": store_count / requests,
        "state.store.op_us": store_seconds / max(1, store_count) * 1e6,
        "state.store.busy_share": store_seconds / timed_seconds,
    }
    if remote:
        in_flush = tracer.count_under("state.store.op", "core.framework.challenge_batch")
        layers.update({
            "state.net.roundtrips_per_req": roundtrips / requests,
            "state.net.roundtrips_per_flush": in_flush / flushes,
            "state.net.roundtrip_us_p50": median(store_ops.durations) * 1e6,
            "state.net.bytes_per_req": rx_bytes / requests,
            "state.net.retries": retries,
            "state.net.busy_share": store_seconds / timed_seconds,
            "state.net.server_cpu_ms_per_req": server_cpu / requests * 1e3,
        })
    return layers
