"""Deterministic trace replay through any serving configuration.

:class:`TraceReplayer` feeds a recorded request stream back through a
freshly built admission pipeline and emits the decision stream the
replay produced, for the differential harness to compare against the
recording (or against another configuration's replay).

Three in-process targets mirror the repo's serving tiers:

* ``inproc``    — requests sharing a timestamp are admitted through
  :meth:`AIPoWFramework.challenge_batch`, exactly like the simulator;
* ``gateway``   — requests are micro-batched by the gateway's
  accumulator rules (the ``max_batch`` / ``batch_window`` defaults of
  :class:`~repro.net.gateway.server.GatewayOptions`) against the
  recorded timestamps;
* ``cluster:N`` — requests are routed by the same client-IP
  :class:`~repro.state.HashRing` the multi-worker gateway uses, each
  shard owning an independent pipeline built from the same spec.

Admission decisions are batch-invariant (PR 1's parity guarantee), so
all three targets reproduce a recording made under any of them —
that equivalence is what ``tests/replay/test_golden_parity.py`` gates.

Replay runs at full speed by default; ``speed=1.0`` paces requests at
their recorded inter-arrival gaps (``speed=2.0`` twice as fast, ...)
by sleeping until each batch is due.

A fourth, live, path (:func:`replay_live`) drives the trace through a
real server over TCP, one gateway process or a cluster of N, the way
``repro record`` captures a campaign (:func:`record_live`):
sequentially, so the decision order stays deterministic, with each
distinct recorded client mapped to its own loopback source address.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import tempfile
import time
from typing import Sequence

from repro.core.errors import ReproError
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest, DecisionRecord
from repro.core.spec import FrameworkSpec
from repro.replay.recorder import TraceRecorder, spec_hash
from repro.state import HashRing
from repro.traffic.trace import Trace, TraceEntry

__all__ = [
    "ReplayResult",
    "TraceReplayer",
    "parse_target",
    "record_live",
    "replay_live",
    "feed_live",
    "loopback_plan",
    "spec_from_trace",
]


def parse_target(target: str) -> tuple[str, int]:
    """Parse a CLI target name into ``(kind, workers)``.

    ``inproc`` and ``gateway`` have one worker; ``cluster:N`` carries
    its worker count.
    """
    if target in ("inproc", "gateway"):
        return target, 1
    if target.startswith("cluster:"):
        workers = target.split(":", 1)[1]
        try:
            count = int(workers)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(
                f"cluster target needs a positive worker count, got {target!r}"
            )
        return "cluster", count
    raise ValueError(
        f"unknown replay target {target!r} "
        "(expected inproc, gateway, or cluster:N)"
    )


@dataclasses.dataclass
class ReplayResult:
    """Outcome of one replay run."""

    target: str
    decisions: list[DecisionRecord]
    trace: Trace
    requests: int
    elapsed: float

    @property
    def throughput(self) -> float:
        """Admission decisions per second of wall-clock replay time."""
        return (
            len(self.decisions) / self.elapsed if self.elapsed > 0 else 0.0
        )


class TraceReplayer:
    """Replays a v2 trace through a rebuilt admission pipeline.

    Parameters
    ----------
    trace:
        The recorded workload (decisions optional — request-only traces
        replay fine; there is just nothing to diff against).
    target:
        ``inproc`` (default), ``gateway``, or ``cluster:N``.
    spec:
        Framework recipe to build the replay pipeline(s) from.  Defaults
        to the recipe recorded in the trace header; replaying a trace
        that recorded no recipe uses ``FrameworkSpec(feedback=False)``
        — the replay-safe default (behavioural feedback reacts to
        *outcomes*, which a challenge-only replay does not reproduce).
    strict_config:
        When True (default) and both the header and the spec carry a
        config hash, a mismatch raises — diffing decisions across
        different pipelines must be asked for explicitly
        (``strict_config=False``), not stumbled into.
    speed:
        0 (default) replays as fast as the pipeline admits; a positive
        value paces requests at ``recorded_gap / speed`` seconds.
    """

    def __init__(
        self,
        trace: Trace,
        *,
        target: str = "inproc",
        spec: FrameworkSpec | None = None,
        strict_config: bool = True,
        speed: float = 0.0,
    ) -> None:
        if speed < 0:
            raise ValueError(f"speed must be >= 0, got {speed}")
        self.trace = trace
        self.kind, self.workers = parse_target(target)
        self.target = target
        self.speed = speed
        self.spec = spec if spec is not None else spec_from_trace(trace)
        header = trace.header
        if (
            strict_config
            and spec is None
            and header is not None
            and header.config_hash
            and spec_hash(self.spec) != header.config_hash
        ):  # pragma: no cover - guards future header/spec skew
            raise ValueError(
                "trace header config hash does not match the rebuilt spec; "
                "pass an explicit spec (or strict_config=False) to diff "
                "across configurations deliberately"
            )

    # ------------------------------------------------------------------
    def run(self) -> ReplayResult:
        """Feed the whole trace through the target; returns the result."""
        entries = list(self.trace)
        frameworks = [
            self.spec.build() for _ in range(self.workers)
        ]
        ring = (
            HashRing(self.workers) if self.kind == "cluster" else None
        )
        recorder = TraceRecorder(
            sources={
                e.request.client_ip: (e.profile, e.true_score)
                for e in entries
            }
        )
        for framework in frameworks:
            recorder.attach(framework.events)

        started = time.perf_counter()
        if entries:
            t0 = entries[0].request.timestamp
            for batch in self._batches(entries):
                self._pace(batch[0].request.timestamp - t0, started)
                self._admit(batch, frameworks, ring, recorder)
        elapsed = time.perf_counter() - started

        replayed = recorder.trace(
            config_hash=spec_hash(self.spec),
            seed=(
                self.trace.header.seed
                if self.trace.header is not None
                else None
            ),
            meta={"replay_target": self.target},
        )
        return ReplayResult(
            target=self.target,
            decisions=replayed.decisions(),
            trace=replayed,
            requests=len(entries),
            elapsed=elapsed,
        )

    # ------------------------------------------------------------------
    def _pace(self, offset: float, started: float) -> None:
        if self.speed <= 0:
            return
        due = started + offset / self.speed
        remaining = due - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)

    def _batches(self, entries: Sequence[TraceEntry]):
        """Group entries the way the target's admission path would.

        ``inproc`` coalesces same-timestamp arrivals (the simulator's
        behaviour); ``gateway`` applies the accumulator's size/window
        rules to the recorded timestamps — an upper bound on the live
        gateway's batches, which also close as soon as arrivals stop,
        something recorded timestamps cannot show; ``cluster`` admits
        per request (each worker batches independently in production).
        Decisions are batch-invariant, so the grouping changes how the
        replay is driven, never what it decides.
        """
        if self.kind == "gateway":
            from repro.net.gateway.server import GatewayOptions

            batch: list[TraceEntry] = []
            window_start = 0.0
            for entry in entries:
                t = entry.request.timestamp
                if batch and (
                    len(batch) >= GatewayOptions.max_batch
                    or t - window_start > GatewayOptions.batch_window
                ):
                    yield batch
                    batch = []
                if not batch:
                    window_start = t
                batch.append(entry)
            if batch:
                yield batch
        elif self.kind == "inproc":
            batch = []
            for entry in entries:
                if batch and (
                    entry.request.timestamp
                    != batch[-1].request.timestamp
                ):
                    yield batch
                    batch = []
                batch.append(entry)
            if batch:
                yield batch
        else:  # cluster: per-request dispatch
            for entry in entries:
                yield [entry]

    def _admit(
        self,
        batch: Sequence[TraceEntry],
        frameworks: list[AIPoWFramework],
        ring: HashRing | None,
        recorder: TraceRecorder,
    ) -> None:
        requests = [entry.request for entry in batch]
        times = [request.timestamp for request in requests]
        if ring is None:
            framework = frameworks[0]
        else:
            framework = frameworks[ring.shard_for(requests[0].client_ip)]
        # One bad request must not take down the replay: it gets an
        # explicit error decision, mirroring the gateway.
        results = framework.challenge_batch_or_errors(requests, now=times)
        for request, result in zip(requests, results):
            if isinstance(result, ReproError):
                recorder.capture_error(request, str(result))


def spec_from_trace(trace: Trace) -> FrameworkSpec:
    """The framework recipe recorded in ``trace``'s header.

    Falls back to the replay-safe default (behavioural feedback off)
    for traces that recorded no recipe.
    """
    header = trace.header
    if header is not None and header.meta.get("spec"):
        return FrameworkSpec(**header.meta["spec"])
    return FrameworkSpec(feedback=False)


# ----------------------------------------------------------------------
# Live replay: the same stream through a real gateway socket
# ----------------------------------------------------------------------
def loopback_plan(entries: Sequence[TraceEntry]) -> dict[str, str]:
    """Deterministic loopback source address per distinct client.

    Linux treats all of ``127.0.0.0/8`` as loopback, so a live replay
    can present each recorded client from its own source IP.  Recorded
    addresses already on loopback are kept verbatim (a re-replay of a
    live capture binds exactly what was recorded).
    """
    plan: dict[str, str] = {}
    used: set[str] = set()
    # Reserve verbatim loopback addresses first so a generated address
    # can never collide with a recorded one (mixed traces would
    # otherwise merge two clients' per-IP state on the server).
    for entry in entries:
        ip = entry.request.client_ip
        if ip.startswith("127.") and ip not in plan:
            plan[ip] = ip
            used.add(ip)
    index = 0
    for entry in entries:
        ip = entry.request.client_ip
        if ip in plan:
            continue
        while True:
            candidate = f"127.0.{index // 250 + 1}.{index % 250 + 1}"
            index += 1
            if candidate not in used:
                break
        plan[ip] = candidate
        used.add(candidate)
    return plan


def record_live(
    entries: Sequence[TraceEntry],
    spec: FrameworkSpec,
    record_path,
    *,
    target: str = "gateway",
) -> Trace:
    """Serve ``target`` with recording on, feed it ``entries``, stop.

    ``target`` is ``gateway`` (one in-process server) or ``cluster:N``;
    either is built by :func:`~repro.net.gateway.cluster.build_front`
    and fed by :func:`feed_live`.  The recording lands at
    ``record_path`` with the serving tier's header, and is returned.
    """
    kind, workers = parse_target(target)
    if kind == "inproc":
        raise ValueError(
            "live targets are gateway and cluster:N "
            "(inproc is an in-process replay target)"
        )
    from repro.net.gateway.cluster import build_front
    from repro.net.gateway.server import GatewayOptions

    server, close = build_front(
        spec,
        GatewayOptions(record_path=os.fspath(record_path)),
        workers=workers if kind == "cluster" else None,
    )
    with server:
        feed_live(server.address, entries)
    close()
    return Trace.load_jsonl(record_path)


def replay_live(
    trace: Trace,
    *,
    target: str = "gateway",
    spec: FrameworkSpec | None = None,
) -> ReplayResult:
    """Replay ``trace`` over TCP through a served ``target``.

    :func:`record_live` into a temporary directory.  Requests go one
    connection each, challenge-only, in trace order.  The server
    assigns fresh request ids (``rec-N``, or ``wI-N`` per cluster
    worker), so diff against the recording with ``match_by="position"``,
    ignoring ``client_ip`` when the recorded addresses were not
    loopback.
    """
    spec = spec if spec is not None else spec_from_trace(trace)
    entries = list(trace)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-live-") as tmp:
        replayed = record_live(
            entries, spec, os.path.join(tmp, "live.jsonl"), target=target
        )
    elapsed = time.perf_counter() - started
    return ReplayResult(
        target=f"{target}-live",
        decisions=replayed.decisions(),
        trace=replayed,
        requests=len(entries),
        elapsed=elapsed,
    )


def feed_live(
    address: tuple[str, int],
    entries: Sequence[TraceEntry],
    *,
    timeout: float = 10.0,
) -> None:
    """Feed ``entries`` sequentially through a live-protocol server.

    One connection per request, challenge-only, each distinct client
    bound to its own loopback source address per :func:`loopback_plan`.
    Sequential feeding keeps the server-side decision order equal to
    the trace order — the property every diff downstream relies on.
    """
    plan = loopback_plan(entries)
    for entry in entries:
        _challenge_only(
            address,
            entry.request,
            bind_ip=plan[entry.request.client_ip],
            timeout=timeout,
        )


def _challenge_only(
    address: tuple[str, int],
    request: ClientRequest,
    *,
    bind_ip: str | None,
    timeout: float,
) -> None:
    """One request → puzzle exchange; the reply itself is discarded.

    The decision is captured server-side; the client only needs to
    complete the first protocol round-trip.
    """
    from repro.net.live import protocol

    source = (bind_ip, 0) if bind_ip else None
    with socket.create_connection(
        address, timeout=timeout, source_address=source
    ) as sock:
        protocol.send_line(
            sock,
            protocol.encode_request(
                request.resource, dict(request.features)
            ),
        )
        protocol.read_line(sock)
