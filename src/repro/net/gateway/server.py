"""Asyncio admission gateway: micro-batched serving of the live protocol.

:class:`GatewayServer` is the event-loop replacement for the
thread-per-connection :class:`~repro.net.live.server.LiveServer`.  It
speaks the identical line protocol — an unmodified
:class:`~repro.net.live.client.LiveClient` works against either — but
admits concurrent arrivals through the
:class:`~repro.net.gateway.accumulator.MicroBatcher`: requests that
arrive together — in the same loop passes, or while the previous batch
held the loop — are coalesced and driven through
:meth:`AIPoWFramework.challenge_batch` (the ~7x vectorised admission
path), while ``verify``/``redeem`` stays on the fast scalar path since
each solution hashes a distinct nonce anyway.

A connection is one callback :class:`asyncio.Protocol` object — no
stream pair, no task, one timer for the line being waited on — so an
exchange costs the loop little beyond score → policy → issue.  The
cluster's shard workers serve the sockets they are handed through the
same class (:meth:`GatewayServer.connection`).

Overload behaviour is part of the contract, not an accident: the
admission queue is bounded, a pluggable shed policy picks victims when
it fills, shed requests get an explicit ``ERR shed: ...`` reply, and
every shed emits a ``REQUEST_SHED`` event through the framework's
:class:`~repro.core.events.EventBus` plus counters/histograms into an
optional :class:`~repro.metrics.collector.GatewayMetrics`.  A peer that
is malformed, oversize, silent past ``io_timeout`` or gone before its
terminal reply affects only itself: its connection is closed and
counted by kind, never left to pin a slot.

Threading model: :meth:`start` runs the event loop on one background
thread and all framework calls happen on that thread, so — unlike the
threaded server — the shared replay cache and RNG need no lock.  The
public facade (``start``/``stop``/context manager/``address``) matches
``LiveServer`` so the two front-ends are drop-in interchangeable in
tests, benchmarks, and the CLI.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque

from repro.core.errors import ProtocolError, ReproError
from repro.core.events import EventKind
from repro.core.framework import AIPoWFramework, Challenge
from repro.core.records import ClientRequest
from repro.metrics.collector import GatewayMetrics
from repro.net.gateway.accumulator import MicroBatcher
from repro.net.gateway.shedding import (
    PendingAdmission,
    ShedOutcome,
    ShedPolicy,
)
from repro.net.live import protocol
from repro.pow.puzzle import Solution

__all__ = ["GatewayServer", "LISTEN_BACKLOG"]

#: ``listen()`` backlog of every gateway listener (single-process and
#: cluster parent).  asyncio's default of 100 overflowed under open-loop
#: bursts and surfaced as 1 s SYN-retransmit latency outliers.
LISTEN_BACKLOG = 512


class GatewayServer:
    """Micro-batching TCP front-end for the framework.

    Use exactly like :class:`~repro.net.live.server.LiveServer`::

        with GatewayServer(framework, max_batch=64) as server:
            body = LiveClient(server.address).fetch("/index.html", {})

    Parameters
    ----------
    framework:
        The configured pipeline to expose.  The gateway owns its use:
        all calls run on the gateway's event-loop thread.
    host / port:
        Bind address; port 0 picks a free port.
    max_batch / batch_window / queue_limit / shed_policy:
        Accumulator tuning; see
        :class:`~repro.net.gateway.accumulator.MicroBatcher`.
    admission:
        Optional :class:`~repro.core.admission.AdmissionControl`
        pre-filter, checked before enqueueing — same semantics and
        ``ERR admission: ...`` reply as the threaded server.
    io_timeout:
        Seconds a connection may take to deliver each line, counted
        from when the server starts waiting for it.
    metrics:
        Optional :class:`~repro.metrics.collector.GatewayMetrics`
        receiving queue depths, batch sizes, queue waits, shed counts
        and connection errors.
    recorder:
        Optional :class:`~repro.replay.TraceRecorder`, attached to the
        framework's event bus so every admission decision (admitted or
        shed) is captured as a replayable v2 trace entry.  Costs
        nothing when omitted — with no subscribers the framework skips
        event construction entirely.
    tracer:
        Optional :class:`~repro.obs.tracing.RequestTracer`, attached to
        the framework's event bus so 1-in-N requests are recorded as
        structured spans (accept → flush → score → ... → verify).
        Same zero-cost-when-omitted contract as ``recorder``.
    """

    def __init__(
        self,
        framework: AIPoWFramework,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 64,
        batch_window: float = 0.002,
        queue_limit: int = 256,
        shed_policy: ShedPolicy | None = None,
        admission=None,
        io_timeout: float = 30.0,
        metrics: GatewayMetrics | None = None,
        recorder=None,
        tracer=None,
    ) -> None:
        if io_timeout <= 0:
            raise ValueError(f"io_timeout must be > 0, got {io_timeout}")
        self.framework = framework
        self.recorder = recorder
        if recorder is not None:
            recorder.attach(framework.events)
        self.tracer = tracer
        if tracer is not None:
            tracer.attach(framework.events)
        self.host = host
        self.port = port
        self.io_timeout = io_timeout
        self.admission = admission
        self.metrics = metrics
        self.responses: deque = deque(maxlen=10_000)
        self._connections: set[_Connection] = set()
        self.batcher = MicroBatcher(
            self._admit_batch,
            max_batch=max_batch,
            batch_window=batch_window,
            queue_limit=queue_limit,
            shed_policy=shed_policy,
            on_shed=self._on_shed,
            on_flush=self._on_flush if metrics is not None else None,
        )
        self._address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Accumulator hooks (all run on the event-loop thread)
    # ------------------------------------------------------------------
    def _admit_batch(
        self, requests: list[ClientRequest]
    ) -> list[Challenge | ReproError]:
        try:
            return self.framework.challenge_batch(requests)
        except ReproError:
            # One bad request (e.g. feature-schema mismatch) must not
            # poison its co-batched neighbours: re-admit the batch
            # scalar, isolating the failure to the offender.  Events
            # for stages the batch attempt already passed are re-emitted
            # by the retry; only this failure path pays that.
            results: list[Challenge | ReproError] = []
            for request in requests:
                try:
                    results.append(self.framework.challenge(request))
                except ReproError as exc:
                    results.append(exc)
            return results

    def _on_shed(
        self, pending: PendingAdmission, reason: str, queue_depth: int
    ) -> None:
        self.framework.events.emit(
            EventKind.REQUEST_SHED,
            time.time(),
            request=pending.request,
            reason=reason,
            policy=self.batcher.shed_policy.name,
            queue_depth=queue_depth,
        )
        if self.metrics is not None:
            self.metrics.observe_shed(reason, queue_depth=queue_depth)

    def _on_flush(
        self, batch_size: int, queue_depth: int, results: list, waits: list
    ) -> None:
        # The scalar-fallback path returns ReproError entries for
        # requests whose admission failed; only real challenges count
        # as admitted.
        admitted = sum(
            1 for result in results if not isinstance(result, Exception)
        )
        self.metrics.observe_flush(
            batch_size, queue_depth, admitted=admitted, waits=waits
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def connection(self) -> "_Connection":
        """Protocol factory: one live-protocol connection on this gateway.

        What the TCP listener is created with, exposed for serving
        tiers that accept connections elsewhere — the multi-worker
        cluster receives accepted sockets by file descriptor and adopts
        them with ``loop.connect_accepted_socket(gateway.connection, sock)``.
        """
        return _Connection(self)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self.batcher.start()
        server = await self._loop.create_server(
            self.connection, self.host, self.port, backlog=LISTEN_BACKLOG
        )
        self._address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await self.drain()

    async def drain(self, grace: float = 1.0) -> None:
        """Stop admitting and give in-flight connections a short grace.

        Queued-but-unadmitted requests resolve as shed (their
        connections deliver the ``ERR shed: ...`` reply); connections
        already past admission get ``grace`` seconds of loop time to
        finish their exchange before they are aborted.  Shared by the
        in-process server shutdown and the cluster workers' SIGTERM
        path.
        """
        await self.batcher.stop()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for connection in list(self._connections):
            connection.finished = True
            connection.transport.abort()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
            self._ready.set()

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is bound to."""
        if self._address is None:
            raise RuntimeError("gateway not started")
        return self._address

    def start(self) -> "GatewayServer":
        """Start serving on a background event loop; returns self."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._ready.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-gateway", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise RuntimeError("gateway failed to start") from (
                self._startup_error
            )
        if self._address is None:
            raise RuntimeError("gateway did not come up within 10s")
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None
        self._shutdown = None
        self._address = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _Connection(asyncio.Protocol):
    """One live-protocol exchange, driven by transport callbacks.

    ``REQUEST`` line → queued in the batcher (reading paused, so a peer
    cannot grow the buffer meanwhile) → the admission future's
    done-callback writes the puzzle → ``SOLUTION`` line → terminal
    reply and close.  Each awaited line has ``io_timeout`` seconds from
    the moment the server starts waiting for it.  A connection that
    ends any other way than by the server's terminal reply is counted
    by kind in ``gateway_connection_errors_total``.
    """

    __slots__ = (
        "gateway", "transport", "buffer", "deadline", "challenge",
        "accepted_mono", "finished",
    )

    def __init__(self, gateway: GatewayServer) -> None:
        self.gateway = gateway
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.deadline: asyncio.TimerHandle | None = None
        self.challenge: Challenge | None = None
        self.accepted_mono = 0.0
        self.finished = False

    # -- transport callbacks -------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.gateway._connections.add(self)
        self._await_line()

    def connection_lost(self, exc: Exception | None) -> None:
        self.gateway._connections.discard(self)
        self.deadline.cancel()
        # Counts only when the peer went away first: mid-line, while
        # queued, or with its puzzle unanswered.
        self._fail("reset")

    def data_received(self, data: bytes) -> None:
        end = data.find(b"\n")
        if end < 0:
            if len(self.buffer) + len(data) > protocol.MAX_LINE_BYTES:
                self._fail("oversize")
            else:
                self.buffer += data
            return
        line = self.buffer + data[:end]
        if len(line) > protocol.MAX_LINE_BYTES:
            self._fail("oversize")
            return
        # Whatever follows the line waits for _await_line: at most the
        # rest of this read, since reading pauses while queued.
        self.buffer.clear()
        self.buffer += data[end + 1:]
        self.deadline.cancel()
        on_line = self._on_solution if self.challenge else self._on_request
        try:
            on_line(line.decode("ascii", "replace"))
        except ProtocolError:
            self._fail("protocol")

    # -- the exchange --------------------------------------------------
    def _await_line(self) -> None:
        """Start waiting, under a fresh deadline, for the next line."""
        self.deadline = asyncio.get_running_loop().call_later(
            self.gateway.io_timeout, self._fail, "timeout"
        )
        self.transport.resume_reading()
        if self.buffer:
            held, self.buffer = self.buffer, bytearray()
            self.data_received(bytes(held))

    def _on_request(self, line: str) -> None:
        gateway = self.gateway
        try:
            resource, features = protocol.parse_request(line)
        except ProtocolError as exc:
            self._send(protocol.encode_err(str(exc)))
            raise
        peer = self.transport.get_extra_info("peername")
        client_ip = peer[0] if peer else "0.0.0.0"
        if gateway.admission is not None:
            decision = gateway.admission.check(client_ip, time.time())
            if not decision.admitted:
                self._finish(
                    protocol.encode_err(f"admission: {decision.reason}")
                )
                return
        request = ClientRequest(
            client_ip=client_ip,
            resource=resource,
            timestamp=time.time(),
            features=features,
        )
        # Latency is measured on the monotonic clock: the wall clock
        # can step (NTP) between accept and redeem, and the exchange
        # spans a client's whole solve time.  The wall timestamp above
        # stays authoritative for records and traces.
        self.accepted_mono = time.monotonic()
        self.transport.pause_reading()
        gateway.batcher.submit(request).add_done_callback(self._on_admitted)

    def _on_admitted(self, future: asyncio.Future) -> None:
        if self.finished:
            return  # the peer left while queued; nothing to deliver to
        try:
            outcome = future.result()
        except Exception:
            # admit_batch itself broke: drop the peer, and let the
            # loop's exception handler report the server-side fault.
            self.finished = True
            self.transport.close()
            raise
        if isinstance(outcome, ReproError):
            # This request failed admission; same reply the threaded
            # server gives, and only the offender pays it.
            self._finish(protocol.encode_err(f"challenge: {outcome}"))
        elif isinstance(outcome, ShedOutcome):
            self._finish(protocol.encode_err(f"shed: {outcome.reason}"))
        else:
            self.challenge = outcome
            self._send(outcome.puzzle.to_wire())
            self._await_line()

    def _on_solution(self, line: str) -> None:
        gateway = self.gateway
        solution = Solution.from_wire(line)
        now = time.time()
        elapsed = time.monotonic() - self.accepted_mono
        try:
            response = gateway.framework.redeem(
                self.challenge, solution, now=now,
                request_sent_at=now - elapsed,
            )
        except ReproError as exc:
            self._finish(protocol.encode_err(f"challenge: {exc}"))
            return
        gateway.responses.append(response)
        if response.served:
            self._finish(protocol.encode_ok(response.body))
        else:
            self._finish(protocol.encode_err(response.status.value))

    # -- endings -------------------------------------------------------
    def _send(self, line: str) -> None:
        # "replace": an ERR frame may quote the peer's own non-ASCII junk.
        self.transport.write(line.encode("ascii", "replace") + b"\n")

    def _finish(self, reply: str) -> None:
        """The exchange's terminal reply; the transport flushes it."""
        self._send(reply)
        self.finished = True
        self.transport.close()

    def _fail(self, kind: str) -> None:
        """End without a terminal reply, counted once by ``kind``."""
        if not self.finished:
            self.finished = True
            if self.gateway.metrics is not None:
                self.gateway.metrics.observe_connection_error(kind)
            self.transport.close()
