"""Asyncio admission gateway: micro-batched serving of the live protocol.

:class:`GatewayServer` is the one server of the live line protocol
(:mod:`repro.net.live.protocol`, spoken by
:class:`~repro.net.live.client.LiveClient`); ``repro serve`` runs it in
process, and ``repro serve --workers N`` runs one per worker.  It
admits concurrent arrivals through the
:class:`~repro.net.gateway.accumulator.MicroBatcher`: requests that
arrive together — in the same loop passes, or while the previous batch
held the loop — are coalesced and driven through
:meth:`AIPoWFramework.challenge_batch` (the ~7x vectorised admission
path), while ``verify``/``redeem`` stays on the fast scalar path since
each solution hashes a distinct nonce anyway.

The exchange, not the kernel, is what serving costs, so the gateway
keeps asyncio's per-connection machinery off its hot path.  It binds
its own non-blocking listener and accepts in a loop from one reader
callback; each accepted socket gets a :class:`_LineTransport` — send
directly, watch for writability only after a short write — driving one
callback :class:`asyncio.Protocol` (:class:`_Connection`): no stream
pair, no task and no timer per connection.  Line deadlines are
``waiting_since`` stamps checked by one sweep per gateway, and reading
pauses only when bytes arrive while the request is queued.  A
challenge-only exchange costs the loop about three callbacks under
load.  The cluster's shard workers serve the sockets they are handed
through the same path (:meth:`GatewayServer.adopt`).

Overload behaviour is part of the contract, not an accident: the
admission queue is bounded, a pluggable shed policy picks victims when
it fills, shed requests get an explicit ``ERR shed: ...`` reply, and
every shed emits a ``REQUEST_SHED`` event through the framework's
:class:`~repro.core.events.EventBus` plus counters/histograms into the
gateway's :class:`~repro.metrics.collector.GatewayMetrics`.  A peer that
is malformed, oversize, silent past ``io_timeout`` or gone before its
terminal reply affects only itself: its connection is closed and
counted by kind, never left to pin a slot.

Threading model: :meth:`start` runs the event loop on one background
thread and all framework calls happen on that thread, so the shared
replay cache and RNG need no lock.  The public facade is
``start``/``stop``, the context manager and ``address``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import errno
import socket
import threading
import time

from repro.core.errors import ProtocolError, ReproError
from repro.core.events import EventKind
from repro.core.framework import AIPoWFramework, Challenge
from repro.core.records import ClientRequest
from repro.metrics.collector import GatewayMetrics
from repro.net.gateway.accumulator import MicroBatcher
from repro.net.gateway.shedding import (
    DropByGlobalReputation,
    DropNewest,
    PendingAdmission,
    ShedOutcome,
    ShedPolicy,
    make_shed_policy,
)
from repro.net.live import protocol
from repro.pow.puzzle import Solution

__all__ = ["GatewayOptions", "GatewayServer", "LISTEN_BACKLOG"]

#: ``listen()`` backlog of every gateway listener (single-process and
#: cluster parent).  asyncio's default of 100 overflowed under open-loop
#: bursts and surfaced as 1 s SYN-retransmit latency outliers.
LISTEN_BACKLOG = 512
#: Seconds the listener stops accepting after the process ran out of
#: file descriptors (asyncio's own ``ACCEPT_RETRY_DELAY``).
ACCEPT_RETRY_DELAY = 1.0
#: ``accept`` errors that mean "out of descriptors or memory": retrying
#: at once would spin, so the listener backs off instead.
_ACCEPT_EXHAUSTED = frozenset(
    (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)
)
#: The deadline sweep runs every ``io_timeout / DEADLINE_SWEEPS``
#: seconds, so a line gets between 1 and 1.125 x ``io_timeout``.
DEADLINE_SWEEPS = 8
#: Bytes asked of one ``recv``: a whole line fits in one read.
_READ_SIZE = 64 * 1024
_BATCHER_DEFAULTS = MicroBatcher.__init__.__kwdefaults__


@dataclasses.dataclass(frozen=True)
class GatewayOptions:
    """Settings of one gateway process: the one statement of defaults.

    ``repro serve`` (in process, shard 0 of 1) and every
    :class:`~repro.net.gateway.cluster.GatewayCluster` worker assemble
    their server from one of these
    (:func:`~repro.net.gateway.cluster.build_gateway`); the combination
    is checked here, before anything binds or spawns.  Plain values
    only, so it crosses the process boundary to spawned workers.  See
    :class:`~repro.net.gateway.cluster.GatewayCluster` for what each
    setting does.
    """

    max_batch: int = _BATCHER_DEFAULTS["max_batch"]
    batch_window: float = _BATCHER_DEFAULTS["batch_window"]
    queue_limit: int = _BATCHER_DEFAULTS["queue_limit"]
    #: Shed policy by CLI name (:func:`make_shed_policy`).
    shed_policy: str = DropNewest.name
    io_timeout: float = 30.0
    state_dir: str | None = None
    state_server: str | None = None
    replicas: int = 64
    record_path: str | None = None
    drain_grace: float = 5.0
    #: Sample every Nth request into a span; 0 disables tracing.
    trace_every: int = 0
    #: Where the sampled spans are written (needed by ``trace_every``).
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.trace_every < 0:
            raise ValueError(
                f"trace_every must be >= 0, got {self.trace_every}"
            )
        if self.trace_every > 0 and not self.trace_path:
            raise ValueError("trace_every > 0 needs a trace_path")
        if self.state_server and self.state_dir:
            raise ValueError(
                "state_dir and state_server are mutually exclusive: with a "
                "networked store the server owns persistence "
                "(repro state serve --snapshot)"
            )
        if self.shed_policy != DropByGlobalReputation.name:
            make_shed_policy(self.shed_policy)  # validate the name
        elif not self.state_server:
            raise ValueError(
                f"shed policy {self.shed_policy!r} needs --state-server"
            )


class GatewayServer:
    """Micro-batching TCP front-end for the framework.

    Use as a context manager in tests and examples::

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
    io_timeout:
        Seconds a connection may take to deliver each line, counted
        from when the server starts waiting for it; the deadline sweep
        cuts a silent peer within ``1.125 * io_timeout``.
    metrics:
        The :class:`~repro.metrics.collector.GatewayMetrics` receiving
        queue depths, batch sizes, queue waits, shed counts and
        connection errors; one over a private registry when omitted
        (see :meth:`metrics_snapshot`).
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
        max_batch: int = GatewayOptions.max_batch,
        batch_window: float = GatewayOptions.batch_window,
        queue_limit: int = GatewayOptions.queue_limit,
        shed_policy: ShedPolicy | None = None,
        io_timeout: float = GatewayOptions.io_timeout,
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
        self.metrics = metrics if metrics is not None else GatewayMetrics()
        self._connections: set[_Connection] = set()
        self.batcher = MicroBatcher(
            framework.challenge_batch_or_errors,
            max_batch=max_batch,
            batch_window=batch_window,
            queue_limit=queue_limit,
            shed_policy=shed_policy,
            on_shed=self._on_shed,
            on_flush=self._on_flush,
        )
        self._store_flush_due = False
        self._sweep: asyncio.TimerHandle | None = None
        self._address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Accumulator hooks (all run on the event-loop thread)
    # ------------------------------------------------------------------
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
        self.metrics.observe_shed(reason, queue_depth=queue_depth)

    def _on_flush(
        self, batch_size: int, queue_depth: int, results: list, waits: list
    ) -> None:
        # The one-at-a-time fallback returns ReproError entries for
        # requests whose admission failed; only real challenges count
        # as admitted.
        admitted = sum(
            1 for result in results if not isinstance(result, Exception)
        )
        self.metrics.observe_flush(
            batch_size, queue_depth, admitted=admitted, waits=waits
        )
        self._flush_store_soon()

    def _flush_store_soon(self) -> None:
        """Flush the store once after this loop pass: what its flushes and
        redemptions posted reaches peer workers within it (never in process)."""
        if not self._store_flush_due and self.framework.store.holds_posted:
            self._store_flush_due = True
            asyncio.get_running_loop().call_soon(self._flush_store)

    def _flush_store(self) -> None:
        self._store_flush_due = False
        self.framework.store.flush()

    def metrics_snapshot(self) -> dict:
        """Snapshot of the registry the gateway records into."""
        return self.metrics.registry.snapshot()

    def health(self) -> dict:
        """Liveness document for ``/healthz``: ok while the loop runs."""
        alive = self._thread is not None and self._thread.is_alive()
        return {"status": "ok" if alive else "stopped"}

    # ------------------------------------------------------------------
    # Connections and their deadlines (all on the event-loop thread)
    # ------------------------------------------------------------------
    def connection(self) -> "_Connection":
        """Protocol factory: one live-protocol connection on this gateway.

        :meth:`adopt` gives each socket one; a test can drive one
        through a transport of its own.
        """
        return _Connection(self)

    def adopt(self, sock: socket.socket) -> None:
        """Serve an accepted TCP socket on the running loop.

        The listener hands over every socket it accepts, and a cluster
        worker the ones it receives by file descriptor.
        """
        try:
            peer = sock.getpeername()
        except OSError:  # already gone: the read sees the reset
            peer = None
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        loop = asyncio.get_running_loop()
        _LineTransport(loop, sock, peer, self.connection())

    def _on_acceptable(self, listener: socket.socket) -> None:
        """Accept every pending connection (reader callback)."""
        for _ in range(LISTEN_BACKLOG):
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except ConnectionAbortedError:
                continue  # the peer gave up in the backlog
            except OSError as exc:
                if exc.errno not in _ACCEPT_EXHAUSTED:
                    raise
                # Out of descriptors: stop accepting for a while rather
                # than spin on a listener that stays readable.
                self.metrics.observe_connection_error("accept")
                self._loop.remove_reader(listener.fileno())
                self._loop.call_later(
                    ACCEPT_RETRY_DELAY, self._resume_accepting, listener
                )
                return
            self.adopt(sock)

    def _resume_accepting(self, listener: socket.socket) -> None:
        if listener.fileno() >= 0:  # not closed by shutdown meanwhile
            self._loop.add_reader(
                listener.fileno(), self._on_acceptable, listener
            )

    def _watch(self) -> float:
        """Loop time now, with the deadline sweep armed.

        Called when a connection starts waiting for a line; the sweep
        keeps itself armed while any connection waits.
        """
        loop = asyncio.get_running_loop()
        if self._sweep is None:
            self._sweep = loop.call_later(
                self.io_timeout / DEADLINE_SWEEPS, self._sweep_deadlines
            )
        return loop.time()

    def _sweep_deadlines(self) -> None:
        """Fail as ``timeout`` every line waited on past ``io_timeout``."""
        loop = asyncio.get_running_loop()
        cutoff = loop.time() - self.io_timeout
        expired = []
        waiting = False
        for connection in self._connections:
            since = connection.waiting_since
            if since is not None:
                if since <= cutoff:
                    expired.append(connection)
                else:
                    waiting = True
        for connection in expired:
            connection._fail("timeout")
        self._sweep = None
        if waiting:
            self._watch()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self.batcher.start()
        listeners = _listen(self.host, self.port)
        self._address = listeners[0].getsockname()[:2]
        for listener in listeners:
            self._loop.add_reader(
                listener.fileno(), self._on_acceptable, listener
            )
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            for listener in listeners:
                self._loop.remove_reader(listener.fileno())
                listener.close()
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
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None

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
            raise RuntimeError(
                f"gateway failed to start: {self._startup_error}"
            ) from self._startup_error
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


def _listen(host: str, port: int) -> list[socket.socket]:
    """Bound, listening, non-blocking sockets for ``host:port``.

    Resolves like :meth:`asyncio.loop.create_server`: one listener per
    address ``host`` names (all interfaces for ``""`` or ``None``), each
    with ``SO_REUSEADDR`` and IPv6 ones v6-only.
    """
    infos = socket.getaddrinfo(
        host or None, port, socket.AF_UNSPEC, socket.SOCK_STREAM, 0,
        socket.AI_PASSIVE,
    )
    listeners: list[socket.socket] = []
    try:
        for family, kind, proto, _name, address in dict.fromkeys(infos):
            sock = socket.socket(family, kind, proto)
            listeners.append(sock)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if family == socket.AF_INET6:
                sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
            sock.bind(address)
            sock.listen(LISTEN_BACKLOG)
            sock.setblocking(False)
    except OSError:
        for sock in listeners:
            sock.close()
        raise
    return listeners


class _LineTransport:
    """The transport of one gateway connection: only what it calls.

    ``write`` sends at once and watches for writability only after a
    short write; ``close`` lets buffered output go first, ``abort``
    drops it.  Reading is one ``recv`` per readable event; EOF or a
    receive error ends the connection.  An exception out of the
    protocol aborts this connection alone and propagates to the loop's
    exception handler.  ``connection_lost`` runs inside ``close`` /
    ``abort`` (as with the test's fake transport), except after a send
    error, where it is scheduled so the writer's own callback finishes
    first.
    """

    __slots__ = ("_loop", "_sock", "_fd", "_peer", "_protocol",
                 "_out", "_reading", "_closing")

    def __init__(self, loop, sock: socket.socket, peer, protocol) -> None:
        self._loop = loop
        self._sock: socket.socket | None = sock
        self._fd = sock.fileno()
        self._peer = peer
        self._protocol = protocol
        self._out = bytearray()
        self._reading = True
        self._closing = False
        loop.add_reader(self._fd, self._on_readable)
        protocol.connection_made(self)

    def get_extra_info(self, name: str, default=None):
        return self._peer if name == "peername" else default

    def _stop_reading(self) -> None:
        if self._reading:
            self._reading = False
            self._loop.remove_reader(self._fd)

    pause_reading = _stop_reading

    def resume_reading(self) -> None:
        if not self._reading and not self._closing:
            self._reading = True
            self._loop.add_reader(self._fd, self._on_readable)

    def write(self, data: bytes) -> None:
        if self._closing:
            return
        if self._out:  # already waiting for the peer to drain
            self._out += data
            return
        try:
            sent = self._sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError as exc:
            self._shut()
            self._loop.call_soon(self._protocol.connection_lost, exc)
            return
        if sent < len(data):
            self._out += data[sent:]
            self._loop.add_writer(self._fd, self._on_writable)

    def close(self) -> None:
        """Close once buffered output is sent; reading stops now."""
        if self._closing:
            return
        self._closing = True
        self._stop_reading()
        if not self._out:
            self._lose(None)

    def abort(self) -> None:
        """Close now, dropping buffered output."""
        self._lose(None)

    # -- loop callbacks ------------------------------------------------
    def _on_readable(self) -> None:
        try:
            data = self._sock.recv(_READ_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._lose(exc)
            return
        if not data:
            self._lose(None)  # EOF: the protocol has nothing to send back
            return
        try:
            self._protocol.data_received(data)
        except Exception:
            self.abort()
            raise

    def _on_writable(self) -> None:
        try:
            sent = self._sock.send(self._out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._lose(exc)
            return
        del self._out[:sent]
        if not self._out:
            self._loop.remove_writer(self._fd)
            if self._closing:
                self._lose(None)

    # -- endings -------------------------------------------------------
    def _shut(self) -> None:
        """Unregister the socket and close it."""
        self._stop_reading()
        if self._out:
            self._out.clear()
            self._loop.remove_writer(self._fd)
        self._closing = True
        self._sock.close()
        self._sock = None

    def _lose(self, exc: Exception | None) -> None:
        if self._sock is not None:
            self._shut()
            self._protocol.connection_lost(exc)


class _Connection(asyncio.Protocol):
    """One live-protocol exchange, driven by transport callbacks.

    ``REQUEST`` line → queued in the batcher → the admission future's
    done-callback writes the puzzle → ``SOLUTION`` line → terminal
    reply and close.  Each awaited line has ``io_timeout`` seconds from
    ``waiting_since``, the moment the server starts waiting for it;
    the gateway's one deadline sweep enforces it (no timer per line).
    Bytes that arrive while the request is queued are held, under the
    line cap, and reading pauses until the puzzle is out — the only
    pause, so a peer that sends one line and waits is never paused.  A
    connection that ends any other way than by the server's terminal
    reply is counted by kind in ``gateway_connection_errors_total``.
    """

    __slots__ = (
        "gateway", "transport", "buffer", "waiting_since", "paused",
        "challenge", "accepted_mono", "finished",
    )

    def __init__(self, gateway: GatewayServer) -> None:
        self.gateway = gateway
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        #: Loop time the awaited line was first waited on; None while
        #: queued for admission or once finished.
        self.waiting_since: float | None = None
        self.paused = False
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
        # Counts only when the peer went away first: mid-line, while
        # queued, or with its puzzle unanswered.
        self._fail("reset")

    def data_received(self, data: bytes) -> None:
        if self.waiting_since is None:
            # Queued: hold what arrives until the puzzle is out, and
            # read no more meanwhile.
            self._hold(data)
            self.paused = True
            self.transport.pause_reading()
            return
        end = data.find(b"\n")
        if end < 0:
            self._hold(data)
            return
        line = self.buffer + data[:end]
        if len(line) > protocol.MAX_LINE_BYTES:
            self._fail("oversize")
            return
        # Whatever follows the line waits for _await_line.
        self.buffer.clear()
        self.buffer += data[end + 1:]
        self.waiting_since = None
        on_line = self._on_solution if self.challenge else self._on_request
        try:
            on_line(line.decode("ascii", "replace"))
        except ProtocolError:
            self._fail("protocol")

    # -- the exchange --------------------------------------------------
    def _hold(self, data: bytes) -> None:
        if len(self.buffer) + len(data) > protocol.MAX_LINE_BYTES:
            self._fail("oversize")
        else:
            self.buffer += data

    def _await_line(self) -> None:
        """Start waiting, under a fresh deadline, for the next line."""
        self.waiting_since = self.gateway._watch()
        if self.paused:
            self.paused = False
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
            # This request failed admission; only the offender pays it.
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
        gateway._flush_store_soon()
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
            self.waiting_since = None
            self.gateway.metrics.observe_connection_error(kind)
            self.transport.close()
