"""The gateway's own socket layer, over real sockets.

``GatewayServer`` binds its listener and accepts from one reader
callback, and each connection rides a ``_LineTransport``; line
deadlines are one sweep per gateway.  These tests pin what that layer
costs the event loop as counts (callbacks run, timers armed, pauses),
and check its I/O edges: the writer fallback, ``abort``, a protocol
that raises, an exhausted ``accept``, and host resolution.
"""

from __future__ import annotations

import asyncio
import errno
import socket
import threading
import time

import pytest

from repro.core.framework import AIPoWFramework
from repro.metrics.collector import GatewayMetrics
from repro.net.gateway import server as gateway_server
from repro.net.gateway.server import GatewayServer, _LineTransport
from repro.net.live.client import LiveClient
from repro.net.live.protocol import (
    MAX_LINE_BYTES,
    encode_request,
    read_line,
    send_line,
)
from repro.policies.linear import policy_1
from repro.reputation.ensemble import ConstantModel


def make_server(**options) -> GatewayServer:
    framework = AIPoWFramework(ConstantModel(0.0), policy_1())
    return GatewayServer(framework, metrics=GatewayMetrics(), **options)


def error_counts(server: GatewayServer) -> dict:
    counter = server.metrics.registry.get("gateway_connection_errors_total")
    return counter.as_dict()


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


def challenge_only(server: GatewayServer) -> str:
    """Send a REQUEST, take the puzzle, hang up."""
    with socket.create_connection(server.address, timeout=10) as sock:
        send_line(sock, encode_request("/c", {}))
        return read_line(sock)


class TestLoopBudget:
    """What one exchange costs the gateway's event loop, as counts.

    Exchanges run one at a time, so nothing is amortised: the listener
    callback accepts one socket and the batcher's dispatcher takes two
    steps (wake, one pass holding the batch open) per exchange.  A
    challenge-only exchange then adds the ``REQUEST`` read, the
    admission future's done-callback and the EOF read; a benign one
    reads its ``SOLUTION`` instead of an EOF.  Nothing is posted to an
    in-process store, so no store flush is scheduled.  Measured once;
    asyncio's own transports ran 12 and 13 callbacks and armed 2 timers
    per exchange.
    """

    CALLBACKS_CHALLENGE_ONLY = 6
    CALLBACKS_BENIGN = 6
    EXCHANGES = 20

    def test_callbacks_timers_and_pauses_per_exchange(self, monkeypatch):
        # A window no pass can outlast and a sweep that never comes due
        # keep the counts independent of the host's speed.
        server = make_server(batch_window=60.0, io_timeout=600.0)
        counts = {"callbacks": 0, "timers": 0, "pauses": 0}

        def on_loop() -> bool:
            return threading.current_thread() is server._thread

        def counted(name, method):
            def wrapper(*args, **kwargs):
                if on_loop():
                    counts[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            asyncio.events.Handle, "_run",
            counted("callbacks", asyncio.events.Handle._run),
        )
        monkeypatch.setattr(
            asyncio.base_events.BaseEventLoop, "call_at",
            counted("timers", asyncio.base_events.BaseEventLoop.call_at),
        )
        monkeypatch.setattr(
            _LineTransport, "pause_reading",
            counted("pauses", _LineTransport.pause_reading),
        )

        def settled() -> bool:
            return not server._connections and not server._store_flush_due

        def per_exchange(exchange) -> dict:
            exchange()  # warm: the first wait arms the sweep
            wait_until(settled)
            before = dict(counts)
            for _ in range(self.EXCHANGES):
                exchange()
                wait_until(settled)
            return {
                name: (counts[name] - before[name]) / self.EXCHANGES
                for name in counts
            }

        with server:
            client = LiveClient(server.address)
            lone = per_exchange(lambda: challenge_only(server))
            benign = per_exchange(lambda: client.fetch("/b", {}))
        assert lone == {
            "callbacks": self.CALLBACKS_CHALLENGE_ONLY,
            "timers": 0, "pauses": 0,
        }
        assert benign == {
            "callbacks": self.CALLBACKS_BENIGN, "timers": 0, "pauses": 0,
        }
        assert error_counts(server) == {"reset": self.EXCHANGES + 1}


class Recorder(asyncio.Protocol):
    def __init__(self) -> None:
        self.received = bytearray()
        self.lost: list = []

    def data_received(self, data: bytes) -> None:
        self.received += data

    def connection_lost(self, exc) -> None:
        self.lost.append(exc)


def tcp_pair() -> tuple[socket.socket, socket.socket]:
    """(server side, client side), both non-blocking."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname()[:2])
        server, _ = listener.accept()
    # A small send buffer makes the short write come early.
    server.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    server.setblocking(False)
    client.setblocking(False)
    return server, client


async def read_to_eof(sock: socket.socket) -> bytes:
    loop = asyncio.get_running_loop()
    received = bytearray()
    while chunk := await loop.sock_recv(sock, 1 << 16):
        received += chunk
    return bytes(received)


class TestLineTransport:
    PAYLOAD = bytes(range(256)) * 4096  # 1 MiB, far past the send buffer

    def test_large_reply_finishes_through_the_writer_then_closes(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            server, client = tcp_pair()
            with client:
                recorder = Recorder()
                transport = _LineTransport(loop, server, None, recorder)
                transport.write(self.PAYLOAD)
                backlog = len(transport._out)
                transport.close()
                lost_at_close = list(recorder.lost)
                received = await read_to_eof(client)
            return backlog, lost_at_close, received, recorder.lost

        backlog, lost_at_close, received, lost = asyncio.run(scenario())
        assert 0 < backlog < len(self.PAYLOAD)
        assert lost_at_close == []  # close waited for the output
        assert received == self.PAYLOAD
        assert lost == [None]

    def test_abort_drops_buffered_output(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            server, client = tcp_pair()
            with client:
                recorder = Recorder()
                transport = _LineTransport(loop, server, None, recorder)
                transport.write(self.PAYLOAD)
                backlog = len(transport._out)
                transport.abort()
                lost_at_abort = list(recorder.lost)
                received = await read_to_eof(client)
            return backlog, lost_at_abort, received

        backlog, lost, received = asyncio.run(scenario())
        assert backlog > 0
        assert lost == [None]
        assert received == self.PAYLOAD[:len(self.PAYLOAD) - backlog]

    def test_protocol_exception_closes_only_its_own_connection(self):
        class Faulty(Recorder):
            def data_received(self, data: bytes) -> None:
                raise RuntimeError("protocol bug")

        async def scenario():
            loop = asyncio.get_running_loop()
            faults = []
            loop.set_exception_handler(
                lambda loop, context: faults.append(context["exception"])
            )
            bad_server, bad_client = tcp_pair()
            good_server, good_client = tcp_pair()
            with bad_client, good_client:
                faulty, healthy = Faulty(), Recorder()
                _LineTransport(loop, bad_server, None, faulty)
                good = _LineTransport(loop, good_server, None, healthy)
                bad_client.send(b"boom\n")
                eof = await read_to_eof(bad_client)
                good_client.send(b"still here\n")
                while not healthy.received:
                    await asyncio.sleep(0.001)
                good.write(b"reply\n")
                reply = await loop.sock_recv(good_client, 64)
                good.close()
            return faults, eof, faulty.lost, healthy, reply

        faults, eof, faulty_lost, healthy, reply = asyncio.run(scenario())
        assert [str(exc) for exc in faults] == ["protocol bug"]
        assert eof == b"" and faulty_lost == [None]
        assert bytes(healthy.received) == b"still here\n"
        assert reply == b"reply\n" and healthy.lost == [None]


class TestListener:
    def test_exhausted_accept_backs_off_and_recovers(self, monkeypatch):
        """EMFILE stops accepting for the retry delay: no spin."""
        monkeypatch.setattr(gateway_server, "ACCEPT_RETRY_DELAY", 0.2)
        real_accept = socket.socket.accept
        real_call_later = asyncio.BaseEventLoop.call_later
        accepts = 0
        resumes = []

        def accept(sock):
            nonlocal accepts
            accepts += 1
            if accepts == 1:
                raise OSError(errno.EMFILE, "Too many open files")
            return real_accept(sock)

        def call_later(loop, delay, callback, *args, **kwargs):
            if getattr(callback, "__name__", "") == "_resume_accepting":
                resumes.append(delay)
            return real_call_later(loop, delay, callback, *args, **kwargs)

        monkeypatch.setattr(socket.socket, "accept", accept)
        monkeypatch.setattr(asyncio.BaseEventLoop, "call_later", call_later)
        with make_server() as server:
            result = LiveClient(server.address, timeout=10).fetch("/x", {})
        assert result.ok and result.body == "resource:/x"
        # One refused accept parks the listener for the retry delay,
        # then the retry: accepted, then empty.
        assert resumes == [0.2]
        assert accepts == 3
        assert error_counts(server) == {"accept": 1}

    @pytest.mark.parametrize("host", ["localhost", "127.0.0.1"])
    def test_binds_a_name_and_an_ipv4_literal(self, host):
        with make_server(host=host) as server:
            assert LiveClient(server.address).fetch("/h", {}).ok


class TestErrorKinds:
    def test_each_kind_counts_one_way_of_ending(self, monkeypatch):
        """Every kind of ``gateway_connection_errors_total``, once each.

        ``protocol``: a malformed line; ``oversize``: a line past the
        cap; ``timeout``: silence past ``io_timeout``; ``reset``: the
        peer left before its terminal reply; ``accept``: the listener
        could not take a connection (out of descriptors).
        """
        monkeypatch.setattr(gateway_server, "ACCEPT_RETRY_DELAY", 0.05)
        real_accept = socket.socket.accept
        refuse = []

        def accept(sock):
            if refuse:
                refuse.pop()
                raise OSError(errno.EMFILE, "Too many open files")
            return real_accept(sock)

        monkeypatch.setattr(socket.socket, "accept", accept)
        seen = []
        with make_server(io_timeout=0.2) as server:
            def step(peer) -> None:
                peer()
                wait_until(lambda: not server._connections)
                seen.append(error_counts(server))

            def malformed():
                with socket.create_connection(server.address) as sock:
                    send_line(sock, "GIBBERISH")
                    assert read_line(sock).startswith("ERR malformed")

            def oversize():
                with socket.create_connection(server.address) as sock:
                    sock.sendall(b"x" * (MAX_LINE_BYTES + 1))
                    assert sock.recv(1) == b""

            def silent():
                with socket.create_connection(server.address) as sock:
                    sock.sendall(b"REQUEST /never-finished")
                    assert sock.recv(1) == b""

            def refused_once():
                refuse.append(True)
                assert challenge_only(server).startswith("PUZZLE ")

            step(malformed)
            step(oversize)
            step(silent)
            step(lambda: challenge_only(server))
            step(refused_once)
            served = LiveClient(server.address).fetch("/fine", {})
        assert served.ok
        assert seen == [
            {"protocol": 1},
            {"protocol": 1, "oversize": 1},
            {"protocol": 1, "oversize": 1, "timeout": 1},
            {"protocol": 1, "oversize": 1, "timeout": 1, "reset": 1},
            # The refused connection is served after the back-off, then
            # hangs up after its puzzle like the one before it.
            {"protocol": 1, "oversize": 1, "timeout": 1, "reset": 2,
             "accept": 1},
        ]
