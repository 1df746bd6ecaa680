"""The live line protocol, and LiveClient exchanges against the gateway."""

from __future__ import annotations

import socket

import pytest

from repro.core.errors import ProtocolError
from repro.core.framework import AIPoWFramework
from repro.net.gateway.server import GatewayServer
from repro.net.live.client import LiveClient
from repro.net.live.protocol import (
    encode_err,
    encode_ok,
    encode_request,
    parse_reply,
    parse_request,
    read_line,
    send_line,
)
from repro.policies.linear import policy_1
from repro.policies.table import FixedPolicy
from repro.pow.puzzle import Puzzle
from repro.reputation.ensemble import ConstantModel


def fetch_raw(address, resource, features, solution_line):
    """Send a request but submit ``solution_line`` verbatim.

    Failure injection (bad nonces, tampered frames); returns the parsed
    ``(ok, body/reason)`` reply.
    """
    with socket.create_connection(
        address, timeout=10.0
    ) as sock, sock.makefile("rb") as lines:
        send_line(sock, encode_request(resource, features))
        Puzzle.from_wire(read_line(lines))  # consume the puzzle
        send_line(sock, solution_line)
        try:
            return parse_reply(read_line(lines))
        except ProtocolError:
            return False, "connection closed"


@pytest.fixture()
def gateway():
    framework = AIPoWFramework(ConstantModel(0.0), policy_1())
    with GatewayServer(framework, io_timeout=10.0) as server:
        yield server


class TestProtocolFrames:
    def test_request_round_trip(self):
        line = encode_request("/index.html", {"a": 1.5, "b": 2.0})
        resource, features = parse_request(line)
        assert resource == "/index.html"
        assert features == {"a": 1.5, "b": 2.0}

    def test_request_validation(self):
        with pytest.raises(ProtocolError):
            encode_request("no-slash", {})
        with pytest.raises(ProtocolError):
            parse_request("REQUEST /r")
        with pytest.raises(ProtocolError):
            parse_request("REQUEST /r {bad json")
        with pytest.raises(ProtocolError):
            parse_request('REQUEST /r ["list"]')
        with pytest.raises(ProtocolError):
            parse_request('REQUEST /r {"a": "NaN-ish-string-nope!"}')

    def test_reply_round_trip(self):
        assert parse_reply(encode_ok("hello")) == (True, "hello")
        assert parse_reply(encode_err("bad thing")) == (False, "bad thing")
        assert parse_reply("OK") == (True, "")

    def test_reply_validation(self):
        with pytest.raises(ProtocolError):
            parse_reply("HELLO?")
        with pytest.raises(ProtocolError):
            encode_ok("two\nlines")

    def test_read_line_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_line(a, "hello world")
            send_line(a, "second")
            with b.makefile("rb") as lines:
                assert read_line(lines) == "hello world"
                assert read_line(lines) == "second"
        finally:
            a.close()
            b.close()

    def test_read_line_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with b.makefile("rb") as lines:
                with pytest.raises(ProtocolError, match="before frame"):
                    read_line(lines)
        finally:
            b.close()

    def test_read_line_eof_mid_line_raises(self):
        a, b = socket.socketpair()
        a.sendall(b"PUZZLE 1 ab")
        a.close()
        try:
            with b.makefile("rb") as lines:
                with pytest.raises(ProtocolError, match="mid-frame"):
                    read_line(lines)
        finally:
            b.close()

    def test_read_line_cap_enforced(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"x" * 64 + b"\n" + b"x" * 128)
            with b.makefile("rb") as lines:
                assert read_line(lines, max_bytes=64) == "x" * 64
                with pytest.raises(ProtocolError, match="exceeds"):
                    read_line(lines, max_bytes=64)
        finally:
            a.close()
            b.close()

    def test_read_line_keeps_the_socket_timeout(self):
        a, b = socket.socketpair()
        b.settimeout(0.05)
        try:
            a.sendall(b"no newline yet")
            with b.makefile("rb") as lines, pytest.raises(TimeoutError):
                read_line(lines)
        finally:
            a.close()
            b.close()

    def test_send_line_rejects_newlines(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ProtocolError):
                send_line(a, "two\nlines")
        finally:
            a.close()
            b.close()


class TestLiveExchange:
    def test_fetch_solves_and_serves(self, gateway):
        client = LiveClient(gateway.address)
        result = client.fetch("/index.html", {})
        assert result.ok
        assert result.body == "resource:/index.html"
        assert result.difficulty == 1  # constant score 0 + policy-1
        assert result.attempts >= 1

    def test_multiple_sequential_fetches(self, gateway):
        client = LiveClient(gateway.address)
        results = [client.fetch("/r", {}) for _ in range(5)]
        assert all(r.ok for r in results)

    def test_concurrent_fetches(self, gateway):
        import concurrent.futures

        client = LiveClient(gateway.address)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(client.fetch, "/c", {}) for _ in range(8)
            ]
            results = [f.result(timeout=30) for f in futures]
        assert all(r.ok for r in results)

    def test_a_fetch_reads_each_reply_line_in_one_recv(
        self, gateway, monkeypatch
    ):
        # The PUZZLE and OK lines each arrive in one segment and are read
        # through one buffered reader: one ``recv`` per line, two more
        # allowed for a line split across segments (was one per byte,
        # 126 for this exchange).
        calls = []

        class CountingSocket(socket.socket):
            __slots__ = ()

            def recv(self, *args):
                calls.append("recv")
                return super().recv(*args)

            def recv_into(self, *args):
                calls.append("recv_into")
                return super().recv_into(*args)

        connect = LiveClient._connect

        def counted(client):
            sock = connect(client)
            timeout = sock.gettimeout()
            counting = CountingSocket(fileno=sock.detach())
            counting.settimeout(timeout)
            return counting

        monkeypatch.setattr(LiveClient, "_connect", counted)
        result = LiveClient(gateway.address).fetch("/index.html", {})
        assert result.ok and result.body == "resource:/index.html"
        assert 2 <= len(calls) <= 4, calls

    def test_score_drives_difficulty_live(self):
        framework = AIPoWFramework(ConstantModel(7.0), policy_1())
        with GatewayServer(framework) as server:
            result = LiveClient(server.address).fetch("/x", {})
            assert result.difficulty == 8  # ceil(7) + 1

    def test_bad_solution_rejected(self):
        framework = AIPoWFramework(ConstantModel(9.0), FixedPolicy(18))
        with GatewayServer(framework) as hard_server:
            ok, reason = fetch_raw(
                hard_server.address, "/x", {}, "SOLUTION 00 12345 1"
            )
            assert not ok
            # Either integrity (wrong seed) or invalid-solution rejection.
            assert reason
