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
from repro.reputation.ensemble import ConstantModel


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
            assert read_line(b) == "hello world"
        finally:
            a.close()
            b.close()

    def test_read_line_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ProtocolError):
                read_line(b)
        finally:
            b.close()

    def test_read_line_cap_enforced(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"x" * 128)
            with pytest.raises(ProtocolError, match="exceeds"):
                read_line(b, max_bytes=64)
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

    def test_score_drives_difficulty_live(self):
        framework = AIPoWFramework(ConstantModel(7.0), policy_1())
        with GatewayServer(framework) as server:
            result = LiveClient(server.address).fetch("/x", {})
            assert result.difficulty == 8  # ceil(7) + 1

    def test_bad_solution_rejected(self):
        framework = AIPoWFramework(ConstantModel(9.0), FixedPolicy(18))
        with GatewayServer(framework) as hard_server:
            hard_client = LiveClient(hard_server.address)
            ok, reason = hard_client.fetch_raw(
                "/x", {}, "SOLUTION 00 12345 1"
            )
            assert not ok
            # Either integrity (wrong seed) or invalid-solution rejection.
            assert reason
