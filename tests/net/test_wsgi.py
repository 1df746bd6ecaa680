"""Tests for the WSGI middleware."""

from __future__ import annotations

import json

import pytest

from repro.core.framework import AIPoWFramework
from repro.net.wsgi import (
    FEATURES_HEADER,
    PUZZLE_HEADER,
    SOLUTION_HEADER,
    PowMiddleware,
    solve_challenge_headers,
)
from repro.policies.linear import policy_1
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel

CLIENT_IP = "203.0.113.77"


def protected_app(environ, start_response):
    body = b"secret resource"
    start_response(
        "200 OK",
        [("Content-Type", "text/plain"), ("Content-Length", str(len(body)))],
    )
    return [body]


class WsgiTester:
    """Minimal WSGI driver capturing status/headers/body."""

    def __init__(self, app):
        self.app = app

    def request(self, path="/index.html", headers=None, ip=CLIENT_IP):
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": path,
            "REMOTE_ADDR": ip,
        }
        for name, value in (headers or {}).items():
            environ["HTTP_" + name.upper().replace("-", "_")] = value
        captured = {}

        def start_response(status, response_headers):
            captured["status"] = status
            captured["headers"] = dict(response_headers)

        body = b"".join(self.app(environ, start_response))
        return captured["status"], captured["headers"], body


@pytest.fixture()
def middleware():
    framework = AIPoWFramework(ConstantModel(0.0), policy_1())
    return WsgiTester(PowMiddleware(protected_app, framework))


class TestChallengePhase:
    def test_unsolved_request_gets_429_with_puzzle(self, middleware):
        status, headers, body = middleware.request()
        assert status.startswith("429")
        assert PUZZLE_HEADER in headers
        assert headers[PUZZLE_HEADER].startswith("PUZZLE ")
        assert b"difficulty" in body

    def test_difficulty_tracks_features(self):
        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        tester = WsgiTester(PowMiddleware(protected_app, framework))
        _, headers, _ = tester.request()
        assert " 1 " in headers[PUZZLE_HEADER]  # difficulty field == 1

        hostile = AIPoWFramework(ConstantModel(9.0), policy_1())
        tester = WsgiTester(PowMiddleware(protected_app, hostile))
        _, headers, _ = tester.request()
        assert " 10 " in headers[PUZZLE_HEADER]

    def test_features_header_consumed(self):
        seen = {}

        class Probe:
            name = "probe"

            def score(self, features):
                return 0.0

            def score_request(self, request):
                seen.update(request.features)
                return 0.0

        framework = AIPoWFramework(Probe(), policy_1())
        tester = WsgiTester(PowMiddleware(protected_app, framework))
        tester.request(
            headers={FEATURES_HEADER: json.dumps({"spam_volume": 7.5})}
        )
        assert seen == {"spam_volume": 7.5}

    def test_malformed_features_rejected(self, middleware):
        status, _, _ = middleware.request(
            headers={FEATURES_HEADER: "{not json"}
        )
        assert status.startswith("400")


class TestRedeemPhase:
    def test_full_exchange_serves_resource(self, middleware):
        _, headers, _ = middleware.request()
        retry = solve_challenge_headers(headers[PUZZLE_HEADER], CLIENT_IP)
        status, _, body = middleware.request(headers=retry)
        assert status.startswith("200")
        assert body == b"secret resource"

    def test_bad_nonce_forbidden(self, failing_nonce):
        framework = AIPoWFramework(ConstantModel(0.0), FixedPolicy(16))
        tester = WsgiTester(PowMiddleware(protected_app, framework))
        _, headers, _ = tester.request()
        from repro.pow.puzzle import Puzzle, Solution

        puzzle = Puzzle.from_wire(headers[PUZZLE_HEADER])
        bad = Solution(
            puzzle_seed=puzzle.seed,
            nonce=failing_nonce(puzzle, CLIENT_IP),
        )
        status, _, body = tester.request(
            headers={
                PUZZLE_HEADER: headers[PUZZLE_HEADER],
                SOLUTION_HEADER: bad.to_wire(),
            }
        )
        assert status.startswith("403")
        assert b"rejected" in body

    def test_solution_for_other_ip_forbidden(self, middleware):
        _, headers, _ = middleware.request(ip="203.0.113.77")
        retry = solve_challenge_headers(headers[PUZZLE_HEADER], "203.0.113.77")
        status, _, _ = middleware.request(headers=retry, ip="203.0.113.88")
        assert status.startswith("403")

    def test_replayed_solution_forbidden(self, middleware):
        _, headers, _ = middleware.request()
        retry = solve_challenge_headers(headers[PUZZLE_HEADER], CLIENT_IP)
        first, _, _ = middleware.request(headers=retry)
        second, _, _ = middleware.request(headers=retry)
        assert first.startswith("200")
        assert second.startswith("403")

    def test_solution_without_puzzle_is_400(self, middleware):
        status, _, _ = middleware.request(
            headers={SOLUTION_HEADER: "SOLUTION ab 1 1"}
        )
        assert status.startswith("400")

    def test_garbage_puzzle_header_is_400(self, middleware):
        status, _, _ = middleware.request(
            headers={
                PUZZLE_HEADER: "GARBAGE",
                SOLUTION_HEADER: "SOLUTION ab 1 1",
            }
        )
        assert status.startswith("400")



class TestRemoteStore:
    def test_a_request_leaves_no_posted_write_behind(self):
        # Over a state server, the writes a request posts (the score
        # cache's, the folded offset) are sent when the request ends,
        # not with some later request's frame: the server holds the
        # served address's offset after a single redeem.
        import math

        from repro.core.spec import FrameworkSpec
        from repro.reputation.features import FEATURE_NAMES
        from repro.state import RemoteStateStore, StateServer

        features = {FEATURES_HEADER: json.dumps(dict.fromkeys(FEATURE_NAMES, 0.5))}
        with StateServer() as server:
            store = RemoteStateStore(server.address)
            try:
                framework = FrameworkSpec(
                    policy="policy-1", feedback_half_life=math.inf
                ).build(store=store)
                tester = WsgiTester(PowMiddleware(protected_app, framework))
                _, headers, _ = tester.request(headers=features)
                assert server.store.namespace("score-cache").get(CLIENT_IP)
                retry = solve_challenge_headers(headers[PUZZLE_HEADER], CLIENT_IP)
                status, _, _ = tester.request(headers={**features, **retry})
                assert status.startswith("200")
                offset, _ = server.store.namespace("feedback").get(CLIENT_IP)
                assert offset == -framework.feedback.config.reward_step
            finally:
                store.close()
