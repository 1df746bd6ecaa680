"""WSGI middleware: drop the framework in front of any Python web app.

The paper's client issues *HTTP requests* (Figure 1 step 1).  This
middleware makes the framework deployable in that exact setting without
a custom protocol: wrap any WSGI application and unsolved requests
receive ``429 Too Many Requests`` carrying the puzzle in headers; the
client solves and retries with the solution attached.

Exchange:

1. Request without solution headers →
   ``429`` + ``X-PoW-Puzzle: <puzzle frame>`` (and a human-readable
   body).  The puzzle is bound to the peer address as usual.
2. Request with ``X-PoW-Puzzle`` (echoed) and ``X-PoW-Solution``
   headers → verified; on success the wrapped application runs, on
   failure ``403``.

Feature extraction is pluggable: by default, features come from a
JSON ``X-PoW-Features`` header (trusted-lab setting, as in the paper's
evaluation); production deployments supply a callable that derives
features from the environ (socket stats, headers, upstream intel).

The middleware keeps no state of its own across requests, and flushes
the store's posted writes as each request ends.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Mapping

from repro.core.errors import ProtocolError, ReproError
from repro.core.framework import AIPoWFramework
from repro.core.interfaces import batch_scores
from repro.core.records import ClientRequest
from repro.pow.puzzle import Puzzle, Solution

__all__ = ["PowMiddleware", "solve_challenge_headers"]

FeatureExtractor = Callable[[Mapping[str, object]], Mapping[str, float]]

#: Header names used by the exchange (WSGI environ form in parens).
PUZZLE_HEADER = "X-PoW-Puzzle"
SOLUTION_HEADER = "X-PoW-Solution"
FEATURES_HEADER = "X-PoW-Features"

_ENV_PUZZLE = "HTTP_X_POW_PUZZLE"
_ENV_SOLUTION = "HTTP_X_POW_SOLUTION"
_ENV_FEATURES = "HTTP_X_POW_FEATURES"


def _default_extractor(environ: Mapping[str, object]) -> dict[str, float]:
    """Features from the ``X-PoW-Features`` JSON header (may be empty)."""
    raw = environ.get(_ENV_FEATURES)
    if not raw:
        return {}
    try:
        data = json.loads(str(raw))
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed {FEATURES_HEADER} header: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"{FEATURES_HEADER} must be a JSON object")
    try:
        return {str(k): float(v) for k, v in data.items()}
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"non-numeric feature value: {exc}") from exc


class PowMiddleware:
    """Wraps a WSGI app behind the AI-assisted PoW challenge.

    Parameters
    ----------
    app:
        The protected WSGI application.
    framework:
        The configured pipeline.
    feature_extractor:
        environ → feature mapping; defaults to the JSON header.
    clock:
        Time source (injectable for tests).
    """

    def __init__(
        self,
        app,
        framework: AIPoWFramework,
        feature_extractor: FeatureExtractor | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        import time

        self.app = app
        self.framework = framework
        self.extract = feature_extractor or _default_extractor
        self.clock = clock or time.time

    # ------------------------------------------------------------------
    def __call__(self, environ, start_response) -> Iterable[bytes]:
        try:
            return self._dispatch(environ, start_response)
        except ProtocolError as exc:
            return self._respond(
                start_response, "400 Bad Request", str(exc)
            )
        except ReproError as exc:
            return self._respond(
                start_response, "500 Internal Server Error", str(exc)
            )
        finally:
            self.framework.store.flush()

    def _dispatch(self, environ, start_response) -> Iterable[bytes]:
        if _ENV_SOLUTION in environ:
            return self._redeem(environ, start_response)
        return self._challenge(environ, start_response)

    def _request_from(self, environ) -> ClientRequest:
        client_ip = str(environ.get("REMOTE_ADDR", "") or "0.0.0.0")
        path = str(environ.get("PATH_INFO", "/") or "/")
        if not path.startswith("/"):
            path = "/" + path
        return ClientRequest(
            client_ip=client_ip,
            resource=path,
            timestamp=self.clock(),
            features=self.extract(environ),
        )

    def _challenge(self, environ, start_response) -> Iterable[bytes]:
        request = self._request_from(environ)
        challenge = self.framework.challenge(request, now=request.timestamp)
        body = (
            f"proof of work required: difficulty "
            f"{challenge.decision.difficulty}\n"
        ).encode("ascii")
        start_response(
            "429 Too Many Requests",
            [
                ("Content-Type", "text/plain"),
                ("Content-Length", str(len(body))),
                (PUZZLE_HEADER, challenge.puzzle.to_wire()),
                ("Retry-After", "0"),
            ],
        )
        return [body]

    def _redeem(self, environ, start_response) -> Iterable[bytes]:
        puzzle_frame = environ.get(_ENV_PUZZLE)
        if not puzzle_frame:
            raise ProtocolError(
                f"{SOLUTION_HEADER} without {PUZZLE_HEADER}"
            )
        puzzle = Puzzle.from_wire(str(puzzle_frame))
        solution = Solution.from_wire(str(environ[_ENV_SOLUTION]))

        request = self._request_from(environ)
        # Reconstruct a challenge for this puzzle.  The decision's score
        # and policy are recomputed so the ServedResponse handed to
        # RESPONSE_SERVED subscribers carries them; the re-score costs
        # a store frame (one through a remote store) before the tag is
        # checked.  Verification itself depends only on the puzzle tag,
        # which binds the IP.
        from repro.core.framework import Challenge
        from repro.core.records import IssuerDecision

        decision = IssuerDecision(
            request=request,
            reputation_score=float(batch_scores(self.framework.model, [request])[0]),
            difficulty=puzzle.difficulty,
            policy_name=self.framework.policy.name,
            model_name=self.framework.model.name,
        )
        response = self.framework.redeem(
            Challenge(decision, puzzle), solution, now=self.clock()
        )
        if not response.served:
            return self._respond(
                start_response, "403 Forbidden", response.status.value
            )
        return self.app(environ, start_response)

    @staticmethod
    def _respond(start_response, status: str, message: str) -> Iterable[bytes]:
        body = (message + "\n").encode("ascii", "replace")
        start_response(
            status,
            [
                ("Content-Type", "text/plain"),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body]


def solve_challenge_headers(
    puzzle_frame: str,
    client_ip: str,
    nonce_bits: int = 32,
) -> dict[str, str]:
    """Client helper: solve a 429's puzzle and build the retry headers."""
    from repro.pow.solver import HashSolver

    puzzle = Puzzle.from_wire(puzzle_frame)
    solution = HashSolver(nonce_bits=nonce_bits).solve(puzzle, client_ip)
    return {
        PUZZLE_HEADER: puzzle_frame,
        SOLUTION_HEADER: solution.to_wire(),
    }
