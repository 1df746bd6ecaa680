"""Blocking client for the live protocol: the paper's *solver* role.

:class:`LiveClient` connects, sends a request, receives the puzzle,
grinds it with a real :class:`~repro.pow.solver.HashSolver`, submits the
solution, and returns the served body with end-to-end timing — one full
pass of the paper's Figure 1 over real sockets.
"""

from __future__ import annotations

import dataclasses
import socket
import time
from typing import Mapping

from repro.net.live import protocol
from repro.pow.puzzle import Puzzle
from repro.pow.solver import HashSolver

__all__ = ["LiveClient", "FetchResult"]


@dataclasses.dataclass(frozen=True, slots=True)
class FetchResult:
    """Outcome of one live exchange."""

    ok: bool
    body: str
    latency: float
    difficulty: int
    attempts: int
    solve_seconds: float


class LiveClient:
    """Connect-per-request client that solves puzzles honestly.

    Parameters
    ----------
    address:
        (host, port) of a :class:`~repro.net.gateway.server.GatewayServer`
        or of a :class:`~repro.net.gateway.cluster.GatewayCluster`.
    solver:
        Nonce grinder; defaults to a fresh 32-bit :class:`HashSolver`.
    timeout:
        Socket timeout in seconds.
    source_ip:
        Optional local address to bind outgoing connections to.  On
        Linux any ``127.0.0.0/8`` address is loopback, so tests and
        smoke tools can present distinct client IPs to a sharded
        gateway from a single host.
    """

    def __init__(
        self,
        address: tuple[str, int],
        solver: HashSolver | None = None,
        timeout: float = 30.0,
        source_ip: str | None = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.address = address
        self.solver = solver or HashSolver()
        self.timeout = timeout
        self.source_ip = source_ip

    def _connect(self) -> socket.socket:
        source = (self.source_ip, 0) if self.source_ip else None
        return socket.create_connection(
            self.address, timeout=self.timeout, source_address=source
        )

    def fetch(
        self, resource: str, features: Mapping[str, float]
    ) -> FetchResult:
        """Run one full request/solve/redeem exchange."""
        started = time.perf_counter()
        with self._connect() as sock, sock.makefile("rb") as lines:
            protocol.send_line(
                sock, protocol.encode_request(resource, features)
            )
            puzzle = Puzzle.from_wire(protocol.read_line(lines))

            # The server binds the puzzle to the address it sees; use the
            # same one (our side of this connection).
            my_ip = sock.getsockname()[0]
            solution = self.solver.solve(puzzle, my_ip)
            protocol.send_line(sock, solution.to_wire())

            ok, body = protocol.parse_reply(protocol.read_line(lines))
        return FetchResult(
            ok=ok,
            body=body,
            latency=time.perf_counter() - started,
            difficulty=puzzle.difficulty,
            attempts=solution.attempts,
            solve_seconds=solution.elapsed,
        )
