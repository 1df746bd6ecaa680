"""Live-protocol load generator: one thread, one epoll loop.

Two drivers over the same connect-per-request exchange:

* :meth:`LoadGenerator.open_loop` sends on a fixed arrival schedule
  whatever the server does — independent users.  Every latency is timed
  from the request's *due* time, so a stall in the server (or in this
  generator) is charged to every request it delays, not just to the one
  in flight (no coordinated omission); ``launched - due`` is reported as
  the generator's own lateness.
* :meth:`LoadGenerator.closed_loop` keeps N callers each waiting for a
  reply before asking again — a saturation probe.

The loop is hand-rolled over non-blocking sockets rather than asyncio:
on the 2-CPU reference box an asyncio exchange costs the generator
~210 us against ~300 us in the server under test, so the two fight for
the machine and the generator's scheduling noise lands in the server's
latency.  A bare epoll exchange costs a fraction of that.  Linux only,
like the ``/proc`` accounting next to it.
"""

from __future__ import annotations

import errno
import os
import select
import socket
import time
from typing import Callable, Iterator, Sequence

from repro.core.errors import ProtocolError
from repro.pow.puzzle import Puzzle
from repro.pow.solver import HashSolver

from perfbench.inputs import ServeClient

__all__ = ["Exchange", "LoadGenerator"]

#: Seconds unfinished exchanges get after the last send before they
#: count as timed out.
DRAIN_TIMEOUT = 5.0
#: Launches per loop turn before polling the sockets again, so a late
#: generator cannot starve its own replies.
_MAX_BURST = 32


class Exchange:
    """One request -> puzzle [-> solution -> OK] exchange and its timings.

    All instants are ``time.monotonic()`` seconds; ``None`` means the
    stage was never reached.
    """

    __slots__ = (
        "client", "due", "solve", "launched", "connected", "admitted",
        "finished", "difficulty", "solve_seconds", "solve_hashes", "ok",
        "error", "bytes", "sock", "buffer", "replies",
    )

    def __init__(self, client: ServeClient, due: float, solve: bool) -> None:
        self.client = client
        self.due = due
        self.solve = solve
        self.launched = 0.0
        self.connected: float | None = None
        self.admitted: float | None = None
        self.finished: float | None = None
        self.difficulty: int | None = None
        self.solve_seconds = 0.0
        self.solve_hashes = 0
        self.ok = False
        self.error: str | None = None
        self.bytes = 0
        self.sock: socket.socket | None = None
        self.buffer = b""
        self.replies = 0


class LoadGenerator:
    """Drives exchanges at ``address`` from the calling thread."""

    clock = staticmethod(time.monotonic)

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.solver = HashSolver()
        #: Every exchange launched, in launch order.
        self.exchanges: list[Exchange] = []
        self.inflight = 0
        self.inflight_max = 0
        self._epoll = select.epoll()
        self._by_fd: dict[int, Exchange] = {}
        self._timers: list[tuple[float, Callable[[], None]]] = []
        self._on_finish: Callable[[], None] | None = None

    def close(self) -> None:
        for exchange in list(self._by_fd.values()):
            self._finish(exchange, False, "generator closed")
        self._epoll.close()

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` from the loop once the clock passes ``when``."""
        self._timers.append((when, callback))
        self._timers.sort(key=lambda timer: timer[0])

    # -- one exchange --------------------------------------------------
    def launch(self, client: ServeClient, due: float, solve: bool) -> Exchange:
        exchange = Exchange(client, due, solve)
        exchange.launched = self.clock()
        self.exchanges.append(exchange)
        self.inflight += 1
        self.inflight_max = max(self.inflight_max, self.inflight)
        sock = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM | socket.SOCK_NONBLOCK
        )
        exchange.sock = sock
        try:
            sock.bind((client.ip, 0))
            code = sock.connect_ex(self.address)
        except OSError as exc:
            code = exc.errno or errno.EIO
        if code not in (0, errno.EINPROGRESS):
            # No refill: a closed-loop caller whose connect is refused
            # outright retires instead of spinning on a dead server.
            self._finish(
                exchange, False, f"connect: {os.strerror(code)}", notify=False
            )
            return exchange
        self._by_fd[sock.fileno()] = exchange
        self._epoll.register(sock.fileno(), select.EPOLLOUT)
        return exchange

    def _send(self, exchange: Exchange, frame: bytes) -> bool:
        # Frames are a few hundred bytes on a fresh connection: a short
        # or refused write means the peer is gone, not a full buffer.
        try:
            sent = exchange.sock.send(frame)
        except OSError as exc:
            self._finish(exchange, False, f"send: {exc}")
            return False
        exchange.bytes += sent
        if sent != len(frame):
            self._finish(exchange, False, "short write")
            return False
        return True

    def _on_ready(self, exchange: Exchange) -> None:
        sock = exchange.sock
        if exchange.connected is None:
            code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if code:
                self._finish(exchange, False, f"connect: {os.strerror(code)}")
                return
            exchange.connected = self.clock()
            if self._send(exchange, exchange.client.request_line):
                self._epoll.modify(sock.fileno(), select.EPOLLIN)
            return
        try:
            data = sock.recv(4096)
        except BlockingIOError:
            return
        except OSError as exc:
            self._finish(exchange, False, f"recv: {exc}")
            return
        if not data:
            self._finish(exchange, False, "closed before reply")
            return
        exchange.bytes += len(data)
        exchange.buffer += data
        while b"\n" in exchange.buffer and exchange.finished is None:
            line, _, exchange.buffer = exchange.buffer.partition(b"\n")
            self._on_line(exchange, line.decode("ascii", "replace"))

    def _on_line(self, exchange: Exchange, line: str) -> None:
        exchange.replies += 1
        if exchange.replies == 2:
            ok = line == "OK" or line.startswith("OK ")
            self._finish(exchange, ok, None if ok else line)
            return
        try:
            puzzle = Puzzle.from_wire(line)
        except ProtocolError:
            self._finish(exchange, False, line)  # ERR shed/admission/challenge
            return
        exchange.admitted = self.clock()
        exchange.difficulty = puzzle.difficulty
        if not exchange.solve:
            self._finish(exchange, True, None)
            return
        solution = self.solver.solve(puzzle, exchange.client.ip)
        exchange.solve_seconds = solution.elapsed
        exchange.solve_hashes = solution.attempts
        self._send(exchange, solution.to_wire().encode("ascii") + b"\n")

    def _finish(
        self, exchange: Exchange, ok: bool, error: str | None,
        notify: bool = True,
    ) -> None:
        if exchange.finished is not None:
            return
        exchange.finished = self.clock()
        exchange.ok = ok
        exchange.error = error
        sock, exchange.sock = exchange.sock, None
        if self._by_fd.pop(sock.fileno(), None) is not None:
            self._epoll.unregister(sock.fileno())
        sock.close()
        self.inflight -= 1
        if notify and self._on_finish is not None:
            self._on_finish()

    # -- the loop ------------------------------------------------------
    def _turn(self, wake_at: float) -> None:
        """Fire due timers, then serve socket events until ``wake_at``."""
        now = self.clock()
        while self._timers and self._timers[0][0] <= now:
            self._timers.pop(0)[1]()
        if self._timers:
            wake_at = min(wake_at, self._timers[0][0])
        for fd, _events in self._epoll.poll(max(0.0, wake_at - self.clock())):
            exchange = self._by_fd.get(fd)
            if exchange is not None:
                self._on_ready(exchange)

    def _drain(self) -> None:
        """Wait for in-flight exchanges; time out the stragglers."""
        deadline = self.clock() + DRAIN_TIMEOUT
        while (self.inflight or self._timers) and self.clock() < deadline:
            # With nothing in flight only a timer is left to wait for; a
            # turn that fires the last one must not sleep to the deadline.
            self._turn(deadline if self.inflight else self._timers[0][0])
        for exchange in list(self._by_fd.values()):
            self._finish(exchange, False, "timed out")

    def open_loop(
        self,
        clients: Sequence[ServeClient],
        offsets: Sequence[float],
        start: float,
    ) -> None:
        """Launch ``clients[i]`` at ``start + offsets[i]``, then drain.

        Benign clients run the full exchange; hostile ones stop at the
        puzzle (a challenge-only flood).
        """
        cursor = 0
        while cursor < len(offsets):
            now = self.clock()
            burst = 0
            while (
                cursor < len(offsets)
                and start + offsets[cursor] <= now
                and burst < _MAX_BURST
            ):
                client = clients[cursor]
                self.launch(client, start + offsets[cursor], client.benign)
                cursor += 1
                burst += 1
            if cursor < len(offsets):
                self._turn(start + offsets[cursor])
        self._drain()

    def closed_loop(
        self, clients: Iterator[ServeClient], callers: int, until: float
    ) -> None:
        """``callers`` challenge-only exchanges kept in flight until ``until``."""

        def refill() -> None:
            if self.clock() < until:
                self.launch(next(clients), self.clock(), False)

        self._on_finish = refill
        try:
            for _ in range(callers):
                refill()
            while self.clock() < until:
                self._turn(until)
        finally:
            self._on_finish = None
        self._drain()
