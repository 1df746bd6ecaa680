"""Multi-connection async load generator for the live protocol.

The measurement client behind the ``thr-shard`` experiment and the
gateway stress tests: opens many concurrent connections against a
:class:`~repro.net.gateway.server.GatewayServer` or a
:class:`~repro.net.gateway.cluster.GatewayCluster`, runs full
request → puzzle → solve → redeem exchanges on each, and reports
admission throughput plus latency quantiles.  Shed replies
(``ERR shed: ...``) are counted separately from protocol errors so
overload experiments can assert *graceful* degradation, not just
degradation.

One event loop drives every connection, so the generator's own
overhead is the same no matter which configuration is under test —
the difference in a comparison run is the server, not the client.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Mapping, Sequence

from repro.core.errors import ProtocolError
from repro.metrics.histogram import SampleSet
from repro.net.live import protocol
from repro.pow.puzzle import Puzzle
from repro.pow.solver import HashSolver

__all__ = ["LoadGenerator", "LoadReport"]


@dataclasses.dataclass(slots=True)
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    attempted: int = 0
    served: int = 0
    shed: int = 0
    rejected: int = 0
    errors: int = 0
    #: Exchanges ended deliberately after the challenge (``solve=False``
    #: admission-throughput runs) — the server's admission work is done,
    #: no solution was submitted.
    challenged: int = 0
    elapsed: float = 0.0
    latencies: SampleSet = dataclasses.field(default_factory=SampleSet)
    #: Puzzle difficulty of every challenge received, in receipt order —
    #: lets callers assert decisions do not depend on batching.
    difficulties: list = dataclasses.field(default_factory=list)

    @property
    def completed(self) -> int:
        """Requests that got a definitive reply (served or shed)."""
        return self.served + self.shed + self.rejected + self.challenged

    @property
    def throughput(self) -> float:
        """Completed exchanges per second of wall-clock run time."""
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """End-to-end latency quantile over served requests (seconds)."""
        return self.latencies.quantile(q)


class LoadGenerator:
    """Drives ``connections`` concurrent solver clients at a server.

    Parameters
    ----------
    address:
        (host, port) of a live-protocol server.
    connections:
        Concurrent connections kept in flight.
    requests_per_connection:
        Exchanges each connection performs sequentially (the protocol
        is connect-per-request, like :class:`LiveClient`).
    features:
        Feature mapping sent with every request.
    resource:
        Resource path requested.
    nonce_bits:
        Solver search width.
    timeout:
        Per-read timeout in seconds.
    bind_ips:
        Optional local source addresses, assigned to connections
        round-robin.  On Linux the whole ``127.0.0.0/8`` block is
        loopback, so a sharded-gateway experiment can present many
        distinct client IPs (``127.0.0.1``, ``127.0.0.2``, ...) from
        one host — each IP then routes consistently to its shard, the
        way distinct real clients would.
    solve:
        When False, each exchange stops after receiving the puzzle
        (counted under ``challenged``): the server has done all its
        admission work, and the generator's own cost stays minimal —
        the mode the ``thr-shard`` scaling measurement uses so the
        *server*, not the load generator, is the saturated side.
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        connections: int = 64,
        requests_per_connection: int = 4,
        features: Mapping[str, float] | None = None,
        resource: str = "/index.html",
        nonce_bits: int = 32,
        timeout: float = 30.0,
        bind_ips: Sequence[str] | None = None,
        solve: bool = True,
    ) -> None:
        if connections < 1:
            raise ValueError(f"connections must be >= 1, got {connections}")
        if requests_per_connection < 1:
            raise ValueError(
                "requests_per_connection must be >= 1, "
                f"got {requests_per_connection}"
            )
        self.address = address
        self.connections = connections
        self.requests_per_connection = requests_per_connection
        self.features = dict(features or {})
        self.resource = resource
        self.solver = HashSolver(nonce_bits=nonce_bits)
        self.timeout = timeout
        self.bind_ips = list(bind_ips) if bind_ips else []
        self.solve = solve

    async def _exchange(self, report: LoadReport, bind_ip: str | None) -> None:
        report.attempted += 1
        started = time.perf_counter()
        local_addr = (bind_ip, 0) if bind_ip else None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    *self.address, local_addr=local_addr
                ),
                self.timeout,
            )
        except (OSError, asyncio.TimeoutError):
            report.errors += 1
            return
        try:
            await protocol.send_line_async(
                writer,
                protocol.encode_request(self.resource, self.features),
            )
            reply = await asyncio.wait_for(
                protocol.read_line_async(reader), self.timeout
            )
            if reply.startswith("ERR "):
                reason = reply[4:]
                if reason.startswith("shed:"):
                    report.shed += 1
                else:
                    report.errors += 1
                return
            puzzle = Puzzle.from_wire(reply)
            report.difficulties.append(puzzle.difficulty)
            if not self.solve:
                report.challenged += 1
                report.latencies.add(time.perf_counter() - started)
                return
            my_ip = writer.get_extra_info("sockname")[0]
            solution = self.solver.solve(puzzle, my_ip)
            await protocol.send_line_async(writer, solution.to_wire())
            ok, _body = protocol.parse_reply(
                await asyncio.wait_for(
                    protocol.read_line_async(reader), self.timeout
                )
            )
        except (ProtocolError, OSError, asyncio.TimeoutError):
            report.errors += 1
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.TimeoutError):  # pragma: no cover
                pass
        if ok:
            report.served += 1
            report.latencies.add(time.perf_counter() - started)
        else:
            report.rejected += 1

    async def _worker(self, report: LoadReport, index: int) -> None:
        bind_ip = (
            self.bind_ips[index % len(self.bind_ips)]
            if self.bind_ips
            else None
        )
        for _ in range(self.requests_per_connection):
            await self._exchange(report, bind_ip)

    async def _run(self) -> LoadReport:
        report = LoadReport()
        started = time.perf_counter()
        await asyncio.gather(
            *(
                self._worker(report, index)
                for index in range(self.connections)
            )
        )
        report.elapsed = time.perf_counter() - started
        return report

    def run(self) -> LoadReport:
        """Run the full load from a fresh event loop; returns the report."""
        return asyncio.run(self._run())
