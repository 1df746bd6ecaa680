"""The gateway's per-connection Protocol, driven through a fake transport.

No sockets: ``FakeTransport`` records writes and the pause / close
calls, and ``deliver`` plays a peer that — like a real transport —
hands over no bytes while reading is paused or after the close.  The
last test adopts a real accepted socket the way a cluster worker does.
"""

from __future__ import annotations

import asyncio
import os
import socket

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import AIPoWFramework
from repro.core.spec import FrameworkSpec
from repro.metrics.collector import GatewayMetrics, gateway_summary
from repro.net.gateway.cluster import ShardWorker
from repro.net.gateway.server import GatewayServer
from repro.net.live.client import LiveClient
from repro.net.live.protocol import MAX_LINE_BYTES
from repro.policies.linear import policy_1
from repro.reputation.ensemble import ConstantModel


class FakeTransport:
    def __init__(self) -> None:
        self.protocol = None
        self.written = bytearray()
        self.paused = False
        self.pauses = 0
        self.closed = False

    def get_extra_info(self, name, default=None):
        return ("203.0.113.7", 40000) if name == "peername" else default

    def write(self, data: bytes) -> None:
        assert not self.closed
        self.written += data

    def pause_reading(self) -> None:
        self.paused = True
        self.pauses += 1

    def resume_reading(self) -> None:
        self.paused = False

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.protocol.connection_lost(None)

    abort = close


def make_gateway(**options) -> GatewayServer:
    framework = AIPoWFramework(ConstantModel(0.0), policy_1())
    return GatewayServer(framework, metrics=GatewayMetrics(), **options)


def error_counts(gateway: GatewayServer) -> dict:
    counter = gateway.metrics.registry.get("gateway_connection_errors_total")
    return counter.as_dict()


def connect(gateway: GatewayServer) -> tuple[FakeTransport, object]:
    transport = FakeTransport()
    connection = transport.protocol = gateway.connection()
    connection.connection_made(transport)
    return transport, connection


async def settle(passes: int = 10) -> None:
    for _ in range(passes):
        await asyncio.sleep(0)


async def deliver(transport: FakeTransport, chunks) -> None:
    """Hand ``chunks`` over one at a time, never while paused or closed."""
    for chunk in chunks:
        for _ in range(20):
            if not transport.paused:
                break
            await asyncio.sleep(0)
        if transport.closed or transport.paused:
            return
        transport.protocol.data_received(chunk)
    await settle()


def replies(transport: FakeTransport) -> list[str]:
    """Reply lines, a puzzle reduced to its (only stable) difficulty."""
    lines = bytes(transport.written).decode("ascii").split("\n")
    assert lines.pop() == ""  # every reply is terminated
    return [
        f"PUZZLE d={line.split(' ')[4]}" if line.startswith("PUZZLE ") else line
        for line in lines
    ]


def serve(stream_chunks, **options) -> tuple[list[str], bool, dict]:
    """One connection fed ``stream_chunks`` on a fresh gateway."""

    async def scenario():
        gateway = make_gateway(**options)
        gateway.batcher.start()
        transport, _ = connect(gateway)
        await deliver(transport, stream_chunks)
        await gateway.drain(grace=0.0)
        return (
            replies(transport), transport.closed,
            error_counts(gateway),
        )

    return asyncio.run(scenario())


STREAMS = [
    b"REQUEST /index.html {}\nSOLUTION 00ff 12 34\n",
    b"REQUEST /a {\"x\": 1.5}\nSOLUTION nonsense\n",
    b"REQUEST /a {}\nSOLUTION 00 1 1\ntrailing bytes",
    b"GIBBERISH\nREQUEST /late {}\n",
    b"REQUEST no-slash {}\n",
    b"REQUEST /r {}\n",
    b"REQUEST /r {}",
    b"\n\n",
    b"\xff\xfe junk\nREQUEST /r {}\n",
]


class TestChunking:
    @settings(max_examples=60, deadline=None)
    @given(
        stream=st.sampled_from(STREAMS),
        cuts=st.lists(st.integers(min_value=0, max_value=64), max_size=8),
    )
    def test_any_chunking_replies_like_whole_lines(self, stream, cuts):
        whole = serve(stream.splitlines(keepends=True))
        size = len(stream)
        bounds = sorted({min(cut, size) for cut in cuts} | {size})
        chunks = [
            stream[start:end]
            for start, end in zip([0] + bounds, bounds)
            if end > start
        ]
        assert serve(chunks) == whole

    def test_whole_line_replies_are_the_documented_ones(self):
        assert serve([STREAMS[0]]) == (
            ["PUZZLE d=1", "ERR rejected"], True, {}
        )
        assert serve([STREAMS[1]]) == (
            ["PUZZLE d=1"], True, {"protocol": 1}
        )
        out, closed, errors = serve([STREAMS[3]])
        assert out[0].startswith("ERR malformed request frame")
        assert (len(out), closed, errors) == (1, True, {"protocol": 1})
        # Non-ASCII junk is quoted back as '?', not a server traceback.
        assert serve([STREAMS[8]]) == (
            ["ERR malformed request frame: '?? junk'"], True, {"protocol": 1}
        )
        # A peer still mid-line at shutdown is cut, not counted.
        assert serve([STREAMS[6]]) == ([], True, {})


class TestBounds:
    def test_unterminated_line_is_cut_at_the_cap(self):
        async def scenario():
            gateway = make_gateway()
            transport, connection = connect(gateway)
            held = []
            for _ in range(MAX_LINE_BYTES // 4096 + 2):
                if transport.closed:
                    break
                connection.data_received(b"x" * 4096)
                held.append(len(connection.buffer))
            return transport, held, error_counts(gateway)

        transport, held, errors = asyncio.run(scenario())
        assert transport.closed and not transport.written
        assert max(held) <= MAX_LINE_BYTES + 1
        assert errors == {"oversize": 1}

    def test_one_huge_read_is_not_buffered(self):
        async def scenario():
            gateway = make_gateway()
            transport, connection = connect(gateway)
            connection.data_received(b"y" * (4 * MAX_LINE_BYTES))
            return transport, len(connection.buffer)

        transport, held = asyncio.run(scenario())
        assert transport.closed and held == 0

    def test_overlong_terminated_line_is_refused(self):
        line = b"REQUEST /" + b"z" * MAX_LINE_BYTES + b" {}\n"
        assert serve([line]) == ([], True, {"oversize": 1})

    def test_reading_is_paused_while_queued(self):
        """Only bytes that arrive while queued pause reading, capped."""

        async def scenario():
            gateway = make_gateway()
            gateway.batcher.start()
            # One line, then silence: never paused.
            lone, _ = connect(gateway)
            await deliver(lone, [b"REQUEST /r {}\n"])
            # The rest of the REQUEST read is held without a pause ...
            eager, connection = connect(gateway)
            connection.data_received(b"REQUEST /r {}\nSOLU")
            held = (eager.pauses, gateway.batcher.depth)
            # ... and the next read, still queued, pauses reading.
            connection.data_received(b"TION 00 1 1\n")
            queued = (eager.pauses, eager.paused, bytes(connection.buffer))
            await settle()
            # Queued bytes stay under the line cap.
            flooder, connection = connect(gateway)
            connection.data_received(b"REQUEST /r {}\n")
            connection.data_received(b"x" * MAX_LINE_BYTES)
            capped = (flooder.paused, len(connection.buffer))
            connection.data_received(b"x")
            await gateway.drain(grace=0.0)
            return (
                lone.pauses, held, queued, replies(eager), capped,
                flooder.closed, error_counts(gateway),
            )

        lone, held, queued, out, capped, cut, errors = asyncio.run(scenario())
        assert lone == 0
        assert held == (0, 1)
        assert queued == (1, True, b"SOLUTION 00 1 1\n")
        assert out == ["PUZZLE d=1", "ERR rejected"]
        assert capped == (True, MAX_LINE_BYTES)
        assert cut and errors == {"oversize": 1}


class TestDeadline:
    def test_deadline_is_per_line_not_per_read(self):
        """A byte every io_timeout/2 keeps no connection alive."""

        async def scenario():
            loop = asyncio.get_running_loop()
            gateway = make_gateway(io_timeout=0.2)
            transport, connection = connect(gateway)
            began = loop.time()
            while not transport.closed and loop.time() - began < 2.0:
                connection.data_received(b"R")
                await asyncio.sleep(0.1)
            return loop.time() - began, error_counts(gateway)

        took, errors = asyncio.run(scenario())
        assert 0.2 <= took < 1.0
        assert errors == {"timeout": 1}

    def test_second_line_gets_its_own_deadline(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            gateway = make_gateway(io_timeout=0.2)
            gateway.batcher.start()
            transport, _ = connect(gateway)
            await asyncio.sleep(0.15)
            await deliver(transport, [b"REQUEST /r {}\n"])
            puzzle_at = loop.time()
            while not transport.closed and loop.time() - puzzle_at < 2.0:
                await asyncio.sleep(0.01)
            took = loop.time() - puzzle_at
            await gateway.drain(grace=0.0)
            return took, replies(transport), error_counts(gateway)

        took, out, errors = asyncio.run(scenario())
        assert 0.15 <= took < 1.0
        assert out == ["PUZZLE d=1"]
        assert errors == {"timeout": 1}


class TestPeerLeaves:
    def test_disconnect_while_queued_is_quiet_and_accounted(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            faults = []
            loop.set_exception_handler(
                lambda loop, context: faults.append(context)
            )
            gateway = make_gateway()
            gateway.batcher.start()
            transport, connection = connect(gateway)
            connection.data_received(b"REQUEST /r {}\n")
            transport.close()  # the peer goes away while queued
            await settle()
            await gateway.drain(grace=0.0)
            return gateway, transport, faults

        gateway, transport, faults = asyncio.run(scenario())
        assert faults == []
        assert not transport.written
        summary = gateway_summary(gateway.metrics_snapshot())
        assert (summary["admitted"], summary["flushes"]) == (1, 1)
        assert summary["shed"] == 0
        assert error_counts(gateway) == {"reset": 1}
        assert not gateway._connections

    def test_unanswered_puzzle_counts_as_reset(self):
        async def scenario():
            gateway = make_gateway()
            gateway.batcher.start()
            transport, _ = connect(gateway)
            await deliver(transport, [b"REQUEST /r {}\n"])
            transport.close()
            await gateway.drain(grace=0.0)
            return replies(transport), error_counts(gateway)

        assert asyncio.run(scenario()) == (["PUZZLE d=1"], {"reset": 1})


class TestAdoptedSocket:
    def test_worker_serves_an_accepted_fd_through_the_same_protocol(self):
        """fd -> ``GatewayServer.adopt`` -> a full benign exchange."""

        async def scenario():
            loop = asyncio.get_running_loop()
            worker = ShardWorker(FrameworkSpec(), 0, 1, ctrl=None, options={})
            worker.gateway = make_gateway()
            worker.gateway.batcher.start()
            with socket.create_server(("127.0.0.1", 0)) as listener:
                listener.setblocking(False)
                fetch = loop.run_in_executor(
                    None,
                    LiveClient(listener.getsockname()[:2]).fetch,
                    "/adopted", {},
                )
                accepted, _ = await loop.sock_accept(listener)
                worker._adopt(os.dup(accepted.fileno()))
                accepted.close()
                result = await asyncio.wait_for(fetch, timeout=10.0)
            await worker.gateway.drain(grace=1.0)
            return result, worker.gateway

        result, gateway = asyncio.run(scenario())
        assert result.ok and result.body == "resource:/adopted"
        assert error_counts(gateway) == {}
        assert len(gateway.metrics.admission_waits) == 1
