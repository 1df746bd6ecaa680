"""Tests for the async admission gateway: accumulator, shedding, server."""

from __future__ import annotations

import asyncio
import math
import socket
import time

import pytest

from repro.core.events import EventKind
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.metrics.collector import GatewayMetrics, gateway_summary
from repro.net.gateway.accumulator import MicroBatcher
from repro.net.gateway.loadgen import LoadGenerator
from repro.net.gateway.server import GatewayServer
from repro.net.gateway.shedding import (
    DropByReputationPrior,
    DropNewest,
    PendingAdmission,
    ShedOutcome,
)
from repro.net.live.client import LiveClient
from repro.net.live.protocol import read_line, send_line
from repro.obs.tracing import RequestTracer
from repro.policies.linear import policy_1
from repro.reputation.ensemble import ConstantModel


def request_from(ip: str, resource: str = "/r") -> ClientRequest:
    return ClientRequest(
        client_ip=ip, resource=resource, timestamp=0.0, features={}
    )


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# MicroBatcher: flush-on-size vs flush-on-window edge cases
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_empty_flush_never_calls_admit(self):
        batches = []

        async def scenario():
            batcher = MicroBatcher(lambda reqs: list(reqs))
            batcher.on_flush = lambda size, depth, results, waits: batches.append(size)
            assert batcher.flush_once() == 0

        run(scenario())
        assert batches == []

    def test_single_request_flushes_on_window(self):
        async def scenario():
            batches = []
            batcher = MicroBatcher(
                lambda reqs: list(reqs),
                max_batch=64,
                batch_window=0.01,
                on_flush=lambda size, depth, results, waits: batches.append(size),
            )
            batcher.start()
            result = await batcher.submit(request_from("1.2.3.4"))
            await batcher.stop()
            return batches, result

        batches, result = run(scenario())
        assert batches == [1]
        assert result.client_ip == "1.2.3.4"

    def test_flush_on_size_beats_window(self):
        """max_batch arrivals flush immediately, not after the window."""

        async def scenario():
            batches = []
            batcher = MicroBatcher(
                lambda reqs: list(reqs),
                max_batch=4,
                batch_window=60.0,  # would time out the test if waited on
                on_flush=lambda size, depth, results, waits: batches.append(size),
            )
            batcher.start()
            futures = [
                batcher.submit(request_from(f"10.0.0.{i}"))
                for i in range(4)
            ]
            results = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0
            )
            await batcher.stop()
            return batches, results

        batches, results = run(scenario())
        assert batches == [4]
        assert [r.client_ip for r in results] == [
            f"10.0.0.{i}" for i in range(4)
        ]

    def test_oversize_burst_drains_in_max_batch_chunks(self):
        async def scenario():
            batches = []
            batcher = MicroBatcher(
                lambda reqs: list(reqs),
                max_batch=4,
                batch_window=0.005,
                queue_limit=100,
                on_flush=lambda size, depth, results, waits: batches.append(size),
            )
            batcher.start()
            futures = [
                batcher.submit(request_from(f"10.0.1.{i}"))
                for i in range(11)
            ]
            await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
            await batcher.stop()
            return batches

        batches = run(scenario())
        assert sum(batches) == 11
        assert all(size <= 4 for size in batches)
        assert batches[0] == 4

    def test_window_zero_flushes_immediately(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda reqs: list(reqs), max_batch=64, batch_window=0.0
            )
            batcher.start()
            result = await asyncio.wait_for(
                batcher.submit(request_from("1.1.1.1")), timeout=5.0
            )
            await batcher.stop()
            return result

        assert run(scenario()).client_ip == "1.1.1.1"

    def test_queue_full_sheds_with_drop_newest(self):
        async def scenario():
            sheds = []
            batcher = MicroBatcher(
                lambda reqs: list(reqs),
                max_batch=64,
                batch_window=60.0,
                queue_limit=2,
                on_shed=lambda pending, reason, depth: sheds.append(
                    (pending.request.client_ip, reason)
                ),
            )
            # No dispatcher running: the queue can only fill.
            first = batcher.submit(request_from("10.0.0.1"))
            second = batcher.submit(request_from("10.0.0.2"))
            third = batcher.submit(request_from("10.0.0.3"))
            outcome = await asyncio.wait_for(third, timeout=5.0)
            assert not first.done() and not second.done()
            return sheds, outcome, batcher

        sheds, outcome, batcher = run(scenario())
        assert isinstance(outcome, ShedOutcome)
        assert outcome.policy == "drop-newest"
        assert sheds == [("10.0.0.3", "admission queue full")]

    def test_queue_full_can_shed_queued_victim(self):
        """A reputation prior can evict a queued request instead."""

        async def scenario():
            prior = lambda request: (  # noqa: E731
                9.0 if request.client_ip == "6.6.6.6" else 1.0
            )
            batcher = MicroBatcher(
                lambda reqs: list(reqs),
                max_batch=64,
                batch_window=60.0,
                queue_limit=2,
                shed_policy=DropByReputationPrior(prior),
            )
            bot = batcher.submit(request_from("6.6.6.6"))
            good1 = batcher.submit(request_from("10.0.0.1"))
            good2 = batcher.submit(request_from("10.0.0.2"))
            outcome = await asyncio.wait_for(bot, timeout=5.0)
            assert not good1.done() and not good2.done()
            assert batcher.depth == 2
            return outcome

        outcome = run(scenario())
        assert isinstance(outcome, ShedOutcome)
        assert outcome.policy == "drop-reputation"

    def test_stop_sheds_outstanding_requests(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda reqs: list(reqs),
                max_batch=64,
                batch_window=60.0,
            )
            pending = batcher.submit(request_from("10.0.0.1"))
            await batcher.stop()
            return await asyncio.wait_for(pending, timeout=5.0)

        outcome = run(scenario())
        assert isinstance(outcome, ShedOutcome)
        assert "shutting down" in outcome.reason

    def test_admit_failure_propagates_to_futures(self):
        async def scenario():
            def broken(requests):
                raise RuntimeError("model exploded")

            batcher = MicroBatcher(
                broken, max_batch=4, batch_window=0.001
            )
            batcher.start()
            future = batcher.submit(request_from("10.0.0.1"))
            with pytest.raises(RuntimeError, match="model exploded"):
                await asyncio.wait_for(future, timeout=5.0)
            await batcher.stop()

        run(scenario())

    def test_lone_submit_does_not_wait_for_the_window(self):
        """No company arrives, so the batch closes after a few passes."""

        async def scenario():
            batcher = MicroBatcher(
                lambda reqs: list(reqs), max_batch=64, batch_window=60.0
            )
            batcher.start()
            future = batcher.submit(request_from("1.2.3.4"))
            passes = 0
            while not future.done() and passes < 50:
                await asyncio.sleep(0)
                passes += 1
            await batcher.stop()
            return future.done(), passes

        done, passes = run(scenario())
        assert done
        assert passes <= 4

    def test_submits_of_one_pass_flush_as_one_batch(self):
        async def scenario():
            batches = []
            batcher = MicroBatcher(
                lambda reqs: list(reqs),
                max_batch=64,
                batch_window=60.0,
                on_flush=lambda size, depth, results, waits: batches.append(
                    (size, len(waits))
                ),
            )
            batcher.start()
            futures = [
                batcher.submit(request_from(f"10.0.2.{i}")) for i in range(9)
            ]
            await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
            await batcher.stop()
            return batches

        assert run(scenario()) == [(9, 9)]

    def test_arrivals_during_a_flush_form_the_next_batch(self):
        """What piled up while admit_batch held the loop goes out together."""

        async def scenario():
            loop = asyncio.get_running_loop()
            batches, late = [], []

            def slow_admit(requests):
                if not batches:
                    # Like reads that became ready during the flush:
                    # their callbacks run in the pass after it.
                    for i in range(5):
                        loop.call_soon(
                            lambda i=i: late.append(
                                batcher.submit(request_from(f"10.0.3.{i}"))
                            )
                        )
                batches.append(len(requests))
                return list(requests)

            batcher = MicroBatcher(
                slow_admit, max_batch=64, batch_window=60.0
            )
            batcher.start()
            await asyncio.wait_for(
                batcher.submit(request_from("10.0.3.99")), timeout=5.0
            )
            await asyncio.sleep(0)
            await asyncio.wait_for(asyncio.gather(*late), timeout=5.0)
            await batcher.stop()
            return batches

        assert run(scenario()) == [1, 5]

    @staticmethod
    async def trickle_first_batch(batcher: MicroBatcher) -> tuple[int, float]:
        """One more request every loop pass until the first flush."""
        loop = asyncio.get_running_loop()
        sizes = []
        batcher.on_flush = lambda size, depth, results, waits: sizes.append(
            size
        )
        futures = []

        def arrive():
            if not sizes:
                futures.append(
                    batcher.submit(request_from(f"10.9.{len(futures)}.1"))
                )
                loop.call_soon(arrive)

        batcher.start()
        began = loop.time()
        arrive()
        await asyncio.wait_for(futures[0], timeout=5.0)
        took = loop.time() - began
        await batcher.stop()
        assert all(future.done() for future in futures)
        return sizes[0], took

    def test_trickle_is_cut_at_max_batch(self):
        batcher = MicroBatcher(
            lambda reqs: list(reqs), max_batch=8, batch_window=60.0
        )
        size, _ = run(self.trickle_first_batch(batcher))
        assert size == 8

    def test_trickle_is_cut_at_batch_window(self):
        batcher = MicroBatcher(
            lambda reqs: list(reqs),
            max_batch=1_000_000,
            batch_window=0.02,
            queue_limit=1_000_000,
        )
        size, took = run(self.trickle_first_batch(batcher))
        assert size > 1  # it did stay open for company...
        assert 0.02 <= took < 2.0  # ...but only for the window

    def test_stop_mid_batch_resolves_everything_exactly_once(self):
        async def scenario():
            resolutions = []
            flushes = []
            batcher = MicroBatcher(
                lambda reqs: list(reqs),
                max_batch=64,
                batch_window=60.0,
                on_shed=lambda pending, reason, depth: resolutions.append(
                    pending.request.client_ip
                ),
                on_flush=lambda *flush: flushes.append(flush),
            )
            batcher.start()
            futures = [batcher.submit(request_from("10.0.4.0"))]
            # Keep the batch open: one more arrival per pass.
            for i in range(1, 6):
                await asyncio.sleep(0)
                futures.append(batcher.submit(request_from(f"10.0.4.{i}")))
            await batcher.stop()
            late = batcher.submit(request_from("10.0.4.99"))
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures, late), timeout=5.0
            )
            return flushes, resolutions, outcomes

        flushes, resolutions, outcomes = run(scenario())
        assert all(isinstance(o, ShedOutcome) for o in outcomes)
        assert sorted(resolutions) == sorted(
            [f"10.0.4.{i}" for i in range(6)] + ["10.0.4.99"]
        )
        assert flushes == []
        assert len(resolutions) == 7

    def test_validation(self):
        async def scenario():
            with pytest.raises(ValueError):
                MicroBatcher(lambda r: r, max_batch=0)
            with pytest.raises(ValueError):
                MicroBatcher(lambda r: r, batch_window=-1.0)
            with pytest.raises(ValueError):
                MicroBatcher(lambda r: r, queue_limit=0)

        run(scenario())


# ----------------------------------------------------------------------
# Shed policies
# ----------------------------------------------------------------------
class TestShedPolicies:
    def pending(self, ip: str) -> PendingAdmission:
        loop = asyncio.new_event_loop()
        try:
            return PendingAdmission(
                request=request_from(ip),
                future=loop.create_future(),
                enqueued_at=0.0,
            )
        finally:
            loop.close()

    def test_drop_newest_always_picks_incoming(self):
        queued = [self.pending("1.1.1.1"), self.pending("2.2.2.2")]
        incoming = self.pending("3.3.3.3")
        assert DropNewest().select_victim(queued, incoming) is incoming

    def test_reputation_prior_picks_worst(self):
        prior = {"1.1.1.1": 0.5, "2.2.2.2": 8.0, "3.3.3.3": 2.0}
        policy = DropByReputationPrior(
            lambda request: prior[request.client_ip]
        )
        queued = [self.pending("1.1.1.1"), self.pending("2.2.2.2")]
        incoming = self.pending("3.3.3.3")
        victim = policy.select_victim(queued, incoming)
        assert victim.request.client_ip == "2.2.2.2"

    def test_reputation_prior_tie_goes_to_incoming(self):
        policy = DropByReputationPrior(lambda request: 1.0)
        queued = [self.pending("1.1.1.1")]
        incoming = self.pending("2.2.2.2")
        assert policy.select_victim(queued, incoming) is incoming

    def test_default_prior_targets_queue_hog(self):
        policy = DropByReputationPrior()
        queued = [
            self.pending("6.6.6.6"),
            self.pending("6.6.6.6"),
            self.pending("1.1.1.1"),
        ]
        incoming = self.pending("2.2.2.2")
        victim = policy.select_victim(queued, incoming)
        assert victim.request.client_ip == "6.6.6.6"


# ----------------------------------------------------------------------
# GatewayServer over real sockets
# ----------------------------------------------------------------------
@pytest.fixture()
def gateway():
    framework = AIPoWFramework(ConstantModel(0.0), policy_1())
    with GatewayServer(framework, io_timeout=10.0) as server:
        yield server


class TestGatewayServer:
    def test_live_client_works_unchanged(self, gateway):
        result = LiveClient(gateway.address).fetch("/index.html", {})
        assert result.ok
        assert result.body == "resource:/index.html"
        assert result.difficulty == 1  # constant score 0 + policy-1

    def test_exactly_one_reply_then_eof(self, gateway):
        """The server sends one terminal frame and closes — no extras."""
        result = LiveClient(gateway.address).fetch("/solo", {})
        assert result.ok
        host, port = gateway.address
        with socket.create_connection(
            (host, port), timeout=5
        ) as sock, sock.makefile("rb") as lines:
            send_line(sock, "REQUEST /x {}")
            read_line(lines)  # the puzzle
            send_line(sock, "SOLUTION 00 1 1")
            reply = read_line(lines)
            assert reply.startswith("ERR")
            assert lines.read(1) == b""  # EOF: no duplicate replies

    def test_bad_request_gets_err(self, gateway):
        host, port = gateway.address
        with socket.create_connection(
            (host, port), timeout=5
        ) as sock, sock.makefile("rb") as lines:
            send_line(sock, "GIBBERISH")
            assert read_line(lines).startswith("ERR")

    def test_health_follows_the_loop_thread(self):
        server = GatewayServer(AIPoWFramework(ConstantModel(0.0), policy_1()))
        assert server.health() == {"status": "stopped"}
        with server:
            assert server.health() == {"status": "ok"}
        assert server.health() == {"status": "stopped"}

    def test_connection_errors_and_queue_wait_reach_the_exposition(self):
        from repro.obs.registry import render_prometheus

        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        metrics = GatewayMetrics()
        with GatewayServer(
            framework, io_timeout=0.2, metrics=metrics
        ) as server:
            assert LiveClient(server.address).fetch("/fine", {}).ok
            with socket.create_connection(
                server.address, timeout=5
            ) as sock, sock.makefile("rb") as lines:
                send_line(sock, "GIBBERISH")
                assert read_line(lines).startswith("ERR")
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(b"REQUEST /never-finished")
                assert sock.recv(1) == b""  # closed at the deadline
            with socket.create_connection(
                server.address, timeout=5
            ) as sock, sock.makefile("rb") as lines:
                send_line(sock, "REQUEST /abandoned {}")
                read_line(lines)  # takes the puzzle, never answers
        counted = metrics.registry.get("gateway_connection_errors_total")
        assert counted.as_dict() == {"protocol": 1, "timeout": 1, "reset": 1}
        text = render_prometheus(metrics.registry.snapshot())
        assert 'gateway_connection_errors_total{kind="timeout"} 1' in text
        assert "gateway_admission_wait_seconds_count 2" in text

    def test_start_twice_rejected(self):
        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        with GatewayServer(framework) as server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_stop_idempotent(self):
        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        server = GatewayServer(framework).start()
        server.stop()
        server.stop()

    def test_restart_serves_again(self):
        """A stopped gateway can start on a fresh loop and still serve."""
        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        server = GatewayServer(framework)
        with server:
            assert LiveClient(server.address).fetch("/first", {}).ok
        with server:
            result = LiveClient(server.address).fetch("/second", {})
        assert result.ok
        assert result.body == "resource:/second"


# ----------------------------------------------------------------------
# Concurrency stress: >=32 connections, exact accounting, parity
# ----------------------------------------------------------------------
class TestTracingBudget:
    def test_one_in_100_tracing_records_ceil_n_over_100_spans(self):
        """Sampled tracing's cost is the spans it records: 1 per 100.

        128 requests through a live gateway open spans for the 1st and
        the 101st only; every other request costs the tracer a lookup
        per event.  Traced throughput is perfbench's
        ``traced.throughput_per_s``.
        """
        framework = AIPoWFramework(ConstantModel(3.0), policy_1())
        tracer = RequestTracer(sample_every=100)
        total = 64 * 2
        with GatewayServer(framework, io_timeout=20.0, tracer=tracer) as server:
            report = LoadGenerator(
                server.address, connections=64, requests_per_connection=2
            ).run()
        assert report.served == total
        spans = tracer.drain()
        assert len(spans) == math.ceil(total / 100) == 2
        assert [span["outcome"] for span in spans] == ["served"] * 2


class TestGatewayStress:
    def test_stress_no_lost_replies_and_scalar_parity(self):
        """Every request gets exactly one reply; decisions match scalar."""
        framework = AIPoWFramework(ConstantModel(3.0), policy_1())
        shed_events = []
        framework.events.subscribe(
            shed_events.append, kinds=[EventKind.REQUEST_SHED]
        )
        metrics = GatewayMetrics()
        with GatewayServer(
            framework, io_timeout=20.0, metrics=metrics
        ) as server:
            report = LoadGenerator(
                server.address,
                connections=32,
                requests_per_connection=3,
            ).run()

        total = 32 * 3
        assert report.attempted == total
        # Exactly one terminal outcome per request, nothing lost and
        # nothing double-counted.
        assert (
            report.served + report.shed + report.rejected + report.errors
            == total
        )
        assert report.errors == 0
        # No drops without a shed event.
        assert report.served + report.shed == total
        assert len(shed_events) == report.shed
        summary = gateway_summary(metrics.registry.snapshot())
        assert summary["shed"] == report.shed
        # Batched admission decided exactly what scalar admission would.
        scalar = AIPoWFramework(ConstantModel(3.0), policy_1())
        expected = scalar.challenge(
            request_from("127.0.0.1", "/index.html"), now=0.0
        ).decision.difficulty
        assert set(report.difficulties) == {expected}
        # The batcher actually batched.
        assert summary["admitted"] == report.served
        assert summary["flushes"] >= 1
        assert metrics.batch_sizes.max() > 1

    def test_bad_request_does_not_poison_its_batch(self, fitted_dabr):
        """A schema-violating request fails alone, not its whole batch."""
        import concurrent.futures

        from repro.reputation.features import FEATURE_NAMES

        good_features = {name: 0.0 for name in FEATURE_NAMES}
        framework = AIPoWFramework(fitted_dabr, policy_1())
        # Wide window so the bad and good requests land in one batch.
        with GatewayServer(
            framework, batch_window=0.05, io_timeout=20.0
        ) as server:
            client = LiveClient(server.address)

            def bad_request():
                host, port = server.address
                with socket.create_connection(
                    (host, port), timeout=20
                ) as s, s.makefile("rb") as lines:
                    send_line(s, "REQUEST /bad {}")
                    return read_line(lines)

            with concurrent.futures.ThreadPoolExecutor(max_workers=5) as pool:
                bad = pool.submit(bad_request)
                good = [
                    pool.submit(client.fetch, "/good", good_features)
                    for _ in range(4)
                ]
                reply = bad.result(timeout=30)
                results = [f.result(timeout=30) for f in good]
        assert reply.startswith("ERR challenge:")
        assert "missing features" in reply
        assert all(r.ok for r in results)

    def test_overload_sheds_with_events_and_metrics(self):
        framework = AIPoWFramework(ConstantModel(0.0), policy_1())
        shed_events = []
        framework.events.subscribe(
            shed_events.append, kinds=[EventKind.REQUEST_SHED]
        )
        metrics = GatewayMetrics()
        server = GatewayServer(
            framework,
            max_batch=4,
            batch_window=0.05,
            queue_limit=4,
            metrics=metrics,
            io_timeout=20.0,
        )
        admit = server.batcher.admit_batch

        def slow_admit(requests):
            # Each batch holds the loop while the other callers' lines
            # arrive, so the queue overflows whatever the interleaving
            # of this thread and the gateway's.
            time.sleep(0.02)
            return admit(requests)

        server.batcher.admit_batch = slow_admit
        with server:
            report = LoadGenerator(
                server.address,
                connections=32,
                requests_per_connection=2,
            ).run()

        assert report.shed > 0, "queue limit 4 under 32 connections must shed"
        assert report.served + report.shed == report.attempted
        summary = gateway_summary(metrics.registry.snapshot())
        assert len(shed_events) == report.shed == summary["shed"]
        assert summary["shed_reasons"] == {
            "admission queue full": report.shed
        }
        for event in shed_events:
            assert event.kind is EventKind.REQUEST_SHED
            assert event.payload["reason"] == "admission queue full"
            assert event.payload["policy"] == "drop-newest"
            assert isinstance(
                event.payload["request"], ClientRequest
            )
