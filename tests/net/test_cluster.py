"""Tests for the multi-worker gateway cluster and shard parity.

The load-bearing property: admission through N workers, each owning
one state shard, must decide exactly what one process deciding alone
would — same scores, same difficulties, request for request.  The
in-process tests prove it over a stateful trace (feedback penalties
and rewards included) without any sockets; the live tests prove the
whole fd-passing cluster honours it, plus lifecycle behaviour
(graceful SIGTERM, state-dir persistence, metrics aggregation).
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.core.records import ClientRequest
from repro.core.spec import FrameworkSpec
from repro.net.gateway.cluster import GatewayCluster, make_shed_policy
from repro.net.gateway.loadgen import LoadGenerator
from repro.net.live.client import LiveClient
from repro.pow.solver import HashSolver
from repro.state import HashRing
from tests.exchanges import (
    build_trace,
    hostile_solution,
    replay_trace,
    spread_examples,
)

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

#: Small corpus + frozen offsets: cheap worker boots, timing-free parity.
SPEC = FrameworkSpec(
    policy="policy-1",
    corpus_size=1200,
    feedback_half_life=float("inf"),
)


@pytest.fixture(scope="module")
def examples():
    return spread_examples()


class TestInProcessShardParity:
    def test_four_shards_decide_like_one_process(self, examples):
        trace = build_trace(examples)
        single = SPEC.build()
        expected = replay_trace(single, trace)

        shards = [SPEC.build() for _ in range(4)]
        ring = HashRing(4)
        solver = HashSolver()
        actual = []
        for index, (ip, features, honest) in enumerate(trace):
            framework = shards[ring.shard_for(ip)]
            request = ClientRequest(
                client_ip=ip,
                resource="/index.html",
                timestamp=1_000.0 + index,
                features=features,
            )
            challenge = framework.challenge(request, now=request.timestamp)
            decision = challenge.decision
            actual.append(
                (decision.reputation_score, decision.difficulty)
            )
            if honest and challenge.puzzle.difficulty <= 12:
                solution = solver.solve(challenge.puzzle, ip)
            else:
                solution = hostile_solution(challenge)
            framework.redeem(
                challenge, solution, now=request.timestamp + 0.5
            )

        # Bit-identical, not approximately equal: same scores, same
        # difficulties, request for request.
        assert actual == expected

    def test_trace_actually_exercises_state(self, examples):
        # Guard against a vacuous parity test: the trace must shift
        # offsets enough to change at least one client's difficulty.
        trace = build_trace(examples)
        decisions = replay_trace(SPEC.build(), trace)
        by_client: dict[int, set[int]] = {}
        clients = len(examples)
        for index, (_score, difficulty) in enumerate(decisions):
            by_client.setdefault(index % clients, set()).add(difficulty)
        assert any(len(diffs) > 1 for diffs in by_client.values())


class TestMakeShedPolicy:
    def test_known_names(self):
        assert make_shed_policy("drop-newest").name == "drop-newest"
        assert make_shed_policy("drop-reputation").name == "drop-reputation"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_shed_policy("drop-everything")


class TestBuildGateway:
    """The one assembly ``repro serve`` and every cluster worker run."""

    @pytest.mark.parametrize(
        ("shard", "shards", "request_id"),
        [(None, 1, "rec-1"), (1, 2, "w1-1")],
    )
    def test_recording_ids_and_file_follow_the_role(
        self, tmp_path, examples, shard, shards, request_id
    ):
        from repro.net.gateway.cluster import build_gateway, shard_trace_path
        from repro.net.gateway.server import GatewayOptions
        from repro.obs.tracing import load_spans
        from repro.traffic.trace import Trace

        path = tmp_path / "t.jsonl"
        spans_path = tmp_path / "spans.jsonl"
        gateway, close = build_gateway(
            SPEC,
            GatewayOptions(
                record_path=str(path),
                trace_every=1,
                trace_path=str(spans_path),
            ),
            shard=shard,
            shards=shards,
        )
        with gateway:
            result = LiveClient(gateway.address).fetch(
                "/index.html", dict(examples[0].features)
            )
            assert result.ok, result
        close()
        # One process owns the final files; a worker writes partials.
        if shard is not None:
            path = shard_trace_path(path, shard, shards)
            spans_path = shard_trace_path(spans_path, shard, shards)
        trace = Trace.load_jsonl(path)
        assert [entry.decision.request_id for entry in trace] == [request_id]
        meta, spans = load_spans(spans_path)
        assert meta["recorder"] == "serve"
        assert meta["sample_every"] == 1
        assert [span["span_id"].startswith("w") for span in spans] == [
            shard is not None
        ]

    def test_tracing_needs_a_trace_path(self):
        from repro.net.gateway.server import GatewayOptions

        with pytest.raises(ValueError, match="trace_path"):
            GatewayOptions(trace_every=10)

    def test_close_releases_the_state_server_connection(self, examples):
        from repro.net.gateway.cluster import build_gateway
        from repro.net.gateway.server import GatewayOptions
        from repro.state import StateServer

        with StateServer() as state:
            gateway, close = build_gateway(
                SPEC,
                GatewayOptions(
                    state_server=state.address,
                    shed_policy="drop-global-reputation",
                ),
            )
            with gateway:
                result = LiveClient(gateway.address).fetch(
                    "/index.html", dict(examples[0].features)
                )
                assert result.ok, result
            assert state.store.get("feedback", "127.0.0.1")[0] == (
                pytest.approx(-0.1)
            )
            assert state._conns, "the store keeps its connection open"
            close()
            deadline = time.monotonic() + 10.0
            while state._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not state._conns


    def test_a_tracked_clients_offset_reaches_the_state_server_live(
        self, examples
    ):
        # A redemption's offset is posted, not sent: only the gateway's
        # flush after the loop pass carries it to the server.
        from repro.net.gateway.cluster import build_gateway
        from repro.net.gateway.server import GatewayOptions
        from repro.state import StateServer

        with StateServer() as state:
            gateway, close = build_gateway(
                SPEC, GatewayOptions(state_server=state.address)
            )
            try:
                with gateway:
                    for _ in range(2):
                        result = LiveClient(gateway.address).fetch(
                            "/index.html", dict(examples[0].features)
                        )
                        assert result.ok, result
                    deadline = time.monotonic() + 5.0
                    while time.monotonic() < deadline:
                        offset = state.store.get("feedback", "127.0.0.1")[0]
                        if offset < -0.15:
                            break
                        time.sleep(0.01)
                    assert offset == pytest.approx(-0.2, rel=1e-3)
            finally:
                close()


    def test_a_challenge_flushs_cache_writes_reach_the_state_server_live(
        self, examples
    ):
        # A challenge-only client sends nothing after its puzzle; the
        # flush's posted cache writes leave with the gateway's pass flush.
        import socket

        from repro.net.gateway.cluster import build_gateway
        from repro.net.gateway.server import GatewayOptions
        from repro.net.live.protocol import encode_request, read_line, send_line
        from repro.state import StateServer

        with StateServer() as state:
            gateway, close = build_gateway(
                SPEC, GatewayOptions(state_server=state.address)
            )
            try:
                with gateway:
                    with socket.create_connection(
                        gateway.address, 10
                    ) as sock, sock.makefile("rb") as lines:
                        send_line(sock, encode_request(
                            "/index.html", dict(examples[0].features)
                        ))
                        assert read_line(lines).startswith("PUZZLE")
                    deadline = time.monotonic() + 5.0
                    while state.store.get("score-cache", "127.0.0.1") is None:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
            finally:
                close()


class TestClusterValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            GatewayCluster(SPEC, workers=0)

    def test_rejects_bad_shed_policy_before_spawning(self):
        with pytest.raises(ValueError):
            GatewayCluster(SPEC, workers=2, shed_policy="nope")

    def test_address_requires_start(self):
        cluster = GatewayCluster(SPEC, workers=1)
        with pytest.raises(RuntimeError):
            cluster.address

    def test_stop_before_start_is_noop(self):
        GatewayCluster(SPEC, workers=1).stop()

    def test_start_rejects_mismatched_state_dir_before_spawning(
        self, tmp_path
    ):
        # A warmed state directory split for another worker count must
        # fail loudly at start, not silently cold-start the workers.
        from repro.state import (
            InMemoryStateStore,
            split_snapshot,
            write_shard_files,
        )

        store = InMemoryStateStore()
        store.put("feedback", "10.0.0.1", [1.0, 0.0])
        write_shard_files(tmp_path, split_snapshot(store.snapshot(), 4))
        cluster = GatewayCluster(SPEC, workers=2, state_dir=tmp_path)
        with pytest.raises(ValueError, match="re-split"):
            cluster.start()


class _FlakyListener:
    """A listener whose ``accept`` replays scripted errors, then one peer.

    Once the script runs out it behaves like a closed socket.
    """

    def __init__(self, script: list) -> None:
        self.script = script
        self.closed = False

    def accept(self):
        import errno

        if not self.script:
            self.closed = True
            raise OSError(errno.EBADF, "Bad file descriptor")
        step = self.script.pop(0)
        if isinstance(step, BaseException):
            raise step
        return step

    def fileno(self) -> int:
        return -1 if self.closed else 99


class TestAcceptLoop:
    def test_accept_errors_cost_a_connection_not_the_loop(
        self, monkeypatch
    ):
        """An aborted peer is skipped, exhaustion backs off, and the
        next connection is still handed to its worker; the loop ends
        only when the listener is closed."""
        import errno
        import socket
        import types

        from repro.net.gateway import cluster as cluster_module

        sleeps: list[float] = []
        monkeypatch.setattr(
            cluster_module, "time", types.SimpleNamespace(sleep=sleeps.append)
        )
        accepted, peer = socket.socketpair()
        ctrl, worker_end = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_SEQPACKET
        )
        cluster = GatewayCluster(SPEC, workers=1)
        cluster._listener = _FlakyListener([
            ConnectionAbortedError(errno.ECONNABORTED, "aborted"),
            OSError(errno.EMFILE, "Too many open files"),
            OSError(errno.ENOBUFS, "No buffer space available"),
            (accepted, ("127.0.0.1", 40000)),
        ])
        cluster._ctrls = [ctrl]
        try:
            cluster._accept_loop()
            assert sleeps == [cluster_module.ACCEPT_RETRY_DELAY] * 2
            worker_end.settimeout(5.0)
            message, fds, _flags, _addr = socket.recv_fds(worker_end, 64, 8)
            assert message == b"C" and len(fds) == 1
            with socket.socket(fileno=fds[0]) as handed:
                handed.sendall(b"ping")
                assert peer.recv(4) == b"ping"
        finally:
            for sock in (peer, ctrl, worker_end):
                sock.close()


@pytest.mark.slow
class TestClusterLive:
    def test_round_trip_snapshot_and_metrics(self, tmp_path, examples):
        features = dict(examples[0].features)
        state_dir = tmp_path / "state"
        ips = [f"127.0.0.{i}" for i in range(1, 5)]
        with GatewayCluster(
            SPEC, workers=2, state_dir=state_dir
        ) as cluster:
            for ip in ips:
                result = LiveClient(
                    cluster.address, source_ip=ip
                ).fetch("/index.html", features)
                assert result.ok, result
                assert result.body == "resource:/index.html"
        assert cluster.exit_codes == [0, 0]

        summary = cluster.metrics_summary
        assert summary["workers"] == 2
        assert summary["admitted"] == len(ips)
        assert summary["shed"] == 0
        assert len(summary["per_worker"]) == 2

        # Every worker persisted its shard; each served IP's feedback
        # offset landed on the shard the ring routes it to.
        from repro.state import read_shard_files

        shards = read_shard_files(state_dir, shards=2)
        assert len(shards) == 2
        for ip in ips:
            owner = cluster.ring.shard_for(ip)
            entries = dict(
                (key, value)
                for key, value in shards[owner]["namespaces"]["feedback"]
            )
            assert ip in entries
            assert entries[ip][0] == pytest.approx(-0.1)

    def test_live_cluster_matches_single_process_decisions(self, examples):
        ips = [f"127.0.0.{i}" for i in range(1, len(examples) + 1)]
        rounds = 3

        # Expected: the same per-IP exchange sequences through one
        # in-process framework (every exchange honest and served).
        single = SPEC.build()
        expected: dict[str, list[int]] = {ip: [] for ip in ips}
        solver = HashSolver()
        for round_index in range(rounds):
            for ip, example in zip(ips, examples):
                request = ClientRequest(
                    client_ip=ip,
                    resource="/index.html",
                    timestamp=1_000.0 + round_index,
                    features=example.features,
                )
                challenge = single.challenge(
                    request, now=request.timestamp
                )
                expected[ip].append(challenge.decision.difficulty)
                single.redeem(
                    challenge,
                    solver.solve(challenge.puzzle, ip),
                    now=request.timestamp + 0.1,
                )

        def drive(workers: int) -> dict[str, list[int]]:
            observed: dict[str, list[int]] = {ip: [] for ip in ips}
            with GatewayCluster(SPEC, workers=workers) as cluster:
                for _round in range(rounds):
                    for ip, example in zip(ips, examples):
                        result = LiveClient(
                            cluster.address, source_ip=ip
                        ).fetch("/index.html", dict(example.features))
                        assert result.ok, (ip, result)
                        observed[ip].append(result.difficulty)
            assert cluster.exit_codes == [0] * workers
            return observed

        # The same trace through a 1-worker and a 4-worker gateway must
        # match each other *and* the in-process single framework.
        assert drive(1) == expected
        assert drive(4) == expected

    def test_every_worker_admits_a_share_and_nothing_is_lost(self, examples):
        """What ``thr-shard``'s scaling ratio rests on, as counts.

        32 source addresses spread over 4 workers by the ring: every
        worker admits some, the totals equal the requests sent, and
        nothing errors or sheds.  The ratio itself is ``repro export``'s
        ``thr-shard`` table.
        """
        connections, per_connection = 32, 4
        bind_ips = [f"127.0.9.{i}" for i in range(1, connections + 1)]
        with GatewayCluster(SPEC, workers=4, queue_limit=4096) as cluster:
            report = LoadGenerator(
                cluster.address,
                connections=connections,
                requests_per_connection=per_connection,
                features=dict(examples[0].features),
                bind_ips=bind_ips,
                solve=False,
            ).run()
        assert cluster.exit_codes == [0] * 4

        sent = connections * per_connection
        assert (report.attempted, report.completed) == (sent, sent)
        assert (report.errors, report.shed) == (0, 0)
        summary = cluster.metrics_summary
        assert (summary["admitted"], summary["shed"]) == (sent, 0)
        admitted = [worker["admitted"] for worker in summary["per_worker"]]
        assert len(admitted) == 4 and min(admitted) > 0, admitted
        assert sum(admitted) == sent


@pytest.mark.slow
class TestServeSigterm:
    def test_multi_worker_serve_drains_on_sigterm(self, tmp_path):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", "2", "--port", "0",
                "--policy", "policy-1",
                "--state-dir", str(tmp_path / "state"),
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = ""
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if "serving AI-assisted PoW on " in line:
                    banner = line
                    break
            assert banner, "serve never printed its banner"

            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60.0)
            output = proc.stdout.read()
            assert code == 0, output
            assert "shutting down" in output
            # Graceful worker exits persisted the (empty-but-present)
            # shard snapshots.
            assert sorted(
                p.name for p in (tmp_path / "state").glob("*.json")
            ) == ["shard-0-of-2.json", "shard-1-of-2.json"]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


@pytest.mark.slow
class TestClusterTelemetry:
    def test_metrics_endpoint_and_span_reconstruction(
        self, tmp_path, examples
    ):
        """One scrape sees all workers; one span sees the whole path.

        Boots a 2-worker cluster with 1-in-1 tracing and serves the
        introspection endpoint over it the way ``repro serve`` does for
        any worker count, serves a few honest exchanges, then asserts
        (a) /metrics renders valid Prometheus text whose admitted
        counter equals the cluster-wide total, (b) /healthz reports
        every worker alive, and (c) after shutdown each request's span
        — written by the shard workers as partials and merged by the
        parent — reconstructs the full accept→respond pipeline.
        """
        import json
        import urllib.request

        from repro.obs.http import MetricsHTTPServer
        from repro.obs.registry import validate_exposition
        from repro.obs.tracing import FULL_PATH, load_spans

        trace_path = tmp_path / "spans.jsonl"
        features = dict(examples[0].features)
        ips = [f"127.0.0.{i}" for i in range(1, 5)]
        cluster = GatewayCluster(
            SPEC,
            workers=2,
            trace_every=1,
            trace_path=str(trace_path),
        )
        with cluster, MetricsHTTPServer(
            cluster.metrics_snapshot, port=0, health_provider=cluster.health
        ) as endpoint:
            url = endpoint.url
            for ip in ips:
                result = LiveClient(
                    cluster.address, source_ip=ip
                ).fetch("/index.html", features)
                assert result.ok, (ip, result)

            # Workers publish snapshots every PUBLISH_INTERVAL; wait
            # for the scrape to converge on the cluster-wide total.
            text = ""
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    url + "/metrics", timeout=5.0
                ) as reply:
                    assert reply.status == 200
                    text = reply.read().decode("utf-8")
                if f"gateway_admitted_total {len(ips)}" in text:
                    break
                time.sleep(0.05)
            assert f"gateway_admitted_total {len(ips)}" in text, text
            problems = validate_exposition(text)
            assert not problems, problems

            with urllib.request.urlopen(
                url + "/healthz", timeout=5.0
            ) as reply:
                assert reply.status == 200
                health = json.load(reply)
            assert health == {"status": "ok", "workers": 2, "alive": 2}

            with urllib.request.urlopen(
                url + "/summary", timeout=5.0
            ) as reply:
                summary = json.load(reply)
            assert summary["format"] == "repro-metrics/v1"

        assert cluster.exit_codes == [0, 0]
        # The endpoint is gone with the cluster, but the merged worker
        # summaries and the merged spans survive it.
        assert cluster.metrics_summary["admitted"] == len(ips)
        meta, spans = load_spans(trace_path)
        assert meta == {"recorder": "cluster", "workers": 2, "sample_every": 1}
        assert len(spans) == len(ips)
        for span in spans:
            stages = [record["stage"] for record in span["stages"]]
            assert stages == list(FULL_PATH), stages
            assert span["outcome"] == "served"
        assert {span["client_ip"] for span in spans} == set(ips)
        accepts = [span["accept_ts"] for span in spans]
        assert accepts == sorted(accepts)
        # Both shards traced: span ids carry the worker prefix.
        assert {s["span_id"].split("-")[0] for s in spans} == {"w0", "w1"}
        # The parent removed the partials it merged.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            trace_path.name
        ]

    def test_metrics_disabled_by_default(
        self, tmp_path, monkeypatch, examples
    ):
        """Nothing is served or written unless asked.

        The cluster owns no endpoint (a caller serves its
        ``metrics_snapshot``), and without record or trace paths no
        worker writes a file.
        """
        from repro.metrics.collector import gateway_summary

        monkeypatch.chdir(tmp_path)
        with GatewayCluster(SPEC, workers=1) as cluster:
            result = LiveClient(
                cluster.address, source_ip="127.0.0.9"
            ).fetch("/index.html", dict(examples[0].features))
            assert result.ok
        assert cluster.exit_codes == [0]
        assert not hasattr(cluster, "metrics_url")
        assert list(tmp_path.iterdir()) == []
        assert gateway_summary(cluster.metrics_snapshot())["admitted"] == 1


@pytest.mark.slow
class TestClusterFinalSnapshot:
    @pytest.mark.parametrize("metrics_port", [None, 0])
    def test_snapshot_after_stop_counts_drain_sheds(
        self, examples, metrics_port
    ):
        """After ``stop()`` the merged snapshot is the final cluster state.

        With or without a metrics endpoint served over the cluster
        (``metrics_port``), each worker's last control message is its
        registry snapshot, taken after its drain: every admission and
        every request shed because the gateway was shutting down is in
        it, and ``metrics_summary`` is read from it.
        """
        import socket
        import threading

        from repro.metrics.collector import gateway_summary
        from repro.net.live import protocol
        from repro.obs.http import MetricsHTTPServer

        features = dict(examples[0].features)
        ips = [f"127.0.0.{i}" for i in range(1, 5)]
        late_ip = "127.0.0.9"
        cluster = GatewayCluster(SPEC, workers=2).start()
        endpoint = None
        if metrics_port is not None:
            endpoint = MetricsHTTPServer(
                cluster.metrics_snapshot, port=metrics_port,
                health_provider=cluster.health,
            ).start()
        stopper = threading.Thread(target=cluster.stop)
        late: list[socket.socket] = []
        replies: list[str] = []
        try:
            for ip in ips:
                result = LiveClient(
                    cluster.address, source_ip=ip
                ).fetch("/index.html", features)
                assert result.ok, (ip, result)
            # Idle connections: adopted by their worker, request unsent.
            late = [
                socket.create_connection(
                    cluster.address, timeout=30.0,
                    source_address=(late_ip, 0),
                )
                for _ in range(20)
            ]
            # Accepted and handed over in order on one control socket,
            # so once this exchange is served the idle ones are adopted.
            result = LiveClient(
                cluster.address, source_ip=late_ip
            ).fetch("/index.html", features)
            assert result.ok, result
            stopper.start()
            line = protocol.encode_request("/late", features)
            for sock in late:
                # Probe until the worker has stopped admitting; once it
                # has, every remaining request is shed at once.
                if not (replies and replies[-1].startswith("ERR shed")):
                    time.sleep(0.25)
                protocol.send_line(sock, line)
                with sock.makefile("rb") as lines:
                    replies.append(protocol.read_line(lines))
                sock.close()
        finally:
            for sock in late:
                sock.close()
            if stopper.ident is None:
                stopper.start()
            stopper.join(timeout=120.0)
            if endpoint is not None:
                endpoint.close()
        assert not stopper.is_alive()
        assert cluster.exit_codes == [0, 0]

        sheds = replies.count("ERR shed: gateway shutting down")
        puzzled = sum(reply.startswith("PUZZLE") for reply in replies)
        assert sheds >= 1, replies
        assert sheds + puzzled == len(replies), replies
        snapshot = cluster.metrics_snapshot()
        admitted = next(
            metric["series"][0]["value"]
            for metric in snapshot["metrics"]
            if metric["name"] == "gateway_admitted_total"
        )
        assert admitted == len(ips) + 1 + puzzled
        summary = gateway_summary(snapshot)
        assert cluster.metrics_summary == summary
        assert summary["admitted"] == admitted
        assert summary["shed_reasons"] == {"gateway shutting down": sheds}
        assert summary["workers"] == 2
        assert len(summary["per_worker"]) == 2


    def test_worker_stopped_by_its_own_signal_keeps_its_final_snapshot(
        self, examples
    ):
        """Ctrl-C reaches every worker, not only the parent: a worker's
        final snapshot may arrive while the parent still serves, and
        must count like one read at ``stop()``."""
        from repro.metrics.collector import gateway_summary

        cluster = GatewayCluster(SPEC, workers=1).start()
        try:
            result = LiveClient(
                cluster.address, source_ip="127.0.0.3"
            ).fetch("/index.html", dict(examples[0].features))
            assert result.ok, result
            worker = cluster._procs[0]
            os.kill(worker.pid, signal.SIGINT)
            worker.join(timeout=60.0)
            assert worker.exitcode == 0
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and gateway_summary(
                cluster.metrics_snapshot()
            )["admitted"] != 1:
                time.sleep(0.05)
        finally:
            cluster.stop()
        assert cluster.metrics_summary["admitted"] == 1


@pytest.mark.slow
class TestClusterOverStateServer:
    def test_state_lives_on_the_server_and_survives_workers(
        self, examples
    ):
        from repro.state import StateServer

        ips = [f"127.0.0.{i}" for i in range(1, 5)]
        features = dict(examples[0].features)
        with StateServer() as state:
            with GatewayCluster(
                SPEC,
                workers=2,
                state_server=state.address,
                shed_policy="drop-global-reputation",
            ) as cluster:
                for ip in ips:
                    result = LiveClient(
                        cluster.address, source_ip=ip
                    ).fetch("/index.html", features)
                    assert result.ok, result
            assert cluster.exit_codes == [0, 0]

            # Every served exchange banked its reward on the shared
            # store — no shard files, no worker-local state.
            table = state.store.namespace("feedback")
            for ip in ips:
                assert table.get(ip)[0] == pytest.approx(-0.1)

            # A fresh cluster boots warm from the same server: the
            # offsets keep accumulating across worker generations.
            with GatewayCluster(
                SPEC, workers=2, state_server=state.address
            ) as cluster:
                for ip in ips:
                    result = LiveClient(
                        cluster.address, source_ip=ip
                    ).fetch("/index.html", features)
                    assert result.ok, result
            assert cluster.exit_codes == [0, 0]
            for ip in ips:
                assert state.store.get("feedback", ip)[0] == (
                    pytest.approx(-0.2)
                )

    def test_global_reputation_shedding_requires_a_store(self):
        with pytest.raises(ValueError, match="state-server"):
            GatewayCluster(
                SPEC, workers=2, shed_policy="drop-global-reputation"
            )

    def test_state_dir_and_state_server_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="exclusive"):
            GatewayCluster(
                SPEC,
                workers=2,
                state_dir=tmp_path,
                state_server="127.0.0.1:9999",
            )
