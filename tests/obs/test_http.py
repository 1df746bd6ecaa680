"""Tests for the live introspection endpoint and the snapshot writer."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.http import MetricsHTTPServer, SnapshotWriter
from repro.obs.registry import MetricsRegistry, validate_exposition


@pytest.fixture()
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("gateway_admitted_total").inc(7)
    registry.histogram("gateway_batch_size", buckets=(1, 8)).observe(3)
    return registry


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as reply:
        return reply.status, reply.headers, reply.read().decode("utf-8")


class TestMetricsHTTPServer:
    def test_metrics_route_serves_valid_exposition(self, registry):
        with MetricsHTTPServer(registry.snapshot) as server:
            status, headers, body = fetch(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "gateway_admitted_total 7" in body
        assert not validate_exposition(body), validate_exposition(body)

    def test_metrics_reflect_live_updates(self, registry):
        with MetricsHTTPServer(registry.snapshot) as server:
            registry.get("gateway_admitted_total").inc(3)
            _, _, body = fetch(f"{server.url}/metrics")
        assert "gateway_admitted_total 10" in body

    def test_summary_routes_serve_raw_snapshot(self, registry):
        with MetricsHTTPServer(registry.snapshot) as server:
            for path in ("/", "/summary"):
                _, _, body = fetch(f"{server.url}{path}")
                assert json.loads(body) == registry.snapshot()

    def test_healthz_defaults_ok(self, registry):
        with MetricsHTTPServer(registry.snapshot) as server:
            status, _, body = fetch(f"{server.url}/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_healthz_degraded_is_503(self, registry):
        health = {"status": "ok", "workers": 2, "alive": 2}
        server = MetricsHTTPServer(
            registry.snapshot, health_provider=lambda: health
        )
        with server:
            health.update(status="degraded", alive=1)
            with pytest.raises(urllib.error.HTTPError) as caught:
                fetch(f"{server.url}/healthz")
        assert caught.value.code == 503
        assert json.loads(caught.value.read()) == {
            "status": "degraded", "workers": 2, "alive": 1,
        }

    def test_unknown_route_is_404(self, registry):
        with MetricsHTTPServer(registry.snapshot) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                fetch(f"{server.url}/nope")
        assert caught.value.code == 404

    def test_provider_error_is_500_not_crash(self, registry):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("snapshot torn")
            return registry.snapshot()

        with MetricsHTTPServer(flaky) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                fetch(f"{server.url}/metrics")
            assert caught.value.code == 500
            # The server survives the provider failure.
            status, _, _ = fetch(f"{server.url}/metrics")
            assert status == 200

    def test_port_zero_picks_free_port(self, registry):
        with MetricsHTTPServer(registry.snapshot, port=0) as server:
            assert server.port != 0
            assert server.url == f"http://127.0.0.1:{server.port}"

    def test_double_start_rejected(self, registry):
        server = MetricsHTTPServer(registry.snapshot).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.close()

    def test_close_is_idempotent(self, registry):
        server = MetricsHTTPServer(registry.snapshot).start()
        server.close()
        server.close()


class TestSnapshotWriter:
    def test_close_always_writes_final_line(self, registry, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        writer = SnapshotWriter(path, registry.snapshot, interval=60.0)
        writer.start()
        writer.close()
        assert writer.lines == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        document = json.loads(lines[0])
        assert document["t"] > 0
        assert document["snapshot"] == registry.snapshot()

    def test_periodic_lines_accumulate(self, registry, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        with SnapshotWriter(path, registry.snapshot, interval=0.01):
            import time

            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                lines = path.read_text().splitlines()
                if len(lines) >= 3:
                    break
                time.sleep(0.01)
        lines = path.read_text().splitlines()
        assert len(lines) >= 3
        for line in lines:
            assert json.loads(line)["snapshot"]["format"] == (
                "repro-metrics/v1"
            )

    def test_provider_failure_does_not_kill_writer(self, tmp_path):
        import time

        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("torn")
            return MetricsRegistry().snapshot()

        path = tmp_path / "snapshots.jsonl"
        with SnapshotWriter(path, flaky, interval=0.01) as writer:
            deadline = time.monotonic() + 5.0
            while writer.lines < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        # First provider call raised inside the thread; the writer kept
        # going, counted the failure and recorded later snapshots anyway.
        assert calls["n"] >= 3
        assert writer.lines >= 2
        assert writer.errors == 1

    def test_invalid_interval_rejected(self, registry, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            SnapshotWriter(tmp_path / "x.jsonl", registry.snapshot, interval=0)
