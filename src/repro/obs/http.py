"""Stdlib-only live introspection: /metrics, /healthz, /summary.

:class:`MetricsHTTPServer` runs a ``ThreadingHTTPServer`` on a daemon
thread and serves three read-only routes from caller-supplied
providers:

* ``/metrics`` — Prometheus text exposition rendered from the snapshot
  provider (a live registry's ``snapshot`` method, or the cluster
  parent's merged per-worker view);
* ``/healthz`` — JSON liveness (HTTP 503 when the health provider
  reports a non-ok status, so load balancers can act on it);
* ``/summary`` (and ``/``) — the raw JSON snapshot.

Providers are called per request on the serving thread, so they must be
thread-safe — registry snapshots are (every instrument locks), and the
cluster's provider reads an atomically swapped dict.

:class:`SnapshotWriter` is the offline sibling: a daemon thread
appending timestamped registry snapshots to a JSONL file on a fixed
interval, for campaigns and soak runs where nothing scrapes.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

from repro.obs.registry import dump_snapshot_line, render_prometheus

__all__ = ["MetricsHTTPServer", "SnapshotWriter"]

SnapshotProvider = Callable[[], Mapping]
HealthProvider = Callable[[], Mapping]


class _Handler(BaseHTTPRequestHandler):
    server: "_IntrospectionServer"

    def _reply(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                text = render_prometheus(self.server.snapshot_provider())
                self._reply(
                    200,
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/healthz":
                health = dict(self.server.health_provider())
                status = 200 if health.get("status") == "ok" else 503
                self._reply(
                    status,
                    (json.dumps(health) + "\n").encode("utf-8"),
                    "application/json",
                )
            elif path in ("/", "/summary"):
                document = self.server.snapshot_provider()
                self._reply(
                    200,
                    (json.dumps(document) + "\n").encode("utf-8"),
                    "application/json",
                )
            else:
                self._reply(
                    404, b"not found\n", "text/plain; charset=utf-8"
                )
        except BrokenPipeError:  # pragma: no cover - peer went away
            pass
        except Exception as exc:  # noqa: BLE001 - introspection must not crash
            try:
                self._reply(
                    500,
                    f"error: {exc}\n".encode("utf-8"),
                    "text/plain; charset=utf-8",
                )
            except OSError:  # pragma: no cover
                pass

    def log_message(self, *_args) -> None:  # noqa: D102 - silence stderr
        pass


class _IntrospectionServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        snapshot_provider: SnapshotProvider,
        health_provider: HealthProvider,
    ) -> None:
        super().__init__(address, _Handler)
        self.snapshot_provider = snapshot_provider
        self.health_provider = health_provider


class MetricsHTTPServer:
    """The introspection endpoint, started on a daemon thread.

    Parameters
    ----------
    snapshot_provider:
        Zero-arg callable returning a registry snapshot (see
        :meth:`~repro.obs.registry.MetricsRegistry.snapshot`); called
        once per scrape.
    host / port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    health_provider:
        Zero-arg callable returning the ``/healthz`` document; any
        ``status`` other than ``"ok"`` turns the reply into HTTP 503.
        Defaults to a constant ok.
    """

    def __init__(
        self,
        snapshot_provider: SnapshotProvider,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        health_provider: HealthProvider | None = None,
    ) -> None:
        self._server = _IntrospectionServer(
            (host, port),
            snapshot_provider,
            health_provider or (lambda: {"status": "ok"}),
        )
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsHTTPServer":
        if self._thread is not None:
            raise RuntimeError("metrics server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


class SnapshotWriter:
    """Appends timestamped registry snapshots to a JSONL file.

    One line per interval: ``{"t": <wall clock>, "snapshot": {...}}``.
    :meth:`close` writes one final line so short runs (a campaign that
    finishes inside the first interval) still produce a record.  A
    failed interval write (provider or file) does not stop the thread;
    it is counted in ``errors``.
    """

    def __init__(
        self,
        path,
        snapshot_provider: SnapshotProvider,
        interval: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.path = path
        self.interval = interval
        self._provider = snapshot_provider
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._handle = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.lines = 0
        self.errors = 0

    def _write_line(self) -> None:
        line = dump_snapshot_line(self._provider())
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self.lines += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._write_line()
            except Exception:  # noqa: BLE001 - keep the soak run alive
                self.errors += 1

    def start(self) -> "SnapshotWriter":
        if self._thread is not None:
            raise RuntimeError("snapshot writer already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-snapshots", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the thread, write a final snapshot, close the file."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self._write_line()
        finally:
            with self._lock:
                if not self._handle.closed:
                    self._handle.close()

    def __enter__(self) -> "SnapshotWriter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
