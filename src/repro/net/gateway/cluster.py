"""Multi-worker admission gateway: one process per state shard.

The single-process :class:`~repro.net.gateway.server.GatewayServer`
is GIL-bound — micro-batching buys vectorised admission, but one core
is still one core.  :class:`GatewayCluster` scales it out without
giving up the state model:

* the parent binds the TCP listener and runs a thin accept loop;
* each accepted connection is routed by **client-IP consistent hash**
  (the same :class:`~repro.state.HashRing` the sharded store uses) and
  handed to the owning worker *by file descriptor* over an
  ``AF_UNIX``/``SOCK_SEQPACKET`` control channel — the parent never
  proxies a byte of payload;
* each worker process builds the identical pipeline from a
  :class:`~repro.core.spec.FrameworkSpec` over its own
  :class:`~repro.state.InMemoryStateStore` and serves its connections
  through an ordinary :class:`GatewayServer` core (micro-batcher, shed
  policy, metrics and all).

Because a client's every connection lands on the same worker, all
per-client state — behavioural offsets, cached scores, issued-puzzle
replay seeds — lives wholly inside one shard, and admission decisions
are bit-identical to the single-process path (randomized policies
excepted: each worker owns an RNG stream, like any horizontally scaled
deployment).

Lifecycle: SIGTERM (or :meth:`GatewayCluster.stop`) stops the accept
loop, then each worker drains — queued admissions resolve as ``ERR
shed: ...``, in-flight exchanges get a grace period — persists its
shard's state snapshot into ``state_dir`` (when configured), ships its
:class:`~repro.metrics.collector.GatewayMetrics` summary to the parent
over the control channel, and exits 0.  The parent aggregates the
summaries via
:func:`~repro.metrics.collector.aggregate_gateway_summaries`.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import sys
import threading

from repro.core.spec import FrameworkSpec
from repro.metrics.collector import GatewayMetrics, aggregate_gateway_summaries
from repro.net.gateway.server import LISTEN_BACKLOG, GatewayServer
from repro.net.gateway.shedding import (
    DropByGlobalReputation,
    DropByReputationPrior,
    DropNewest,
)
from repro.state import (
    HashRing,
    InMemoryStateStore,
    read_shard_file,
    state_dir_topology,
    write_shard_file,
)

__all__ = [
    "GatewayCluster",
    "ShardWorker",
    "make_shed_policy",
    "shard_trace_path",
]


def shard_trace_path(record_path, shard: int, shards: int) -> str:
    """Partial-trace path one worker records into before the merge."""
    return f"{os.fspath(record_path)}.shard-{shard}-of-{shards}"

#: Control-channel message tags (SOCK_SEQPACKET, one message per send).
_READY = b"READY"
_CONN = b"C"
_QUIT = b"QUIT"
_METRICS = b"M"
_SNAP = b"S"
_SPANS = b"T"

#: Spans shipped per control-channel message at shutdown; bounds each
#: SEQPACKET message well under the socket buffer (a span is ~1 kB).
_SPAN_CHUNK = 100


def make_shed_policy(name: str, store=None):
    """Shed policy from its CLI name (specs cross process boundaries).

    ``drop-global-reputation`` needs the worker's (shared) state store;
    the other policies ignore ``store``.
    """
    if name == "drop-reputation":
        return DropByReputationPrior()
    if name == "drop-newest":
        return DropNewest()
    if name == DropByGlobalReputation.name:
        if store is None:
            raise ValueError(
                f"{name!r} needs a shared state store (--state-server)"
            )
        return DropByGlobalReputation(store)
    raise ValueError(f"unknown shed policy {name!r}")


def make_worker_store(options: dict, registry=None):
    """The state store one gateway worker builds from cluster options.

    ``state_server`` (one ``host:port``/``unix:/path`` address, or a
    comma-separated list ring-sharded client-side) selects the
    networked backend; otherwise each worker owns a private
    :class:`~repro.state.InMemoryStateStore`.
    """
    state_server = options.get("state_server")
    if not state_server:
        return InMemoryStateStore()
    from repro.state.net import MultiNodeStateStore, RemoteStateStore

    addresses = [
        part.strip() for part in state_server.split(",") if part.strip()
    ]
    if not addresses:
        raise ValueError(f"no addresses in state_server={state_server!r}")
    if len(addresses) == 1:
        return RemoteStateStore(addresses[0], registry=registry)
    return MultiNodeStateStore(
        addresses,
        replicas=int(options.get("replicas", 64)),
        registry=registry,
    )


class ShardWorker:
    """One worker process: a gateway core fed connections by fd.

    Instantiated inside the child via :func:`_worker_entry`; everything
    it needs crosses the process boundary as picklable values (the
    spec, plain options, and the control socket).
    """

    def __init__(
        self,
        spec: FrameworkSpec,
        shard: int,
        shards: int,
        ctrl: socket.socket,
        options: dict,
    ) -> None:
        from repro.obs.registry import MetricsRegistry

        self.spec = spec
        self.shard = shard
        self.shards = shards
        self.ctrl = ctrl
        self.options = options
        self.gateway: GatewayServer | None = None
        self.registry = MetricsRegistry()
        self.metrics = GatewayMetrics(registry=self.registry)
        self.tracer = None

    # -- lifecycle -----------------------------------------------------
    def run(self) -> int:
        """Build the shard's framework, serve until shutdown; exit 0."""
        store = make_worker_store(self.options, registry=self.registry)
        framework = self.spec.build(store=store)
        state_dir = self.options.get("state_dir")
        if state_dir:
            snapshot = read_shard_file(
                state_dir,
                self.shard,
                self.shards,
                replicas=int(self.options.get("replicas", 64)),
            )
            if snapshot is not None:
                framework.restore(snapshot)
        recorder = None
        record_path = self.options.get("record_path")
        if record_path:
            from repro.replay.recorder import TraceRecorder

            recorder = TraceRecorder(id_prefix=f"w{self.shard}")
        trace_every = int(self.options.get("trace_every") or 0)
        if trace_every > 0:
            from repro.obs.tracing import RequestTracer

            self.tracer = RequestTracer(
                sample_every=trace_every,
                id_prefix=f"w{self.shard}",
                registry=self.registry,
            )
        self.gateway = GatewayServer(
            framework,
            max_batch=self.options.get("max_batch", 64),
            batch_window=self.options.get("batch_window", 0.002),
            queue_limit=self.options.get("queue_limit", 256),
            shed_policy=make_shed_policy(
                self.options.get("shed_policy", "drop-newest"), store=store
            ),
            io_timeout=self.options.get("io_timeout", 30.0),
            metrics=self.metrics,
            recorder=recorder,
            tracer=self.tracer,
        )
        try:
            self.ctrl.sendall(_READY)
        except OSError:
            return 1
        asyncio.run(self._serve())
        if state_dir:
            write_shard_file(
                state_dir,
                self.shard,
                self.shards,
                framework.snapshot(),
                replicas=int(self.options.get("replicas", 64)),
            )
        if recorder is not None:
            import dataclasses

            from repro.replay.recorder import spec_hash

            recorder.dump(
                shard_trace_path(record_path, self.shard, self.shards),
                config_hash=spec_hash(self.spec),
                meta={
                    "shard": self.shard,
                    "shards": self.shards,
                    "spec": dataclasses.asdict(self.spec),
                },
            )
        self._ship_metrics()
        close = getattr(store, "close", None)
        if close is not None:
            close()
        return 0

    async def _serve(self) -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        self.ctrl.setblocking(False)
        self.gateway.batcher.start()
        loop.add_reader(self.ctrl.fileno(), self._on_ctrl_readable, loop, stop)
        publisher: asyncio.Task | None = None
        publish_interval = float(self.options.get("publish_interval") or 0.0)
        if publish_interval > 0:
            publisher = loop.create_task(
                self._publish_snapshots(publish_interval)
            )
        try:
            await stop.wait()
        finally:
            if publisher is not None:
                publisher.cancel()
            loop.remove_reader(self.ctrl.fileno())
            await self.gateway.drain(
                grace=self.options.get("drain_grace", 5.0)
            )

    async def _publish_snapshots(self, interval: float) -> None:
        """Ship registry snapshots to the parent on a fixed cadence.

        The first snapshot goes out immediately so ``/metrics`` has
        data as soon as the cluster reports ready.  Sends are
        best-effort on the non-blocking control socket: a full buffer
        (parent scraping slowly) just drops that snapshot — the next
        interval carries the superseding one anyway.
        """
        while True:
            payload = _SNAP + json.dumps(self.registry.snapshot()).encode(
                "utf-8"
            )
            try:
                self.ctrl.send(payload)
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                return
            await asyncio.sleep(interval)

    def _on_ctrl_readable(self, loop, stop: asyncio.Event) -> None:
        """Drain control messages: connection fds, QUIT, or parent EOF."""
        while True:
            try:
                msg, fds, _flags, _addr = socket.recv_fds(self.ctrl, 64, 8)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                stop.set()
                return
            if not msg and not fds:
                # Parent closed its write side: graceful shutdown.
                stop.set()
                return
            for fd in fds:
                self._adopt(loop, fd)
            if msg.startswith(_QUIT):
                stop.set()
                return

    def _adopt(self, loop, fd: int) -> None:
        """Serve an accepted socket through the gateway's own Protocol."""
        try:
            sock = socket.socket(fileno=fd)
        except OSError:  # pragma: no cover - defensive
            os.close(fd)
            return
        loop.create_task(
            loop.connect_accepted_socket(self.gateway.connection, sock)
        )

    def _ship_metrics(self) -> None:
        summary = self.metrics.summary()
        summary["shard"] = self.shard
        summary["responses"] = len(self.gateway.responses)
        try:
            self.ctrl.setblocking(True)
            if self.tracer is not None:
                spans = self.tracer.drain()
                for start in range(0, len(spans), _SPAN_CHUNK):
                    chunk = spans[start:start + _SPAN_CHUNK]
                    self.ctrl.sendall(
                        _SPANS + json.dumps(chunk).encode("utf-8")
                    )
            self.ctrl.sendall(_METRICS + json.dumps(summary).encode("utf-8"))
        except OSError:  # pragma: no cover - parent already gone
            pass
        finally:
            self.ctrl.close()


def _worker_entry(
    spec: FrameworkSpec,
    shard: int,
    shards: int,
    ctrl: socket.socket,
    options: dict,
) -> None:
    """Child-process entry point (module-level for spawn picklability)."""
    sys.exit(ShardWorker(spec, shard, shards, ctrl, options).run())


class GatewayCluster:
    """N gateway workers behind one listener, sharded by client IP.

    Use exactly like :class:`GatewayServer`::

        spec = FrameworkSpec(policy="policy-1")
        with GatewayCluster(spec, workers=4) as cluster:
            body = LiveClient(cluster.address).fetch("/index.html", {})

    Parameters
    ----------
    spec:
        Recipe every worker builds its framework from.
    workers:
        Worker process count; 1 is a valid (useful for parity testing)
        degenerate cluster.
    host / port:
        Bind address; port 0 picks a free port.
    max_batch / batch_window / queue_limit / shed_policy / io_timeout:
        Per-worker gateway tuning (``shed_policy`` by CLI name so it
        crosses the process boundary).
    state_dir:
        Directory of per-shard state snapshots: each worker restores
        its ``shard-I-of-N.json`` at boot (when present) and rewrites
        it at graceful shutdown.
    state_server:
        Address(es) of a running ``repro state serve`` instance — one
        ``host:port``/``unix:/path``, or a comma-separated list placed
        by consistent hash (:class:`~repro.state.MultiNodeStateStore`).
        Every worker shares the store, so behavioural offsets, cached
        scores, replay protection and the adaptive load posture become
        cluster-global and survive worker restarts; also enables the
        ``drop-global-reputation`` shed policy.  Mutually exclusive
        with ``state_dir`` (the server owns persistence).
    record_path:
        When set, every worker records its admission decisions
        (:class:`~repro.replay.TraceRecorder`) and writes a partial
        trace at graceful shutdown; the parent merges the partials
        into one timestamp-ordered v2 trace at ``record_path``
        (exposed as :attr:`recorded_trace`).
    drain_grace:
        Seconds each worker gives in-flight exchanges at shutdown.
    replicas:
        Virtual nodes per shard on the routing ring (must match any
        ``repro state restore`` that produced ``state_dir``).
    start_method:
        ``multiprocessing`` start method; default ``spawn`` — portable,
        thread-safe, and the only behaviour a production supervisor
        would see.
    startup_timeout:
        Seconds to wait for every worker's READY handshake.
    metrics_port:
        When set (0 picks a free port), the parent serves ``/metrics``,
        ``/healthz`` and ``/summary`` on ``metrics_host:metrics_port``:
        workers publish registry snapshots over the control channel
        every ``publish_interval`` seconds and the parent merges the
        latest snapshot per shard into one cluster-wide view (see
        :attr:`metrics_url`).
    metrics_host:
        Bind host for the introspection endpoint.
    publish_interval:
        Seconds between worker snapshot publications (only active when
        ``metrics_port`` is set).
    trace_every:
        Sample every Nth request into a structured span per worker
        (0 disables tracing).  Workers ship their spans to the parent
        at graceful shutdown; the merged list lands in
        :attr:`trace_spans` and — when ``trace_path`` is set — in a
        spans JSONL file readable by ``repro trace``.
    trace_path:
        Destination file for the merged span dump.
    """

    def __init__(
        self,
        spec: FrameworkSpec,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 64,
        batch_window: float = 0.002,
        queue_limit: int = 256,
        shed_policy: str = "drop-newest",
        io_timeout: float = 30.0,
        state_dir=None,
        state_server: str | None = None,
        record_path=None,
        drain_grace: float = 5.0,
        replicas: int = 64,
        start_method: str = "spawn",
        startup_timeout: float = 120.0,
        metrics_port: int | None = None,
        metrics_host: str = "127.0.0.1",
        publish_interval: float = 0.5,
        trace_every: int = 0,
        trace_path=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if trace_every < 0:
            raise ValueError(f"trace_every must be >= 0, got {trace_every}")
        if state_server and state_dir:
            raise ValueError(
                "state_dir and state_server are mutually exclusive: with a "
                "networked store the server owns persistence "
                "(repro state serve --snapshot)"
            )
        if shed_policy == DropByGlobalReputation.name:
            # Needs the shared store; workers build it per process.
            if not state_server:
                raise ValueError(
                    f"shed policy {shed_policy!r} needs --state-server"
                )
        else:
            make_shed_policy(shed_policy)  # validate the name up front
        self.spec = spec
        self.workers = workers
        self.host = host
        self.port = port
        self.ring = HashRing(workers, replicas=replicas)
        self.state_dir = state_dir
        self.start_method = start_method
        self.startup_timeout = startup_timeout
        self.options = {
            "max_batch": max_batch,
            "batch_window": batch_window,
            "queue_limit": queue_limit,
            "shed_policy": shed_policy,
            "io_timeout": io_timeout,
            "state_dir": os.fspath(state_dir) if state_dir else None,
            "state_server": state_server or None,
            "replicas": replicas,
            "record_path": os.fspath(record_path) if record_path else None,
            "drain_grace": drain_grace,
            # Workers only pay for snapshot publication when something
            # on the parent side is there to read it.
            "publish_interval": (
                publish_interval if metrics_port is not None else 0.0
            ),
            "trace_every": trace_every,
        }
        self.record_path = (
            os.fspath(record_path) if record_path else None
        )
        #: Merged decision trace after a graceful stop with recording on.
        self.recorded_trace = None
        self.metrics_port = metrics_port
        self.metrics_host = metrics_host
        self.trace_every = trace_every
        self.trace_path = os.fspath(trace_path) if trace_path else None
        #: Merged sampled spans after a graceful stop with tracing on.
        self.trace_spans: list[dict] = []
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._ctrls: list[socket.socket] = []
        self._procs: list = []
        self._accept_thread: threading.Thread | None = None
        self._metrics_server = None
        self._snapshots: dict[int, dict] = {}
        self._snapshot_lock = threading.Lock()
        self._reader_stop = threading.Event()
        self._reader_thread: threading.Thread | None = None
        self.worker_summaries: list[dict] = []
        self.metrics_summary: dict = {}
        self.exit_codes: list[int | None] = []

    # -- routing -------------------------------------------------------
    def shard_for(self, client_ip: str) -> int:
        """The worker index a client's connections are routed to."""
        return self.ring.shard_for(client_ip)

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the cluster listener is bound to."""
        if self._address is None:
            raise RuntimeError("cluster not started")
        return self._address

    # -- introspection -------------------------------------------------
    @property
    def metrics_url(self) -> str | None:
        """Base URL of the introspection endpoint (None when disabled)."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.url

    def metrics_snapshot(self) -> dict:
        """Cluster-wide registry snapshot: latest per-shard views merged."""
        from repro.obs.registry import merge_snapshots

        with self._snapshot_lock:
            snapshots = [
                self._snapshots[shard] for shard in sorted(self._snapshots)
            ]
        return merge_snapshots(snapshots)

    def health(self) -> dict:
        """Liveness document for ``/healthz`` (503 unless status ok)."""
        alive = sum(1 for proc in self._procs if proc.is_alive())
        status = (
            "ok" if self._procs and alive == len(self._procs) else "degraded"
        )
        return {"status": status, "workers": self.workers, "alive": alive}

    def _snapshot_reader(self) -> None:
        """Collect worker snapshot publications off the control sockets.

        Runs on its own thread while the cluster serves; stopped (and
        joined) *before* the parent shuts the control channels down for
        teardown, so the shutdown-time span/metrics messages are left
        for :meth:`_read_summary` to consume in order.
        """
        import selectors

        selector = selectors.DefaultSelector()
        for shard, ctrl in enumerate(self._ctrls):
            selector.register(ctrl, selectors.EVENT_READ, shard)
        try:
            while not self._reader_stop.is_set():
                for key, _events in selector.select(timeout=0.2):
                    try:
                        message = key.fileobj.recv(1 << 20)
                    except OSError:
                        selector.unregister(key.fileobj)
                        continue
                    if not message:
                        # Worker died; its last snapshot stays visible.
                        selector.unregister(key.fileobj)
                        continue
                    if not message.startswith(_SNAP):
                        continue
                    try:
                        snapshot = json.loads(message[len(_SNAP):])
                    except ValueError:  # pragma: no cover - torn message
                        continue
                    with self._snapshot_lock:
                        self._snapshots[key.data] = snapshot
        finally:
            selector.close()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "GatewayCluster":
        """Bind, spawn the workers, wait for READY, begin accepting."""
        if self._listener is not None:
            raise RuntimeError("cluster already started")
        if self.state_dir is not None:
            # Fail before spawning anything: a state directory split
            # for a different worker count must be re-split, never
            # silently cold-started (the workers enforce this too).
            topology = state_dir_topology(self.state_dir)
            if topology is not None and topology != self.workers:
                raise ValueError(
                    f"{self.state_dir} holds state split for {topology} "
                    f"workers, cluster has {self.workers}; re-split with "
                    f"`repro state restore --workers {self.workers}`"
                )
        ctx = multiprocessing.get_context(self.start_method)
        listener = socket.create_server(
            (self.host, self.port), backlog=LISTEN_BACKLOG, reuse_port=False
        )
        self._listener = listener
        self._address = listener.getsockname()[:2]
        try:
            for shard in range(self.workers):
                parent_sock, child_sock = socket.socketpair(
                    socket.AF_UNIX, socket.SOCK_SEQPACKET
                )
                proc = ctx.Process(
                    target=_worker_entry,
                    args=(
                        self.spec, shard, self.workers, child_sock,
                        self.options,
                    ),
                    name=f"repro-gateway-shard-{shard}",
                    daemon=True,
                )
                proc.start()
                child_sock.close()
                self._ctrls.append(parent_sock)
                self._procs.append(proc)
            for shard, ctrl in enumerate(self._ctrls):
                ctrl.settimeout(self.startup_timeout)
                try:
                    message = ctrl.recv(64)
                except (socket.timeout, OSError):
                    message = b""
                if message != _READY:
                    raise RuntimeError(
                        f"gateway worker {shard} failed to come up "
                        f"(exitcode {self._procs[shard].exitcode})"
                    )
                ctrl.settimeout(None)
            if self.metrics_port is not None:
                from repro.obs.http import MetricsHTTPServer

                self._reader_stop.clear()
                self._reader_thread = threading.Thread(
                    target=self._snapshot_reader,
                    name="repro-cluster-snapshots",
                    daemon=True,
                )
                self._reader_thread.start()
                self._metrics_server = MetricsHTTPServer(
                    self.metrics_snapshot,
                    host=self.metrics_host,
                    port=self.metrics_port,
                    health_provider=self.health,
                ).start()
        except BaseException:
            self._teardown(graceful=False)
            raise
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            shard = self.ring.shard_for(addr[0])
            try:
                socket.send_fds(self._ctrls[shard], [_CONN], [conn.fileno()])
            except OSError:  # pragma: no cover - worker died
                pass
            finally:
                conn.close()

    def stop(self) -> None:
        """Graceful shutdown: drain workers, collect metrics (idempotent)."""
        if self._listener is None:
            return
        self._teardown(graceful=True)

    def _teardown(self, graceful: bool) -> None:
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        # The snapshot reader must be fully stopped before the control
        # channels shut down: once workers see parent EOF they start
        # shipping spans and the final summary, and those messages
        # belong to _read_summary, not the reader.
        self._reader_stop.set()
        if self._reader_thread is not None:
            self._reader_thread.join(timeout=10.0)
            self._reader_thread = None
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
            self._accept_thread = None
        summaries: list[dict] = []
        spans: list[dict] = []
        for ctrl in self._ctrls:
            try:
                ctrl.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        for ctrl, proc in zip(self._ctrls, self._procs):
            if graceful:
                summary = self._read_summary(ctrl, spans)
                if summary is not None:
                    summaries.append(summary)
            ctrl.close()
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
            self.exit_codes.append(proc.exitcode)
        self._ctrls = []
        self._procs = []
        self._listener = None
        self._address = None
        if graceful:
            self.worker_summaries = summaries
            self.metrics_summary = aggregate_gateway_summaries(summaries)
            spans.sort(key=lambda span: span.get("accept_ts", 0.0))
            self.trace_spans = spans
            if self.trace_path is not None:
                self._dump_spans(spans)
            if self.record_path is not None:
                self.recorded_trace = self._merge_recordings()

    def _dump_spans(self, spans: list[dict]) -> None:
        from repro.obs.tracing import write_spans

        with open(self.trace_path, "w", encoding="utf-8") as handle:
            write_spans(
                handle,
                spans,
                meta={
                    "recorder": "cluster",
                    "workers": self.workers,
                    "sample_every": self.trace_every,
                },
            )

    def _merge_recordings(self):
        """Merge per-shard partial traces into one file at record_path."""
        from repro.traffic.trace import Trace, TraceHeader

        entries = []
        config_hash = ""
        spec_mapping = None
        for shard in range(self.workers):
            partial_path = shard_trace_path(
                self.record_path, shard, self.workers
            )
            try:
                partial = Trace.load_jsonl(partial_path)
            except OSError:  # pragma: no cover - worker died pre-dump
                continue
            entries.extend(partial.entries)
            if partial.header is not None:
                config_hash = partial.header.config_hash or config_hash
                spec_mapping = (
                    partial.header.meta.get("spec") or spec_mapping
                )
            os.unlink(partial_path)
        meta = {"recorder": "cluster", "workers": self.workers}
        if spec_mapping is not None:
            meta["spec"] = spec_mapping
        merged = Trace(
            entries,
            header=TraceHeader(config_hash=config_hash, meta=meta),
        )
        merged.dump_jsonl(self.record_path)
        return merged

    def _read_summary(
        self, ctrl: socket.socket, spans_out: list[dict] | None = None
    ) -> dict | None:
        """Read one worker's shutdown stream: span chunks, then summary.

        Snapshot publications still in flight are skipped; ``T`` span
        chunks accumulate into ``spans_out``; the ``M`` summary message
        terminates the stream.
        """
        ctrl.settimeout(30.0)
        try:
            while True:
                message = ctrl.recv(1 << 20)
                if not message:
                    return None
                if message.startswith(_SPANS):
                    if spans_out is not None:
                        chunk = json.loads(message[len(_SPANS):])
                        spans_out.extend(chunk)
                    continue
                if message.startswith(_METRICS):
                    return json.loads(message[len(_METRICS):])
        except (socket.timeout, OSError, ValueError):
            return None

    def __enter__(self) -> "GatewayCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
