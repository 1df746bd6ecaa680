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
shard's state snapshot into ``state_dir`` (when configured), writes
its recording and span partials, ships its final metrics registry
snapshot to the parent over the control channel, and exits 0.  The
parent keeps that snapshot as the shard's view, so
:meth:`GatewayCluster.metrics_snapshot` after ``stop()`` is the final
cluster state, drain-time sheds included, and
:attr:`GatewayCluster.metrics_summary` is
:func:`~repro.metrics.collector.gateway_summary` of it; then it merges
the partials into the files the options name.

The control channel carries only connection fds, ``READY``, ``QUIT``
and registry snapshots; every other artifact comes home as a file.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from typing import Callable

from repro.core.spec import FrameworkSpec
from repro.metrics.collector import GatewayMetrics, gateway_summary
from repro.net.gateway.server import (
    _ACCEPT_EXHAUSTED,
    ACCEPT_RETRY_DELAY,
    LISTEN_BACKLOG,
    GatewayOptions,
    GatewayServer,
)
from repro.net.gateway.shedding import make_shed_policy
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
    "build_front",
    "build_gateway",
    "make_shed_policy",
    "shard_trace_path",
]


def shard_trace_path(path, shard: int, shards: int) -> str:
    """Partial path one worker writes its recording or spans to.

    The parent merges the partials into ``path`` and removes them.
    """
    return f"{os.fspath(path)}.shard-{shard}-of-{shards}"

#: Control-channel message tags (SOCK_SEQPACKET, one message per send).
_READY = b"READY"
_CONN = b"C"
_QUIT = b"QUIT"
#: A worker's final registry snapshot; the last message it sends.
_FINAL = b"M"
#: A periodic registry snapshot.
_SNAP = b"S"
#: Seconds between a worker's registry snapshot publications: how stale
#: the parent's cluster-wide view may be while serving.
PUBLISH_INTERVAL = 0.5


def make_worker_store(options: GatewayOptions, registry=None):
    """The state store one gateway process builds from its options.

    ``state_server`` (one ``host:port``/``unix:/path`` address, or a
    comma-separated list ring-sharded client-side) selects the
    networked backend; otherwise each process owns a private
    :class:`~repro.state.InMemoryStateStore`.
    """
    state_server = options.state_server
    if not state_server:
        return InMemoryStateStore()
    from repro.state.net import RemoteStateStore
    from repro.state.sharded import MultiNodeStateStore

    addresses = [
        part.strip() for part in state_server.split(",") if part.strip()
    ]
    if not addresses:
        raise ValueError(f"no addresses in state_server={state_server!r}")
    if len(addresses) == 1:
        return RemoteStateStore(addresses[0], registry=registry)
    return MultiNodeStateStore(
        addresses,
        replicas=options.replicas,
        registry=registry,
    )


def build_gateway(
    spec: FrameworkSpec,
    options: GatewayOptions,
    *,
    shard: int | None = None,
    shards: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[GatewayServer, Callable[[], None]]:
    """One gateway process's server, and the teardown that goes with it.

    The one assembly of a gateway: ``repro serve`` builds its
    in-process server here (``shard=None``: the whole keyspace, shard 0
    of 1) and so does every cluster worker (``shard`` of ``shards``;
    its recorded request ids and span ids carry a ``w{shard}`` prefix,
    and its recording and spans are partials the parent merges).  Store,
    framework, state-dir restore, recorder, tracer and shed policy all
    come from ``spec`` and ``options``; the gateway metrics, the tracer
    and a networked store share one registry.

    Call the returned ``close()`` once the gateway has drained: it
    writes the shard's state file back, dumps the recording and the
    sampled spans (to ``record_path`` / ``trace_path``, or a worker's
    :func:`shard_trace_path` partials of them) and closes the store.
    """
    metrics = GatewayMetrics()
    store = make_worker_store(options, registry=metrics.registry)
    framework = spec.build(store=store)
    index = 0 if shard is None else shard
    if options.state_dir:
        snapshot = read_shard_file(
            options.state_dir, index, shards, replicas=options.replicas
        )
        if snapshot is not None:
            framework.restore(snapshot)
    recorder = None
    if options.record_path:
        from repro.replay.recorder import TraceRecorder

        recorder = (
            TraceRecorder() if shard is None
            else TraceRecorder(id_prefix=f"w{shard}")
        )
    tracer = None
    if options.trace_every > 0:
        from repro.obs.tracing import RequestTracer

        tracer = RequestTracer(
            sample_every=options.trace_every,
            id_prefix="" if shard is None else f"w{shard}",
            registry=metrics.registry,
        )
    gateway = GatewayServer(
        framework,
        host,
        port,
        max_batch=options.max_batch,
        batch_window=options.batch_window,
        queue_limit=options.queue_limit,
        shed_policy=make_shed_policy(options.shed_policy, store=store),
        io_timeout=options.io_timeout,
        metrics=metrics,
        recorder=recorder,
        tracer=tracer,
    )

    def close() -> None:
        if options.state_dir:
            write_shard_file(
                options.state_dir,
                index,
                shards,
                framework.snapshot(),
                replicas=options.replicas,
            )
        # One process writes the named files; a worker writes partials.
        role = {"recorder": "serve"}
        if shard is not None:
            role.update(shard=shard, shards=shards)

        def artifact(path) -> str:
            return path if shard is None else shard_trace_path(
                path, shard, shards
            )

        if recorder is not None:
            from repro.replay.recorder import spec_hash

            recorder.dump(
                artifact(options.record_path),
                config_hash=spec_hash(spec),
                meta={**role, "spec": dataclasses.asdict(spec)},
            )
        if tracer is not None:
            tracer.dump(
                artifact(options.trace_path),
                meta={**role, "sample_every": options.trace_every},
            )
        close_store = getattr(store, "close", None)
        if close_store is not None:
            close_store()

    return gateway, close


def build_front(
    spec: FrameworkSpec,
    options: GatewayOptions,
    *,
    workers: int | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
):
    """The serving front for one process or N, and its teardown.

    ``workers=None`` is the in-process gateway of :func:`build_gateway`;
    a count is a :class:`GatewayCluster` of that many worker processes.
    Either front is driven the same way: ``start()``, serve on
    ``address``, read ``metrics_snapshot()`` / ``health()``, ``stop()``,
    then ``close()``, after which the state directory, the recording
    and the span dump are written.  A cluster's ``stop()`` already
    merged its workers' partials, so its ``close()`` has nothing left
    to do.
    """
    if workers is None:
        return build_gateway(spec, options, host=host, port=port)
    cluster = GatewayCluster(
        spec, workers, host, port, **dataclasses.asdict(options)
    )
    return cluster, lambda: None


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
        options: GatewayOptions,
    ) -> None:
        self.spec = spec
        self.shard = shard
        self.shards = shards
        self.ctrl = ctrl
        self.options = options
        self.gateway: GatewayServer | None = None

    # -- lifecycle -----------------------------------------------------
    def run(self) -> int:
        """Build the shard's gateway, serve until shutdown; exit 0."""
        self.gateway, close = build_gateway(
            self.spec, self.options, shard=self.shard, shards=self.shards
        )
        try:
            self.ctrl.sendall(_READY)
        except OSError:
            return 1
        asyncio.run(self._serve())
        close()
        self._ship_final()
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
        loop.add_reader(self.ctrl.fileno(), self._on_ctrl_readable, stop)
        publisher = loop.create_task(self._publish_snapshots())
        try:
            await stop.wait()
        finally:
            publisher.cancel()
            loop.remove_reader(self.ctrl.fileno())
            await self.gateway.drain(grace=self.options.drain_grace)

    async def _publish_snapshots(self) -> None:
        """Ship registry snapshots to the parent every ``PUBLISH_INTERVAL``.

        The first snapshot goes out immediately so ``/metrics`` has
        data as soon as the cluster reports ready.  Sends are
        best-effort on the non-blocking control socket: a full buffer
        (parent scraping slowly) just drops that snapshot — the next
        interval carries the superseding one anyway.
        """
        while True:
            payload = _SNAP + json.dumps(
                self.gateway.metrics_snapshot()
            ).encode("utf-8")
            try:
                self.ctrl.send(payload)
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                return
            await asyncio.sleep(PUBLISH_INTERVAL)

    def _on_ctrl_readable(self, stop: asyncio.Event) -> None:
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
                self._adopt(fd)
            if msg.startswith(_QUIT):
                stop.set()
                return

    def _adopt(self, fd: int) -> None:
        """Serve an accepted socket the way the gateway's listener does."""
        try:
            sock = socket.socket(fileno=fd)
        except OSError:  # pragma: no cover - defensive
            os.close(fd)
            return
        self.gateway.adopt(sock)

    def _ship_final(self) -> None:
        """Send the final registry snapshot, the last control message."""
        try:
            self.ctrl.setblocking(True)
            self.ctrl.sendall(
                _FINAL
                + json.dumps(self.gateway.metrics_snapshot()).encode("utf-8")
            )
        except OSError:  # pragma: no cover - parent already gone
            pass
        finally:
            self.ctrl.close()


def _worker_entry(
    spec: FrameworkSpec,
    shard: int,
    shards: int,
    ctrl: socket.socket,
    options: GatewayOptions,
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
        crosses the process boundary).  These and ``state_dir``,
        ``state_server``, ``record_path``, ``drain_grace``,
        ``replicas``, ``trace_every`` and ``trace_path`` are keywords
        collected into the workers'
        :class:`~repro.net.gateway.server.GatewayOptions`, which states
        their defaults and rejects a bad combination.
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
        into one timestamp-ordered v2 trace at ``record_path``.
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
    trace_every / trace_path:
        Sample every Nth request into a structured span per worker
        (0 disables tracing).  Each worker writes its spans to a
        partial at graceful shutdown; the parent merges them into one
        spans JSONL file at ``trace_path``, readable by ``repro
        trace``.

    Workers publish registry snapshots over the control channel every
    :data:`PUBLISH_INTERVAL` seconds, and :meth:`metrics_snapshot`
    merges the latest one per shard; each worker's final snapshot
    replaces its view at ``stop()``.  Serve it like a single gateway's:
    ``MetricsHTTPServer(cluster.metrics_snapshot,
    health_provider=cluster.health)``.
    """

    def __init__(
        self,
        spec: FrameworkSpec,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        start_method: str = "spawn",
        startup_timeout: float = 120.0,
        **options,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.options = GatewayOptions(**options)
        self.spec = spec
        self.workers = workers
        self.host = host
        self.port = port
        self.ring = HashRing(workers, replicas=self.options.replicas)
        self.start_method = start_method
        self.startup_timeout = startup_timeout
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._ctrls: list[socket.socket] = []
        self._procs: list = []
        self._accept_thread: threading.Thread | None = None
        self._snapshots: dict[int, dict] = {}
        self._snapshot_lock = threading.Lock()
        self._reader_stop = threading.Event()
        self._reader_thread: threading.Thread | None = None
        #: ``gateway_summary(metrics_snapshot())`` after a graceful stop.
        self.metrics_summary: dict = {}
        self.exit_codes: list[int | None] = []

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the cluster listener is bound to."""
        if self._address is None:
            raise RuntimeError("cluster not started")
        return self._address

    # -- introspection -------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Cluster-wide registry snapshot: latest per-shard views merged.

        While serving, a shard's view is its latest publication; after
        a graceful :meth:`stop` it is the worker's final snapshot.
        """
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
        teardown, so each worker's final snapshot is left for
        :meth:`_read_final` to consume.  A worker stopped by a signal of
        its own (Ctrl-C reaches the whole process group) ships its
        final snapshot while this still runs; it is kept like any
        publication.
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
                    if not message.startswith((_SNAP, _FINAL)):
                        continue
                    try:
                        # Both tags are one byte.
                        snapshot = json.loads(message[1:])
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
        if self.options.state_dir:
            # Fail before spawning anything: a state directory split
            # for a different worker count must be re-split, never
            # silently cold-started (the workers enforce this too).
            topology = state_dir_topology(self.options.state_dir)
            if topology is not None and topology != self.workers:
                raise ValueError(
                    f"{self.options.state_dir} holds state split for "
                    f"{topology} workers, cluster has {self.workers}; "
                    f"re-split with "
                    f"`repro state restore --workers {self.workers}`"
                )
        ctx = multiprocessing.get_context(self.start_method)
        self._snapshots.clear()
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
        except BaseException:
            self._teardown(graceful=False)
            raise
        self._reader_stop.clear()
        self._reader_thread = threading.Thread(
            target=self._snapshot_reader,
            name="repro-cluster-snapshots",
            daemon=True,
        )
        self._reader_thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        """Hand each accepted connection to its shard's worker.

        Returns only once the listener is closed.  A failed ``accept``
        on an open listener costs that connection, never the loop: a
        peer that gave up in the backlog is skipped, and running out of
        descriptors or buffers pauses accepting for
        ``ACCEPT_RETRY_DELAY`` rather than spin.
        """
        listener = self._listener
        while True:
            try:
                conn, addr = listener.accept()
            except OSError as exc:
                if listener.fileno() < 0:
                    return  # listener closed: shutting down
                if exc.errno in _ACCEPT_EXHAUSTED:
                    time.sleep(ACCEPT_RETRY_DELAY)
                continue
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
        # The snapshot reader must be fully stopped before the control
        # channels shut down: once workers see parent EOF they ship
        # their final snapshot, and that message belongs to
        # _read_final, not the reader.
        self._reader_stop.set()
        if self._reader_thread is not None:
            self._reader_thread.join(timeout=10.0)
            self._reader_thread = None
        if self._listener is not None:
            # close() alone leaves a thread blocked in accept() asleep
            # until the join below times out; shutdown() wakes it.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
            self._accept_thread = None
        for ctrl in self._ctrls:
            try:
                ctrl.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        for shard, (ctrl, proc) in enumerate(zip(self._ctrls, self._procs)):
            if graceful:
                snapshot = self._read_final(ctrl)
                if snapshot is not None:
                    with self._snapshot_lock:
                        self._snapshots[shard] = snapshot
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
            self.metrics_summary = gateway_summary(self.metrics_snapshot())
            self._merge_partials()

    def _gather(self, path, load) -> list:
        """Each worker's partial of ``path``, read by ``load``, then removed."""
        parts = []
        for shard in range(self.workers):
            partial = shard_trace_path(path, shard, self.workers)
            try:
                parts.append(load(partial))
            except OSError:  # pragma: no cover - worker died pre-dump
                continue
            os.unlink(partial)
        return parts

    def _merge_partials(self) -> None:
        """Merge the workers' recordings and span dumps into one each."""
        meta = {"recorder": "cluster", "workers": self.workers}
        options = self.options
        if options.record_path:
            from repro.traffic.trace import Trace, TraceHeader

            partials = self._gather(options.record_path, Trace.load_jsonl)
            header = TraceHeader(meta=meta)
            if partials:  # every worker recorded under the one spec
                first = partials[0].header
                header = TraceHeader(
                    config_hash=first.config_hash,
                    meta={**meta, "spec": first.meta["spec"]},
                )
            Trace(
                [entry for partial in partials for entry in partial],
                header=header,
            ).dump_jsonl(options.record_path)
        if options.trace_path:
            from repro.obs.tracing import load_spans, write_spans

            spans = [
                span
                for _meta, part in self._gather(options.trace_path, load_spans)
                for span in part
            ]
            spans.sort(key=lambda span: span.get("accept_ts", 0.0))
            with open(options.trace_path, "w", encoding="utf-8") as handle:
                write_spans(
                    handle,
                    spans,
                    meta={**meta, "sample_every": options.trace_every},
                )

    def _read_final(self, ctrl: socket.socket) -> dict | None:
        """Read one worker's final snapshot, skipping late publications."""
        ctrl.settimeout(30.0)
        try:
            while True:
                message = ctrl.recv(1 << 20)
                if not message:
                    return None
                if message.startswith(_FINAL):
                    return json.loads(message[len(_FINAL):])
        except (socket.timeout, OSError, ValueError):
            return None

    def __enter__(self) -> "GatewayCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
