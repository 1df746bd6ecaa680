"""The networked admission state store: server and client.

Two layers, both speaking :mod:`repro.state.protocol` frames:

* :class:`StateServer` hosts any :class:`~repro.state.AdmissionStateStore`
  behind a threaded TCP/AF_UNIX accept loop.  One lock serializes
  frames, so each wire op — and each ``multi`` frame of keyed ops,
  which the hosted store's own ``execute`` applies — is atomic exactly
  like its in-process counterpart; every response piggybacks the
  server's topology epoch.
* :class:`RemoteStateStore` implements the full store/namespace surface
  over one server connection, and :meth:`~RemoteStateStore.execute` as
  one ``multi`` frame of the caller's op arrays, led by any ops posted
  (:meth:`~RemoteStateStore.post`) since the last frame:
  connect/request timeouts, bounded exponential-backoff retries on
  idempotent ops, loud :class:`ConnectionError` on non-idempotent ones
  (a retried ``popitem`` could evict a second entry — the client
  refuses to guess) and on posted ops that could not be delivered.

A single server is linearizable per op (one lock).  Several servers
compose into one store as the remote children of the ring store,
:class:`~repro.state.sharded.MultiNodeStateStore`, which also owns live
resharding; the server's half of that is ``split_off``, which splits
its own content under the new ring so only the moved slice crosses the
wire.
"""

from __future__ import annotations

import functools
import itertools
import pathlib
import socket
import threading
import time
from typing import Any, Callable, Iterator

from repro.state import protocol
from repro.state.snapshot import load_snapshot, save_snapshot, split_snapshot
from repro.state.store import (
    SNAPSHOT_FORMAT,
    AdmissionStateStore,
    InMemoryStateStore,
    check_ops,
)

__all__ = ["StateServer", "RemoteStateStore", "RemoteNamespace"]


class _DropConnection(Exception):
    """Raised by a test fault hook to sever the connection mid-request."""


def _instruments(registry):
    if registry is None:
        return None
    from repro.obs.registry import (
        COUNT_BUCKETS,
        METRIC_CATALOG,
        SECONDS_BUCKETS,
    )

    metrics = {
        name: registry.counter(name, METRIC_CATALOG[name], labels=labels)
        for name, labels in (
            ("netstore_server_requests_total", ("op",)),
            ("netstore_client_requests_total", ("op",)),
            ("netstore_client_retries_total", ()),
            ("netstore_client_timeouts_total", ()),
            ("netstore_handoff_bytes_total", ()),
        )
    }
    for name, labels, buckets in (
        ("netstore_client_request_seconds", ("op",), SECONDS_BUCKETS),
        ("netstore_server_batch_ops", (), COUNT_BUCKETS),
    ):
        metrics[name] = registry.histogram(
            name, METRIC_CATALOG[name], labels=labels, buckets=buckets
        )
    return metrics


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class StateServer:
    """Serve one :class:`AdmissionStateStore` over the wire.

    Parameters
    ----------
    store:
        The hosted backend (any store; in-memory by default).
    address:
        ``host:port`` (``:0`` picks a free port; see :attr:`address`
        for the bound one) or ``unix:/path``.
    snapshot_path:
        Optional snapshot file: restored at :meth:`start` when present,
        written at :meth:`stop` — what lets admission state survive a
        server restart.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        ``netstore_server_requests_total`` counter and the
        ``netstore_server_batch_ops`` histogram.
    """

    def __init__(
        self,
        store: AdmissionStateStore | None = None,
        address: str = "127.0.0.1:0",
        *,
        snapshot_path=None,
        registry=None,
    ) -> None:
        self.store = store if store is not None else InMemoryStateStore()
        self._requested_address = address
        self.address: str | None = None
        self.snapshot_path = snapshot_path
        self._metrics = metrics = _instruments(registry)
        if metrics is not None:  # series resolved once, on first use
            served = metrics["netstore_server_requests_total"]
            batch = metrics["netstore_server_batch_ops"]
            self._served = functools.cache(lambda op: served.labels(op=op))
            self._batch_ops = functools.cache(lambda: batch.labels().observe)
        self._lock = threading.RLock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._stopping = threading.Event()
        self._topology: dict = {"epoch": 0, "nodes": [], "replicas": 64}
        self._handlers: dict[str, Callable[[dict], dict]] = {
            name[len("_op_"):]: getattr(self, name)
            for name in dir(self)
            if name.startswith("_op_")
        }
        #: Test hook: ``hook(op, request)`` runs before each op and may
        #: raise ``_DropConnection`` or sleep to inject faults.
        self._fault_hook: Callable[[str, dict], None] | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "StateServer":
        if self._listener is not None:
            raise RuntimeError("server already started")
        if self.snapshot_path is not None:
            path = pathlib.Path(self.snapshot_path)
            if path.exists():
                self.store.restore(load_snapshot(path))
        family, sockaddr = protocol.parse_address(self._requested_address)
        listener = socket.socket(family, socket.SOCK_STREAM)
        try:
            if family == socket.AF_INET:
                listener.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                )
            listener.bind(sockaddr)
            listener.listen(64)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        self.address = protocol.format_address(family, listener.getsockname())
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="state-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                # shutdown() reliably wakes a thread blocked in accept();
                # close() alone does not on Linux.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        for thread in self._conn_threads:
            thread.join(timeout=5)
        self._conn_threads.clear()
        if self.snapshot_path is not None:
            with self._lock:
                save_snapshot(self.store.snapshot(), self.snapshot_path)

    def __enter__(self) -> "StateServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- accept / serve ------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and not self._stopping.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break
            with self._conns_lock:
                self._conns.add(conn)
            # Forget connections that have ended, or a long-lived server
            # behind reconnecting workers grows by one entry per accept.
            self._conn_threads = [
                thread for thread in self._conn_threads if thread.is_alive()
            ]
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="state-server-conn",
                daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX
        frames = protocol.FrameReader(conn)
        try:
            while not self._stopping.is_set():
                try:
                    request = frames.read()
                except (ConnectionError, OSError):
                    break
                if request is None:
                    break
                try:
                    response = self._handle(request)
                except _DropConnection:
                    break
                except KeyError as exc:
                    response = {
                        "ok": False, "kind": "key",
                        "error": str(exc.args[0]) if exc.args else "",
                    }
                except (ValueError, TypeError) as exc:
                    response = {"ok": False, "kind": "value", "error": str(exc)}
                except Exception as exc:  # pragma: no cover - defensive
                    response = {
                        "ok": False, "kind": "internal", "error": repr(exc)
                    }
                response["epoch"] = self._topology["epoch"]
                try:
                    protocol.write_frame(conn, response)
                except (ConnectionError, OSError):
                    break
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # -- op dispatch ---------------------------------------------------
    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if not isinstance(op, str):
            raise ValueError(f"request needs a string op, got {op!r}")
        if self._fault_hook is not None:
            self._fault_hook(op, request)
        handler = self._handlers.get(op)
        if self._metrics is not None:
            # Label by the op the server knows, never by what the peer
            # sent, or junk op names grow the series without bound.
            self._served(op if handler is not None else "unknown")()
        if handler is None:
            raise ValueError(f"unknown state-server op {op!r}")
        with self._lock:
            return handler(request)

    def _table(self, request: dict):
        name = request.get("ns")
        if not isinstance(name, str) or not name:
            raise ValueError(f"op needs a namespace, got {name!r}")
        return self.store.namespace(name)

    def _op_multi(self, request: dict) -> dict:
        # One lock hold for the whole list (``_handle`` took it).  Every
        # op is checked before any runs, and a checked keyed op cannot
        # fail, so a frame applies whole or — malformed — not at all.
        ops = request.get("ops")
        if not isinstance(ops, list) or len(ops) > protocol.MAX_MULTI_OPS:
            raise ValueError(
                "multi needs an ops list of at most "
                f"{protocol.MAX_MULTI_OPS} keyed ops"
            )
        check_ops(ops)
        if self._metrics is not None:
            self._batch_ops()(len(ops))
        return {"ok": True, "values": self.store.execute(ops)}

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "version": protocol.PROTOCOL_VERSION}

    def _op_pop(self, request: dict) -> dict:
        value = self._table(request).pop(request["key"])  # raises KeyError
        return {"ok": True, "value": value}

    def _op_popitem(self, request: dict) -> dict:
        key, value = self._table(request).popitem(
            last=bool(request.get("last", True))
        )
        return {"ok": True, "value": [key, value]}

    def _op_len(self, request: dict) -> dict:
        if "ns" in request:  # a table's len is a keyed op, in a multi
            raise ValueError("len counts the whole store and takes no ns")
        total = sum(
            len(self.store.namespace(name))
            for name in self.store.namespaces()
        )
        return {"ok": True, "value": total}

    def _op_iter_batch(self, request: dict) -> dict:
        # Index pagination over a stable-order table.  Concurrent
        # mutation between batches can skip or repeat entries — same
        # caveat as iterating any dict you are mutating, documented in
        # DESIGN §1.9; admission consumers only iterate tables they own.
        table = self._table(request)
        start = max(0, int(request.get("start", 0)))
        count = max(1, int(request.get("count", 128)))
        # One entry past the page tells whether another page follows.
        items = [
            [key, value]
            for key, value in itertools.islice(
                table.items(), start, start + count + 1
            )
        ]
        return {
            "ok": True, "items": items[:count], "done": len(items) <= count
        }

    def _op_load_ns(self, request: dict) -> dict:
        self._table(request).load(request.get("entries", []))
        return {"ok": True}

    def _op_clear_ns(self, request: dict) -> dict:
        self._table(request).clear()
        return {"ok": True}

    def _op_namespaces(self, request: dict) -> dict:
        return {"ok": True, "names": list(self.store.namespaces())}

    def _op_snapshot(self, request: dict) -> dict:
        return {"ok": True, "snapshot": self.store.snapshot()}

    def _op_restore(self, request: dict) -> dict:
        snapshot = request["snapshot"]
        if request.get("merge"):
            # Merge-restore: overlay entries without dropping existing
            # content — the receiving end of a resharding handoff.
            from repro.state.snapshot import check_snapshot

            check_snapshot(snapshot, kind="memory")
            for name, entries in snapshot.get("namespaces", {}).items():
                table = self.store.namespace(name)
                for key, value in entries:
                    table[str(key)] = value
        else:
            self.store.restore(snapshot)
        return {"ok": True}

    def _op_clear(self, request: dict) -> dict:
        self.store.clear()
        return {"ok": True}

    # -- topology ------------------------------------------------------
    def _op_topology_get(self, request: dict) -> dict:
        return {"ok": True, "topology": dict(self._topology)}

    def _op_topology_set(self, request: dict) -> dict:
        topology = request["topology"]
        if not isinstance(topology, dict) or "epoch" not in topology:
            raise ValueError("topology must be a dict with an epoch")
        if int(topology["epoch"]) < int(self._topology["epoch"]):
            raise ValueError(
                f"topology epoch {topology['epoch']} is older than "
                f"current {self._topology['epoch']}"
            )
        self._topology = {
            "epoch": int(topology["epoch"]),
            "nodes": list(topology.get("nodes", [])),
            "replicas": int(topology.get("replicas", 64)),
        }
        return {"ok": True}

    def _op_split_off(self, request: dict) -> dict:
        """Split this node's content under a new ring, keep own slice.

        ``keep`` is this node's index in the *new* topology (or -1 when
        the node is being decommissioned).  Returns every other part;
        only the moved slice ever crosses the wire.  Entries split by
        their own key, the rule every ring read routes by.
        """
        shards = int(request["shards"])
        replicas = int(request.get("replicas", 64))
        keep = int(request.get("keep", -1))
        snapshot = self.store.snapshot()
        parts = split_snapshot(snapshot, shards, replicas, affinity=False)
        if 0 <= keep < shards:
            self.store.restore(parts[keep])
            parts[keep] = None
        else:
            self.store.restore(
                {"format": SNAPSHOT_FORMAT, "kind": "memory", "namespaces": {}}
            )
        moved = sum(
            len(entries)
            for part in parts
            if part is not None
            for entries in part.get("namespaces", {}).values()
        )
        return {"ok": True, "parts": parts, "moved": moved}


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class RemoteNamespace:
    """Client-side :class:`~repro.state.StateNamespace` twin.

    A keyed operation is an :meth:`RemoteStateStore.execute` batch of
    one, so it costs one request (aggregate iteration pages);
    iteration order is the server table's insertion order, matching the
    in-memory namespace exactly.
    """

    __slots__ = ("name", "_store")

    def __init__(self, name: str, store: "RemoteStateStore") -> None:
        self.name = name
        self._store = store

    def _request(self, op: str, **fields) -> tuple[dict, int]:
        return self._store._request(op, ns=self.name, **fields)

    def _do(self, op: str, *args: Any) -> Any:
        return self._store.execute([(self.name, op, *args)])[0]

    # -- mapping surface ----------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        if default is None:
            return self._do("get", key)
        return self._do("get", key, default)

    def __getitem__(self, key: str) -> Any:
        found, value = self._store.execute(
            [(self.name, "contains", key), (self.name, "get", key)]
        )
        if not found:
            raise KeyError(key)
        return value

    def __setitem__(self, key: str, value: Any) -> None:
        self._do("put", key, value)

    def __delitem__(self, key: str) -> None:
        (found,), attempts = self._store._send([(self.name, "delete", key)])
        # found=False on a retried delete usually means the lost first
        # attempt applied; only a clean first answer is a real miss.
        if not found and attempts == 1:
            raise KeyError(key)

    def __contains__(self, key: str) -> bool:
        return self._do("contains", key)

    def __len__(self) -> int:
        return self._do("len")

    def partition(self, key: str) -> "RemoteNamespace":
        return self

    def __iter__(self) -> Iterator[str]:
        for key, _ in self.items():
            yield key

    def keys(self):
        return iter(self)

    def items(self) -> Iterator[tuple[str, Any]]:
        start = 0
        while True:
            response, _ = self._request(
                "iter_batch", start=start, count=self._store.batch_size
            )
            for key, value in response["items"]:
                yield key, value
            if response["done"]:
                return
            start += len(response["items"])

    def pop(self, key: str, *default: Any) -> Any:
        if default:
            return self._do("pop_default", key, default[0])
        response, _ = self._request("pop", key=key)
        return response["value"]

    def setdefault(self, key: str, default: Any) -> Any:
        return self._do("setdefault", key, default)

    def clear(self) -> None:
        self._request("clear_ns")

    # -- LRU primitives -----------------------------------------------
    def move_to_end(self, key: str) -> None:
        if not self._do("move_to_end", key):
            raise KeyError(key)

    def popitem(self, last: bool = True) -> tuple[str, Any]:
        response, _ = self._request("popitem", last=last)
        key, value = response["value"]
        return key, value

    # -- snapshot plumbing --------------------------------------------
    def dump(self) -> list[list[Any]]:
        return [[key, value] for key, value in self.items()]

    def load(self, entries) -> None:
        self._request(
            "load_ns", entries=[[str(key), value] for key, value in entries]
        )


class RemoteStateStore(AdmissionStateStore):
    """The full store surface over one state-server connection.

    Connection management: lazily connected, auto-reconnecting, one
    in-flight request at a time (a lock serializes callers — the
    gateway worker's event loop is single-threaded anyway).

    Retry policy: transport failures (refused/reset/timeout) on
    *idempotent* ops are retried with bounded exponential backoff;
    non-idempotent ops (``pop`` without default, ``popitem``,
    ``split_off``) raise :class:`ConnectionError` immediately, because a
    blind retry could apply them twice.  A ``multi`` frame carries
    keyed ops only, all idempotent, so it is always retried.  Logical
    errors from the server (missing key, bad value) are answers, never
    retried.

    Posted ops (:meth:`post`) wait in a queue and ride at the head of
    the next ``multi`` frame; before any other frame, and on
    :meth:`flush` or :meth:`close`, the queue goes out as a ``multi``
    of its own.  So this client's ops reach the server in call order.
    """

    def __init__(
        self,
        address: str,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 10.0,
        retries: int = 4,
        retry_base: float = 0.05,
        retry_cap: float = 1.0,
        batch_size: int = 128,
        registry=None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.address = address
        protocol.parse_address(address)  # validate eagerly
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retries = retries
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.batch_size = batch_size
        self._metrics = metrics = _instruments(registry)
        if metrics is not None:  # series resolved once per op, on first use
            sent = metrics["netstore_client_requests_total"]
            took = metrics["netstore_client_request_seconds"]
            self._sent = functools.cache(lambda op: sent.labels(op=op))
            self._took = functools.cache(lambda op: took.labels(op=op).observe)
        self._lock = threading.RLock()
        self._conn: protocol.FrameReader | None = None
        self._namespaces: dict[str, RemoteNamespace] = {}
        self._posted: list = []

    # -- connection management ----------------------------------------
    def _connected(self) -> protocol.FrameReader:
        if self._conn is None:
            sock = protocol.connect(self.address, timeout=self.connect_timeout)
            sock.settimeout(self.request_timeout)
            self._conn = protocol.FrameReader(sock)
        return self._conn

    def _disconnect(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def close(self) -> None:
        with self._lock:
            try:
                self.flush()
            finally:
                self._disconnect()

    def __enter__(self) -> "RemoteStateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request engine -----------------------------------------------
    def _request(self, op: str, **fields) -> tuple[dict, int]:
        """One frame on the wire; returns ``(response, attempts)``."""
        if op != "multi" and self._posted:
            self.flush()  # posted ops land before anything reads them
        message = {"op": op, **fields}
        retryable = op in protocol.IDEMPOTENT_OPS
        attempts = 0
        last_error: Exception | None = None
        while True:
            attempts += 1
            if self._metrics is not None:
                self._sent(op)()
                began = time.perf_counter()
            try:
                with self._lock:
                    conn = self._connected()
                    protocol.write_frame(conn.sock, message)
                    response = conn.read()
                if response is None:
                    raise ConnectionError("server closed the connection")
            except protocol.ProtocolError:
                self._disconnect()
                raise
            except (ConnectionError, OSError) as exc:
                self._disconnect()
                if isinstance(exc, (socket.timeout, TimeoutError)):
                    if self._metrics is not None:
                        self._metrics["netstore_client_timeouts_total"].inc()
                if not retryable:
                    raise ConnectionError(
                        f"state op {op!r} failed mid-flight and is not "
                        f"idempotent — it may or may not have applied on "
                        f"{self.address}: {exc}"
                    ) from exc
                last_error = exc
                if attempts > self.retries:
                    raise ConnectionError(
                        f"state op {op!r} failed after {attempts} attempts "
                        f"against {self.address}: {last_error}"
                    ) from last_error
                if self._metrics is not None:
                    self._metrics["netstore_client_retries_total"].inc()
                delay = min(
                    self.retry_cap, self.retry_base * (2 ** (attempts - 1))
                )
                time.sleep(delay)
                continue
            if self._metrics is not None:
                self._took(op)(time.perf_counter() - began)
            if not response.get("ok"):
                kind = response.get("kind")
                error = response.get("error", "")
                if kind == "key":
                    raise KeyError(error)
                if kind == "value":
                    raise ValueError(error)
                raise RuntimeError(
                    f"state server error on {op!r}: {error}"
                )
            return response, attempts

    def execute(self, ops) -> list[Any]:
        """The whole op list as one ``multi`` frame, one lock hold.

        No ops, no frame: posted ops keep waiting for a real one.
        """
        ops = list(ops)
        return self._send(ops)[0] if ops else []

    def post(self, ops) -> None:
        """Queue checked keyed ops for the head of the next frame."""
        ops = list(ops)
        check_ops(ops)
        with self._lock:
            self._posted += ops
            if len(self._posted) >= protocol.MAX_MULTI_OPS:
                self.flush()

    def flush(self) -> None:
        """Send the posted ops now, as one ``multi`` frame."""
        with self._lock:
            if self._posted:
                self._send([])

    @property
    def holds_posted(self) -> bool:
        return bool(self._posted)

    def _send(self, ops) -> tuple[list[Any], int]:
        """Results of keyed ops, and the most attempts a frame took.

        Checked ops go into the frame as they are (JSON writes a tuple
        as an array), after the posted ones, whose results are dropped.
        """
        ops = list(ops)
        check_ops(ops)
        results: list[Any] = []
        attempts = 1
        with self._lock:
            posted, self._posted = self._posted, []
            frame = posted + ops
            # Over-long lists go out as several frames: order is kept,
            # only the single lock hold is not.
            for start in range(0, len(frame), protocol.MAX_MULTI_OPS):
                try:
                    response, tries = self._request(
                        "multi", ops=frame[start:start + protocol.MAX_MULTI_OPS]
                    )
                except ConnectionError as exc:
                    if start >= len(posted):
                        raise
                    raise ConnectionError(
                        f"{exc}; dropped {len(posted) - start} posted "
                        f"op(s) that may not have applied"
                    ) from exc
                results.extend(response["values"])
                attempts = max(attempts, tries)
        return results[len(posted):], attempts

    # -- store surface -------------------------------------------------

    def namespace(self, name: str) -> RemoteNamespace:
        table = self._namespaces.get(name)
        if table is None:
            table = self._namespaces[name] = RemoteNamespace(name, self)
        return table

    def namespaces(self) -> tuple[str, ...]:
        response, _ = self._request("namespaces")
        return tuple(response["names"])

    def __len__(self) -> int:
        response, _ = self._request("len")
        return int(response["value"])

    def snapshot(self) -> dict:
        response, _ = self._request("snapshot")
        return response["snapshot"]

    def restore(self, snapshot: dict) -> None:
        self._request("restore", snapshot=snapshot)

    def restore_merge(self, snapshot: dict) -> None:
        """Overlay ``snapshot`` without dropping existing content."""
        self._request("restore", snapshot=snapshot, merge=True)

    def clear(self) -> None:
        self._request("clear")

    # -- protocol extras ----------------------------------------------
    def topology(self) -> dict:
        response, _ = self._request("topology_get")
        return response["topology"]

    def set_topology(self, topology: dict) -> None:
        self._request("topology_set", topology=topology)

    def split_off(
        self, shards: int, replicas: int, keep: int
    ) -> tuple[list[dict | None], int]:
        """Server-side reshard split; returns ``(parts, moved_entries)``."""
        response, _ = self._request(
            "split_off", shards=shards, replicas=replicas, keep=keep
        )
        return response["parts"], int(response["moved"])
