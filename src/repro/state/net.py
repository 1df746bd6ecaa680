"""The networked admission state store: server, client, multi-node ring.

Three layers, all speaking :mod:`repro.state.protocol` frames:

* :class:`StateServer` hosts any :class:`~repro.state.AdmissionStateStore`
  behind a threaded TCP/AF_UNIX accept loop.  One lock serializes
  frames, so each wire op — and each ``multi`` frame of keyed ops,
  which the hosted store's own ``execute`` applies — is atomic exactly
  like its in-process counterpart; every response piggybacks the
  server's topology epoch.
* :class:`RemoteStateStore` implements the full store/namespace surface
  over one server connection, and :meth:`~RemoteStateStore.execute` as
  one ``multi`` frame of the caller's op arrays: connect/request
  timeouts, bounded exponential-backoff retries on idempotent ops, loud
  :class:`ConnectionError` on non-idempotent ones (a retried ``popitem``
  could evict a second entry — the client refuses to guess).
* :class:`MultiNodeStateStore` places keys over N servers with the same
  :class:`~repro.state.sharding.HashRing` the one-box
  :class:`~repro.state.sharded.ShardedStateStore` uses, and implements
  *live resharding*: :meth:`MultiNodeStateStore.apply_topology` asks
  each server to split its own content under the new ring server-side
  (``split_off``), ships only the moved slice to its new owners, and
  bumps the topology epoch everywhere — no worker restarts.

Consistency envelope
--------------------
A single server is linearizable per op (one lock).  Across nodes there
are no cross-key transactions — exactly the envelope admission state
needs, since every consumer keys by client IP or puzzle seed.  During a
resharding handoff a reader may briefly miss a key that is mid-flight
between nodes; no key is ever lost or left on a node where the new
ring would not find it once :meth:`apply_topology` returns.
"""

from __future__ import annotations

import dataclasses
import itertools
import pathlib
import socket
import threading
import time
from typing import Any, Callable, Iterator

from repro.state import protocol
from repro.state.sharding import HashRing
from repro.state.snapshot import (
    load_snapshot,
    merge_snapshots,
    save_snapshot,
    split_snapshot,
)
from repro.state.store import (
    SNAPSHOT_FORMAT,
    AdmissionStateStore,
    InMemoryStateStore,
    check_ops,
)

__all__ = [
    "StateServer",
    "RemoteStateStore",
    "RemoteNamespace",
    "MultiNodeStateStore",
    "MultiNodeNamespace",
    "HandoffReport",
    "MUTATORS",
]


#: Named server-side read-modify-write functions for the ``mutate`` op.
#: Applied atomically under the server lock; the client never sees the
#: intermediate value, so there is no lost-update window.
MUTATORS: dict[str, Callable[[Any, Any], Any]] = {
    "add": lambda current, arg: (0 if current is None else current) + arg,
    "max": lambda current, arg: arg if current is None else max(current, arg),
    "append": lambda current, arg: (
        [arg] if current is None else list(current) + [arg]
    ),
}


class _DropConnection(Exception):
    """Raised by a test fault hook to sever the connection mid-request."""


#: Round trips are 0.1-1 ms on loopback; retries and timeouts reach seconds.
_SECONDS_BUCKETS = (
    5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def _instruments(registry):
    if registry is None:
        return None
    from repro.obs.registry import METRIC_CATALOG

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
        ("netstore_client_request_seconds", ("op",), _SECONDS_BUCKETS),
        ("netstore_server_batch_ops", (), _BATCH_BUCKETS),
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
        self._metrics = _instruments(registry)
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
        try:
            while not self._stopping.is_set():
                try:
                    request = protocol.read_frame(conn)
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
            self._metrics["netstore_server_requests_total"].inc(
                op=op if handler is not None else "unknown"
            )
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
            self._metrics["netstore_server_batch_ops"].observe(len(ops))
        return {"ok": True, "values": self.store.execute(ops)}

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "version": protocol.PROTOCOL_VERSION}

    def _op_pop(self, request: dict) -> dict:
        value = self._table(request).pop(request["key"])  # raises KeyError
        return {"ok": True, "value": value}

    def _op_mutate(self, request: dict) -> dict:
        fn = MUTATORS.get(request.get("fn"))
        if fn is None:
            raise ValueError(
                f"unknown mutator {request.get('fn')!r}; "
                f"have {sorted(MUTATORS)}"
            )
        table = self._table(request)
        key = request["key"]
        value = fn(table.get(key, request.get("default")), request.get("arg"))
        table[key] = value
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
        only the moved slice ever crosses the wire.
        """
        shards = int(request["shards"])
        replicas = int(request.get("replicas", 64))
        keep = int(request.get("keep", -1))
        snapshot = self.store.snapshot()
        parts = split_snapshot(snapshot, shards, replicas=replicas)
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
    ``mutate``) raise :class:`ConnectionError` immediately, because a
    blind retry could apply them twice.  A ``multi`` frame carries
    keyed ops only, all idempotent, so it is always retried.  Logical
    errors from the server (missing key, bad value) are answers, never
    retried.
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
        self._metrics = _instruments(registry)
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None
        self._namespaces: dict[str, RemoteNamespace] = {}
        self.epoch: int | None = None
        self._epoch_listeners: list[Callable[[int], None]] = []

    # -- connection management ----------------------------------------
    def _connected(self) -> socket.socket:
        if self._sock is None:
            self._sock = protocol.connect(
                self.address, timeout=self.connect_timeout
            )
            self._sock.settimeout(self.request_timeout)
        return self._sock

    def _disconnect(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def close(self) -> None:
        with self._lock:
            self._disconnect()

    def __enter__(self) -> "RemoteStateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def subscribe_epoch_changes(
        self, listener: Callable[[int], None]
    ) -> None:
        """Call ``listener(epoch)`` when the server's topology moves."""
        self._epoch_listeners.append(listener)

    # -- request engine -----------------------------------------------
    def _request(self, op: str, **fields) -> tuple[dict, int]:
        """One frame on the wire; returns ``(response, attempts)``."""
        message = {"op": op, **fields}
        retryable = op in protocol.IDEMPOTENT_OPS
        attempts = 0
        last_error: Exception | None = None
        while True:
            attempts += 1
            if self._metrics is not None:
                self._metrics["netstore_client_requests_total"].inc(op=op)
                began = time.perf_counter()
            try:
                with self._lock:
                    sock = self._connected()
                    protocol.write_frame(sock, message)
                    response = protocol.read_frame(sock)
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
                self._metrics["netstore_client_request_seconds"].observe(
                    time.perf_counter() - began, op=op
                )
            self._note_epoch(response.get("epoch"))
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

    def _note_epoch(self, epoch) -> None:
        if epoch is None:
            return
        epoch = int(epoch)
        if self.epoch is not None and epoch != self.epoch:
            self.epoch = epoch
            for listener in self._epoch_listeners:
                listener(epoch)
        else:
            self.epoch = epoch

    def execute(self, ops) -> list[Any]:
        """The whole op list as one ``multi`` frame, one lock hold."""
        return self._send(ops)[0]

    def _send(self, ops) -> tuple[list[Any], int]:
        """Results of keyed ops, and the most attempts a frame took.

        Checked ops go into the frame as they are: JSON writes a tuple
        as an array.
        """
        ops = list(ops)
        check_ops(ops)
        results: list[Any] = []
        attempts = 1
        # Over-long lists go out as several frames: order is kept, only
        # the single lock hold is not.
        for start in range(0, len(ops), protocol.MAX_MULTI_OPS):
            response, tries = self._request(
                "multi", ops=ops[start:start + protocol.MAX_MULTI_OPS]
            )
            results.extend(response["values"])
            attempts = max(attempts, tries)
        return results, attempts

    # -- store surface -------------------------------------------------
    def ping(self) -> bool:
        self._request("ping")
        return True

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
    def mutate_remote(
        self, namespace: str, key: str, fn: str, arg: Any, default: Any = None
    ) -> Any:
        """Apply a named server-side mutator atomically (see MUTATORS)."""
        response, _ = self._request(
            "mutate", ns=namespace, key=key, fn=fn, arg=arg, default=default
        )
        return response["value"]

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


# ----------------------------------------------------------------------
# Multi-node placement + live resharding
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class HandoffReport:
    """What a topology change actually moved."""

    epoch: int
    nodes: tuple[str, ...]
    moved_entries: int
    moved_bytes: int
    per_node: tuple[tuple[str, int], ...]

    def summary(self) -> str:
        return (
            f"epoch {self.epoch}: {len(self.nodes)} nodes, "
            f"{self.moved_entries} entries / {self.moved_bytes} bytes moved"
        )


class MultiNodeNamespace:
    """Namespace view placing each key on its ring-owning node.

    Unlike the one-box :class:`~repro.state.sharded.ShardedNamespace`,
    tables are resolved through the parent store *per call*, so a live
    topology change redirects the very next operation — no rebinding.
    Aggregate semantics match the sharded store: ``len``/iteration span
    nodes in node order; ``popitem`` evicts from the fullest node.
    """

    __slots__ = ("name", "_store")

    def __init__(self, name: str, store: "MultiNodeStateStore") -> None:
        self.name = name
        self._store = store

    def _table(self, key: str) -> RemoteNamespace:
        return self._store.node_for(key).namespace(self.name)

    def _tables(self) -> list[RemoteNamespace]:
        return [node.namespace(self.name) for node in self._store.nodes]

    # -- keyed operations ----------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        return self._table(key).get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self._table(key)[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self._table(key)[key] = value

    def __delitem__(self, key: str) -> None:
        del self._table(key)[key]

    def __contains__(self, key: str) -> bool:
        return key in self._table(key)

    def pop(self, key: str, *default: Any) -> Any:
        return self._table(key).pop(key, *default)

    def setdefault(self, key: str, default: Any) -> Any:
        return self._table(key).setdefault(key, default)

    def move_to_end(self, key: str) -> None:
        self._table(key).move_to_end(key)

    # -- aggregate operations ------------------------------------------
    def __len__(self) -> int:
        return sum(len(table) for table in self._tables())

    def __iter__(self) -> Iterator[str]:
        for table in self._tables():
            yield from table

    def keys(self):
        return iter(self)

    def items(self):
        for table in self._tables():
            yield from table.items()

    def clear(self) -> None:
        for table in self._tables():
            table.clear()

    def popitem(self, last: bool = True) -> tuple[str, Any]:
        sized = [
            (len(table), table) for table in self._tables()
        ]
        sized = [(count, table) for count, table in sized if count]
        if not sized:
            raise KeyError("popitem(): namespace is empty")
        _, victim = max(sized, key=lambda pair: pair[0])
        return victim.popitem(last=last)

    # -- snapshot plumbing ---------------------------------------------
    def dump(self) -> list[list[Any]]:
        return [[key, value] for key, value in self.items()]

    def load(self, entries) -> None:
        parts: dict[int, list] = {}
        for key, value in entries:
            parts.setdefault(
                self._store.ring.shard_for(str(key)), []
            ).append([str(key), value])
        for index, node in enumerate(self._store.nodes):
            node.namespace(self.name).load(parts.get(index, []))


class MultiNodeStateStore(AdmissionStateStore):
    """Places every namespace over N state servers by consistent hash.

    The distributed twin of the one-box
    :class:`~repro.state.sharded.ShardedStateStore`: same ring, same
    per-key parity, same aggregate caveats — with nodes that survive
    the process and a :meth:`apply_topology` that reshards them live.
    """

    def __init__(
        self,
        nodes: list[str] | list[RemoteStateStore],
        replicas: int = 64,
        *,
        registry=None,
        client_options: dict | None = None,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one state-server node")
        options = dict(client_options or {})
        options.setdefault("registry", registry)
        self._client_options = options
        self._registry = registry
        self.nodes: list[RemoteStateStore] = [
            node
            if isinstance(node, RemoteStateStore)
            else RemoteStateStore(node, **options)
            for node in nodes
        ]
        self.ring = HashRing(len(self.nodes), replicas=replicas)
        self._namespaces: dict[str, MultiNodeNamespace] = {}
        self._metrics = _instruments(registry)

    # -- placement -----------------------------------------------------
    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(node.address for node in self.nodes)

    def node_for(self, key: str) -> RemoteStateStore:
        return self.nodes[self.ring.shard_for(key)]

    def close(self) -> None:
        for node in self.nodes:
            node.close()

    def __enter__(self) -> "MultiNodeStateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- store surface -------------------------------------------------
    def namespace(self, name: str) -> MultiNodeNamespace:
        table = self._namespaces.get(name)
        if table is None:
            table = self._namespaces[name] = MultiNodeNamespace(name, self)
        return table

    def namespaces(self) -> tuple[str, ...]:
        names: dict[str, None] = {}
        for node in self.nodes:
            for name in node.namespaces():
                names.setdefault(name)
        return tuple(names)

    def execute(self, ops) -> list[Any]:
        """One frame per owning node; ``len``/``first`` ask every node.

        Ops on different nodes touch different keys and none can fail,
        so grouping them by node (order kept within each) changes
        nothing.  A malformed op is refused before any frame is sent.
        """
        ops = list(ops)
        check_ops(ops)
        batches: dict[int, list[int]] = {}  # node index -> op positions
        for position, op in enumerate(ops):
            owners = (
                (self.ring.shard_for(op[2]),) if len(op) > 2  # keyed
                else range(len(self.nodes))
            )
            for index in owners:
                batches.setdefault(index, []).append(position)
        results: list[Any] = [None] * len(ops)
        for index in sorted(batches):
            positions = batches[index]
            values, _ = self.nodes[index]._send(
                [ops[position] for position in positions]
            )
            for position, value in zip(positions, values):
                if ops[position][1] == "len":
                    value += results[position] or 0
                elif results[position] is not None:
                    continue  # a first: the lowest node with an entry wins
                results[position] = value
        return results

    def __len__(self) -> int:
        return sum(len(node) for node in self.nodes)

    def snapshot(self) -> dict:
        return merge_snapshots(node.snapshot() for node in self.nodes)

    def restore(self, snapshot: dict) -> None:
        parts = split_snapshot(
            snapshot, len(self.nodes), replicas=self.ring.replicas
        )
        for node, part in zip(self.nodes, parts):
            node.restore(part)

    def clear(self) -> None:
        for node in self.nodes:
            node.clear()

    # -- live resharding -----------------------------------------------
    def apply_topology(self, addresses: list[str]) -> HandoffReport:
        """Reshard live onto ``addresses`` — no restarts, minimal moves.

        Handoff sequence (DESIGN §1.9):

        1. every *current* node splits its own content under the new
           ring server-side (``split_off``), keeps the slice it still
           owns, and returns only the moved slices;
        2. moved slices are merge-restored into their new owners;
        3. the new topology document (epoch+1) is pushed to every node
           involved — including decommissioned ones, so clients that
           still talk to them learn the new layout from the epoch
           piggyback on their next response.

        Appending/removing nodes at the end of the list moves only the
        ring-delta keyspace (~1/(n+1) of it), the consistent-hash
        property the one-box store was built to preserve.
        """
        if not addresses:
            raise ValueError("topology needs at least one node")
        new_addresses = list(addresses)
        if len(set(new_addresses)) != len(new_addresses):
            raise ValueError(
                f"topology has duplicate addresses: {new_addresses}"
            )
        old_nodes = list(self.nodes)
        old_addresses = [node.address for node in old_nodes]
        replicas = self.ring.replicas
        epoch = max(
            (node.epoch or 0 for node in old_nodes), default=0
        ) + 1

        by_address = {node.address: node for node in old_nodes}
        # Explicit None checks: RemoteStateStore defines __len__, so a
        # truthiness test would round-trip to the server (and treat an
        # empty store as absent).
        new_nodes = [
            by_address[address]
            if address in by_address
            else RemoteStateStore(address, **self._client_options)
            for address in new_addresses
        ]
        new_index = {address: i for i, address in enumerate(new_addresses)}

        moved_entries = 0
        moved_bytes = 0
        per_node: dict[str, int] = {}
        pending: list[list] = [[] for _ in new_addresses]
        for node in old_nodes:
            keep = new_index.get(node.address, -1)
            parts, moved = node.split_off(
                len(new_addresses), replicas=replicas, keep=keep
            )
            moved_entries += moved
            per_node[node.address] = moved
            for index, part in enumerate(parts):
                if part is None or index == keep:
                    continue
                if not part.get("namespaces"):
                    continue
                moved_bytes += len(protocol.encode_frame(part))
                pending[index].append(part)
        for index, parts in enumerate(pending):
            for part in parts:
                new_nodes[index].restore_merge(part)

        if self._metrics is not None:
            self._metrics["netstore_handoff_bytes_total"].inc(moved_bytes)

        topology = {
            "epoch": epoch, "nodes": new_addresses, "replicas": replicas
        }
        for address in dict.fromkeys(old_addresses + new_addresses):
            node = by_address.get(address)
            if node is None:
                node = new_nodes[new_index[address]]
            node.set_topology(topology)

        self.nodes = new_nodes
        self.ring = HashRing(len(new_nodes), replicas=replicas)
        for node in old_nodes:
            if node.address not in new_index:
                node.close()
        return HandoffReport(
            epoch=epoch,
            nodes=tuple(new_addresses),
            moved_entries=moved_entries,
            moved_bytes=moved_bytes,
            per_node=tuple(sorted(per_node.items())),
        )
