"""Wire protocol of the networked admission state store.

One frame = a 4-byte big-endian unsigned length prefix followed by
that many bytes of UTF-8 JSON.  Requests and responses are single
JSON objects and a connection carries one request/response exchange at
a time, which keeps both ends a loop over
:func:`read_frame`/:func:`write_frame`.  What a caller batches is the
*content* of a frame: a ``multi`` request carries a whole read or
write set and costs one round trip.  Writes that no decision waits on
are *posted* instead of sent: the client holds them and puts them at
the head of the ``ops`` of its next ``multi`` frame, so they cost no
round trip of their own and still apply before anything that frame
reads; a queue left when some other frame is due, or on ``flush``,
goes out as a ``multi`` of its own.  The server cannot tell a posted
op from any other.

Request shapes::

    {"op": "multi", "ops": [["replay", "len"],            # keyed ops
                            ["replay", "get", "5f.."],
                            ["feedback", "put", "10.0.0.9", [0.5, 10.0]]]}
    {"op": "pop", "ns": "replay", "key": "5f.."}          # namespace op
    {"op": "snapshot"}                                    # store-level op

Response shapes::

    {"ok": true, "epoch": 3, "values": [7, null, null]}  # multi, one per op
    {"ok": true, "epoch": 3, "value": [0.5, 10.0]}       # pop
    {"ok": false, "error": "...", "kind": "key"}         # logical failure

Keyed ops travel only inside ``multi``, each as the array
``[namespace, op, *args]`` that :meth:`AdmissionStateStore.execute
<repro.state.store.AdmissionStateStore.execute>` takes in process; the
ops and their arities are :data:`repro.state.store.KEYED_OPS`
(``get``/``put``/``delete``/``contains``/``setdefault``/
``pop_default``/``move_to_end``/``len``/``first``).  A top-level keyed
op is an unknown op, and a top-level ``len`` counts the whole store
and takes no ``ns``.  A ``multi`` frame holds up to
:data:`MAX_MULTI_OPS` ops.  The server checks every one first — a list
whose entries are each a non-empty string namespace, a keyed op name,
a legal number of arguments and a string key — and answers a
malformed frame with a ``value`` error that **applies nothing**.  A
well-formed frame is handed to the hosted store's own ``execute``
under one lock hold, and cannot fail part way: no keyed op fails on a
well-formed request (``delete`` and ``move_to_end`` answer whether the
key was there).

``epoch`` piggybacks the server's current topology epoch on every
response so clients learn about a reshard without polling; ``kind``
maps a logical failure back to the Python exception the in-process
store would have raised (``key`` -> :class:`KeyError`, ``value`` ->
:class:`ValueError`) — logical failures are *answers*, never retried.

Addresses are strings: ``host:port`` for TCP, ``unix:/path/sock``
for AF_UNIX (see :func:`parse_address`).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_MULTI_OPS",
    "ProtocolError",
    "FrameTooLarge",
    "read_frame",
    "write_frame",
    "encode_frame",
    "parse_address",
    "format_address",
    "connect",
    "IDEMPOTENT_OPS",
    "NON_IDEMPOTENT_OPS",
]

#: Bumped when the frame layout or op envelope changes incompatibly.
PROTOCOL_VERSION = 3

#: Upper bound on one frame; a full-store snapshot is the largest
#: legitimate payload, and 256 MiB is far beyond any configured store.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Upper bound on the keyed ops of one ``multi`` frame: a server holds
#: its lock for the whole frame, so a frame must stay short.
MAX_MULTI_OPS = 4096

_LENGTH = struct.Struct(">I")

#: One encoder for every frame: ``json.dumps`` with ``separators``
#: would build a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: Frame ops safe to retry after a lost response: re-applying them
#: cannot change the outcome the caller observes.  ``multi`` is one of
#: them because every keyed op is (reads, absolute writes, deletes,
#: and ``pop_default`` — the caller tolerates "already gone").
IDEMPOTENT_OPS = frozenset(
    {
        "ping",
        "len",
        "multi",
        "iter_batch",
        "load_ns",
        "namespaces",
        "snapshot",
        "restore",
        "clear",
        "clear_ns",
        "topology_get",
        "topology_set",
    }
)

#: Ops whose retry could observe or cause a different outcome than the
#: lost first attempt (``pop`` without default raising KeyError on the
#: retry of a success, ``popitem`` evicting a second entry,
#: ``split_off`` handing out a slice the first attempt already moved).
#: The client fails these loudly.
NON_IDEMPOTENT_OPS = frozenset({"pop", "popitem", "split_off"})


class ProtocolError(ConnectionError):
    """A malformed frame or an unparseable payload."""


class FrameTooLarge(ProtocolError):
    """A frame length prefix above :data:`MAX_FRAME_BYTES`."""


def encode_frame(message: dict[str, Any]) -> bytes:
    """One message as length-prefixed wire bytes."""
    payload = _ENCODER.encode(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(payload)) + payload


def write_frame(sock: socket.socket, message: dict[str, Any]) -> int:
    """Send one message; returns the bytes written."""
    data = encode_frame(message)
    sock.sendall(data)
    return len(data)


class _ClosedBeforeFirstByte(ConnectionError):
    """The peer closed without sending any of the bytes asked for."""


def _read_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            kind = (
                _ClosedBeforeFirstByte if remaining == count
                else ConnectionError
            )
            raise kind(
                f"peer closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one message; ``None`` on a clean close between frames."""
    try:
        prefix = _read_exact(sock, _LENGTH.size)
    except _ClosedBeforeFirstByte:
        return None  # clean close at a frame boundary
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame announces {length} bytes, limit {MAX_FRAME_BYTES}"
        )
    payload = _read_exact(sock, length)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message


def parse_address(address: str) -> tuple[int, Any]:
    """``host:port`` or ``unix:/path`` -> ``(family, sockaddr)``."""
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ValueError("unix: address needs a socket path")
        return socket.AF_UNIX, path
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"state-server address {address!r} must be host:port or "
            "unix:/path"
        )
    try:
        return socket.AF_INET, (host, int(port))
    except ValueError:
        raise ValueError(f"invalid port in state-server address {address!r}")


def format_address(family: int, sockaddr: Any) -> str:
    """The canonical string form of a bound socket address."""
    if family == socket.AF_UNIX:
        return f"unix:{sockaddr}"
    host, port = sockaddr[:2]
    return f"{host}:{port}"


def connect(address: str, timeout: float | None = None) -> socket.socket:
    """Open a connected socket to a state-server address."""
    family, sockaddr = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(sockaddr)
        if family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except BaseException:
        sock.close()
        raise
    return sock
