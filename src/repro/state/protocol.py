"""Wire protocol of the networked admission state store.

One frame = a 4-byte big-endian unsigned length prefix followed by
that many bytes of UTF-8 JSON.  Requests and responses are single
JSON objects and a connection carries one request/response exchange at
a time, which keeps both ends a loop over :func:`write_frame` and the
connection's :class:`FrameReader`.

A frame costs one encode, one decode and, when it arrives whole, one
``recv`` on each end: :func:`encode_frame` calls a C encoder built once
at import, and a :class:`FrameReader` buffers a connection's bytes and
decodes with ``raw_decode``, falling back to ``json.loads``; the bytes
and what is refused stay ``json``'s own.  What a caller batches is the
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
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_MULTI_OPS",
    "ProtocolError",
    "FrameTooLarge",
    "FrameReader",
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

#: ``JSONEncoder.encode`` builds a new C encoder per call; _C_ENCODER is
#: that encoder built once (``None`` without ``_json``: the fallback
#: writes the same bytes).  Frames are trees, so no circular check: one
#: ``markers`` dict shared by all threads would be unsafe, and a cycle
#: still fails, with ``RecursionError``.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_C_ENCODER = None if c_make_encoder is None else c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan,
)
_DECODER = json.JSONDecoder()

#: Most one ``recv`` of a :class:`FrameReader` asks for, at a frame's
#: start and while completing a longer frame.
_RECV_BYTES = 64 * 1024
_FILL_BYTES = 1 << 20

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
    if _C_ENCODER is not None:
        text = "".join(_C_ENCODER(message, 0))
    else:
        text = _ENCODER.encode(message)
    payload = text.encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(payload)) + payload


def write_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Send one message."""
    sock.sendall(encode_frame(message))


def _decode(payload: bytes) -> dict[str, Any]:
    """A payload as a message; accepts and refuses what ``json.loads`` does.

    ``raw_decode`` takes a payload that is exactly one value; anything
    else (whitespace around it, a BOM, trailing data) goes to ``json.loads``.
    """
    try:
        text = payload.decode("utf-8")
        try:
            message, end = _DECODER.raw_decode(text)
        except json.JSONDecodeError:
            end = -1
        if end != len(text):
            message = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message


class FrameReader:
    """One connection's frames, read through one buffer.

    ``recv`` takes whatever has arrived, so a frame that arrives whole
    costs one call and bytes past it wait for the next :meth:`read`; a
    longer frame is completed up to its announced size, never past it.
    A new connection gets a new reader, so a reply cut short never
    reaches the next one.  After an error the reader is done.
    """

    __slots__ = ("sock", "_pending")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._pending = b""

    def read(self) -> dict[str, Any] | None:
        """The next message; ``None`` on a clean close between frames."""
        data = self._pending
        while len(data) < _LENGTH.size:
            chunk = self.sock.recv(_RECV_BYTES)
            if not chunk:
                if not data:
                    return None  # clean close at a frame boundary
                raise ConnectionError(
                    f"peer closed mid-frame ({len(data)}/4 prefix bytes)"
                )
            data = data + chunk if data else chunk
        (length,) = _LENGTH.unpack_from(data)
        if length > MAX_FRAME_BYTES:
            raise FrameTooLarge(
                f"frame announces {length} bytes, limit {MAX_FRAME_BYTES}"
            )
        end = _LENGTH.size + length
        if len(data) < end:
            data = self._fill(data, end)
        self._pending = data[end:]
        return _decode(data[_LENGTH.size:end])

    def _fill(self, head: bytes, end: int) -> bytearray:
        # Grown as bytes arrive, never sized from the prefix: a peer that
        # announces the cap and sends nothing must not cost the cap.
        frame = bytearray(head)
        while len(frame) < end:
            chunk = self.sock.recv(min(end - len(frame), _FILL_BYTES))
            if not chunk:
                raise ConnectionError(
                    f"peer closed mid-frame ({len(frame)}/{end} bytes)"
                )
            frame += chunk
        return frame


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
