"""Wire protocol for the live client-server demo.

A deliberately simple line-oriented ASCII protocol carrying the paper's
Figure 1 exchange over one TCP connection:

.. code-block:: text

    C -> S:  REQUEST <resource> <features-json>
    S -> C:  PUZZLE <version> <seed> <timestamp> <difficulty> <algo> <tag>
    C -> S:  SOLUTION <seed> <nonce> <attempts>
    S -> C:  OK <body>           (puzzle solved, resource served)
             ERR <reason>        (verification failed)

Frames are single ``\\n``-terminated lines; :func:`read_line` enforces a
length cap so a hostile peer cannot balloon server memory.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import BinaryIO, Mapping

from repro.core.errors import ProtocolError

__all__ = [
    "MAX_LINE_BYTES",
    "encode_request",
    "parse_request",
    "encode_ok",
    "encode_err",
    "parse_reply",
    "read_line",
    "send_line",
    "read_line_async",
    "send_line_async",
]

#: Upper bound on any single protocol line.
MAX_LINE_BYTES = 64 * 1024


def encode_request(resource: str, features: Mapping[str, float]) -> str:
    """Build a ``REQUEST`` frame."""
    if not resource.startswith("/"):
        raise ProtocolError(f"resource must start with '/': {resource!r}")
    payload = json.dumps(dict(features), separators=(",", ":"), sort_keys=True)
    return f"REQUEST {resource} {payload}"


def parse_request(line: str) -> tuple[str, dict[str, float]]:
    """Parse a ``REQUEST`` frame into (resource, features)."""
    parts = line.strip().split(" ", 2)
    if len(parts) != 3 or parts[0] != "REQUEST":
        raise ProtocolError(f"malformed request frame: {line[:80]!r}")
    _, resource, payload = parts
    if not resource.startswith("/"):
        raise ProtocolError(f"malformed resource in request: {resource!r}")
    try:
        features = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed feature JSON: {exc}") from exc
    if not isinstance(features, dict):
        raise ProtocolError("feature payload must be a JSON object")
    try:
        features = {str(k): float(v) for k, v in features.items()}
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"non-numeric feature value: {exc}") from exc
    return resource, features


def encode_ok(body: str) -> str:
    """Build an ``OK`` frame."""
    if "\n" in body:
        raise ProtocolError("reply body must be single-line")
    return f"OK {body}"


def encode_err(reason: str) -> str:
    """Build an ``ERR`` frame."""
    reason = reason.replace("\n", " ")
    return f"ERR {reason}"


def parse_reply(line: str) -> tuple[bool, str]:
    """Parse an ``OK``/``ERR`` frame into (success, body_or_reason)."""
    line = line.strip()
    if line.startswith("OK "):
        return True, line[3:]
    if line == "OK":
        return True, ""
    if line.startswith("ERR "):
        return False, line[4:]
    raise ProtocolError(f"malformed reply frame: {line[:80]!r}")


def read_line(stream: BinaryIO, max_bytes: int = MAX_LINE_BYTES) -> str:
    """Read one ``\\n``-terminated line from the connection's one reader.

    ``stream`` is ``sock.makefile("rb")``: one ``recv`` per arriving
    segment, not per byte.  Raises :class:`ProtocolError` on EOF before
    or inside a line and when the line exceeds ``max_bytes``.
    """
    line = stream.readline(max_bytes + 1)
    if line.endswith(b"\n"):
        return line[:-1].decode("ascii", "replace")
    if len(line) > max_bytes:
        raise ProtocolError(f"frame exceeds {max_bytes} bytes")
    if not line:
        raise ProtocolError("connection closed before frame")
    raise ProtocolError("connection closed mid-frame")


def send_line(sock: socket.socket, line: str) -> None:
    """Send one frame, appending the terminator."""
    if "\n" in line:
        raise ProtocolError("frames must not contain newlines")
    sock.sendall(line.encode("ascii") + b"\n")


async def read_line_async(
    reader: asyncio.StreamReader, max_bytes: int = MAX_LINE_BYTES
) -> str:
    """Read one ``\\n``-terminated line from an asyncio stream.

    The asyncio counterpart of :func:`read_line`, used by the load
    generator: same frames, same cap, same :class:`ProtocolError` on EOF
    mid-frame or when the cap is exceeded.
    """
    try:
        raw = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ProtocolError("connection closed before frame") from exc
        raise ProtocolError("connection closed mid-frame") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(f"frame exceeds {max_bytes} bytes") from exc
    if len(raw) - 1 > max_bytes:
        raise ProtocolError(f"frame exceeds {max_bytes} bytes")
    return raw[:-1].decode("ascii", "replace")


async def send_line_async(writer: asyncio.StreamWriter, line: str) -> None:
    """Send one frame over an asyncio stream, appending the terminator."""
    if "\n" in line:
        raise ProtocolError("frames must not contain newlines")
    writer.write(line.encode("ascii") + b"\n")
    await writer.drain()
