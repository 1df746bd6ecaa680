"""The live line protocol and its blocking client.

The server side is :class:`~repro.net.gateway.server.GatewayServer`.
"""

from repro.net.live.client import FetchResult, LiveClient
from repro.net.live.protocol import (
    MAX_LINE_BYTES,
    encode_err,
    encode_ok,
    encode_request,
    parse_reply,
    parse_request,
    read_line,
    send_line,
)

__all__ = [
    "LiveClient",
    "FetchResult",
    "MAX_LINE_BYTES",
    "encode_request",
    "parse_request",
    "encode_ok",
    "encode_err",
    "parse_reply",
    "read_line",
    "send_line",
]
