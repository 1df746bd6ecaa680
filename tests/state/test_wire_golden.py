"""The state wire's bytes, pinned: ``encode_frame`` writes what it wrote.

``wire_golden.json`` holds the frame bytes of a fixed set of requests
and responses, recorded before the codec was rebuilt around a prebuilt
C encoder and a one-pass decoder.  A frame that moves by a byte here
is a wire change (``PROTOCOL_VERSION``), not a refactor.  To re-record
after a deliberate wire change::

    PYTHONPATH=src:. python -m tests.state.test_wire_golden > tests/state/wire_golden.json

The test uses only ``encode_frame`` and ``json.loads``, so the same
file checks any version of the codec.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import pytest

from repro.state import protocol

GOLDEN = pathlib.Path(__file__).with_name("wire_golden.json")

_FLOATS = [
    0.1 + 0.2, 1700000000.123, 5e-324, -0.0, 1e308, 2.5, 1e-7, 1e16,
    float("nan"), float("inf"), float("-inf"),
]
_STRINGS = [
    "", "plain", "café", "日本", "\U0001f600", "  ",
    "\x00\x01\x1f\x7f", "quote\" back\\ slash/ \n\r\t\b\f", "\ud800",
]
_INTS = [0, -1, 2**31, 2**63 - 1, 2**64 + 1, -(2**100), 10**30]


def messages() -> dict[str, dict]:
    """Every message the golden file pins, by name."""
    return {
        "ping": {"op": "ping"},
        "multi-redeem": {
            "op": "multi",
            "ops": [
                ["replay", "len"],
                ["replay", "first"],
                ["replay", "setdefault", "5f3a9c0d1e2b4a6f", 1700000000.123],
                ["feedback", "get", "10.0.0.9"],
                ["feedback", "len"],
                ["feedback", "put", "10.0.0.9", [0.5, 10.0]],
            ],
        },
        "multi-values": {
            "ok": True, "epoch": 3,
            "values": [7, None, 1700000000.123, [0.5, 10.0], True, False],
        },
        "floats": {"op": "multi", "ops": [["f", "put", "k", _FLOATS]]},
        "float-response": {"ok": True, "epoch": 0, "value": _FLOATS},
        "strings": {
            "op": "multi",
            "ops": [["né", "put", s or "empty", s] for s in _STRINGS],
        },
        "string-keys": {
            "ok": True, "epoch": 0,
            "value": {s: i for i, s in enumerate(_STRINGS)},
        },
        "ints": {"ok": True, "epoch": 2**40, "value": _INTS},
        "containers": {
            "ok": True, "epoch": 0,
            "value": [[], {}, [[[]]], {"a": {"b": [{}]}}, [None, True, False]],
        },
        "snapshot": {
            "ok": True, "epoch": 1,
            "snapshot": {
                "format": 1,
                "namespaces": {
                    "feedback": [["10.0.0.1", [0.25, 3.0]], ["10.0.0.2", None]],
                    "replay": [],
                },
            },
        },
        "error": {"ok": False, "error": "'ké'", "kind": "key"},
        "topology": {
            "op": "topology_set",
            "topology": {
                "epoch": 3, "nodes": ["127.0.0.1:1", "unix:/tmp/s"],
                "replicas": 64,
            },
        },
    }


def _same(left, right) -> bool:
    """``==`` where NaN equals NaN and ``-0.0`` is not ``0.0``."""
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right and math.copysign(1, left) == math.copysign(
            1, right
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return list(left) == list(right) and all(
            _same(left[key], right[key]) for key in left
        )
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            _same(a, b) for a, b in zip(left, right)
        )
    return type(left) is type(right) and left == right


def record() -> dict:
    return {
        "format": 1,
        "frames": {
            name: protocol.encode_frame(message).hex()
            for name, message in messages().items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["frames"]


def test_the_golden_file_covers_every_message(golden):
    assert sorted(golden) == sorted(messages())


@pytest.mark.parametrize("name", sorted(messages()))
def test_frame_bytes_are_unchanged(golden, name):
    assert protocol.encode_frame(messages()[name]).hex() == golden[name]


@pytest.mark.parametrize("name", sorted(messages()))
def test_golden_frames_decode_to_their_message(golden, name):
    frame = bytes.fromhex(golden[name])
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert _same(json.loads(frame[4:].decode("utf-8")), messages()[name])


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
