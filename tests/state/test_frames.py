"""The state wire's codec and frame reader, held to ``json`` and to a
syscall budget.

The encoder must write ``json.dumps(m, separators=(",", ":"))``'s bytes
and the reader must accept and refuse exactly what ``json.loads`` does;
both are checked against ``json`` itself on generated messages and
payloads.  The reader is driven through a scripted socket, which hands
out chunks exactly as given, so every segmentation of the byte stream
can be tried; the budget test counts real ``recv`` calls on both ends
of a live connection.
"""

from __future__ import annotations

import json
import math
import platform
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.state import RemoteStateStore, StateServer, protocol


class Script:
    """A socket stand-in whose ``recv`` returns the given chunks in order.

    A chunk longer than what ``recv`` asks for is handed out in pieces;
    after the last chunk every ``recv`` reads EOF.
    """

    def __init__(self, *chunks: bytes) -> None:
        self.chunks = [chunk for chunk in chunks if chunk]
        self.calls = 0

    def recv(self, size: int) -> bytes:
        self.calls += 1
        if not self.chunks:
            return b""
        chunk = self.chunks[0]
        if len(chunk) > size:
            self.chunks[0] = chunk[size:]
            return chunk[:size]
        self.chunks.pop(0)
        return chunk


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def _read(*chunks: bytes):
    return protocol.FrameReader(Script(*chunks)).read()


# ----------------------------------------------------------------------
# The codec against ``json``
# ----------------------------------------------------------------------
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)
_MESSAGES = st.dictionaries(st.text(), _VALUES, max_size=6)
_WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)


def _dumped(value) -> st.SearchStrategy[str]:
    """A text ``json.loads`` reads back as ``value``, in either spacing."""
    return st.sampled_from([
        json.dumps(value),
        json.dumps(value, separators=(",", ":")),
    ])


_PAYLOADS = st.one_of(
    st.tuples(_WHITESPACE, _MESSAGES.flatmap(_dumped), _WHITESPACE).map(
        "".join
    ),
    st.tuples(_VALUES.flatmap(_dumped), _WHITESPACE).map("".join),
    st.text(max_size=40),
    st.sampled_from([
        "", " ", "{}", "{} ", " {}", "\ufeff{}", "{}{}", "{} {}", "{}x",
        '{"a":NaN,"b":-Infinity}', "[]", "1", '"s"', "null", '{"a":1',
        '{"a":1}}', "{'a':1}", '{"a":01}', '{"\\ud800":1}',
    ]),
).map(lambda text: text.encode("utf-8", "surrogatepass"))


def _same_json(left, right) -> bool:
    """Equal as JSON documents: NaN equals NaN, ``-0.0`` is not ``0.0``."""
    return json.dumps(left) == json.dumps(right)


def _check_against_json_loads(payload: bytes) -> None:
    """The reader returns ``json.loads``' object or refuses the frame."""
    try:
        want = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        want = None
    if isinstance(want, dict):
        assert _same_json(_read(_frame(payload)), want)
    else:
        with pytest.raises(protocol.ProtocolError):
            _read(_frame(payload))


class TestCodec:
    @settings(max_examples=150, deadline=None)
    @given(message=_MESSAGES)
    def test_the_encoder_writes_json_dumps_bytes(self, message):
        payload = json.dumps(message, separators=(",", ":")).encode()
        assert protocol.encode_frame(message) == _frame(payload)

    @settings(max_examples=250, deadline=None)
    @given(payload=_PAYLOADS)
    def test_the_reader_accepts_and_refuses_what_json_loads_does(
        self, payload
    ):
        _check_against_json_loads(payload)

    @settings(max_examples=200, deadline=None)
    @given(payload=st.binary(max_size=40))
    def test_any_bytes_decode_as_json_loads_does_or_are_refused(
        self, payload
    ):
        _check_against_json_loads(payload)

    def test_invalid_utf8_is_a_protocol_error(self):
        for payload in (b'{"a":"\xff"}', b"\xc3", b'{"\xed\xa0\x80":1}'):
            with pytest.raises(protocol.ProtocolError, match="unparseable"):
                _read(_frame(payload))

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython",
        reason="the prebuilt encoder is CPython's _json.make_encoder",
    )
    def test_the_prebuilt_c_encoder_writes_every_frame(self, monkeypatch):
        built = protocol._C_ENCODER
        assert isinstance(built, json.encoder.c_make_encoder)
        calls = []

        def counted(message, level):
            calls.append(message)
            return built(message, level)

        monkeypatch.setattr(protocol, "_C_ENCODER", counted)
        message = {"op": "multi", "ops": [["t", "get", "k"]]}
        assert protocol.encode_frame(message) == _frame(
            b'{"op":"multi","ops":[["t","get","k"]]}'
        )
        assert calls == [message]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(message=_MESSAGES)
    def test_the_fallback_writes_the_same_bytes(self, monkeypatch, message):
        fast = protocol.encode_frame(message)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_C_ENCODER", None)
            assert protocol.encode_frame(message) == fast

    def test_the_fallback_writes_the_golden_bytes(self, monkeypatch):
        from tests.state.test_wire_golden import GOLDEN, messages

        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["frames"]
        monkeypatch.setattr(protocol, "_C_ENCODER", None)
        for name, message in messages().items():
            assert protocol.encode_frame(message).hex() == golden[name], name

    def test_a_cyclic_message_is_refused(self):
        message: dict = {"op": "ping"}
        message["self"] = message
        with pytest.raises((RecursionError, ValueError)):
            protocol.encode_frame(message)

    def test_non_finite_floats_travel_as_json_dumps_writes_them(self):
        message = {"v": [math.nan, math.inf, -math.inf, -0.0, 5e-324]}
        frame = protocol.encode_frame(message)
        assert frame[4:] == b'{"v":[NaN,Infinity,-Infinity,-0.0,5e-324]}'
        assert _same_json(_read(frame), message)


# ----------------------------------------------------------------------
# The frame reader
# ----------------------------------------------------------------------
_MESSAGE = {"ok": True, "epoch": 3, "values": [7, None, "10.0.0.9", 1.5]}
_ANOTHER = {"op": "multi", "ops": [["replay", "len"], ["t", "get", "é"]]}


class TestFrameReader:
    def test_two_frames_in_one_segment_cost_one_recv(self):
        script = Script(
            protocol.encode_frame(_MESSAGE) + protocol.encode_frame(_ANOTHER)
        )
        frames = protocol.FrameReader(script)
        assert frames.read() == _MESSAGE
        assert frames.read() == _ANOTHER
        assert script.calls == 1
        assert frames.read() is None

    def test_a_frame_split_at_every_byte_boundary(self):
        stream = protocol.encode_frame(_MESSAGE) + protocol.encode_frame(
            _ANOTHER
        )
        for cut in range(1, len(stream)):
            frames = protocol.FrameReader(Script(stream[:cut], stream[cut:]))
            assert frames.read() == _MESSAGE, cut
            assert frames.read() == _ANOTHER, cut
            assert frames.read() is None, cut

    def test_a_frame_one_byte_per_recv(self):
        stream = protocol.encode_frame(_MESSAGE)
        frames = protocol.FrameReader(Script(*(bytes([b]) for b in stream)))
        assert frames.read() == _MESSAGE
        assert frames.read() is None

    def test_a_snapshot_sized_frame_over_a_socket(self):
        snapshot = {
            "ok": True, "epoch": 0,
            "snapshot": {"format": 1, "namespaces": {"replay": [
                [f"{i:032x}", [1700000000.0 + i, "10.0.0.1", "t"]]
                for i in range(90_000)
            ]}},
        }
        frame = protocol.encode_frame(snapshot)
        assert len(frame) > 5 * 1024 * 1024
        left, right = socket.socketpair()
        writer = threading.Thread(target=left.sendall, args=(frame * 2,))
        try:
            writer.start()
            frames = protocol.FrameReader(right)
            assert frames.read() == snapshot
            assert frames.read() == snapshot
        finally:
            right.close()  # a failed read must not leave the writer blocked
            writer.join(timeout=30)
            left.close()
        assert not writer.is_alive()

    def test_a_clean_close_at_a_boundary_reads_none(self):
        assert _read() is None
        frames = protocol.FrameReader(Script(protocol.encode_frame(_MESSAGE)))
        assert frames.read() == _MESSAGE
        assert frames.read() is None

    def test_a_close_mid_prefix_is_a_connection_error(self):
        frame = protocol.encode_frame(_MESSAGE)
        for cut in (1, 2, 3):
            with pytest.raises(ConnectionError, match="prefix"):
                _read(frame[:cut])

    def test_a_close_mid_payload_is_a_connection_error(self):
        frame = protocol.encode_frame(_MESSAGE)
        for cut in (4, 5, len(frame) - 1):
            with pytest.raises(ConnectionError, match="mid-frame"):
                _read(frame[:cut])
            with pytest.raises(ConnectionError, match="mid-frame"):
                _read(frame[:4], frame[4:cut])

    def test_an_oversize_prefix_is_refused_before_the_body_is_read(self):
        prefix = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        script = Script(prefix, b"x" * 64)
        with pytest.raises(protocol.FrameTooLarge):
            protocol.FrameReader(script).read()
        assert script.calls == 1
        assert script.chunks == [b"x" * 64]

    def test_an_announced_frame_costs_only_the_bytes_that_arrive(self):
        # A peer may announce the cap and send nothing more; what the
        # reader holds must follow the bytes, not the prefix.
        import tracemalloc

        prefix = protocol.MAX_FRAME_BYTES.to_bytes(4, "big")
        script = Script(prefix + b'{"k":', b"1" * 4096)
        tracemalloc.start()
        try:
            with pytest.raises(ConnectionError, match="mid-frame"):
                protocol.FrameReader(script).read()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024, peak

    def test_a_frame_at_the_cap_is_read(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        assert _read(_frame(b'{"k":"' + b"x" * 8 + b'"}')) == {"k": "x" * 8}
        with pytest.raises(protocol.FrameTooLarge):
            _read(_frame(b'{"k":"' + b"x" * 9 + b'"}'))

    def test_a_reply_cut_mid_frame_is_retried_on_a_fresh_connection(self):
        # The first connection gets a reply that announces more bytes
        # than it sends, then closes.  Were its bytes kept past the
        # reconnect, the fresh reply would complete the cut one.
        listener = socket.create_server(("127.0.0.1", 0))
        cut = protocol.encode_frame({"ok": True, "epoch": 0, "value": 1})
        whole = protocol.encode_frame({"ok": True, "epoch": 0, "value": 2})
        requests = []

        def serve() -> None:
            for reply in (cut[:-3], whole):
                conn, _ = listener.accept()
                with conn:
                    requests.append(protocol.FrameReader(conn).read())
                    conn.sendall(reply)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        host, port = listener.getsockname()
        store = RemoteStateStore(f"{host}:{port}", retry_base=0.001)
        try:
            response, attempts = store._request("len")
        finally:
            store.close()
            server.join(timeout=10)
            listener.close()
        assert not server.is_alive()
        assert (response["value"], attempts) == (2, 2)
        assert requests == [{"op": "len"}] * 2


# ----------------------------------------------------------------------
# The syscall budget of a live connection
# ----------------------------------------------------------------------
class TestRecvBudget:
    """``recv`` calls per frame on each end of a real connection.

    A redeem-shaped ``multi`` frame and its reply each arrive in one
    segment, so each end reads each frame with one ``recv`` (two, the
    length prefix and then the body, before the per-connection buffer).
    """

    FRAMES = 200

    def test_a_redeem_frame_is_one_recv_on_each_end(self, monkeypatch):
        with StateServer() as server:
            host, _, port = server.address.rpartition(":")
            served = (host, int(port))
            store = RemoteStateStore(server.address)
            try:
                client = store._connected().sock
                calls = {"client": 0, "server": 0}

                def counting(method):
                    def recv(sock, *args, **kwargs):
                        if sock is client:
                            calls["client"] += 1
                        elif sock.getsockname() == served:
                            calls["server"] += 1
                        return method(sock, *args, **kwargs)
                    return recv

                for name in ("recv", "recv_into"):
                    monkeypatch.setattr(
                        socket.socket, name,
                        counting(getattr(socket.socket, name)),
                    )
                for i in range(self.FRAMES):
                    seed = f"{i:032x}"
                    store.execute([
                        ("replay", "len"), ("replay", "first"),
                        ("replay", "setdefault", seed,
                         [1700000000.0 + i, "10.0.0.9", f"t-{i:x}"]),
                        ("feedback", "get", "10.0.0.9"),
                        ("feedback", "len"),
                    ])
                monkeypatch.undo()
                assert store._connected().sock is client  # no reconnect
            finally:
                store.close()
        assert calls["client"] <= self.FRAMES, calls
        # The server's ``recv`` in flight when counting starts, and the
        # one waiting for a next frame when it stops, may each count.
        assert calls["server"] <= self.FRAMES + 1, calls
        assert calls["client"] >= self.FRAMES, calls
