"""Tests for the networked admission state store.

Covers the wire protocol, the server's op surface, the client's retry
and idempotency envelope (via the server's fault hook), snapshot-backed
restarts, multi-node placement, and live resharding handoffs.
"""

from __future__ import annotations

import contextlib
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state import (
    InMemoryStateStore,
    MultiNodeStateStore,
    RemoteStateStore,
    ShardedStateStore,
    StateServer,
)
from repro.obs.registry import MetricsRegistry
from repro.state import protocol
from repro.state.net import _DropConnection


@pytest.fixture()
def server():
    with StateServer() as srv:
        yield srv


@pytest.fixture()
def client(server):
    store = RemoteStateStore(
        server.address, retries=2, retry_base=0.01, retry_cap=0.05
    )
    yield store
    store.close()


@pytest.fixture()
def wire(server):
    """A raw socket to the server, for frames no client would send."""
    sock = protocol.connect(server.address, timeout=5.0)
    yield sock
    sock.close()


def _ask(sock, message):
    protocol.write_frame(sock, message)
    return protocol.read_frame(sock)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        left, right = socket.socketpair()
        try:
            message = {
                "op": "multi",
                "ops": [["feedback", "put", "10.0.0.9", [1.5, 2.0]]],
            }
            protocol.write_frame(left, message)
            assert protocol.read_frame(right) == message
        finally:
            left.close()
            right.close()

    def test_clean_close_between_frames_reads_none(self):
        left, right = socket.socketpair()
        try:
            protocol.write_frame(left, {"op": "ping"})
            left.close()
            assert protocol.read_frame(right) == {"op": "ping"}
            assert protocol.read_frame(right) is None
        finally:
            right.close()

    def test_mid_frame_close_is_a_connection_error(self):
        left, right = socket.socketpair()
        try:
            frame = protocol.encode_frame({"op": "ping"})
            left.sendall(frame[: len(frame) - 2])  # truncate the body
            left.close()
            with pytest.raises(ConnectionError):
                protocol.read_frame(right)
        finally:
            right.close()

    def test_oversized_frame_rejected_without_reading_it(self):
        left, right = socket.socketpair()
        try:
            length = protocol.MAX_FRAME_BYTES + 1
            left.sendall(length.to_bytes(4, "big"))
            with pytest.raises(protocol.FrameTooLarge):
                protocol.read_frame(right)
        finally:
            left.close()
            right.close()

    def test_parse_address_variants(self):
        family, sockaddr = protocol.parse_address("127.0.0.1:8377")
        assert family == socket.AF_INET
        assert sockaddr == ("127.0.0.1", 8377)
        family, sockaddr = protocol.parse_address("unix:/tmp/state.sock")
        assert family == socket.AF_UNIX
        assert sockaddr == "/tmp/state.sock"
        for bad in ("nope", "host:", ":123", "host:notaport"):
            with pytest.raises(ValueError):
                protocol.parse_address(bad)

    def test_op_classification_is_total_and_disjoint(self):
        overlap = protocol.IDEMPOTENT_OPS & protocol.NON_IDEMPOTENT_OPS
        assert not overlap
        # Every server op handler is classified one way or the other.
        ops = {
            name[len("_op_"):]
            for name in dir(StateServer)
            if name.startswith("_op_")
        }
        classified = protocol.IDEMPOTENT_OPS | protocol.NON_IDEMPOTENT_OPS
        assert ops <= classified
        # ... and nothing else is: keyed ops are not frame ops.
        assert classified <= ops


def _seeded_snapshot() -> dict:
    store = InMemoryStateStore()
    store.put("t", "a", 1)
    store.put("t", "b", [2, 3])
    store.put("u", "c", "x")
    return store.snapshot()


_SEEDED = _seeded_snapshot()
_WIRE_KEYS = st.sampled_from(["a", "b", "c"])
_GOOD_OPS = st.tuples(
    st.sampled_from(["t", "u", "fresh"]),
    st.one_of(
        st.tuples(
            st.sampled_from(["get", "contains", "delete", "move_to_end"]),
            _WIRE_KEYS,
        ),
        st.tuples(
            st.sampled_from(["put", "setdefault", "pop_default", "get"]),
            _WIRE_KEYS,
            st.integers(-3, 3),
        ),
        st.tuples(st.sampled_from(["len", "first"])),
    ),
).map(lambda parts: [parts[0], *parts[1]])
_BAD_OPS = st.one_of(
    # not an array
    st.sampled_from(
        ["not-an-op", 7, None, {"op": "get", "ns": "t", "key": "a"}]
    ),
    st.sampled_from([[], ["t"]]),  # too short
    # no usable namespace
    st.sampled_from([None, 7, "", ["t"]]).map(lambda ns: [ns, "get", "a"]),
    # not a keyed op: unknown, a frame op, or not even a name
    st.sampled_from(
        ["frobnicate", "pop", "popitem", "mutate", "snapshot", None, 3,
         ["get"]]
    ).map(lambda op: ["t", op, "a"]),
    # a nested multi
    st.sampled_from(
        [["t", "multi", [["t", "len"]]], {"op": "multi", "ops": []}]
    ),
    # a wrong number of arguments
    st.sampled_from([
        ["t", "get"], ["t", "get", "a", 1, 2], ["t", "put", "a"],
        ["t", "delete"], ["t", "len", "a"], ["t", "first", "a"],
        ["t", "setdefault", "a"], ["t", "pop_default", "a"],
    ]),
    # a key no table can hold
    st.sampled_from([
        ["t", "put", 5, 1], ["t", "contains", ["a"]], ["t", "get", None],
        ["t", "delete", {"k": 1}],
    ]),
)
_BAD_FRAMES = st.one_of(
    # one malformed op among good ones, anywhere in the frame
    st.tuples(
        st.lists(_GOOD_OPS, max_size=6),
        _BAD_OPS,
        st.lists(_GOOD_OPS, max_size=6),
    ).map(
        lambda parts: {"op": "multi", "ops": [*parts[0], parts[1], *parts[2]]}
    ),
    # good ops, one more than a frame may carry
    st.lists(_GOOD_OPS, min_size=1, max_size=3).map(
        lambda ops: {
            "op": "multi",
            "ops": ops * (protocol.MAX_MULTI_OPS // len(ops) + 1),
        }
    ),
    st.sampled_from(
        [{"op": "multi"}, {"op": "multi", "ops": "x"},
         {"op": "multi", "ops": {"t": "len"}}]
    ),
    # a keyed op outside multi
    st.sampled_from([
        {"op": "get", "ns": "t", "key": "a"},
        {"op": "put", "ns": "t", "key": "a", "value": 9},
        {"op": "delete", "ns": "t", "key": "a"},
        {"op": "len", "ns": "t"},
        {"op": "first", "ns": "t"},
    ]),
)


class TestMultiFrame:
    """``multi`` at the frame level, over a raw socket."""

    def test_sub_requests_apply_in_order_and_answer_in_order(self, wire):
        answer = _ask(wire, {"op": "multi", "ops": [
            ["t", "put", "a", [1, 2]],
            ["t", "len"],
            ["t", "get", "a"],
            ["t", "get", "zz", "absent"],
            ["t", "first"],
            ["t", "move_to_end", "a"],
            ["t", "delete", "a"],
            ["t", "delete", "a"],
            ["t", "move_to_end", "a"],
            ["t", "first"],
        ]})
        assert answer["ok"] is True
        assert answer["values"] == [
            None, 1, [1, 2], "absent", ["a", [1, 2]],
            True, True, False, False, None,
        ]

    def test_a_refused_frame_applies_nothing(self, wire, server):
        # ``pop`` is a frame op, not a keyed one: inside a multi it is
        # refused with the whole frame, the put before it included.
        server.store.put("t", "missing", 0)
        answer = _ask(wire, {"op": "multi", "ops": [
            ["t", "put", "a", 1],
            ["t", "pop", "missing"],
            ["t", "put", "b", 2],
        ]})
        assert (answer["ok"], answer["kind"]) == (False, "value")
        assert dict(server.store.namespace("t").items()) == {"missing": 0}

    @pytest.mark.parametrize(
        "ops",
        [
            [{"op": "multi", "ops": []}],
            "not-a-list",
            None,
            [["t", "get", "a"], "not-an-op"],
            [["t", "frobnicate"]],
            [["t", "len"]] * (protocol.MAX_MULTI_OPS + 1),
            [["t", "get"]],
            [["t", "put", "a"]],
            [["t", "pop_default", "a"]],
            [["t", "setdefault", "a"]],
            [[None, "get", "a"]],
            [["", "get", "a"]],
            [["t"]],
            [["t", "len", "a"]],
            [["t", "put", 7, "non-string key"]],
            [["t", "pop", "a"]],
            [["t", "mutate", "a", "add", 1]],
            [["t", "multi", [["t", "len"]]]],
        ],
        ids=["nested", "string", "missing", "non-object", "unknown-op",
             "over-cap", "get-without-key", "put-without-value",
             "pop-without-default", "setdefault-without-default",
             "no-namespace", "empty-namespace", "short-array",
             "len-with-a-key", "non-string-key", "pop-inside",
             "mutate-inside", "nested-array"],
    )
    def test_malformed_multi_is_an_answer_not_a_hangup(
        self, wire, server, ops
    ):
        server.store.put("t", "a", 1)
        before = server.store.snapshot()
        answer = _ask(wire, {"op": "multi", "ops": ops})
        assert (answer["ok"], answer["kind"]) == (False, "value")
        assert server.store.snapshot() == before
        # The connection still serves the next frame.
        assert _ask(wire, {"op": "ping"})["ok"] is True

    def test_a_full_frame_of_sub_requests_is_accepted(self, wire):
        ops = [["t", "len"]] * protocol.MAX_MULTI_OPS
        answer = _ask(wire, {"op": "multi", "ops": ops})
        assert answer["values"] == [0] * protocol.MAX_MULTI_OPS

    def test_keyed_ops_never_travel_outside_multi(self, wire, server):
        server.store.put("t", "a", 1)
        server.store.put("u", "b", 2)
        for frame in (
            {"op": "get", "ns": "t", "key": "a"},
            {"op": "put", "ns": "t", "key": "a", "value": 3},
            {"op": "len", "ns": "t"},  # not the whole store's 2
        ):
            answer = _ask(wire, frame)
            assert (answer["ok"], answer["kind"]) == (False, "value"), frame
        assert _ask(wire, {"op": "len"})["value"] == 2
        assert server.store.get("t", "a") == 1

    @settings(max_examples=60, deadline=None)
    @given(frame=_BAD_FRAMES)
    def test_a_malformed_frame_applies_nothing_and_keeps_the_connection(
        self, frame
    ):
        server = _shared_servers()[0]
        server.store.restore(_SEEDED)
        before = protocol.encode_frame(server.store.snapshot())
        sock = protocol.connect(server.address, timeout=5.0)
        try:
            answer = _ask(sock, frame)
            assert (answer["ok"], answer["kind"]) == (False, "value")
            after = protocol.encode_frame(server.store.snapshot())
            assert after == before
            assert _ask(sock, {"op": "ping"})["ok"] is True
        finally:
            sock.close()

    def test_pages_concatenate_to_the_table_in_order(self, wire, server):
        table = server.store.namespace("t")
        for i in range(23):
            table[f"k{i:02d}"] = i
        expected = [[key, value] for key, value in table.items()]

        def page(start, count):
            return _ask(wire, {
                "op": "iter_batch", "ns": "t", "start": start, "count": count,
            })

        for count in (1, 5, 22, 23, 100):
            pages, start = [], 0
            while True:
                answer = page(start, count)
                pages.extend(answer["items"])
                if answer["done"]:
                    break
                start += len(answer["items"])
            assert pages == expected, count
        assert page(50, 5) == {
            "ok": True, "items": [], "done": True, "epoch": 0,
        }
        assert page(0, 1000)["items"] == expected
        assert page(0, 1000)["done"] is True


# ----------------------------------------------------------------------
# Server op surface through the client
# ----------------------------------------------------------------------
class TestRemoteStoreSurface:
    def test_keyed_namespace_operations(self, client):
        table = client.namespace("feedback")
        table["1.2.3.4"] = [0.5, 10.0]
        assert "1.2.3.4" in table
        assert table["1.2.3.4"] == [0.5, 10.0]
        assert table.get("missing") is None
        assert table.get("missing", "fallback") == "fallback"
        assert len(table) == 1
        del table["1.2.3.4"]
        assert len(table) == 0
        with pytest.raises(KeyError):
            table["missing"]
        with pytest.raises(KeyError):
            del table["missing"]

    def test_pop_setdefault_and_lru_ops(self, client):
        table = client.namespace("cache")
        for key in ("a", "b", "c"):
            table[key] = [float(ord(key)), 0.0]
        assert table.pop("b") == [98.0, 0.0]
        assert table.pop("b", "default") == "default"
        with pytest.raises(KeyError):
            table.pop("b")
        assert table.setdefault("a", "ignored") == [97.0, 0.0]
        assert table.setdefault("fresh", 7.0) == 7.0
        table.move_to_end("a")
        assert list(table) == ["c", "fresh", "a"]
        key, value = table.popitem(last=False)
        assert (key, value) == ("c", [99.0, 0.0])
        with pytest.raises(KeyError):
            client.namespace("empty").popitem()

    def test_iteration_paginates_past_batch_size(self, client):
        client.batch_size = 16
        table = client.namespace("replay")
        expected = []
        for i in range(50):
            table[f"seed-{i:03d}"] = float(i)
            expected.append((f"seed-{i:03d}", float(i)))
        assert list(table.items()) == expected
        assert list(table.keys()) == [key for key, _ in expected]

    def test_store_level_surface(self, client, server):
        client.namespace("a")["k"] = 1.0
        client.namespace("b")["k"] = 2.0
        assert client.namespaces() == ("a", "b")
        assert len(client) == 2
        snapshot = client.snapshot()
        client.clear()
        assert len(client) == 0
        client.restore(snapshot)
        assert client.namespace("b")["k"] == 2.0
        # The remote snapshot is the hosted store's snapshot verbatim.
        assert snapshot == server.store.snapshot()

    def test_unknown_op_is_a_value_error_answer(self, client):
        with pytest.raises(ValueError, match="unknown state-server op"):
            client._request("bogus_op")

    def test_restore_rejects_bad_documents_loudly(self, client):
        with pytest.raises(ValueError):
            client.restore({"format": 99, "kind": "memory"})

    def test_concurrent_clients_serialize_per_op(self, server):
        # Each frame puts a fresh key and counts the table under one
        # lock hold, so the 100 counts are exactly 1..100: no two
        # frames interleaved.
        counts: list[int] = []

        def worker(index: int) -> None:
            store = RemoteStateStore(server.address)
            try:
                for j in range(25):
                    _, count = store.execute([
                        ("counters", "put", f"{index}-{j}", j),
                        ("counters", "len"),
                    ])
                    counts.append(count)
            finally:
                store.close()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(counts) == list(range(1, 101))


# ----------------------------------------------------------------------
# Topology epochs
# ----------------------------------------------------------------------
class TestTopologyEpochs:
    def test_every_response_piggybacks_the_epoch(self, client, server):
        client.ping()
        assert client.epoch == 0
        client.set_topology(
            {"epoch": 3, "nodes": [server.address], "replicas": 64}
        )
        client.ping()
        assert client.epoch == 3

    def test_epoch_change_notifies_subscribers(self, client):
        seen: list[int] = []
        client.subscribe_epoch_changes(seen.append)
        client.ping()
        client.set_topology({"epoch": 1, "nodes": [], "replicas": 64})
        client.ping()
        assert seen == [1]

    def test_stale_topology_rejected(self, client):
        client.set_topology({"epoch": 5, "nodes": [], "replicas": 64})
        with pytest.raises(ValueError, match="epoch"):
            client.set_topology({"epoch": 4, "nodes": [], "replicas": 64})


# ----------------------------------------------------------------------
# Fault injection: the client's retry / idempotency envelope
# ----------------------------------------------------------------------
class TestClientFaults:
    def test_server_down_at_connect_fails_loudly_after_retries(self):
        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        store = RemoteStateStore(
            f"127.0.0.1:{port}",
            connect_timeout=0.2,
            retries=2,
            retry_base=0.01,
            retry_cap=0.02,
        )
        with pytest.raises(ConnectionError, match="after 3 attempts"):
            store.namespace("feedback").get("ip")

    def test_idempotent_op_survives_one_dropped_connection(
        self, client, server
    ):
        server.store.put("feedback", "ip", [1.0, 2.0])
        dropped = []

        def hook(op, request):
            if op == "multi" and not dropped:
                dropped.append(op)
                raise _DropConnection()

        server._fault_hook = hook
        response, attempts = client._request(
            "multi", ops=[["feedback", "get", "ip"]]
        )
        assert response["values"] == [[1.0, 2.0]]
        assert attempts == 2
        assert dropped == ["multi"]

    def test_non_idempotent_op_refuses_to_retry(self, client, server):
        server.store.put("cache", "a", 1.0)

        def hook(op, request):
            if op == "popitem":
                raise _DropConnection()

        server._fault_hook = hook
        with pytest.raises(ConnectionError, match="not\\s+idempotent"):
            client.namespace("cache").popitem()
        # The op never reached the store a second time.
        assert server.store.get("cache", "a") == 1.0

    def test_idempotent_batch_survives_one_dropped_connection(
        self, client, server
    ):
        server.store.put("feedback", "ip", [1.0, 2.0])
        frames = []

        def hook(op, request):
            frames.append(op)
            if len(frames) == 1:
                raise _DropConnection()

        server._fault_hook = hook
        results = client.execute([
            ("feedback", "get", "ip"),
            ("feedback", "put", "other", [0.5, 3.0]),
            ("feedback", "delete", "ip"),
            ("feedback", "len"),
        ])
        assert results == [[1.0, 2.0], None, True, 1]
        assert frames == ["multi", "multi"]

    @pytest.mark.parametrize(
        "unsafe",
        [["cache", "pop", "a"], ["cache", "mutate", "n", "add", 1]],
        ids=["pop", "mutate"],
    )
    def test_batch_with_a_non_idempotent_op_refuses_to_retry(
        self, client, server, unsafe
    ):
        # A multi carries keyed ops only, so a non-idempotent op in one
        # is refused whole — by the client before sending, by the
        # server before applying — and there is nothing to retry.
        server.store.put("cache", "a", 1.0)
        frames = []

        def hook(op, request):
            frames.append(op)

        server._fault_hook = hook
        with pytest.raises(ValueError, match="unknown state op"):
            client.execute([("cache", "get", "a"), tuple(unsafe)])
        assert frames == []
        with pytest.raises(ValueError, match="unknown state op"):
            client._request("multi", ops=[["cache", "get", "a"], unsafe])
        assert frames == ["multi"]  # sent once, never again
        assert server.store.get("cache", "a") == 1.0

    def test_replay_verdict_survives_replies_lost_after_they_applied(
        self, client, server
    ):
        # The reply to every distinct frame is lost once *after* the
        # server applied it, so each frame of check_and_add is applied
        # twice.  A first-time seed must still be accepted: the claim
        # frame reads the seed and writes it, and on the re-send finds
        # its own token, not a replay.
        from repro.pow.verifier import ReplayCache

        apply = server._handle
        lost = []

        def handle(request):
            response = apply(request)
            if request not in lost:
                lost.append(request)
                raise _DropConnection()
            return response

        server._handle = handle
        cache = ReplayCache(ttl=5.0, store=client)
        assert cache.check_and_add("seed-1", 10.0, owner="10.0.0.1") is True
        assert [frame["op"] for frame in lost] == ["multi"]
        assert cache.check_and_add("seed-1", 11.0, owner="10.0.0.1") is False
        # seed-1 has aged out: the eviction frame is applied twice too.
        assert cache.check_and_add("seed-2", 100.0, owner="10.0.0.2") is True
        assert [frame["op"] for frame in lost[2:]] == ["multi"] * 2
        ((seed, entry),) = server.store.namespace("replay").dump()
        assert [seed, entry[:2]] == ["seed-2", [100.0, "10.0.0.2"]]

    def test_redeem_survives_replies_lost_after_they_applied(
        self, client, server
    ):
        # The same drill on the whole framework: redeem's one frame
        # (the flush's posted cache writes, the replay claim and the
        # feedback read) and the frame carrying its posted offset are
        # each applied twice.  Served once, rewarded once.
        import math

        from repro.core.records import ClientRequest, ResponseStatus
        from repro.core.spec import FrameworkSpec
        from repro.pow.solver import HashSolver
        from repro.reputation.features import FEATURE_NAMES

        framework = FrameworkSpec(
            policy="policy-1", feedback_half_life=math.inf
        ).build(store=client)
        ip = "198.51.100.7"
        request = ClientRequest(
            client_ip=ip, resource="/index.html", timestamp=1_000.0,
            features=dict.fromkeys(FEATURE_NAMES, 0.5),
        )
        challenge = framework.challenge_batch([request], now=1_000.0)[0]
        solution = HashSolver().solve(challenge.puzzle, ip)

        apply = server._handle
        lost = []

        def handle(request):
            response = apply(request)
            if request not in lost:
                lost.append(request)
                raise _DropConnection()
            return response

        server._handle = handle
        first = framework.redeem(challenge, solution, now=1_000.5)
        assert first.status is ResponseStatus.SERVED
        assert [frame["op"] for frame in lost] == ["multi"]
        feedback = framework.feedback
        assert feedback.offset_for(ip, now=1_000.5) == (
            -feedback.config.reward_step
        )
        assert [frame["op"] for frame in lost] == ["multi", "multi"]
        second = framework.redeem(challenge, solution, now=1_001.0)
        assert second.status is ResponseStatus.REPLAYED

    def test_a_lost_reply_to_a_redeem_carrying_posted_cache_writes(
        self, client, server
    ):
        # A flush of hits, a stale entry, a repeated address and a new
        # one posts its cache writes; they ride the next redeem's frame,
        # whose reply is lost after the server applied it, so they are
        # applied twice.  The cache (entries and order), the offsets and
        # the verdict equal a clean run's.
        import math

        from repro.core.records import ClientRequest, ResponseStatus
        from repro.core.spec import FrameworkSpec
        from repro.pow.solver import HashSolver
        from repro.reputation.features import FEATURE_NAMES

        spec = FrameworkSpec(
            policy="policy-1", cache_ttl=5.0, feedback_half_life=math.inf
        )

        def run(store):
            framework = spec.build(store=store)

            def flush(ips, at):
                return framework.challenge_batch([
                    ClientRequest(
                        client_ip=ip, resource="/r", timestamp=at,
                        features=dict.fromkeys(FEATURE_NAMES, 0.1 * len(ip)),
                    )
                    for ip in ips
                ], now=at)

            flush(["10.0.0.2"], 1_000.0)
            flush(["10.0.0.1", "10.0.0.3"], 1_003.0)
            # .1 and .3 hit, .2 is stale, .4 is new, .1 repeats.
            challenge = flush(
                ["10.0.0.1", "10.0.0.2", "10.0.0.4", "10.0.0.3", "10.0.0.1"],
                1_006.0,
            )[0]
            solution = HashSolver().solve(challenge.puzzle, "10.0.0.1")
            status = framework.redeem(challenge, solution, now=1_006.5).status
            store.flush()
            return status

        clean = InMemoryStateStore()
        assert run(clean) is ResponseStatus.SERVED

        apply = server._handle
        lost = []

        def handle(request):
            response = apply(request)
            ops = request.get("ops") or [[None]]
            if (
                not lost and ops[0][0] == "score-cache"
                and ["replay", "setdefault"] in [op[:2] for op in ops]
            ):
                lost.append(request)
                raise _DropConnection()
            return response

        server._handle = handle
        assert run(client) is ResponseStatus.SERVED
        assert len(lost) == 1
        for name in ("score-cache", "feedback"):
            assert server.store.namespace(name).dump() == (
                clean.namespace(name).dump()
            ), name

    def test_timeout_then_retry_succeeds(self, server):
        client = RemoteStateStore(
            server.address,
            request_timeout=0.15,
            retries=2,
            retry_base=0.01,
            retry_cap=0.02,
        )
        stalls = []

        def hook(op, request):
            if op == "multi" and not stalls:
                stalls.append(request["ops"][0][1])
                import time

                time.sleep(0.4)  # > request_timeout: client gives up

        server._fault_hook = hook
        server.store.put("feedback", "ip", [1.0, 2.0])
        try:
            assert "ip" in client.namespace("feedback")
        finally:
            client.close()
        assert stalls == ["contains"]

    def test_exhausted_retries_fail_loudly(self, client, server):
        def hook(op, request):
            if op == "len":
                raise _DropConnection()

        server._fault_hook = hook
        with pytest.raises(ConnectionError, match="after 3 attempts"):
            len(client)


# ----------------------------------------------------------------------
# Frame budget: what one admission step costs on the wire
# ----------------------------------------------------------------------
class TestFrameBudget:
    """Frames written per admission step over a raw ``RemoteStateStore``.

    The budget is the point of ``execute`` and ``post``: every admission
    step is one awaited frame.  A ``challenge_batch`` flush reads its
    whole set in one frame — the score cache's entries with the feedback
    offsets riding along — and posts its write set, whatever its size
    (2 before the writes were posted, 3 before the offsets rode, 81
    before the batch primitive for 16 unseen addresses, 49 for 16
    cached ones).  A ``redeem`` is one frame whatever its outcome, for
    a new address as for a tracked one: the replay claim and the
    feedback read with its partition's size, with the folded offset
    posted to ride the next frame (2 for a new address before its
    offset was posted, up to 9 before the batch primitive).  Over a
    ring store every node answers the replay table's ``len`` and
    ``first``, so a redeem with a claim is one frame per node; one
    without a claim asks only the address's node.
    """

    @pytest.fixture()
    def rig(self, server):
        import math

        from repro.core.records import ClientRequest
        from repro.core.spec import FrameworkSpec
        from repro.reputation.features import FEATURE_NAMES

        features = dict.fromkeys(FEATURE_NAMES, 0.5)
        registry = MetricsRegistry()
        store = RemoteStateStore(server.address, registry=registry)
        framework = FrameworkSpec(
            policy="policy-1", feedback_half_life=math.inf
        ).build(store=store)
        counter = registry.get("netstore_client_requests_total")

        def frames(step):
            before = counter.total()
            result = step()
            return result, counter.total() - before

        def requests(at):
            return [
                ClientRequest(
                    client_ip=f"198.51.100.{i + 1}", resource="/index.html",
                    timestamp=at, features=features,
                )
                for i in range(16)
            ]

        yield framework, frames, requests, counter
        store.close()

    def test_challenge_batch_is_one_frame(self, rig):
        framework, frames, requests, counter = rig
        unseen = requests(1_000.0)
        _, cold = frames(lambda: framework.challenge_batch(unseen, now=1_000.0))
        assert cold == 1
        cached = requests(1_001.0)
        _, warm = frames(lambda: framework.challenge_batch(cached, now=1_001.0))
        assert warm == 1
        # One increment per frame written; batches count as "multi".
        assert counter.value(op="multi") == cold + warm

    def test_scalar_challenge_is_a_batch_of_one(self, rig):
        # ``challenge`` is ``challenge_batch([r])``: the same one-frame
        # budget, cold and warm (was five cold as its own scalar path).
        framework, frames, requests, _ = rig
        unseen = requests(1_000.0)[0]
        _, cold = frames(lambda: framework.challenge(unseen, now=1_000.0))
        assert cold == 1
        cached = requests(1_001.0)[0]
        _, warm = frames(lambda: framework.challenge(cached, now=1_001.0))
        assert warm == 1

    @staticmethod
    def _outcomes(framework, challenges):
        """(name, challenge, answer, now, status) for every outcome."""
        import dataclasses

        from repro.core.errors import SolutionInvalidError
        from repro.core.framework import Challenge
        from repro.core.records import ResponseStatus
        from repro.pow.puzzle import Solution
        from repro.pow.solver import HashSolver
        from repro.pow.verifier import PuzzleVerifier

        honest, bogus, forged, late = challenges

        def solve(challenge):
            return HashSolver().solve(
                challenge.puzzle, challenge.decision.request.client_ip
            )

        # A well-formed answer whose digest misses the target.
        checker = PuzzleVerifier(framework.config.pow)  # no replay cache
        ip = bogus.decision.request.client_ip
        for nonce in range(1 << 16):
            wrong = Solution(
                puzzle_seed=bogus.puzzle.seed, nonce=nonce, attempts=1
            )
            try:
                checker.check(bogus.puzzle, wrong, ip, now=1_000.5)
            except SolutionInvalidError:
                break
        tampered = Challenge(
            forged.decision,
            dataclasses.replace(forged.puzzle, tag="00" * 16),
        )
        solution = solve(honest)
        expired_at = 1_001.0 + framework.config.pow.ttl
        return [
            ("served", honest, solution, 1_000.5, ResponseStatus.SERVED),
            ("replayed", honest, solution, 1_000.6, ResponseStatus.REPLAYED),
            ("tag mismatch", tampered, solve(tampered), 1_000.5,
             ResponseStatus.REJECTED),
            ("digest miss", bogus, wrong, 1_000.5, ResponseStatus.REJECTED),
            ("expired", late, solve(late), expired_at,
             ResponseStatus.EXPIRED),
        ]

    def _track(self, framework, challenges):
        """Give each challenge's address a feedback entry."""
        from repro.core.records import ResponseStatus

        for challenge in challenges:
            framework.deny(challenge, ResponseStatus.ABANDONED, now=1_000.0)

    def test_every_redeem_outcome_of_a_tracked_address_is_one_frame(
        self, rig
    ):
        framework, frames, requests, _ = rig
        challenges = framework.challenge_batch(
            requests(1_000.0), now=1_000.0
        )[:4]
        self._track(framework, challenges)
        for name, challenge, answer, now, expected in self._outcomes(
            framework, challenges
        ):
            response, spent = frames(
                lambda: framework.redeem(challenge, answer, now=now)
            )
            assert response.status is expected, name
            assert spent == 1, name

    def test_every_redeem_outcome_of_an_untracked_address_is_one_frame(
        self, rig
    ):
        framework, frames, requests, _ = rig
        challenges = framework.challenge_batch(
            requests(1_000.0), now=1_000.0
        )[:4]
        outcomes = self._outcomes(framework, challenges)
        del outcomes[1]  # a replay's address is tracked by its first try
        for name, challenge, answer, now, expected in outcomes:
            response, spent = frames(
                lambda: framework.redeem(challenge, answer, now=now)
            )
            assert response.status is expected, name
            assert spent == 1, name

    def test_a_ring_redeem_is_one_frame_per_node(self):
        # ``len`` and ``first`` of the replay table go to every node,
        # so the claim frame is one per node; the offset rides along.
        # Feedback counts only the address's partition, so an outcome
        # without a claim is one frame, for a new address too.
        import math

        from repro.core.records import ClientRequest
        from repro.core.spec import FrameworkSpec
        from repro.reputation.features import FEATURE_NAMES

        servers = [StateServer().start() for _ in range(2)]
        registry = MetricsRegistry()
        store = MultiNodeStateStore(
            [srv.address for srv in servers], registry=registry
        )
        try:
            framework = FrameworkSpec(
                policy="policy-1", feedback_half_life=math.inf
            ).build(store=store)
            counter = registry.get("netstore_client_requests_total")
            features = dict.fromkeys(FEATURE_NAMES, 0.5)
            challenges = framework.challenge_batch([
                ClientRequest(
                    client_ip=f"198.51.100.{i + 1}", resource="/index.html",
                    timestamp=1_000.0, features=features,
                )
                for i in range(8)
            ], now=1_000.0)
            self._track(framework, challenges[:4])
            for name, challenge, answer, now, expected in [
                *self._outcomes(framework, challenges[:4]),
                *self._outcomes(framework, challenges[4:]),
            ]:
                before = counter.total()
                response = framework.redeem(challenge, answer, now=now)
                assert response.status is expected, name
                frames = counter.total() - before
                if name in ("served", "replayed"):
                    assert frames == 2, name
                else:  # no claim: one frame, to the address's node
                    assert frames == 1, name
        finally:
            _teardown(servers, store)

    def test_admit_stream_writes_under_two_frames_per_request(self, server):
        # The benchmark's own driver and request stream: a challenge
        # flush of 16 is 1 frame and 80% of requests redeem, each in 1
        # frame, for new addresses on the first pass as for tracked ones
        # on a second pass over the same clients (1.70 and 0.92 frames
        # per request when a flush took 2 and a new address's redeem 2).
        import math

        from perfbench.inputs import FLUSH_SIZE, AdmitStream
        from perfbench.workloads.admit import drive

        from repro.core.spec import FrameworkSpec

        registry = MetricsRegistry()
        store = RemoteStateStore(server.address, registry=registry)
        frames = registry.get("netstore_client_requests_total")
        try:
            framework = FrameworkSpec(
                policy="policy-1", feedback_half_life=math.inf
            ).build(store=store)
            first = drive(framework, AdmitStream(1), flushes=50)
            first_frames = frames.total()
            second = drive(framework, AdmitStream(1), flushes=50)
        finally:
            store.close()
        for log in (first, second):
            assert log.failed == 0
            assert log.requests == 50 * FLUSH_SIZE
        assert first_frames / first.requests <= 0.9
        assert (frames.total() - first_frames) / second.requests <= 0.9


# ----------------------------------------------------------------------
# Posted ops: when a write leaves, never what is decided
# ----------------------------------------------------------------------
def _posted_framework(store):
    """Feedback over a score cache, with small caps on every table."""
    from repro.core.spec import FrameworkSpec

    framework = FrameworkSpec(
        policy="policy-1", cache_max_entries=6, max_tracked_ips=4,
        feedback_half_life=50.0,
    ).build(store=store)
    framework._replay.max_entries = 5
    return framework


def _masked(snapshot: dict) -> dict:
    """``snapshot`` with each replay entry's claim token dropped."""
    namespaces = dict(snapshot["namespaces"])
    namespaces["replay"] = [
        [seed, entry[:2]] for seed, entry in namespaces.get("replay", [])
    ]
    return {**snapshot, "namespaces": namespaces}


def _redeem_stream(frameworks, seed=11, steps=40):
    """A seeded mix of honest, replayed, bogus, forged and expired answers.

    Every framework scores the same flushes and redeems the same
    answers; returns each framework's statuses.
    """
    import dataclasses
    import random

    from repro.core.errors import SolutionInvalidError
    from repro.core.framework import AIPoWFramework, Challenge
    from repro.core.records import ClientRequest
    from repro.policies.linear import policy_1
    from repro.pow.puzzle import Solution
    from repro.pow.solver import HashSolver
    from repro.pow.verifier import PuzzleVerifier
    from repro.reputation.ensemble import ConstantModel
    from repro.reputation.features import FEATURE_NAMES

    rng = random.Random(seed)
    issuer = AIPoWFramework(ConstantModel(1.0), policy_1())
    checker = PuzzleVerifier(issuer.config.pow)
    solver = HashSolver()
    ips = [f"203.0.113.{i}" for i in range(1, 9)]
    looks = [dict.fromkeys(FEATURE_NAMES, level) for level in (0.1, 0.5, 0.9)]
    statuses = [[] for _ in frameworks]
    honest: list[tuple] = []
    now = 1_000.0
    for _ in range(steps):
        now += rng.uniform(0.0, 30.0)
        requests = [
            ClientRequest(
                client_ip=rng.choice(ips), resource="/r", timestamp=now,
                features=rng.choice(looks),
            )
            for _ in range(4)
        ]
        decisions = [
            [(c.decision.reputation_score, c.decision.difficulty)
             for c in framework.challenge_batch(requests, now=now)]
            for framework in frameworks
        ]
        assert all(d == decisions[0] for d in decisions)
        for challenge in issuer.challenge_batch(requests, now=now):
            ip = challenge.decision.request.client_ip
            kind = rng.choice(
                ["honest", "honest", "replayed", "bogus", "forged", "expired"]
            )
            if kind == "replayed" and honest:
                challenge, answer = rng.choice(honest)
            elif kind == "bogus":
                for nonce in range(1 << 16):
                    answer = Solution(puzzle_seed=challenge.puzzle.seed, nonce=nonce)
                    try:
                        checker.check(
                            challenge.puzzle, answer, ip,
                            now=challenge.decision.request.timestamp,
                        )
                    except SolutionInvalidError:
                        break
            elif kind == "forged":
                challenge = Challenge(
                    challenge.decision,
                    dataclasses.replace(challenge.puzzle, tag="00" * 16),
                )
                answer = solver.solve(challenge.puzzle, ip)
            else:
                answer = solver.solve(challenge.puzzle, ip)
                honest.append((challenge, answer))
            if kind == "expired":
                now += issuer.config.pow.ttl + 1.0
            for framework, seen in zip(frameworks, statuses):
                seen.append(framework.redeem(challenge, answer, now=now).status)
            ip = challenge.decision.request.client_ip
            offsets = [f.feedback.offset_for(ip, now=now) for f in frameworks]
            assert all(offset == offsets[0] for offset in offsets)
    return statuses


def _carries_posted(request) -> bool:
    """A ``multi`` led by a posted offset."""
    ops = request.get("ops") or [[None, None]]
    return ops[0][:2] == ["feedback", "put"]


class TestPostedOps:
    """A posted write rides the next frame; decisions never notice.

    One seeded redeem stream, with feedback on and caps pressing on the
    replay, feedback and score-cache tables, over a local store and its
    networked twin: the same statuses, the same offsets after every
    redemption, and the same final snapshot (claim tokens masked).
    """

    def test_one_remote_store_decides_as_the_local_store(self, server):
        remote = RemoteStateStore(server.address)
        try:
            pair = [
                _posted_framework(InMemoryStateStore()),
                _posted_framework(remote),
            ]
            local, wired = _redeem_stream(pair)
            assert wired == local
            assert {status.value for status in local} >= {
                "served", "replayed", "rejected", "expired"
            }
            assert _masked(remote.snapshot()) == _masked(
                pair[0].store.snapshot()
            )
        finally:
            remote.close()

    def test_a_two_node_ring_decides_as_a_local_ring(self):
        servers, ring = _cluster(2)
        try:
            pair = [
                _posted_framework(ShardedStateStore(2)),
                _posted_framework(ring),
            ]
            local, wired = _redeem_stream(pair, seed=12)
            assert wired == local
            assert _masked(ring.snapshot()) == _masked(
                pair[0].store.snapshot()
            )
        finally:
            _teardown(servers, ring)

    @pytest.mark.parametrize("applied", [False, True])
    def test_a_lost_reply_to_a_frame_with_posted_ops_changes_nothing(
        self, server, applied
    ):
        # Each frame that carries posted ops loses its reply once:
        # dropped before the server applies it, or after.  The re-sent
        # frame puts the same absolute offsets again.
        lost = []
        if applied:
            apply = server._handle

            def handle(request):
                response = apply(request)
                if _carries_posted(request) and request not in lost:
                    lost.append(request)
                    raise _DropConnection()
                return response

            server._handle = handle
        else:

            def hook(op, request):
                if _carries_posted(request) and request not in lost:
                    lost.append(request)
                    raise _DropConnection()

            server._fault_hook = hook
        remote = RemoteStateStore(
            server.address, retries=2, retry_base=0.01, retry_cap=0.05
        )
        try:
            pair = [
                _posted_framework(InMemoryStateStore()),
                _posted_framework(remote),
            ]
            local, wired = _redeem_stream(pair, seed=13, steps=25)
            assert wired == local
            assert lost
            assert _masked(remote.snapshot()) == _masked(
                pair[0].store.snapshot()
            )
        finally:
            remote.close()

    def test_threads_sharing_a_client_read_their_own_posted_writes(
        self, server
    ):
        # More threads than cores, switching often: whichever thread's
        # frame carries a posted op, it lands before the poster's read.
        import sys

        remote = RemoteStateStore(server.address)
        misses = []

        def worker(thread):
            for i in range(60):
                key = f"t{thread}-{i}"
                remote.post([("stress", "put", key, i)])
                (got,) = remote.execute([("stress", "get", key)])
                if got != i:
                    misses.append((key, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            remote.close()
        assert misses == []
        assert len(server.store.namespace("stress")) == 6 * 60

    def test_two_writers_overshoot_by_one_step_and_the_next_read_trims(
        self, server
    ):
        # Two clients share one server.  Each sizes a table from its own
        # read, so a table can exceed its cap by what the other writer
        # posted since that read; the next read sees it and trims.
        import math

        from repro.core.records import ClientRequest, ResponseStatus
        from repro.core.spec import FrameworkSpec
        from repro.reputation.features import FEATURE_NAMES

        spec = FrameworkSpec(
            policy="policy-1", cache_max_entries=4, max_tracked_ips=3,
            feedback_half_life=math.inf,
        )
        stores = [RemoteStateStore(server.address) for _ in range(2)]
        left, right = (spec.build(store=store) for store in stores)
        features = dict.fromkeys(FEATURE_NAMES, 0.5)

        def flush(framework, ips):
            return framework.challenge_batch([
                ClientRequest(
                    client_ip=ip, resource="/r", timestamp=1_000.0,
                    features=features,
                )
                for ip in ips
            ], now=1_000.0)

        def sizes():
            for store in stores:
                store.flush()
            return [
                len(server.store.namespace(name))
                for name in ("score-cache", "feedback")
            ]

        def settle(framework, challenge):
            framework.deny(challenge, ResponseStatus.ABANDONED, now=1_001.0)

        try:
            ours = flush(left, ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
            theirs = flush(right, ["10.0.1.1", "10.0.1.2", "10.0.1.3"])
            # Both read an empty cache: over the cap by one flush's adds.
            assert sizes() == [6, 0]
            flush(left, ["10.0.0.1"])  # a hit; the read sees 6
            assert sizes() == [4, 0]
            settle(left, ours[0])
            settle(left, ours[1])
            settle(left, ours[2])  # reads 2, posts the third
            settle(right, theirs[0])  # reads 2 as well
            assert sizes() == [4, 4]
            settle(right, theirs[1])  # reads 4, adds 1, trims 2
            assert sizes() == [4, 3]
        finally:
            for store in stores:
                store.close()

    def test_two_writers_evicting_the_same_victim_both_finish(self, server):
        # Both writers rank the same oldest page, so both may pick the
        # same victim; the second removal finds it gone and moves on.
        from repro.core.records import ResponseStatus
        from repro.reputation.ensemble import ConstantModel
        from repro.reputation.feedback import FeedbackReputationModel
        from tests.reputation.test_feedback import response_with

        stores = [RemoteStateStore(server.address) for _ in range(2)]
        first, second = (
            FeedbackReputationModel(
                ConstantModel(5.0), max_tracked_ips=3, store=store
            )
            for store in stores
        )
        try:
            for i in range(3):
                first.observe(response_with(
                    ResponseStatus.ABANDONED, ip=f"110.0.0.{i + 1}"
                ))
            stores[0].flush()

            def hook(op, request):
                ops = request.get("ops") or [[None, None]]
                if ops[0][:2] in (["feedback", "delete"],
                                  ["feedback", "pop_default"]):
                    server._fault_hook = None
                    first.observe(response_with(
                        ResponseStatus.ABANDONED, ip="110.0.1.1"
                    ))

            server._fault_hook = hook
            second.observe(response_with(
                ResponseStatus.ABANDONED, ip="110.0.2.1"
            ))
            for store in stores:
                store.flush()
            assert len(server.store.namespace("feedback")) == 3
        finally:
            for store in stores:
                store.close()

    def test_exhausted_retries_name_the_posted_ops_dropped(self, server):
        from repro.core.records import ResponseStatus

        remote = RemoteStateStore(
            server.address, retries=1, retry_base=0.01, retry_cap=0.02
        )
        framework = _posted_framework(remote)
        stream = _redeem_stream([framework], seed=14, steps=3)[0]
        assert ResponseStatus.SERVED in stream

        def hook(op, request):
            if op == "multi":
                raise _DropConnection()

        feedback = framework.feedback
        (ip, state), *_ = feedback._states.items()
        feedback.record([state, 1], ResponseStatus.SERVED, ip, now=2_000.0)
        feedback.record([state, 1], ResponseStatus.REJECTED, ip, now=2_000.0)
        server._fault_hook = hook
        with pytest.raises(ConnectionError, match="dropped 2 posted op"):
            remote.flush()
        server._fault_hook = None
        remote.flush()  # nothing is held after the failure
        remote.close()


class TestInstrumentation:
    def test_round_trips_and_batch_sizes_are_observed(self):
        registry = MetricsRegistry()
        with StateServer(registry=registry) as server:
            store = RemoteStateStore(server.address, registry=registry)
            try:
                store.execute(
                    [("t", "put", "a", 1), ("t", "get", "a"), ("t", "len")]
                )
                assert store.namespace("t").get("a") == 1
            finally:
                store.close()
        seconds = registry.get("netstore_client_request_seconds")
        # The single get is a multi frame of one: no keyed op is a frame.
        assert seconds.labels(op="multi").count == 2
        assert seconds.labels(op="get").count == 0
        batch = registry.get("netstore_server_batch_ops")
        assert (batch.labels().count, batch.labels().sum) == (2, 4)

    def test_junk_op_names_share_one_series(self):
        # Labels come from the server's op table, not from the peer.
        registry = MetricsRegistry()
        with StateServer(registry=registry) as server:
            known = len(server._handlers)
            sock = protocol.connect(server.address, timeout=5.0)
            try:
                for index in range(500):
                    answer = _ask(sock, {"op": f"junk-{index}"})
                    assert answer["kind"] == "value"
                assert _ask(sock, {"op": "ping"})["ok"] is True
            finally:
                sock.close()
        series = registry.get("netstore_server_requests_total").as_dict()
        assert len(series) <= known + 1
        assert series == {"unknown": 500, "ping": 1}

    def test_series_resolved_once_render_as_labelled_updates_did(
        self, monkeypatch
    ):
        # Server and client resolve each op's series once.  The registry
        # must still read, byte for byte, what per-frame labelled updates
        # (``inc(op=...)``, ``observe(v, op=...)``) made of the same
        # frames, a series appearing only with its first update.
        import itertools
        import time

        from repro.state.net import _instruments

        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) / 4)
        registry, expected = MetricsRegistry(), MetricsRegistry()
        want = _instruments(expected)
        with StateServer(registry=registry) as server:
            store = RemoteStateStore(server.address, registry=registry)
            try:
                assert registry.render() == expected.render()
                store.execute([("t", "put", "a", 1), ("t", "len")])
                store.ping()
                store.execute([("t", "get", "a")])
                sock = protocol.connect(server.address, timeout=5.0)
                try:
                    assert _ask(sock, {"op": "junk"})["kind"] == "value"
                finally:
                    sock.close()
            finally:
                store.close()
        for op, ops in (("multi", 2), ("ping", 0), ("multi", 1)):
            want["netstore_client_requests_total"].inc(op=op)
            want["netstore_server_requests_total"].inc(op=op)
            if ops:
                want["netstore_server_batch_ops"].observe(ops)
            want["netstore_client_request_seconds"].observe(0.25, op=op)
        want["netstore_server_requests_total"].inc(op="unknown")
        assert registry.render() == expected.render()
        assert registry.snapshot() == expected.snapshot()

    def test_without_a_registry_nothing_is_recorded(self, server, client):
        assert server._metrics is None and client._metrics is None
        assert client.execute([("t", "len"), ("t", "first")]) == [0, None]


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class TestServerLifecycle:
    def test_finished_connections_are_forgotten(self, server):
        # A long-lived server behind reconnecting workers must not keep
        # one thread object per connection it ever accepted.
        for _ in range(300):
            sock = protocol.connect(server.address, timeout=5.0)
            protocol.write_frame(sock, {"op": "ping"})
            assert protocol.read_frame(sock)["ok"] is True
            sock.close()
        # Pruning happens on accept, so the list holds the threads that
        # were still winding down at the last one — never hundreds.
        assert len(server._conn_threads) < 30


# ----------------------------------------------------------------------
# Restart persistence
# ----------------------------------------------------------------------
class TestSnapshotRestart:
    def test_state_survives_a_server_restart(self, tmp_path):
        path = tmp_path / "state.json"
        with StateServer(snapshot_path=path) as first:
            store = RemoteStateStore(first.address)
            store.namespace("feedback")["1.1.1.1"] = [2.5, 9.0]
            store.close()
        assert path.exists()
        with StateServer(snapshot_path=path) as second:
            store = RemoteStateStore(second.address)
            try:
                assert store.namespace("feedback")["1.1.1.1"] == [2.5, 9.0]
            finally:
                store.close()


# ----------------------------------------------------------------------
# Property test: remote and sharded backends mirror the in-memory one
# ----------------------------------------------------------------------
_KEYS = st.sampled_from(["a", "b", "c", "d", "e"])
_VALUES = st.one_of(
    st.integers(-5, 5),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.lists(st.integers(0, 3), max_size=2),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, _VALUES),
        st.tuples(st.just("get"), _KEYS),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("pop_default"), _KEYS),
        st.tuples(st.just("setdefault"), _KEYS, _VALUES),
        st.tuples(st.just("contains"), _KEYS),
        st.tuples(st.just("move_to_end"), _KEYS),
        st.tuples(st.just("len"),),
    ),
    max_size=30,
)


_MORE_KEYS = st.sampled_from(list("abcdefgh"))  # spread over three nodes
_EXECUTE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _MORE_KEYS, _VALUES),
        st.tuples(st.just("get"), _MORE_KEYS),
        st.tuples(st.just("get"), _MORE_KEYS, st.just("absent")),
        st.tuples(st.just("delete"), _MORE_KEYS),
        st.tuples(st.just("pop_default"), _MORE_KEYS, st.just("absent")),
        st.tuples(st.just("setdefault"), _MORE_KEYS, _VALUES),
        st.tuples(st.just("contains"), _MORE_KEYS),
        st.tuples(st.just("move_to_end"), _MORE_KEYS),
        st.tuples(st.just("len"),),
        st.tuples(st.just("first"),),
    ),
    max_size=30,
)

_GONE = object()


def _reference(table, op):
    """One ``execute`` op as the classic namespace call it stands for."""
    kind, args = op[0], op[1:]
    if kind == "put":
        table[args[0]] = args[1]
        return None
    if kind == "get":
        return table.get(*args)
    if kind == "delete":
        return table.pop(args[0], _GONE) is not _GONE
    if kind == "pop_default":
        return table.pop(*args)
    if kind == "setdefault":
        return table.setdefault(*args)
    if kind == "contains":
        return args[0] in table
    if kind == "move_to_end":
        if args[0] not in table:
            return False
        table.move_to_end(args[0])
        return True
    if kind == "len":
        return len(table)
    if kind == "first":
        return next(([key, value] for key, value in table.items()), None)
    raise AssertionError(f"unhandled op {kind}")


def _apply(table, op):
    """Run one op; return an observable (value or raised-KeyError mark)."""
    kind, args = op[0], op[1:]
    try:
        if kind == "put":
            table[args[0]] = args[1]
            return None
        if kind == "get":
            return table.get(args[0], "absent")
        if kind == "delete":
            del table[args[0]]
            return "deleted"
        if kind == "pop_default":
            return table.pop(args[0], "absent")
        if kind == "setdefault":
            return table.setdefault(args[0], args[1])
        if kind == "contains":
            return args[0] in table
        if kind == "move_to_end":
            table.move_to_end(args[0])
            return None
        if kind == "len":
            return len(table)
        raise AssertionError(f"unhandled op {kind}")
    except KeyError:
        return "KeyError"


class TestBackendEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS)
    def test_op_sequences_agree_across_backends(self, ops):
        # One server for the whole test run, cleared per example: the
        # remote store must behave like a dict over the wire.
        server = _shared_servers()[0]
        server.store.clear()
        remote = RemoteStateStore(server.address)
        backends = {
            "memory": InMemoryStateStore(),
            "sharded": ShardedStateStore(3),
            "remote": remote,
        }
        try:
            tables = {
                name: store.namespace("ns")
                for name, store in backends.items()
            }
            for op in ops:
                results = {
                    name: _apply(table, op)
                    for name, table in tables.items()
                }
                assert (
                    results["sharded"] == results["memory"]
                ), (op, results)
                assert (
                    results["remote"] == results["memory"]
                ), (op, results)
            # Terminal state agrees key-for-key (iteration order is an
            # aggregate property the sharded store does not promise).
            final = {
                name: dict(table.items())
                for name, table in tables.items()
            }
            assert final["sharded"] == final["memory"]
            assert final["remote"] == final["memory"]
        finally:
            remote.close()

    @settings(max_examples=40, deadline=None)
    @given(ops=_EXECUTE_OPS)
    def test_execute_matches_one_call_at_a_time(self, ops):
        """One ``execute`` == the same ops as separate namespace calls.

        Same results and the same final table on every backend.
        """
        reference = InMemoryStateStore().namespace("ns")
        expected, firsts = [], {}
        for index, op in enumerate(ops):
            if op[0] == "first":
                firsts[index] = [[k, v] for k, v in reference.items()]
            expected.append(_reference(reference, op))
        batch = [("ns", *op) for op in ops]
        with _execute_backends() as backends:
            for name, store in backends.items():
                results = store.execute(batch)
                if name in ("sharded", "multinode"):
                    # "Oldest" spans partitions in partition order,
                    # not insertion order: any live entry is right.
                    for index, entries in firsts.items():
                        got = results[index]
                        assert (got in entries) if entries else (
                            got is None
                        ), (name, index, got)
                        results[index] = expected[index]
                assert results == expected, name
                final = dict(store.namespace("ns").items())
                assert final == dict(reference.items()), name
            # The two partitioned backends share one ring, so they agree
            # with each other exactly, ``first`` included.
            for store in (backends["sharded"], backends["multinode"]):
                store.namespace("ns").clear()
            assert backends["sharded"].execute(batch) == (
                backends["multinode"].execute(batch)
            )

    def test_no_keyed_op_fails_so_a_batch_is_one_frame_per_node(self):
        # A touch of a key that is gone answers False (another worker
        # may have evicted it since the read set) and the batch runs on.
        batch = [
            ("ns", "put", "a", 1), ("ns", "put", "b", 2), ("ns", "put", "c", 3),
            ("ns", "put", "d", 4), ("ns", "move_to_end", "a"),
            ("ns", "move_to_end", "missing"),
            ("ns", "put", "e", 5), ("ns", "put", "a", 6), ("ns", "delete", "b"),
            ("ns", "len"),
        ]
        # Tuples in process, the same ops as arrays off the wire.
        for form in (tuple, list):
            with _execute_backends() as backends:
                for name, store in backends.items():
                    assert store.execute([form(op) for op in batch]) == [
                        None, None, None, None, True, False, None, None,
                        True, 4,
                    ], (name, form)
                    assert dict(store.namespace("ns").items()) == {
                        "a": 6, "c": 3, "d": 4, "e": 5,
                    }, (name, form)
        registry = MetricsRegistry()
        store = MultiNodeStateStore(
            [srv.address for srv in _shared_servers()[1:]], registry=registry
        )
        try:
            store.execute(batch)
            frames = registry.get("netstore_client_requests_total")
            assert frames.total() == 3
        finally:
            store.close()

    def test_a_malformed_op_is_refused_before_any_frame_is_sent(self):
        batch = [("ns", "put", "a", 1), ("ns", "get"), ("ns", "put", "b", 2)]
        with _execute_backends() as backends:
            for name in ("remote", "multinode"):
                with pytest.raises(ValueError, match="takes 1..2"):
                    backends[name].execute(batch)
                assert len(backends[name].namespace("ns")) == 0, name

    def test_unknown_op_is_a_value_error_everywhere(self):
        with _execute_backends() as backends:
            for name, store in backends.items():
                with pytest.raises(ValueError, match="unknown state op"):
                    store.execute([("ns", "frobnicate", "a")])

    def test_over_long_batches_go_out_as_several_frames(self, server):
        registry = MetricsRegistry()
        store = RemoteStateStore(server.address, registry=registry)
        try:
            count = protocol.MAX_MULTI_OPS + 5
            results = store.execute(
                [("ns", "put", f"k{i}", i) for i in range(count)]
                + [("ns", "len")]
            )
            assert results[-1] == count
            frames = registry.get("netstore_client_requests_total")
            assert frames.total() == 2
        finally:
            store.close()


@contextlib.contextmanager
def _execute_backends():
    """The four backends ``execute`` must agree on, each empty."""
    servers = _shared_servers()
    for server in servers:
        server.store.clear()
    remote = RemoteStateStore(servers[0].address)
    multinode = MultiNodeStateStore([srv.address for srv in servers[1:]])
    try:
        yield {
            "memory": InMemoryStateStore(),
            "sharded": ShardedStateStore(3),
            "remote": remote,
            "multinode": multinode,
        }
    finally:
        remote.close()
        multinode.close()


_SHARED_SERVERS: list[StateServer] = []


def _shared_servers() -> list[StateServer]:
    """One plain server plus a three-node ring, shared by all examples."""
    if not _SHARED_SERVERS:
        _SHARED_SERVERS.extend(StateServer().start() for _ in range(4))
    return _SHARED_SERVERS


@pytest.fixture(scope="session", autouse=True)
def _stop_shared_servers():
    yield
    while _SHARED_SERVERS:
        _SHARED_SERVERS.pop().stop()


# ----------------------------------------------------------------------
# Multi-node placement + live resharding
# ----------------------------------------------------------------------
def _cluster(n):
    servers = [StateServer().start() for _ in range(n)]
    store = MultiNodeStateStore([srv.address for srv in servers])
    return servers, store


def _teardown(servers, store):
    store.close()
    for server in servers:
        server.stop()


class TestMultiNodeStore:
    def test_placement_matches_the_sharded_store(self):
        servers, store = _cluster(3)
        try:
            sharded = ShardedStateStore(3)
            table = store.namespace("feedback")
            twin = sharded.namespace("feedback")
            keys = [f"10.0.0.{i}" for i in range(40)]
            for i, key in enumerate(keys):
                table[key] = float(i)
                twin[key] = float(i)
            for index, server in enumerate(servers):
                local = dict(
                    server.store.namespace("feedback").items()
                )
                expected = dict(
                    sharded.stores[index].namespace("feedback").items()
                )
                assert local == expected
            assert len(table) == len(keys)
            assert dict(table.items()) == dict(twin.items())
        finally:
            _teardown(servers, store)

    def test_grow_moves_only_the_ring_delta(self):
        servers, store = _cluster(2)
        extra = StateServer().start()
        try:
            table = store.namespace("feedback")
            keys = [f"10.1.0.{i}" for i in range(60)]
            for i, key in enumerate(keys):
                table[key] = [float(i), 0.0]
            before = {
                key: store.ring.shard_for(key) for key in keys
            }

            report = store.apply_topology(
                list(store.addresses) + [extra.address]
            )

            after = {key: store.ring.shard_for(key) for key in keys}
            moved = [key for key in keys if before[key] != after[key]]
            # Only keys whose ring owner changed may move, and every
            # moved key landed on the new node (appended at ring end).
            assert report.moved_entries == len(moved)
            assert all(after[key] == 2 for key in moved)
            assert report.epoch == 1
            assert len(report.nodes) == 3
            # Zero lost, zero misrouted: every key is on its ring owner.
            for i, key in enumerate(keys):
                owner_index = after[key]
                stores = [srv.store for srv in servers] + [extra.store]
                assert stores[owner_index].get("feedback", key) == [
                    float(i), 0.0,
                ], key
                for other_index, other in enumerate(stores):
                    if other_index != owner_index:
                        assert other.get("feedback", key) is None, key
                assert table[key] == [float(i), 0.0]
            # Every node (old and new) got the epoch push.
            for srv in servers + [extra]:
                assert srv._topology["epoch"] == 1
        finally:
            extra.stop()
            _teardown(servers, store)

    def test_shrink_drains_the_removed_node(self):
        servers, store = _cluster(3)
        try:
            table = store.namespace("feedback")
            keys = [f"10.2.0.{i}" for i in range(45)]
            for i, key in enumerate(keys):
                table[key] = float(i)

            removed = servers[-1]
            report = store.apply_topology(list(store.addresses)[:-1])

            assert report.epoch == 1
            assert len(store.stores) == 2
            assert len(removed.store) == 0
            for i, key in enumerate(keys):
                assert table[key] == float(i)
            assert len(table) == len(keys)
        finally:
            _teardown(servers, store)

    def test_reshard_and_restore_keep_spent_puzzles_spent(self):
        # Ring reads find a replay entry by its seed, so a live reshard
        # and a restore must place it by the seed too — not by the owner
        # IP recorded in its value — or the puzzle is redeemable again.
        from repro.pow.verifier import ReplayCache

        seeds = [f"{i:032x}" for i in range(200)]
        servers, store = _cluster(3)
        fresh_servers, fresh = _cluster(3)
        extra = StateServer().start()
        try:
            cache = ReplayCache(store=store)
            for i, seed in enumerate(seeds):
                assert cache.check_and_add(seed, 1_000.0, owner=f"10.4.0.{i}")
            snapshot = store.snapshot()

            store.apply_topology(list(store.addresses) + [extra.address])
            reopened = [
                seed for seed in seeds if cache.check_and_add(seed, 1_001.0)
            ]
            assert len(reopened) == 0, f"{len(reopened)} of 200 reopened"

            fresh.restore(snapshot)
            restored = ReplayCache(store=fresh)
            reopened = [
                seed for seed in seeds
                if restored.check_and_add(seed, 1_001.0)
            ]
            assert len(reopened) == 0, f"{len(reopened)} of 200 reopened"
        finally:
            extra.stop()
            _teardown(fresh_servers, fresh)
            _teardown(servers, store)

    def test_decommission_mid_campaign_preserves_feedback(self):
        # The kill-a-node drill: a feedback model keeps observing while
        # a node leaves the ring; offsets must match an in-memory run.
        from repro.core.records import (
            ClientRequest,
            IssuerDecision,
            ResponseStatus,
            ServedResponse,
        )
        from repro.reputation.ensemble import ConstantModel
        from repro.reputation.feedback import FeedbackReputationModel

        def exchange(model, ip, when, status):
            request = ClientRequest(
                client_ip=ip, resource="/r", timestamp=when, features={}
            )
            decision = IssuerDecision(
                request=request,
                reputation_score=5.0,
                difficulty=4,
                policy_name="p",
                model_name="m",
            )
            model.observe(
                ServedResponse(
                    decision=decision, status=status, latency=0.001
                ),
                now=when,
            )

        servers, store = _cluster(3)
        try:
            live = FeedbackReputationModel(
                ConstantModel(5.0), store=store
            )
            control = FeedbackReputationModel(ConstantModel(5.0))
            ips = [f"10.3.0.{i}" for i in range(12)]
            statuses = [
                ResponseStatus.SERVED, ResponseStatus.REJECTED,
                ResponseStatus.SERVED, ResponseStatus.REPLAYED,
            ]
            clock = 1_000.0
            for round_index in range(2):
                for i, ip in enumerate(ips):
                    status = statuses[(i + round_index) % len(statuses)]
                    exchange(live, ip, clock, status)
                    exchange(control, ip, clock, status)
                    clock += 1.0

            store.apply_topology(list(store.addresses)[:-1])

            for round_index in range(2):
                for i, ip in enumerate(ips):
                    status = statuses[(i + round_index + 1) % len(statuses)]
                    exchange(live, ip, clock, status)
                    exchange(control, ip, clock, status)
                    clock += 1.0

            for ip in ips:
                assert live.offset_for(ip, now=clock) == pytest.approx(
                    control.offset_for(ip, now=clock)
                )
            assert live.tracked_ips == control.tracked_ips
        finally:
            _teardown(servers, store)

    def test_apply_topology_rejects_nonsense(self):
        servers, store = _cluster(2)
        try:
            with pytest.raises(ValueError):
                store.apply_topology([])
            with pytest.raises(ValueError):
                store.apply_topology(
                    [store.addresses[0], store.addresses[0]]
                )
        finally:
            _teardown(servers, store)
