"""Unit tests for the admission state store and its snapshots."""

from __future__ import annotations

import json

import pytest

from repro.state import (
    AdmissionStateStore,
    InMemoryStateStore,
    load_snapshot,
    merge_snapshots,
    save_snapshot,
    split_snapshot,
)


class TestStateNamespace:
    def test_basic_mapping_surface(self):
        table = InMemoryStateStore().namespace("feedback")
        table["1.2.3.4"] = [0.5, 10.0]
        assert "1.2.3.4" in table
        assert table.get("1.2.3.4") == [0.5, 10.0]
        assert table.get("missing") is None
        assert len(table) == 1
        del table["1.2.3.4"]
        assert len(table) == 0

    def test_preserves_insertion_order_and_lru_ops(self):
        table = InMemoryStateStore().namespace("cache")
        for ip in ("a", "b", "c"):
            table[ip] = [0.0, 0.0]
        table.move_to_end("a")
        assert list(table) == ["b", "c", "a"]
        key, _ = table.popitem(last=False)
        assert key == "b"

    def test_namespace_object_survives_clear(self):
        store = InMemoryStateStore()
        table = store.namespace("replay")
        table["seed"] = 1.0
        store.clear()
        # The component's reference still points at the live table.
        assert len(table) == 0
        table["seed2"] = 2.0
        assert store.get("replay", "seed2") == 2.0


class TestInMemoryStateStore:
    def test_namespace_is_created_once(self):
        store = InMemoryStateStore()
        assert store.namespace("x") is store.namespace("x")
        assert store.namespaces() == ("x",)

    def test_keyed_convenience_accessors(self):
        store = InMemoryStateStore()
        store.put("load", "load", 0.25)
        assert store.get("load", "load") == 0.25

    def test_snapshot_roundtrip_preserves_order(self):
        store = InMemoryStateStore()
        table = store.namespace("feedback")
        for ip in ("b", "a", "c"):
            table[ip] = [1.0, 2.0]
        snapshot = store.snapshot()
        # Snapshots must survive JSON, by contract.
        snapshot = json.loads(json.dumps(snapshot))

        clone = InMemoryStateStore()
        clone.restore(snapshot)
        assert list(clone.namespace("feedback")) == ["b", "a", "c"]
        assert clone.get("feedback", "a") == [1.0, 2.0]

    def test_snapshot_is_isolated_from_later_mutation(self):
        store = InMemoryStateStore()
        state = [1.0, 2.0]
        store.put("feedback", "ip", state)
        snapshot = store.snapshot()
        state[0] = 99.0
        assert snapshot["namespaces"]["feedback"][0][1] == [1.0, 2.0]

    def test_restore_rejects_bad_documents(self):
        store = InMemoryStateStore()
        with pytest.raises(ValueError):
            store.restore({"format": 99, "kind": "memory"})
        with pytest.raises(ValueError):
            store.restore({"format": 1, "kind": "sharded", "shards": []})

    def test_satisfies_interface(self):
        assert isinstance(InMemoryStateStore(), AdmissionStateStore)


class _NamespaceOnlyStore(AdmissionStateStore):
    """A proxy that forwards ``namespace()`` and nothing else.

    What a wrapping store written before ``execute`` existed looks
    like (the benchmark harness's timing proxy is one): it must keep
    working through the base-class default.
    """

    def __init__(self, inner: AdmissionStateStore) -> None:
        self.inner = inner
        self.handed_out: list[str] = []

    def namespace(self, name: str):
        self.handed_out.append(name)
        return self.inner.namespace(name)


class TestExecute:
    BATCH = [
        ("t", "put", "a", [1, 2]),
        ("t", "put", "b", 3),
        ("t", "get", "a"),
        ("t", "get", "zz"),
        ("t", "get", "zz", "absent"),
        ("t", "contains", "b"),
        ("t", "setdefault", "b", 9),
        ("t", "setdefault", "c", 9),
        ("t", "move_to_end", "a"),
        ("t", "move_to_end", "zz"),
        ("t", "first"),
        ("t", "len"),
        ("t", "pop_default", "b", None),
        ("t", "delete", "b"),
        ("t", "delete", "c"),
        ("u", "len"),
    ]
    RESULTS = [
        None, None, [1, 2], None, "absent", True, 3, 9, True, False,
        ["b", 3], 3, 3, False, True, 0,
    ]

    @pytest.mark.parametrize(
        "make",
        [InMemoryStateStore, lambda: _NamespaceOnlyStore(InMemoryStateStore())],
        ids=["memory", "base-default"],
    )
    def test_ops_apply_in_order_and_return_their_results(self, make):
        store = make()
        assert store.execute(self.BATCH) == self.RESULTS
        assert list(store.namespace("t").items()) == [("a", [1, 2])]

    @pytest.mark.parametrize(
        "make",
        [InMemoryStateStore, lambda: _NamespaceOnlyStore(InMemoryStateStore())],
        ids=["memory", "base-default"],
    )
    def test_stops_at_a_malformed_op(self, make):
        store = make()
        with pytest.raises(ValueError, match="unknown state op"):
            store.execute([
                ("t", "put", "a", 1),
                ("t", "frobnicate", "a"),
                ("t", "put", "b", 2),
            ])
        assert dict(store.namespace("t").items()) == {"a": 1}

    def test_empty_batch_and_first_of_empty_table(self):
        store = InMemoryStateStore()
        assert store.execute([]) == []
        assert store.execute([("t", "first"), ("t", "len")]) == [None, 0]

    def test_default_resolves_each_namespace_once_per_run(self):
        store = _NamespaceOnlyStore(InMemoryStateStore())
        store.execute(
            [("t", "len"), ("t", "first"), ("u", "len"), ("t", "len")]
        )
        assert store.handed_out == ["t", "u", "t"]


class TestSnapshotFiles:
    def test_save_and_load(self, tmp_path):
        store = InMemoryStateStore()
        store.put("feedback", "1.1.1.1", [0.5, 3.0])
        path = tmp_path / "state.json"
        save_snapshot(store.snapshot(), path)
        loaded = load_snapshot(path)
        clone = InMemoryStateStore()
        clone.restore(loaded)
        assert clone.get("feedback", "1.1.1.1") == [0.5, 3.0]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_split_then_merge_is_lossless(self):
        store = InMemoryStateStore()
        for i in range(50):
            store.put("feedback", f"10.0.0.{i}", [float(i), 0.0])
            store.put("replay", f"seed-{i}", float(i))
        snapshot = store.snapshot()
        parts = split_snapshot(snapshot, 4)
        assert len(parts) == 4
        # Every shard got some keys and no key appears twice.
        sizes = [
            sum(len(e) for e in part["namespaces"].values())
            for part in parts
        ]
        assert sum(sizes) == 100
        assert all(size > 0 for size in sizes)

        merged = merge_snapshots(parts)
        restored = InMemoryStateStore()
        restored.restore(merged)
        assert len(restored.namespace("feedback")) == 50
        assert restored.get("feedback", "10.0.0.7") == [7.0, 0.0]
        assert restored.get("replay", "seed-7") == 7.0


class TestSnapshotAfterClear:
    def test_clear_then_snapshot_roundtrip_is_idempotent(self):
        # clear() keeps emptied namespaces registered (live references
        # must survive), but snapshots omit empty tables so that
        # snapshot -> restore -> snapshot is a fixed point.
        store = InMemoryStateStore()
        store.put("feedback", "ip", [1.0, 0.0])
        store.clear()
        snapshot = store.snapshot()
        assert snapshot["namespaces"] == {}

        clone = InMemoryStateStore()
        clone.restore(snapshot)
        assert clone.snapshot() == snapshot

    def test_emptied_namespace_stays_usable_but_unsnapshotted(self):
        store = InMemoryStateStore()
        table = store.namespace("cache")
        table["k"] = 1.0
        table.clear()
        assert store.snapshot()["namespaces"] == {}
        table["k2"] = 2.0
        assert store.snapshot()["namespaces"] == {"cache": [["k2", 2.0]]}


class TestReplayEntryLayouts:
    """Replay entries are ``[redeemed_at, owner_ip, token]`` now and
    ``[redeemed_at, owner_ip]`` in snapshots written before the claim
    token; both split by owner and both keep their seed spent."""

    @staticmethod
    def _snapshot() -> dict:
        store = InMemoryStateStore()
        for i in range(40):
            owner = f"10.0.0.{i}"
            entry = [float(i), owner] + (["ab12-0"] if i % 2 else [])
            store.put("replay", f"seed-{i}", entry)
        return store.snapshot()

    def test_split_routes_both_layouts_by_owner(self):
        from repro.state import HashRing

        ring = HashRing(4)
        parts = split_snapshot(self._snapshot(), 4)
        placed = 0
        for index, part in enumerate(parts):
            for seed, entry in part["namespaces"].get("replay", []):
                assert ring.shard_for(entry[1]) == index, seed
                placed += 1
        assert placed == 40

    def test_both_layouts_restore_and_stay_spent(self):
        from repro.pow.verifier import ReplayCache

        store = InMemoryStateStore()
        store.restore(self._snapshot())
        cache = ReplayCache(ttl=1_000.0, store=store)
        for i in range(40):
            assert not cache.check_and_add(f"seed-{i}", 50.0, f"10.0.0.{i}")
        assert cache.check_and_add("seed-new", 50.0, "10.0.0.1")
