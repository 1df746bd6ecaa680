"""Unit tests for consistent-hash routing and the sharded store."""

from __future__ import annotations

import json

import pytest

from repro.state import (
    HashRing,
    InMemoryStateStore,
    ShardedStateStore,
    read_shard_files,
    shard_for,
    split_snapshot,
    stable_hash,
    write_shard_files,
)


def _filled_snapshot(store) -> dict:
    for i in range(40):
        store.put("feedback", f"10.8.0.{i}", [float(i), 0.0])
        store.put("replay", f"seed-{i:04x}", [float(i), f"10.8.0.{i}"])
    return json.loads(json.dumps(store.snapshot()))


def _assert_restored_onto_ring_owners(target, snapshot) -> None:
    target.restore(snapshot)
    assert len(target) == 80
    for name in ("feedback", "replay"):
        for key, value in snapshot["namespaces"][name]:
            owner = target.ring.shard_for(key)
            for index, child in enumerate(target.stores):
                held = child.namespace(name).get(key)
                assert held == (value if index == owner else None)


class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # Pinned values: routing must agree across processes and PRs.
        assert stable_hash("127.0.0.1") == stable_hash("127.0.0.1")
        assert stable_hash("a") != stable_hash("b")

    def test_ring_is_deterministic_and_total(self):
        ring_a = HashRing(4)
        ring_b = HashRing(4)
        keys = [f"10.1.{i}.{j}" for i in range(16) for j in range(16)]
        assert [ring_a.shard_for(k) for k in keys] == [
            ring_b.shard_for(k) for k in keys
        ]
        assert set(ring_a.shard_for(k) for k in keys) == {0, 1, 2, 3}

    def test_single_shard_short_circuit(self):
        ring = HashRing(1)
        assert ring.shard_for("anything") == 0

    def test_adding_a_shard_moves_few_keys(self):
        before = HashRing(4)
        after = HashRing(5)
        keys = [f"172.16.{i}.{j}" for i in range(32) for j in range(32)]
        moved = sum(
            1 for k in keys if before.shard_for(k) != after.shard_for(k)
        )
        # Consistent hashing: ~1/5 of keys move, not ~4/5.  Allow slack.
        assert moved / len(keys) < 0.45

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)

    def test_module_level_helper_matches_ring(self):
        ring = HashRing(3)
        for key in ("a", "b", "1.2.3.4"):
            assert shard_for(key, 3) == ring.shard_for(key)


class TestShardedStateStore:
    def test_keyed_ops_match_memory_store(self):
        flat = InMemoryStateStore().namespace("feedback")
        sharded = ShardedStateStore(4).namespace("feedback")
        keys = [f"10.0.{i}.{j}" for i in range(8) for j in range(8)]
        for i, key in enumerate(keys):
            flat[key] = [float(i), 0.0]
            sharded[key] = [float(i), 0.0]
        for key in keys:
            assert sharded.get(key) == flat.get(key)
            assert key in sharded
        assert len(sharded) == len(flat)
        del sharded[keys[0]]
        assert keys[0] not in sharded

    def test_keys_land_on_ring_assigned_shard(self):
        store = ShardedStateStore(4)
        table = store.namespace("replay")
        for i in range(32):
            key = f"seed-{i}"
            table[key] = float(i)
            owner = store.ring.shard_for(key)
            assert key in store.stores[owner].namespace("replay")

    def test_popitem_evicts_from_fullest_shard(self):
        store = ShardedStateStore(2)
        table = store.namespace("cache")
        for i in range(16):
            table[f"k{i}"] = [0.0, 0.0]
        fullest = max(store.stores, key=lambda s: len(s.namespace("cache")))
        before = len(fullest.namespace("cache"))
        table.popitem(last=False)
        assert len(fullest.namespace("cache")) == before - 1
        empty = ShardedStateStore(2).namespace("cache")
        with pytest.raises(KeyError):
            empty.popitem()

    def test_snapshot_roundtrip(self):
        store = ShardedStateStore(3)
        for i in range(30):
            store.put("feedback", f"10.9.0.{i}", [float(i), 1.0])
        snapshot = json.loads(json.dumps(store.snapshot()))
        clone = ShardedStateStore(3)
        clone.restore(snapshot)
        for i in range(30):
            assert clone.get("feedback", f"10.9.0.{i}") == [float(i), 1.0]

    def test_snapshot_restores_into_more_shards(self):
        # A snapshot is one merged document and restore splits it by
        # key, so a different shard count places every key on the owner
        # its reads route to.
        snapshot = _filled_snapshot(ShardedStateStore(3))
        assert snapshot["kind"] == "memory"
        _assert_restored_onto_ring_owners(ShardedStateStore(4), snapshot)

    def test_split_snapshot_matches_sharded_layout(self):
        # Splitting a flat snapshot by ring must place every key on the
        # same shard the sharded store itself would choose.
        flat = InMemoryStateStore()
        for i in range(40):
            flat.put("feedback", f"192.168.1.{i}", [float(i), 0.0])
        parts = split_snapshot(flat.snapshot(), 4)

        store = ShardedStateStore(4)
        for i in range(40):
            store.put("feedback", f"192.168.1.{i}", [float(i), 0.0])
        for index, part in enumerate(parts):
            expected = store.stores[index].snapshot()
            assert part["namespaces"] == expected["namespaces"]


class TestReplayRouting:
    def test_replay_entries_split_with_their_owner(self):
        # A redeemed seed lives on the shard serving the redeeming
        # client; splitting must route it by the recorded owner IP, or
        # resharding would reopen already-redeemed puzzles.
        flat = InMemoryStateStore()
        owners = [f"10.7.0.{i}" for i in range(24)]
        for i, owner in enumerate(owners):
            flat.put("feedback", owner, [float(i), 0.0])
            flat.put("replay", f"seed-{i:04x}", [float(i), owner])
        parts = split_snapshot(flat.snapshot(), 4)
        for part in parts:
            feedback_ips = {
                key for key, _ in part["namespaces"].get("feedback", [])
            }
            for _seed, value in part["namespaces"].get("replay", []):
                assert value[1] in feedback_ips, (
                    "replay seed stranded away from its owner's shard"
                )

    def test_ownerless_replay_entries_route_by_seed(self):
        flat = InMemoryStateStore()
        flat.put("replay", "seed-x", 3.0)  # legacy scalar value
        flat.put("replay", "seed-y", [4.0, None])
        parts = split_snapshot(flat.snapshot(), 3)
        total = sum(
            len(part["namespaces"].get("replay", [])) for part in parts
        )
        assert total == 2

    def test_merge_deduplicates_singleton_keys(self):
        from repro.state import merge_snapshots

        a = InMemoryStateStore()
        a.put("policy-load", "load", 0.25)
        b = InMemoryStateStore()
        b.put("policy-load", "load", 0.75)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        entries = merged["namespaces"]["policy-load"]
        assert entries == [["load", 0.75]]


class TestShardFiles:
    def test_write_then_read_roundtrip(self, tmp_path):
        flat = InMemoryStateStore()
        for i in range(20):
            flat.put("feedback", f"10.2.0.{i}", [float(i), 0.0])
        parts = split_snapshot(flat.snapshot(), 2)
        paths = write_shard_files(tmp_path, parts)
        assert [p.name for p in paths] == [
            "shard-0-of-2.json", "shard-1-of-2.json",
        ]
        loaded = read_shard_files(tmp_path, shards=2)
        assert loaded == parts

    def test_read_empty_directory_is_cold_start(self, tmp_path):
        assert read_shard_files(tmp_path) == []
        assert read_shard_files(tmp_path / "missing") == []

    def test_topology_mismatch_is_loud(self, tmp_path):
        parts = split_snapshot(InMemoryStateStore().snapshot(), 2)
        write_shard_files(tmp_path, parts)
        with pytest.raises(ValueError):
            read_shard_files(tmp_path, shards=4)

    def test_rewriting_replaces_stale_topology(self, tmp_path):
        flat = InMemoryStateStore()
        flat.put("feedback", "10.3.0.1", [1.0, 0.0])
        write_shard_files(tmp_path, split_snapshot(flat.snapshot(), 4))
        write_shard_files(tmp_path, split_snapshot(flat.snapshot(), 2))
        loaded = read_shard_files(tmp_path, shards=2)
        assert len(loaded) == 2

    def test_state_dir_topology(self, tmp_path):
        from repro.state import state_dir_topology

        assert state_dir_topology(tmp_path) is None
        assert state_dir_topology(tmp_path / "missing") is None
        flat = InMemoryStateStore()
        write_shard_files(tmp_path, split_snapshot(flat.snapshot(), 3))
        assert state_dir_topology(tmp_path) == 3

    def test_single_shard_read_rejects_other_topology(self, tmp_path):
        # A worker booting against a directory split for a different
        # worker count must fail loudly, not cold-start silently.
        from repro.state import read_shard_file

        flat = InMemoryStateStore()
        flat.put("feedback", "10.4.0.1", [2.0, 0.0])
        write_shard_files(tmp_path, split_snapshot(flat.snapshot(), 4))
        with pytest.raises(ValueError, match="re-split"):
            read_shard_file(tmp_path, 0, 2)

    def test_single_shard_write_cleans_other_topology(self, tmp_path):
        from repro.state import write_shard_file

        flat = InMemoryStateStore()
        write_shard_files(tmp_path, split_snapshot(flat.snapshot(), 4))
        write_shard_file(tmp_path, 0, 2, flat.snapshot())
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == ["shard-0-of-2.json"]


class TestReplicasValidation:
    def test_snapshot_restores_into_other_replicas(self):
        # The same shard count under another virtual-node count routes
        # keys differently; the by-key split follows the target's ring.
        snapshot = _filled_snapshot(ShardedStateStore(3))
        _assert_restored_onto_ring_owners(
            ShardedStateStore(3, replicas=32), snapshot
        )

    def test_memory_snapshot_restores_onto_ring_owners(self):
        # A flat store's snapshot carries no ring at all; a ring store
        # restores it by key like its own.
        snapshot = _filled_snapshot(InMemoryStateStore())
        assert "replicas" not in snapshot
        _assert_restored_onto_ring_owners(ShardedStateStore(2), snapshot)

    def test_shard_files_record_and_enforce_replicas(self, tmp_path):
        flat = InMemoryStateStore()
        for i in range(10):
            flat.put("feedback", f"10.5.0.{i}", [float(i), 0.0])
        parts = split_snapshot(flat.snapshot(), 2, 32)
        write_shard_files(tmp_path, parts, replicas=32)
        with pytest.raises(ValueError, match="replicas"):
            read_shard_files(tmp_path, shards=2, replicas=64)
        assert read_shard_files(tmp_path, shards=2, replicas=32) == parts


class TestRingCache:
    def test_cache_is_bounded(self):
        from repro.state import sharding

        with sharding._RING_CACHE_LOCK:
            sharding._RING_CACHE.clear()
        for shards in range(2, 2 + sharding._RING_CACHE_LIMIT * 2):
            shard_for("key", shards, 64)
        assert len(sharding._RING_CACHE) <= sharding._RING_CACHE_LIMIT

    def test_cache_hits_return_the_same_ring(self):
        from repro.state import sharding

        first = sharding._ring_for(5, 64)
        assert sharding._ring_for(5, 64) is first

    def test_cache_is_race_safe_under_concurrent_builds(self):
        import threading

        from repro.state import sharding

        with sharding._RING_CACHE_LOCK:
            sharding._RING_CACHE.clear()
        results: list[list[int]] = [[] for _ in range(8)]

        def worker(bucket: list[int]) -> None:
            for shards in range(2, 40):
                bucket.append(shard_for("10.0.0.1", shards, 64))

        threads = [
            threading.Thread(target=worker, args=(bucket,))
            for bucket in results
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Deterministic routing regardless of which thread built a ring.
        assert all(bucket == results[0] for bucket in results)
