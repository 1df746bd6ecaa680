"""The ring store: a state store placed over N child stores by key.

:class:`ShardedStateStore` places keys with the
:class:`~repro.state.sharding.HashRing` that routes a connection to a
gateway worker, over in-memory children (one box) or remote ones
(:class:`MultiNodeStateStore`: one per state server, resharded live).
Components hold a :class:`ShardedNamespace`, which forwards each keyed
operation to the owning child's namespace; ``execute`` is one call per
owning child — one frame per node over the wire — and ``post`` hands
each child the ops it owns, so a remote child sends them ahead of its
next frame.

Every entry is placed by its own key, the one reads route by (the
puzzle seed, for ``replay``).  A snapshot is the children's merged
memory document and ``restore`` splits it by that key, so it restores
into a ring of any shape.

Semantics under partitioning
----------------------------
Keyed operations (``get``/``put``/``delete``/``move_to_end``) behave
exactly like the in-memory store: a key lives wholly in one child, so
per-client state never crosses a shard boundary and per-key behaviour
is bit-identical.  *Aggregate* operations are where partitioning shows:

* ``len``/iteration/``items`` span children (child order, insertion
  order within a child) — not the global insertion order;
* ``popitem(last=False)`` evicts the oldest entry of the *fullest*
  child, because "globally oldest" is exactly the cross-shard
  coordination a sharded deployment avoids; ``partition_len`` and
  ``partition`` answer for the key's child alone (feedback's cap).

Capacity-pressure eviction is therefore approximate under sharding —
the documented trade: parity holds whenever capacity limits are not
hit, which is the operating regime the limits are sized for.

Consistency under resharding
----------------------------
Across nodes there are no cross-key transactions — exactly the
envelope admission state needs, since every consumer keys by client IP
or puzzle seed.  During a resharding handoff a reader may briefly miss
a key that is mid-flight between nodes; no key is ever lost or left on
a node where the new ring would not find it once
:meth:`~MultiNodeStateStore.apply_topology` returns.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator

from repro.state import protocol
from repro.state.net import RemoteStateStore, _instruments
from repro.state.sharding import HashRing
from repro.state.snapshot import merge_snapshots, split_snapshot
from repro.state.store import (
    AdmissionStateStore,
    InMemoryStateStore,
    StateNamespace,
    check_ops,
)

__all__ = [
    "ShardedStateStore",
    "ShardedNamespace",
    "MultiNodeStateStore",
    "HandoffReport",
]


class ShardedNamespace:
    """Namespace view routing each key to its owning child.

    The store rebinds every view it handed out when its topology
    changes, so a view held across a reshard sends its next operation
    to the new owner.
    """

    __slots__ = ("name", "_ring", "_tables")

    def __init__(
        self, name: str, ring: HashRing, stores: list[AdmissionStateStore]
    ) -> None:
        self.name = name
        self._bind(ring, stores)

    def _bind(self, ring: HashRing, stores: list[AdmissionStateStore]) -> None:
        self._ring = ring
        self._tables: list[StateNamespace] = [
            store.namespace(self.name) for store in stores
        ]

    def partition(self, key: str) -> StateNamespace:
        return self._tables[self._ring.shard_for(key)]

    # -- keyed operations (shard-local, parity-exact) ------------------
    def get(self, key: str, default: Any = None) -> Any:
        return self.partition(key).get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.partition(key)[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self.partition(key)[key] = value

    def __delitem__(self, key: str) -> None:
        del self.partition(key)[key]

    def __contains__(self, key: str) -> bool:
        return key in self.partition(key)

    def pop(self, key: str, *default: Any) -> Any:
        return self.partition(key).pop(key, *default)

    def setdefault(self, key: str, default: Any) -> Any:
        return self.partition(key).setdefault(key, default)

    def move_to_end(self, key: str) -> None:
        self.partition(key).move_to_end(key)

    # -- aggregate operations (span shards) ----------------------------
    def __len__(self) -> int:
        return sum(len(table) for table in self._tables)

    def __iter__(self) -> Iterator[str]:
        for table in self._tables:
            yield from table

    def keys(self):
        return iter(self)

    def items(self):
        for table in self._tables:
            yield from table.items()

    def clear(self) -> None:
        for table in self._tables:
            table.clear()

    def popitem(self, last: bool = True) -> tuple[str, Any]:
        # One ``len`` per child: over the wire each is a round trip.
        count, victim = max(
            ((len(table), table) for table in self._tables),
            key=lambda sized: sized[0],
        )
        if not count:
            raise KeyError("popitem(): namespace is empty")
        return victim.popitem(last=last)

    def dump(self) -> list[list[Any]]:
        return [[key, value] for key, value in self.items()]


class ShardedStateStore(AdmissionStateStore):
    """Partitions every namespace over ``shards`` child stores.

    Parameters
    ----------
    shards:
        Number of partitions, or an explicit list of child stores
        (defaults to fresh :class:`InMemoryStateStore` children).
    replicas:
        Virtual nodes per shard on the routing ring; must match the
        gateway cluster's ring for store/worker routing to agree
        (both default to 64).
    """

    def __init__(
        self,
        shards: int | list[AdmissionStateStore],
        replicas: int = 64,
    ) -> None:
        if isinstance(shards, int):
            stores: list[AdmissionStateStore] = [
                InMemoryStateStore() for _ in range(shards)
            ]
        else:
            if not shards:
                raise ValueError("need at least one child store")
            stores = list(shards)
        self._namespaces: dict[str, ShardedNamespace] = {}
        self._place(stores, replicas)

    def _place(self, stores: list[AdmissionStateStore], replicas: int) -> None:
        """Adopt ``stores`` as the ring's children; rebind every view."""
        self.stores = stores
        self.ring = HashRing(len(stores), replicas=replicas)
        for view in self._namespaces.values():
            view._bind(self.ring, stores)

    def namespace(self, name: str) -> ShardedNamespace:
        table = self._namespaces.get(name)
        if table is None:
            table = self._namespaces[name] = ShardedNamespace(
                name, self.ring, self.stores
            )
        return table

    def namespaces(self) -> tuple[str, ...]:
        names: dict[str, None] = {}
        for store in self.stores:
            for name in store.namespaces():
                names.setdefault(name)
        return tuple(names)

    def execute(self, ops) -> list[Any]:
        """One ``execute`` per owning child; ``len``/``first`` ask every child.

        Ops on different children touch different keys and none can
        fail, so grouping them by child (order kept within each)
        changes nothing.  ``len`` is summed and ``first`` answered by
        the lowest child that has an entry.  A malformed op is refused
        before any child sees one.  Over remote children this is one
        frame per node.
        """
        ops = list(ops)
        batches = self._by_child(ops)
        results: list[Any] = [None] * len(ops)
        for index in sorted(batches):
            positions = batches[index]
            values = self.stores[index].execute(
                [ops[position] for position in positions]
            )
            for position, value in zip(positions, values):
                if ops[position][1] == "len":
                    value += results[position] or 0
                elif results[position] is not None:
                    continue  # a first: the lowest child with an entry wins
                results[position] = value
        return results

    def _by_child(self, ops: list) -> dict[int, list[int]]:
        """Checked ``ops``' positions per child: a keyed op goes to its
        key's owner, ``len``/``first`` to every child."""
        check_ops(ops)
        batches: dict[int, list[int]] = {}
        for position, op in enumerate(ops):
            owners = (
                (self.ring.shard_for(op[2]),) if len(op) > 2  # keyed
                else range(len(self.stores))
            )
            for index in owners:
                batches.setdefault(index, []).append(position)
        return batches

    def post(self, ops) -> None:
        """Each child posts the ops it owns (a remote child holds them)."""
        ops = list(ops)
        for index, positions in self._by_child(ops).items():
            self.stores[index].post([ops[position] for position in positions])

    def flush(self) -> None:
        for store in self.stores:
            store.flush()

    @property
    def holds_posted(self) -> bool:
        return any(store.holds_posted for store in self.stores)

    def __len__(self) -> int:
        return sum(len(store) for store in self.stores)

    def snapshot(self) -> dict:
        return merge_snapshots(store.snapshot() for store in self.stores)

    def restore(self, snapshot: dict) -> None:
        parts = split_snapshot(
            snapshot, len(self.stores), self.ring.replicas, affinity=False
        )
        for store, part in zip(self.stores, parts):
            store.restore(part)

    def clear(self) -> None:
        for store in self.stores:
            store.clear()


# ----------------------------------------------------------------------
# The networked ring + live resharding
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


class MultiNodeStateStore(ShardedStateStore):
    """A :class:`ShardedStateStore` whose children are state servers.

    Same ring, same per-key parity, same aggregate caveats — with
    children that survive the process and an :meth:`apply_topology`
    that reshards them live.
    """

    def __init__(
        self,
        nodes: list[str] | list[RemoteStateStore],
        replicas: int = 64,
        *,
        registry=None,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one state-server node")
        self._registry = registry
        self._metrics = _instruments(registry)
        super().__init__(
            [
                node
                if isinstance(node, RemoteStateStore)
                else RemoteStateStore(node, registry=registry)
                for node in nodes
            ],
            replicas,
        )

    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(node.address for node in self.stores)

    def close(self) -> None:
        for node in self.stores:
            node.close()

    def __enter__(self) -> "MultiNodeStateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def apply_topology(self, addresses: list[str]) -> HandoffReport:
        """Reshard live onto ``addresses`` — no restarts, minimal moves.

        Handoff sequence (DESIGN §1.9):

        1. every *current* node splits its own content under the new
           ring server-side (``split_off``, by the key reads route by),
           keeps the slice it still owns, and returns only the moved
           slices;
        2. moved slices are merge-restored into their new owners;
        3. the new topology document (one past the highest epoch the
           current nodes hold) is pushed to every node involved —
           including decommissioned ones, whose every response then
           piggybacks the new epoch (no client acts on it yet);
        4. the store adopts the new ring, and every namespace view it
           handed out follows.

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
        old_nodes = list(self.stores)
        old_addresses = [node.address for node in old_nodes]
        replicas = self.ring.replicas
        epoch = max(node.topology()["epoch"] for node in old_nodes) + 1

        by_address = {node.address: node for node in old_nodes}
        # Explicit None checks: RemoteStateStore defines __len__, so a
        # truthiness test would round-trip to the server (and treat an
        # empty store as absent).
        new_nodes = [
            by_address[address]
            if address in by_address
            else RemoteStateStore(address, registry=self._registry)
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

        self._place(new_nodes, replicas)
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
