"""The networked state store's three drills: parity, restart, reshard.

* **Parity** — the same stateful challenge/redeem campaign (feedback
  penalties and rewards included) through a framework backed by the
  one-box :class:`~repro.state.sharded.ShardedStateStore` and by a
  :class:`~repro.state.sharded.MultiNodeStateStore` over N live
  :class:`~repro.state.net.StateServer` instances decides bit-identically.
* **Restart survival** — a snapshot-backed server stopped and rebound
  on the same port *while a client keeps writing* loses nothing; the
  client's idempotent retries bridge the outage (the path behind
  ``repro state serve --snapshot``).
* **Minimal-motion reshard** — growing N -> N+1 nodes moves only the
  keys whose ring owner changed (within slack of the ideal 1/(N+1)
  fraction), with zero lost and zero misrouted keys (the path behind
  ``repro state topology --add``).

What the networked store costs per request is ``admit-netstore``'s
number in perfbench; these tests hold only decisions and counts.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading

import pytest

from repro.core.spec import FrameworkSpec
from repro.state import (
    MultiNodeStateStore,
    RemoteStateStore,
    ShardedStateStore,
    StateServer,
)
from tests.exchanges import build_trace, replay_trace, spread_examples

#: The ring is probabilistic: with 64 virtual nodes per shard the
#: moved fraction lands near 1/(N+1) but not exactly on it.
MOVED_FRACTION_SLACK = 2.0


@dataclasses.dataclass(frozen=True, slots=True)
class NetstoreConfig:
    """Sizes of the three drills."""

    nodes: int = 3
    clients: int = 6
    rounds: int = 4
    restart_entries: int = 300
    reshard_entries: int = 600
    corpus_size: int = 1200

    def spec(self) -> FrameworkSpec:
        # Frozen offsets: parity must not depend on wall-clock decay.
        return FrameworkSpec(
            policy="policy-1",
            corpus_size=self.corpus_size,
            feedback_half_life=float("inf"),
        )


def run_parity_campaign(config: NetstoreConfig) -> dict:
    """Phase 1: networked state must be invisible to decisions."""
    trace = build_trace(
        spread_examples(config.corpus_size, config.clients), config.rounds
    )
    spec = config.spec()
    local = replay_trace(
        spec.build(store=ShardedStateStore(config.nodes)), trace
    )

    servers = [StateServer().start() for _ in range(config.nodes)]
    store = MultiNodeStateStore([srv.address for srv in servers])
    try:
        remote = replay_trace(spec.build(store=store), trace)
    finally:
        store.close()
        for server in servers:
            server.stop()
    return {"requests": len(trace), "identical": remote == local}


def run_restart_drill(config: NetstoreConfig, tmp_dir) -> dict:
    """Phase 2: a snapshot-backed restart mid-load loses nothing."""
    snapshot_path = pathlib.Path(tmp_dir) / "netstore-restart.json"
    server = StateServer(snapshot_path=snapshot_path).start()
    address = server.address  # rebind the same port after the restart
    client = RemoteStateStore(
        address, retries=6, retry_base=0.02, retry_cap=0.2
    )
    table = client.namespace("feedback")
    holder = {"server": server}
    restart_at = config.restart_entries // 2

    def restart() -> None:
        holder["server"].stop()
        holder["server"] = StateServer(
            address=address, snapshot_path=snapshot_path
        ).start()

    restarter = None
    try:
        for i in range(config.restart_entries):
            if i == restart_at:
                # Concurrent restart: the in-flight puts see the dead
                # socket and must bridge it with idempotent retries.
                restarter = threading.Thread(target=restart)
                restarter.start()
            table[f"10.88.0.{i}"] = [float(i), 0.0]
        if restarter is not None:
            restarter.join()
        survived = sum(
            1
            for i in range(config.restart_entries)
            if table.get(f"10.88.0.{i}") == [float(i), 0.0]
        )
    finally:
        client.close()
        holder["server"].stop()
    return {
        "entries": config.restart_entries,
        "survived": survived,
        "lost": config.restart_entries - survived,
    }


def run_reshard_drill(config: NetstoreConfig) -> dict:
    """Phase 3: growing N -> N+1 moves only the ring-delta keyspace."""
    servers = [StateServer().start() for _ in range(config.nodes)]
    extra = StateServer().start()
    store = MultiNodeStateStore([srv.address for srv in servers])
    keys = [f"10.99.{i // 250}.{i % 250}" for i in range(config.reshard_entries)]
    try:
        table = store.namespace("feedback")
        for i, key in enumerate(keys):
            table[key] = [float(i), 0.0]
        before = {key: store.ring.shard_for(key) for key in keys}
        report = store.apply_topology(
            list(store.addresses) + [extra.address]
        )
        after = {key: store.ring.shard_for(key) for key in keys}
        ring_delta = sum(1 for key in keys if before[key] != after[key])
        stores = [srv.store for srv in servers] + [extra.store]
        lost = misrouted = 0
        for i, key in enumerate(keys):
            if table.get(key) != [float(i), 0.0]:
                lost += 1
            for index, backend in enumerate(stores):
                present = backend.get("feedback", key) is not None
                if present != (index == after[key]):
                    misrouted += 1
    finally:
        store.close()
        for server in servers + [extra]:
            server.stop()
    return {
        "entries": config.reshard_entries,
        "moved": report.moved_entries,
        "ring_delta": ring_delta,
        "lost": lost,
        "misrouted": misrouted,
    }


@pytest.mark.slow
def test_netstore_acceptance_gates(tmp_path):
    """All three phases pass in one run."""
    config = NetstoreConfig()
    parity = run_parity_campaign(config)
    restart = run_restart_drill(config, tmp_path)
    reshard = run_reshard_drill(config)

    assert parity["identical"], parity
    assert restart["lost"] == 0, restart
    assert reshard["lost"] == 0, reshard
    assert reshard["misrouted"] == 0, reshard
    # Only the ring delta moved, and the delta itself is near-minimal.
    assert reshard["moved"] == reshard["ring_delta"], reshard
    ideal = 1.0 / (config.nodes + 1)
    assert reshard["moved"] / reshard["entries"] <= (
        ideal * MOVED_FRACTION_SLACK
    ), reshard


@pytest.mark.slow
def test_restart_drill_is_lossless_with_tight_margins(tmp_path):
    """The restart gate alone, at a size that forces mid-write outage."""
    config = NetstoreConfig(restart_entries=500)
    outcome = run_restart_drill(config, tmp_path)
    assert outcome["lost"] == 0, outcome
    assert outcome["survived"] == config.restart_entries


@pytest.mark.slow
def test_reshard_is_minimal_and_exact():
    """The reshard gate alone, with a bigger keyspace."""
    outcome = run_reshard_drill(NetstoreConfig(reshard_entries=1200))
    assert outcome["lost"] == 0, outcome
    assert outcome["misrouted"] == 0, outcome
    assert outcome["moved"] == outcome["ring_delta"], outcome
