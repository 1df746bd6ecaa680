"""Experiment `thr-netshard`: the networked state store under admission load.

`thr-shard` proved that sharding workers is invisible to decisions.
This experiment proves the same for sharding *state across the
network*, plus the two operational properties the networked store
exists for, in three phases:

* **parity** — the same stateful challenge/redeem campaign (feedback
  penalties and rewards included) through a framework backed by the
  one-box :class:`~repro.state.sharded.ShardedStateStore` and by a
  :class:`~repro.state.sharded.MultiNodeStateStore` over N live
  :class:`~repro.state.net.StateServer` processes-worth of TCP.  The
  decision streams must be bit-identical — the network must buy
  durability without buying drift.
* **restart** — a snapshot-backed server is stopped and rebound on the
  same port *while a client keeps writing*; the client's idempotent
  retries bridge the outage and every entry must survive (the restart
  path behind ``repro state serve --snapshot``).
* **reshard** — a live N -> N+1 topology change over a populated
  cluster; only the ring-delta keyspace may move, nothing may be lost
  and every key must sit exactly on its new ring owner (the path
  behind ``repro state topology --add``).

The throughput columns are loopback-TCP numbers — they report what one
store round trip costs relative to in-process dict access, not an
end-to-end serving claim (that is `thr-shard`'s job).
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.bench.results import ExperimentResult
from repro.core.records import ClientRequest
from repro.core.spec import FrameworkSpec
from repro.pow.puzzle import Solution
from repro.pow.solver import HashSolver
from repro.reputation.dataset import generate_corpus
from repro.state import (
    MultiNodeStateStore,
    RemoteStateStore,
    ShardedStateStore,
    StateServer,
)

__all__ = [
    "NetstoreConfig",
    "run_netstore_throughput",
    "run_parity_campaign",
    "run_restart_drill",
    "run_reshard_drill",
]


@dataclasses.dataclass(frozen=True, slots=True)
class NetstoreConfig:
    """Parameters of the networked-state acceptance run."""

    nodes: int = 3
    clients: int = 6
    rounds: int = 4
    restart_entries: int = 300
    reshard_entries: int = 600
    policy: str = "policy-1"
    corpus_size: int = 1200
    corpus_seed: int = 7

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.nodes}")
        if self.clients < 1 or self.rounds < 1:
            raise ValueError("clients and rounds must be >= 1")
        if self.restart_entries < 2 or self.reshard_entries < 1:
            raise ValueError("entry counts too small to measure anything")

    def spec(self) -> FrameworkSpec:
        # Frozen offsets: parity must not depend on wall-clock decay.
        return FrameworkSpec(
            policy=self.policy,
            corpus_size=self.corpus_size,
            feedback_half_life=float("inf"),
        )


def _campaign_trace(config: NetstoreConfig):
    """(ip, features, honest) exchanges that actually move feedback."""
    _, test = generate_corpus(
        size=config.corpus_size, seed=config.corpus_seed
    ).split()
    ranked = sorted(test, key=lambda example: example.true_score)
    examples = ranked[:: max(1, len(ranked) // 8)][: config.clients]
    trace = []
    for round_index in range(config.rounds):
        for client, example in enumerate(examples):
            ip = f"10.77.0.{client + 1}"
            honest = (client + round_index) % 3 != 0
            trace.append((ip, example.features, honest))
    return trace


def _hostile_solution(challenge) -> Solution:
    """Deterministically rejected: names the wrong puzzle seed."""
    wrong_seed = "00" * (len(challenge.puzzle.seed) // 2)
    if wrong_seed == challenge.puzzle.seed:  # pragma: no cover
        wrong_seed = "ff" * (len(challenge.puzzle.seed) // 2)
    return Solution(
        puzzle_seed=wrong_seed, nonce=0, attempts=1, elapsed=0.0
    )


def _drive(framework, trace):
    """Replay the campaign; return ((score, difficulty) list, elapsed)."""
    solver = HashSolver()
    decisions = []
    started = time.perf_counter()
    for index, (ip, features, honest) in enumerate(trace):
        request = ClientRequest(
            client_ip=ip,
            resource="/index.html",
            timestamp=1_000.0 + index,
            features=features,
        )
        challenge = framework.challenge(request, now=request.timestamp)
        decision = challenge.decision
        decisions.append((decision.reputation_score, decision.difficulty))
        if honest and challenge.puzzle.difficulty <= 12:
            solution = solver.solve(challenge.puzzle, ip)
        else:
            solution = _hostile_solution(challenge)
        framework.redeem(challenge, solution, now=request.timestamp + 0.5)
    return decisions, time.perf_counter() - started


def run_parity_campaign(config: NetstoreConfig) -> dict:
    """Phase 1: networked state must be invisible to decisions."""
    trace = _campaign_trace(config)
    spec = config.spec()

    local = spec.build(store=ShardedStateStore(config.nodes))
    local_decisions, local_elapsed = _drive(local, trace)

    servers = [StateServer().start() for _ in range(config.nodes)]
    store = MultiNodeStateStore([srv.address for srv in servers])
    try:
        remote = spec.build(store=store)
        remote_decisions, remote_elapsed = _drive(remote, trace)
    finally:
        store.close()
        for server in servers:
            server.stop()

    return {
        "requests": len(trace),
        "identical": remote_decisions == local_decisions,
        "local_elapsed": local_elapsed,
        "remote_elapsed": remote_elapsed,
        "local_rps": len(trace) / local_elapsed,
        "remote_rps": len(trace) / remote_elapsed,
    }


def run_restart_drill(config: NetstoreConfig, tmp_dir) -> dict:
    """Phase 2: a snapshot-backed restart mid-load loses nothing."""
    import pathlib

    snapshot_path = pathlib.Path(tmp_dir) / "netstore-restart.json"
    server = StateServer(snapshot_path=snapshot_path).start()
    address = server.address  # rebind the same port after the restart
    client = RemoteStateStore(
        address, retries=6, retry_base=0.02, retry_cap=0.2
    )
    table = client.namespace("feedback")
    holder = {"server": server}
    restart_at = config.restart_entries // 2
    downtime = {"seconds": 0.0}

    def restart() -> None:
        stopped = time.perf_counter()
        holder["server"].stop()
        holder["server"] = StateServer(
            address=address, snapshot_path=snapshot_path
        ).start()
        downtime["seconds"] = time.perf_counter() - stopped

    started = time.perf_counter()
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
        elapsed = time.perf_counter() - started
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
        "downtime": downtime["seconds"],
        "elapsed": elapsed,
        "rps": config.restart_entries / elapsed,
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

        started = time.perf_counter()
        report = store.apply_topology(
            list(store.addresses) + [extra.address]
        )
        elapsed = time.perf_counter() - started

        after = {key: store.ring.shard_for(key) for key in keys}
        ring_delta = sum(
            1 for key in keys if before[key] != after[key]
        )
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
        "moved_fraction": report.moved_entries / config.reshard_entries,
        "moved_bytes": report.moved_bytes,
        "lost": lost,
        "misrouted": misrouted,
        "epoch": report.epoch,
        "elapsed": elapsed,
    }


def run_netstore_throughput(
    config: NetstoreConfig | None = None,
) -> ExperimentResult:
    """All three phases, folded into one result table."""
    import tempfile

    config = config or NetstoreConfig()
    parity = run_parity_campaign(config)
    with tempfile.TemporaryDirectory() as tmp_dir:
        restart = run_restart_drill(config, tmp_dir)
    reshard = run_reshard_drill(config)

    ideal = 1.0 / (config.nodes + 1)
    return ExperimentResult(
        experiment_id="thr-netshard",
        title=(
            "Networked admission state - parity, restart survival, "
            f"live reshard over {config.nodes} nodes"
        ),
        headers=["phase", "ops", "elapsed_s", "ops_per_s", "verdict"],
        rows=[
            [
                "parity",
                parity["requests"],
                round(parity["remote_elapsed"], 4),
                round(parity["remote_rps"], 1),
                "identical" if parity["identical"] else "DIVERGED",
            ],
            [
                "restart",
                restart["entries"],
                round(restart["elapsed"], 4),
                round(restart["rps"], 1),
                f"{restart['lost']} lost",
            ],
            [
                "reshard",
                reshard["entries"],
                round(reshard["elapsed"], 4),
                round(reshard["entries"] / reshard["elapsed"], 1),
                f"moved {reshard['moved_fraction']:.2f} "
                f"(ideal {ideal:.2f}), {reshard['lost']} lost, "
                f"{reshard['misrouted']} misrouted",
            ],
        ],
        notes=[
            f"parity campaign: {config.clients} clients x "
            f"{config.rounds} rounds, honest and hostile exchanges, "
            f"in-process sharded {parity['local_rps']:.0f} rps vs "
            f"networked {parity['remote_rps']:.0f} rps over loopback TCP",
            f"restart drill: server stopped and rebound mid-load "
            f"({restart['downtime'] * 1000:.0f} ms down), idempotent "
            "retries bridged the outage",
            f"reshard drill: epoch {reshard['epoch']}, "
            f"{reshard['moved_bytes']} snapshot bytes shipped; only "
            "keys whose ring owner changed moved",
        ],
        extra={
            "parity_identical": float(parity["identical"]),
            "parity_requests": float(parity["requests"]),
            "remote_rps": parity["remote_rps"],
            "local_rps": parity["local_rps"],
            "restart_lost": float(restart["lost"]),
            "restart_downtime_s": restart["downtime"],
            "reshard_moved_fraction": reshard["moved_fraction"],
            "reshard_ring_delta_fraction": (
                reshard["ring_delta"] / reshard["entries"]
            ),
            "reshard_lost": float(reshard["lost"]),
            "reshard_misrouted": float(reshard["misrouted"]),
            "ideal_moved_fraction": ideal,
        },
    )
