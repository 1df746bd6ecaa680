"""Experiment `thr-shard`: gateway throughput scaling across workers.

This experiment shows what sharding the gateway buys over one process.
The same admission load — multiple client *processes*, each driving
many concurrent connections from distinct loopback source IPs — is
pushed through a 1-worker and an N-worker
:class:`~repro.net.gateway.cluster.GatewayCluster`, and the sustained
admission throughput is compared.

Measurement choices that keep the comparison honest:

* clients run ``solve=False`` exchanges (connect → request → puzzle →
  close): the server performs its entire admission pipeline per
  request while the client side stays nearly free, so the *server* is
  the saturated side being measured;
* client work is spread over several OS processes so a GIL-bound load
  generator cannot become the bottleneck that masks server scaling;
* both cluster sizes run behind the identical fd-passing parent, so
  routing overhead is part of both sides of the ratio.

Scaling is hardware-bound: on a single-core host the two
configurations time-slice one core and the ratio is ~1.0 by physics.
The result records ``cpu_count`` so the ratio is interpretable; no
test asserts it.  ``tests/net/test_cluster.py`` checks what the ratio
rests on: every worker admits a share, and nothing is lost.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

from repro.bench.results import ExperimentResult
from repro.core.spec import FrameworkSpec
from repro.net.gateway.cluster import GatewayCluster
from repro.net.gateway.loadgen import LoadGenerator
from repro.reputation.dataset import generate_corpus

__all__ = [
    "ShardThroughputConfig",
    "run_shard_throughput",
    "measure_cluster_throughput",
]


@dataclasses.dataclass(frozen=True, slots=True)
class ShardThroughputConfig:
    """Parameters of the worker-scaling comparison."""

    baseline_workers: int = 1
    scaled_workers: int = 4
    client_processes: int = 3
    connections_per_client: int = 24
    requests_per_connection: int = 8
    corpus_size: int = 1500
    corpus_seed: int = 7
    policy: str = "policy-1"
    max_batch: int = 64
    batch_window: float = 0.002
    queue_limit: int = 4096

    def __post_init__(self) -> None:
        if self.baseline_workers < 1 or self.scaled_workers < 1:
            raise ValueError("worker counts must be >= 1")
        if self.client_processes < 1:
            raise ValueError(
                f"client_processes must be >= 1, got {self.client_processes}"
            )

    def spec(self) -> FrameworkSpec:
        return FrameworkSpec(
            policy=self.policy,
            corpus_size=self.corpus_size,
            corpus_seed=self.corpus_seed,
        )

    @property
    def total_requests(self) -> int:
        return (
            self.client_processes
            * self.connections_per_client
            * self.requests_per_connection
        )


def _client_main(address, config, features, bind_ips, barrier, queue) -> None:
    """One load-generating process (module-level for spawn)."""
    generator = LoadGenerator(
        address,
        connections=config.connections_per_client,
        requests_per_connection=config.requests_per_connection,
        features=features,
        bind_ips=bind_ips,
        solve=False,
    )
    barrier.wait()
    report = generator.run()
    queue.put(
        {
            "attempted": report.attempted,
            "completed": report.completed,
            "errors": report.errors,
            "shed": report.shed,
            "elapsed": report.elapsed,
        }
    )


def measure_cluster_throughput(
    config: ShardThroughputConfig, workers: int, features
) -> dict:
    """Drive one cluster size with multi-process load; return totals."""
    ctx = multiprocessing.get_context("spawn")
    with GatewayCluster(
        config.spec(),
        workers=workers,
        max_batch=config.max_batch,
        batch_window=config.batch_window,
        queue_limit=config.queue_limit,
    ) as cluster:
        barrier = ctx.Barrier(config.client_processes)
        queue = ctx.Queue()
        procs = []
        for client in range(config.client_processes):
            bind_ips = [
                f"127.0.{client + 1}.{conn + 1}"
                for conn in range(config.connections_per_client)
            ]
            proc = ctx.Process(
                target=_client_main,
                args=(
                    cluster.address, config, features, bind_ips,
                    barrier, queue,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        reports = [queue.get(timeout=600.0) for _ in procs]
        for proc in procs:
            proc.join(timeout=60.0)
    summary = cluster.metrics_summary
    completed = sum(report["completed"] for report in reports)
    elapsed = max(report["elapsed"] for report in reports)
    return {
        "workers": workers,
        "completed": completed,
        "errors": sum(report["errors"] for report in reports),
        "shed": sum(report["shed"] for report in reports),
        "elapsed": elapsed,
        "rps": completed / elapsed if elapsed > 0 else 0.0,
        "admitted": summary.get("admitted", 0),
        "mean_batch_size": summary.get("mean_batch_size", 0.0),
    }


def run_shard_throughput(
    config: ShardThroughputConfig | None = None,
) -> ExperimentResult:
    """Measure both cluster sizes under identical multi-process load."""
    config = config or ShardThroughputConfig()
    _, test = generate_corpus(
        size=config.corpus_size, seed=config.corpus_seed
    ).split()
    features = dict(test[0].features)

    baseline = measure_cluster_throughput(
        config, config.baseline_workers, features
    )
    scaled = measure_cluster_throughput(
        config, config.scaled_workers, features
    )
    scaling = (
        scaled["rps"] / baseline["rps"] if baseline["rps"] > 0 else 0.0
    )

    def _row(result: dict) -> list:
        return [
            result["workers"],
            result["rps"],
            result["admitted"],
            result["shed"],
            result["errors"],
            result["mean_batch_size"],
        ]

    return ExperimentResult(
        experiment_id="thr-shard",
        title=(
            "Sharded gateway admission throughput - "
            f"{config.baseline_workers} vs {config.scaled_workers} workers"
        ),
        headers=[
            "workers", "rps", "admitted", "shed", "errors", "mean_batch",
        ],
        rows=[_row(baseline), _row(scaled)],
        notes=[
            f"{config.client_processes} client processes x "
            f"{config.connections_per_client} connections x "
            f"{config.requests_per_connection} challenge-only exchanges, "
            "distinct loopback source IPs routed by consistent hash",
            f"scaling: {scaling:.2f}x on {os.cpu_count()} CPUs "
            "(expect ~1.0x on a single core; near-linear needs one core "
            "per worker)",
        ],
        extra={
            "scaling": scaling,
            "cpu_count": float(os.cpu_count() or 1),
            "baseline_rps": baseline["rps"],
            "scaled_rps": scaled["rps"],
            "total_requests": float(config.total_requests),
        },
    )
