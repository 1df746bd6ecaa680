"""Experiment `thr-batch`: batched admission throughput.

Quantifies what batching admission buys: the same requests are
admitted as n batches of one (`AIPoWFramework.challenge` once per
request, which is ``challenge_batch([r])``) and as one
:meth:`AIPoWFramework.challenge_batch` call, at several batch sizes,
reporting requests/second for each and the speedup.  Both produce
identical :class:`IssuerDecision` scores and difficulties — the
experiment asserts it — so the speedup is the kernel's per-call
overhead amortised, not different work.

This is the server-side admission cost only (score → policy → puzzle
issuance); solving and verification are covered by `abl-verify`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

from repro.bench.results import ExperimentResult
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.policies.linear import policy_2
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus

__all__ = ["BatchThroughputConfig", "run_batch_throughput"]


@dataclasses.dataclass(frozen=True, slots=True)
class BatchThroughputConfig:
    """Parameters of the batch-throughput experiment."""

    batch_sizes: Sequence[int] = (64, 256, 1024)
    corpus_size: int = 4000
    corpus_seed: int = 7
    repeats: int = 3

    def __post_init__(self) -> None:
        if not self.batch_sizes or any(b < 1 for b in self.batch_sizes):
            raise ValueError(f"invalid batch sizes: {self.batch_sizes}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


def _requests_for(config: BatchThroughputConfig) -> list[ClientRequest]:
    corpus = generate_corpus(size=config.corpus_size, seed=config.corpus_seed)
    _, test = corpus.split()
    count = max(config.batch_sizes)
    examples = [test[i % len(test)] for i in range(count)]
    return [
        ClientRequest(
            client_ip=example.ip,
            resource="/index.html",
            timestamp=0.0,
            features=example.features,
        )
        for example in examples
    ]


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_batch_throughput(
    config: BatchThroughputConfig | None = None,
) -> ExperimentResult:
    """Measure n batches of one vs one batch of n; tabulate speedups."""
    config = config or BatchThroughputConfig()
    requests = _requests_for(config)
    train, _ = generate_corpus(
        size=config.corpus_size, seed=config.corpus_seed
    ).split()
    framework = AIPoWFramework(DAbRModel().fit(train), policy_2())

    rows = []
    speedups: dict[int, float] = {}
    for size in config.batch_sizes:
        chunk = requests[:size]
        ones_best = _best_seconds(
            lambda: [framework.challenge(r, now=0.0) for r in chunk],
            config.repeats,
        )
        batch_best = _best_seconds(
            lambda: framework.challenge_batch(chunk, now=0.0),
            config.repeats,
        )
        # Identity check: one batch of n must reproduce the n batches
        # of one bit for bit.
        ones = [framework.challenge(r, now=0.0) for r in chunk]
        batch = framework.challenge_batch(chunk, now=0.0)
        if [c.decision.reputation_score for c in ones] != [
            c.decision.reputation_score for c in batch
        ] or [c.decision.difficulty for c in ones] != [
            c.decision.difficulty for c in batch
        ]:
            raise AssertionError(
                f"batch of {size} diverged from {size} batches of one"
            )
        speedup = ones_best / batch_best if batch_best > 0 else float("inf")
        speedups[size] = speedup
        rows.append(
            [
                size,
                size / ones_best,
                size / batch_best,
                speedup,
            ]
        )

    top = max(config.batch_sizes)
    return ExperimentResult(
        experiment_id="thr-batch",
        title="Batched admission throughput - n batches of one vs one batch of n",
        headers=["batch_size", "batch_of_one_rps", "batch_rps", "speedup"],
        rows=rows,
        notes=[
            "same requests, same decisions (asserted bit-identical); "
            "the baseline is challenge() per request, i.e. n batches of "
            "one, so the speedup is the kernel's per-call cost amortised",
            f"batch-{top} speedup: {speedups[top]:.1f}x "
            "(DAbR + policy-2, admission only)",
        ],
        extra={"speedups": {str(k): v for k, v in speedups.items()}},
    )
