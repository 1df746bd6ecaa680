"""The gateway summary must stay bit-identical to the pre-registry one.

``gateway_summary`` reads the serving totals from a registry snapshot
that keeps O(buckets) per histogram, where the replaced
``GatewayMetrics`` kept every batch size and queue depth in a
``SampleSet``.  This test vendors the replaced implementation verbatim
and drives both through randomized flush/shed workloads, asserting
equality — not approximate, bit-identical: every gateway size and
depth is an integer, so ``sum / count`` is exactly ``np.mean`` over
the retained samples, for one worker's snapshot or a merge of N.
"""

from __future__ import annotations

import json
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import GatewayMetrics, gateway_summary
from repro.metrics.histogram import SampleSet
from repro.obs.registry import MetricsRegistry, merge_snapshots


class ReferenceGatewayMetrics:
    """The pre-migration GatewayMetrics, vendored as the oracle."""

    def __init__(self) -> None:
        self.batch_sizes = SampleSet()
        self.queue_depths = SampleSet()
        self.shed_reasons: dict[str, int] = {}
        self.admitted_count = 0
        self.shed_count = 0

    def observe_flush(self, batch_size, queue_depth, admitted=None):
        self.batch_sizes.add(batch_size)
        self.queue_depths.add(queue_depth)
        self.admitted_count += batch_size if admitted is None else admitted

    def observe_shed(self, reason, queue_depth=None):
        self.shed_count += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        if queue_depth is not None:
            self.queue_depths.add(float(queue_depth))

    def summary(self) -> dict:
        batches = len(self.batch_sizes)
        return {
            "admitted": self.admitted_count,
            "shed": self.shed_count,
            "shed_reasons": dict(self.shed_reasons),
            "flushes": batches,
            "mean_batch_size": (
                self.batch_sizes.mean() if batches else 0.0
            ),
            "max_queue_depth": (
                self.queue_depths.max() if len(self.queue_depths) else 0.0
            ),
        }


flush_op = st.tuples(
    st.just("flush"),
    st.integers(min_value=0, max_value=600),
    st.integers(min_value=0, max_value=2000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
)
shed_op = st.tuples(
    st.just("shed"),
    st.sampled_from(["queue full", "policy", "shutdown"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2000)),
)


def totals(summary: dict) -> dict:
    """The keys the reference summary has (no worker breakdown)."""
    return {key: summary[key] for key in ReferenceGatewayMetrics().summary()}


def shipped(metrics: GatewayMetrics) -> dict:
    """A worker's snapshot as the cluster parent receives it (JSON)."""
    return json.loads(json.dumps(metrics.registry.snapshot()))


def apply(metrics, operations) -> None:
    for operation in operations:
        if operation[0] == "flush":
            _, batch, depth, admitted = operation
            metrics.observe_flush(batch, depth, admitted=admitted)
        else:
            _, reason, depth = operation
            metrics.observe_shed(reason, queue_depth=depth)


class TestSummaryRegression:
    @settings(max_examples=40, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(flush_op, shed_op), min_size=0, max_size=40
        )
    )
    def test_summary_bit_identical_to_reference(self, operations):
        reference = ReferenceGatewayMetrics()
        migrated = GatewayMetrics()
        apply(reference, operations)
        apply(migrated, operations)
        summary = gateway_summary(migrated.registry.snapshot())
        assert totals(summary) == reference.summary()
        assert summary["workers"] == 1
        assert summary["per_worker"] == [reference.summary()]

    @settings(max_examples=20, deadline=None)
    @given(
        workloads=st.lists(
            st.lists(st.one_of(flush_op, shed_op), max_size=20),
            min_size=1,
            max_size=4,
        )
    )
    def test_aggregation_bit_identical_to_reference(self, workloads):
        """N merged worker snapshots read as one worker fed every op."""
        everything = ReferenceGatewayMetrics()
        per_worker = []
        snapshots = []
        for operations in workloads:
            apply(everything, operations)
            reference = ReferenceGatewayMetrics()
            apply(reference, operations)
            per_worker.append(reference.summary())
            worker = GatewayMetrics()
            apply(worker, operations)
            snapshots.append(shipped(worker))
        summary = gateway_summary(merge_snapshots(snapshots))
        assert totals(summary) == everything.summary()
        assert summary["workers"] == len(workloads)
        assert summary["per_worker"] == per_worker


class TestRegistryExposure:
    def test_shared_registry_sees_gateway_series(self):
        registry = MetricsRegistry()
        metrics = GatewayMetrics(registry=registry)
        metrics.observe_flush(4, 10)
        metrics.observe_shed("queue full", queue_depth=512)
        assert registry.get("gateway_admitted_total").value() == 4
        assert registry.get("gateway_flushes_total").value() == 1
        assert registry.get("gateway_shed_total").as_dict() == {
            "queue full": 1
        }
        depths = registry.get("gateway_queue_depth").labels()
        assert depths.max() == 512.0

    def test_private_registry_keeps_instances_isolated(self):
        first, second = GatewayMetrics(), GatewayMetrics()
        first.observe_flush(8, 8)
        summary = gateway_summary(second.registry.snapshot())
        assert (summary["admitted"], summary["flushes"]) == (0, 0)


class TestBoundedMemory:
    def test_flush_stream_does_not_retain_samples(self):
        """A serving process records flushes for its whole life."""
        metrics = GatewayMetrics()
        metrics.observe_flush(16, 16, waits=[0.001])
        metrics.observe_shed("queue full", queue_depth=256)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for flush in range(100_000):
                metrics.observe_flush(1 + flush % 64, flush % 300)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024
        summary = gateway_summary(metrics.registry.snapshot())
        assert summary["flushes"] == 100_001
