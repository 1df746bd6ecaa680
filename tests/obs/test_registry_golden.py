"""A fixed registry history renders and snapshots exactly as recorded.

``registry_golden.json`` holds the ``render()`` text and ``snapshot()``
of the history below as the registry produced them when histograms
held numpy bounds and counts.  Plain-Python bounds and counts must give
the same bytes and the same snapshot, scalar and bulk paths alike.
To re-record after a deliberate format change:
``PYTHONPATH=src python tests/obs/test_registry_golden.py``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.obs.registry import (
    COUNT_BUCKETS,
    SECONDS_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
)

GOLDEN = pathlib.Path(__file__).with_name("registry_golden.json")


def _history(worker: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    admitted = registry.counter("gateway_admitted_total", "admitted")
    shed = registry.counter("gateway_shed_total", "shed", labels=("reason",))
    depth = registry.gauge("gateway_queue_depth_max", "depth", agg="max")
    waits = registry.histogram(
        "gateway_admission_wait_seconds", "waits", buckets=SECONDS_BUCKETS
    )
    sizes = registry.histogram(
        "gateway_batch_size", "sizes", labels=("shard",),
        buckets=COUNT_BUCKETS,
    )
    plain = registry.histogram("plain", "default buckets")
    for i in range(40):
        admitted.inc()
        shed.inc(i % 3, reason="queue full" if i % 2 else "deadline")
        depth.set((i * 7 + worker) % 23)
        waits.observe(1e-5 * (i + 1) * (worker + 1))
        sizes.observe(i % 17 + worker, shard=str(i % 2))
        plain.observe(i * 0.37)
    waits.observe_array(np.linspace(0.0, 0.02, 101) * (worker + 1))
    waits.observe_array(np.array([], dtype=np.float64))
    sizes.observe_array(np.arange(0, 5000, 37), shard="0")
    plain.observe_array(np.array([0.001, 1.0, 1000.0, 1e9, 250]))
    sizes.labels(shard="2").observe(2)
    return registry


def _record() -> dict:
    registries = [_history(worker) for worker in (0, 1)]
    merged = merge_snapshots(r.snapshot() for r in registries)
    # ``merged["parts"]`` holds each registry's own snapshot.
    return {
        "render": [r.render() for r in registries],
        "merged_render": render_prometheus(merged),
        "merged": merged,
    }


def test_render_and_snapshot_equal_the_recorded_ones():
    golden = json.loads(GOLDEN.read_text("utf-8"))
    now = _record()
    assert now["render"] == golden["render"]
    assert now["merged_render"] == golden["merged_render"]
    # Through JSON, as snapshots cross processes: ints stay ints.
    assert json.loads(json.dumps(now["merged"])) == golden["merged"]
    assert json.dumps(now["merged"]) == json.dumps(golden["merged"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n", "utf-8")
