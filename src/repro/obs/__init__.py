"""Unified telemetry: metrics registry, request tracing, introspection.

Three layers, each usable alone:

* :mod:`repro.obs.registry` — a process-wide, thread-safe registry of
  labelled counters, gauges and histograms with a numpy ``observe_array``
  bulk path, JSON-safe snapshots that merge across worker processes, and
  Prometheus text exposition.
* :mod:`repro.obs.tracing` — 1-in-N sampled request spans following a
  request through gateway accept → accumulator flush → score → policy →
  puzzle issue → verify, dumped as JSONL and rendered by
  ``repro trace``.
* :mod:`repro.obs.http` — a stdlib-only introspection endpoint
  (``/metrics``, ``/healthz``, ``/summary``) plus a periodic snapshot
  writer for campaigns and soak runs.

The cost contract: with no registry, tracer, or timer attached, the hot
paths (framework batch admission, the vectorized simulator's cohort
loop) execute the identical instruction stream they did before this
package existed — instrumentation is pay-for-what-you-attach, enforced
as clock-read counts by ``tests/net/test_scale_budget.py``.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "METRIC_CATALOG": "repro.obs.registry",
    "Counter": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "MetricsHTTPServer": "repro.obs.http",
    "PhaseTimer": "repro.obs.registry",
    "RequestTracer": "repro.obs.tracing",
    "SnapshotWriter": "repro.obs.http",
    "load_spans": "repro.obs.tracing",
    "merge_snapshots": "repro.obs.registry",
    "render_prometheus": "repro.obs.registry",
    "render_spans": "repro.obs.tracing",
    "validate_exposition": "repro.obs.registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
