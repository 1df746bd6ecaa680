"""Labelled metric instruments behind one process-wide registry.

The registry is where every serving count lives: the gateway's
admission, shed and connection counters, the state client and server,
link-layer and engine-phase totals all record through its instruments,
so one ``/metrics`` scrape or JSON snapshot sees them all, and the
gateway's serving summary is read back from that snapshot.

Design points:

* **Instruments are cheap and thread-safe.**  Each metric guards its
  label→series map with one lock; scalar updates are a dict lookup plus
  an add under the lock.  The gateway's event-loop thread, the state
  server's handler threads and a scraping HTTP thread can all touch
  the same registry.
* **Bulk observation.**  :meth:`Histogram.observe_array` folds a whole
  numpy cohort in O(1) numpy ops (``searchsorted`` + ``bincount``), so
  the vectorized simulator can record a million samples without a
  million Python calls.  Scalar ``observe`` and ``observe_array`` are
  aggregate-equivalent by construction (same bucketing; the float
  summation order is *not* guaranteed, so ``sum`` may differ in the
  last bits for non-integer samples).  Memory is O(buckets) per series
  however long the stream runs.
* **Snapshots cross process boundaries.**  :meth:`MetricsRegistry.
  snapshot` is JSON-safe; :func:`merge_snapshots` folds any number of
  per-worker snapshots into cluster totals (counters and histogram
  buckets sum, gauges merge by their declared aggregation); and
  :func:`render_prometheus` renders any snapshot — live or merged — as
  Prometheus text exposition format.
"""

from __future__ import annotations

import bisect
import json
import re
import threading
import time
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "METRIC_CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "PhaseTimer",
    "merge_snapshots",
    "render_prometheus",
    "validate_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (requests, depths, seconds all
#: fit a rough log scale; callers with tighter needs pass their own).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

#: The documented metric names — DESIGN.md §1.7's table is tested
#: against this mapping, so renaming an instrument here without
#: updating the docs (or vice versa) fails the docs-consistency suite.
METRIC_CATALOG: dict[str, str] = {
    "gateway_admitted_total": (
        "Requests admitted through the micro-batcher (challenge issued)"
    ),
    "gateway_shed_total": (
        "Requests shed by the admission queue, labelled by reason"
    ),
    "gateway_flushes_total": "Admission batch flushes",
    "gateway_batch_size": "Achieved admission batch sizes",
    "gateway_queue_depth": "Admission queue depth at flush and shed",
    "gateway_admission_wait_seconds": (
        "Seconds a request waited in the admission queue before its flush"
    ),
    "gateway_connection_errors_total": (
        "Connections closed without a terminal reply, labelled by kind"
    ),
    "link_crossings_total": "Link-layer crossings attempted",
    "link_lost_total": "Link crossings lost to random loss",
    "link_queue_dropped_total": "Link crossings dropped at a full queue",
    "link_retries_total": "Link retries scheduled after a loss",
    "link_request_give_ups_total": (
        "Requests abandoned after exhausting link retries"
    ),
    "link_solution_give_ups_total": (
        "Solutions abandoned after exhausting link retries"
    ),
    "sim_phase_seconds_total": (
        "Wall seconds the vectorized engine spent per phase"
    ),
    "sim_phase_cohorts_total": "Cohorts the vectorized engine processed per phase",
    "sim_phase_items_total": "Items (events) processed per engine phase",
    "trace_spans_total": "Completed trace spans, labelled by outcome",
    "netstore_server_requests_total": (
        "State-server requests handled, labelled by op (unknown ones as unknown)"
    ),
    "netstore_client_requests_total": (
        "State-client requests issued, labelled by op"
    ),
    "netstore_client_request_seconds": (
        "State-client round trips in seconds, one per frame, labelled by op"
    ),
    "netstore_server_batch_ops": "Keyed ops per state-server multi frame",
    "netstore_client_retries_total": (
        "State-client retries after transport failures"
    ),
    "netstore_client_timeouts_total": (
        "State-client requests abandoned on timeout"
    ),
    "netstore_handoff_bytes_total": (
        "Snapshot bytes moved between nodes during resharding"
    ),
}


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, object]
) -> tuple[str, ...]:
    if len(labels) == len(label_names):
        try:
            return tuple([str(labels[name]) for name in label_names])
        except KeyError:
            pass
    raise ValueError(
        f"expected labels {label_names}, got {tuple(sorted(labels))}"
    )


class _Metric:
    """Shared bookkeeping for one named family of labelled series."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}

    def _series_items(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return list(self._series.items())

    def _labels_dict(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.label_names, key))


class Counter(_Metric):
    """A monotonically increasing sum, optionally labelled."""

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> int | float:
        """Current value of one labelled series (0 when unseen)."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._series.get(key, 0)

    def total(self) -> int | float:
        """Sum across every labelled series."""
        with self._lock:
            return sum(self._series.values())

    def as_dict(self) -> dict[str, int | float]:
        """Label-joined view, e.g. ``{"queue full": 3}`` — for summaries."""
        with self._lock:
            return {
                ",".join(key) if key else "": value
                for key, value in self._series.items()
            }

    def _snapshot_series(self) -> list[dict]:
        return [
            {"labels": self._labels_dict(key), "value": value}
            for key, value in self._series_items()
        ]


class Gauge(_Metric):
    """A value that can go up and down.

    ``agg`` declares how per-worker snapshots of this gauge merge into
    cluster totals: ``"sum"`` (e.g. in-flight requests), ``"max"``
    (high-water marks) or ``"last"`` (configuration-style values).
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        agg: str = "sum",
    ) -> None:
        if agg not in ("sum", "max", "last"):
            raise ValueError(f"unknown gauge aggregation {agg!r}")
        super().__init__(name, help, label_names)
        self.agg = agg

    def set(self, value: int | float, **labels: object) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = value

    def inc(self, amount: int | float = 1, **labels: object) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: int | float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> int | float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._series.get(key, 0)

    def _snapshot_series(self) -> list[dict]:
        return [
            {"labels": self._labels_dict(key), "value": value}
            for key, value in self._series_items()
        ]


class HistogramSeries:
    """One labelled histogram stream: buckets plus summary statistics.

    Memory stays O(buckets) for unbounded streams; the mean is
    ``sum / count``, exact whenever the samples are integers (every
    gateway size and depth series is).
    """

    __slots__ = ("_bounds", "_edges", "counts", "sum", "count", "_min", "_max", "_lock")

    def __init__(self, bounds: np.ndarray) -> None:
        self._bounds = bounds
        self._edges = bounds.tolist()  # bisected by the scalar path
        self.counts = np.zeros(bounds.size + 1, dtype=np.int64)
        self.sum = 0.0
        self.count = 0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: int | float) -> None:
        value = float(value)
        # searchsorted(side="left") on a list; numpy sorts NaN past
        # every bound, where a NaN comparison would put it in bucket 0.
        edges = self._edges
        index = bisect.bisect_left(edges, value) if value == value else len(edges)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def observe_array(self, values: np.ndarray) -> None:
        """Fold a whole cohort in O(1) numpy ops."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        indexes = np.searchsorted(self._bounds, values, side="left")
        binned = np.bincount(indexes, minlength=self.counts.size)
        total = float(values.sum())
        low = float(values.min())
        high = float(values.max())
        with self._lock:
            self.counts += binned
            self.sum += total
            self.count += int(values.size)
            if self._min is None or low < self._min:
                self._min = low
            if self._max is None or high > self._max:
                self._max = high

    def __len__(self) -> int:
        return self.count

    def mean(self) -> float:
        if not self.count:
            raise ValueError("mean of an empty histogram series")
        return self.sum / self.count

    def min(self) -> float:
        if self._min is None:
            raise ValueError("min of an empty histogram series")
        return self._min

    def max(self) -> float:
        if self._max is None:
            raise ValueError("max of an empty histogram series")
        return self._max


class Histogram(_Metric):
    """Bucketed distribution with sum/count/min/max per labelled series."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = np.asarray(sorted(float(b) for b in buckets))
        if bounds.size == 0:
            raise ValueError("histogram needs at least one bucket bound")
        if np.unique(bounds).size != bounds.size:
            raise ValueError(f"duplicate bucket bounds in {buckets}")
        self.bounds = bounds

    def labels(self, **labels: object) -> HistogramSeries:
        """The (created-on-first-use) series for one label combination."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = HistogramSeries(self.bounds)
                self._series[key] = series
            return series  # type: ignore[return-value]

    def observe(self, value: int | float, **labels: object) -> None:
        self.labels(**labels).observe(value)

    def observe_array(self, values: np.ndarray, **labels: object) -> None:
        self.labels(**labels).observe_array(values)

    def _snapshot_series(self) -> list[dict]:
        rows = []
        for key, series in self._series_items():
            with series._lock:  # type: ignore[union-attr]
                rows.append(
                    {
                        "labels": self._labels_dict(key),
                        "buckets": series.counts.tolist(),
                        "sum": series.sum,
                        "count": series.count,
                        "min": series._min,
                        "max": series._max,
                    }
                )
        return rows


class MetricsRegistry:
    """A named collection of instruments with one snapshot boundary.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument (and raises if the
    second request disagrees on kind or labels), so independent
    components can share instruments without coordination.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, factory: Callable[[], _Metric]) -> _Metric:
        candidate = factory()
        with self._lock:
            existing = self._metrics.get(candidate.name)
            if existing is None:
                self._metrics[candidate.name] = candidate
                return candidate
            if type(existing) is not type(candidate) or (
                existing.label_names != candidate.label_names
            ):
                raise ValueError(
                    f"metric {candidate.name!r} already registered as "
                    f"{existing.kind} with labels {existing.label_names}"
                )
            return existing

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(  # type: ignore[return-value]
            lambda: Counter(name, help, labels)
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        agg: str = "sum",
    ) -> Gauge:
        return self._get_or_create(  # type: ignore[return-value]
            lambda: Gauge(name, help, labels, agg=agg)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            lambda: Histogram(name, help, labels, buckets=buckets)
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def snapshot(self) -> dict:
        """JSON-safe reduction of every instrument (shippable cross-process)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        out = []
        for name, metric in metrics:
            entry: dict = {
                "name": name,
                "type": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
                "series": metric._snapshot_series(),  # type: ignore[attr-defined]
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = metric.bounds.tolist()
            if isinstance(metric, Gauge):
                entry["agg"] = metric.agg
            out.append(entry)
        return {"format": "repro-metrics/v1", "metrics": out}

    def render(self) -> str:
        """Prometheus text exposition of the live registry."""
        return render_prometheus(self.snapshot())


# ----------------------------------------------------------------------
# Snapshot algebra (merging worker snapshots, rendering exposition)
# ----------------------------------------------------------------------
def _series_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Fold per-worker registry snapshots into one cluster snapshot.

    Counters and histogram buckets/sums/counts add; histogram min/max
    take the extremes; gauges merge by their declared ``agg``.  Metric
    families absent from some workers merge fine — a worker that never
    shed anything simply contributes nothing to ``gateway_shed_total``.
    The inputs ride along under ``parts`` (flattened when an input is
    itself a merge), so a merged view still reads per worker.
    """
    merged: dict[str, dict] = {}
    parts: list[Mapping] = []
    for snapshot in snapshots:
        parts.extend(snapshot.get("parts") or (snapshot,))
        for metric in snapshot.get("metrics", ()):
            name = metric["name"]
            target = merged.get(name)
            if target is None:
                target = {
                    key: value
                    for key, value in metric.items()
                    if key != "series"
                }
                target["series"] = {}
                merged[name] = target
            series_map = target["series"]
            for row in metric.get("series", ()):
                key = _series_key(row.get("labels", {}))
                existing = series_map.get(key)
                if existing is None:
                    series_map[key] = {
                        k: (list(v) if isinstance(v, list) else v)
                        for k, v in row.items()
                    }
                    continue
                if metric["type"] == "histogram":
                    existing["buckets"] = [
                        a + b
                        for a, b in zip(existing["buckets"], row["buckets"])
                    ]
                    existing["sum"] += row["sum"]
                    existing["count"] += row["count"]
                    for field, pick in (("min", min), ("max", max)):
                        ours, theirs = existing.get(field), row.get(field)
                        if ours is None:
                            existing[field] = theirs
                        elif theirs is not None:
                            existing[field] = pick(ours, theirs)
                elif metric["type"] == "gauge":
                    agg = metric.get("agg", "sum")
                    if agg == "sum":
                        existing["value"] += row["value"]
                    elif agg == "max":
                        existing["value"] = max(
                            existing["value"], row["value"]
                        )
                    else:  # last
                        existing["value"] = row["value"]
                else:  # counter
                    existing["value"] += row["value"]
    out = []
    for name in sorted(merged):
        entry = dict(merged[name])
        entry["series"] = [
            dict(row) for _, row in sorted(entry["series"].items())
        ]
        out.append(entry)
    result: dict = {"format": "repro-metrics/v1", "metrics": out}
    if parts:
        result["parts"] = parts
    return result


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: int | float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: Mapping) -> str:
    """Render a registry snapshot as Prometheus text exposition format.

    Works on live snapshots and :func:`merge_snapshots` output alike —
    the cluster parent renders worker aggregates through this exact
    function.
    """
    lines: list[str] = []
    for metric in snapshot.get("metrics", ()):
        name = metric["name"]
        help_text = (metric.get("help") or "").replace("\n", " ")
        lines.append(f"# HELP {name} {help_text}".rstrip())
        lines.append(f"# TYPE {name} {metric['type']}")
        if metric["type"] == "histogram":
            bounds = metric.get("bounds", [])
            for row in metric.get("series", ()):
                labels = row.get("labels", {})
                cumulative = 0
                for bound, count in zip(bounds, row["buckets"]):
                    cumulative += count
                    le = 'le="%g"' % bound
                    lines.append(
                        f"{name}_bucket{_format_labels(labels, le)} "
                        f"{cumulative}"
                    )
                cumulative += row["buckets"][len(bounds)]
                inf = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{_format_labels(labels, inf)} "
                    f"{cumulative}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(row['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {row['count']}"
                )
        else:
            for row in metric.get("series", ()):
                lines.append(
                    f"{name}{_format_labels(row.get('labels', {}))} "
                    f"{_format_value(row['value'])}"
                )
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(?:\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" [-+]?(?:[0-9.]+(?:e[-+]?[0-9]+)?|Inf|NaN)$",
    re.IGNORECASE,
)


def validate_exposition(text: str) -> list[str]:
    """Structural checks on Prometheus text exposition; returns problems.

    Shared by the smoke tools and the test suite: every sample line
    must parse, every samples' family must be TYPE-declared first, and
    histogram families must expose ``_bucket``/``_sum``/``_count``.
    """
    problems: list[str] = []
    typed: dict[str, str] = {}
    seen_samples: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) < 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                problems.append(f"line {lineno}: malformed TYPE line")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        family = re.split(r"[{ ]", line, maxsplit=1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", family)
        if family not in typed and base not in typed:
            problems.append(f"line {lineno}: {family} has no TYPE")
        seen_samples.add(family)
    for name, kind in typed.items():
        if kind == "histogram" and f"{name}_count" in seen_samples:
            for suffix in ("_bucket", "_sum"):
                if f"{name}{suffix}" not in seen_samples:
                    problems.append(
                        f"histogram {name} missing {name}{suffix} samples"
                    )
    return problems


# ----------------------------------------------------------------------
# Per-phase engine timing
# ----------------------------------------------------------------------
class PhaseTimer:
    """Accumulates wall time, cohort counts and item counts per phase.

    The vectorized simulator calls :meth:`observe` once per cohort when
    a timer is attached; detached (the default) the engine pays one
    ``is None`` check per cohort, keeping the telemetry-off hot path
    unchanged.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.cohorts: dict[str, int] = {}
        self.items: dict[str, int] = {}

    def observe(self, phase: str, seconds: float, items: int = 0) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.cohorts[phase] = self.cohorts.get(phase, 0) + 1
        self.items[phase] = self.items.get(phase, 0) + int(items)

    def summary(self) -> dict[str, dict]:
        """Per-phase totals plus derived rates, JSON-safe."""
        out: dict[str, dict] = {}
        for phase in sorted(self.seconds):
            seconds = self.seconds[phase]
            items = self.items.get(phase, 0)
            out[phase] = {
                "seconds": seconds,
                "cohorts": self.cohorts.get(phase, 0),
                "items": items,
                "items_per_second": items / seconds if seconds > 0 else 0.0,
            }
        return out

    def publish(self, registry: MetricsRegistry) -> None:
        """Fold the totals into ``sim_phase_*`` registry counters."""
        seconds = registry.counter(
            "sim_phase_seconds_total",
            METRIC_CATALOG["sim_phase_seconds_total"],
            labels=("phase",),
        )
        cohorts = registry.counter(
            "sim_phase_cohorts_total",
            METRIC_CATALOG["sim_phase_cohorts_total"],
            labels=("phase",),
        )
        items = registry.counter(
            "sim_phase_items_total",
            METRIC_CATALOG["sim_phase_items_total"],
            labels=("phase",),
        )
        for phase in self.seconds:
            seconds.inc(self.seconds[phase], phase=phase)
            cohorts.inc(self.cohorts.get(phase, 0), phase=phase)
            items.inc(self.items.get(phase, 0), phase=phase)

    def render(self) -> str:
        """One-line summary for campaign notes."""
        parts = [
            f"{phase} {stats['seconds']:.2f}s/{stats['cohorts']:,} cohorts"
            for phase, stats in self.summary().items()
        ]
        return ", ".join(parts) if parts else "(no phases timed)"


def dump_snapshot_line(snapshot: Mapping, at: float | None = None) -> str:
    """One JSONL line for the periodic snapshot writer."""
    return json.dumps(
        {"t": time.time() if at is None else at, "snapshot": snapshot},
        separators=(",", ":"),
    )
