"""Harness-side tracing: spans around the calls into each layer.

The per-layer numbers come from a separate ``--trace 1`` run.  Spans are
recorded *by the harness* at the seams the program already exposes —
the model, policy and store objects a framework is built from — and kept
in memory until the run ends; nothing inside ``src/`` is instrumented.
A layer's *self* time is its spans' duration minus the part their child
spans cover, so nested layers (score -> store op) are not counted twice.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Callable

from repro.state import AdmissionStateStore

__all__ = ["Tracer", "LayerTotals", "TimedProxy", "TimedStore"]


@dataclasses.dataclass(slots=True)
class LayerTotals:
    """Aggregate of every span recorded under one name."""

    count: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    durations: list[float] = dataclasses.field(default_factory=list)


class Tracer:
    """In-memory span recorder (name, parent, start, end)."""

    def __init__(self) -> None:
        #: ``[name, parent index or -1, start, end]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index``; returns its duration in seconds."""
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._stack.pop()
        return span[3] - span[2]

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""

        def call(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return call

    def totals(self) -> dict[str, LayerTotals]:
        """Per-name count, total time and self time over all spans."""
        layers: dict[str, LayerTotals] = {}
        child_seconds = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        for (name, _, start, end), children in zip(self.spans, child_seconds):
            layer = layers.setdefault(name, LayerTotals())
            layer.count += 1
            layer.seconds += end - start
            layer.self_seconds += end - start - children
            layer.durations.append(end - start)
        return layers

    def count_under(self, name: str, root: str) -> int:
        """Spans called ``name`` whose outermost ancestor is called ``root``."""
        roots: list[str] = []  # a parent always precedes its children
        count = 0
        for span_name, parent, _, _ in self.spans:
            roots.append(span_name if parent < 0 else roots[parent])
            if span_name == name and roots[-1] == root:
                count += 1
        return count

    def dump(self, path: str) -> None:
        """Write the spans as JSONL (the run is over; nothing is timed)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "start": start, "end": end,
                }) + "\n")


class TimedProxy:
    """``inner`` with the named methods wrapped in spans.

    ``spans`` maps method name -> span name; methods ``inner`` lacks are
    skipped (the framework probes for optional batch methods with
    ``getattr``), everything else is delegated untouched.
    """

    def __init__(self, inner: Any, tracer: Tracer, spans: dict[str, str]) -> None:
        self._inner = inner
        for method, span in spans.items():
            fn = getattr(inner, method, None)
            if fn is not None:
                setattr(self, method, tracer.timed(span, fn))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


_STORE_SPAN = "state.store.op"


def _timed_op(method: str) -> Callable:
    def op(self, *args):
        index = self._tracer.begin(_STORE_SPAN)
        try:
            return getattr(self._inner, method)(*args)
        finally:
            self._tracer.end(index)

    op.__name__ = method
    return op


def _timed_iteration(method: str) -> Callable:
    """Iteration is lazy (a remote namespace pages per round trip, and
    callers stop early), so each step is its own span."""

    def op(self):
        iterator = iter(getattr(self._inner, method)())
        while True:
            index = self._tracer.begin(_STORE_SPAN)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._tracer.end(index)
            yield item

    op.__name__ = method
    return op


class _TimedNamespace:
    """A state namespace whose every operation is one span."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name


for _method in (
    "get", "__getitem__", "__setitem__", "__delitem__", "__contains__",
    "__len__", "pop", "setdefault", "clear", "move_to_end", "popitem",
    "dump", "load",
):
    setattr(_TimedNamespace, _method, _timed_op(_method))
for _method in ("__iter__", "keys", "items"):
    setattr(_TimedNamespace, _method, _timed_iteration(_method))


class TimedStore(AdmissionStateStore):
    """Counting/timing proxy over any admission state store."""

    def __init__(self, inner: AdmissionStateStore, tracer: Tracer) -> None:
        self.inner = inner
        self._tracer = tracer
        self._tables: dict[str, _TimedNamespace] = {}

    def namespace(self, name: str) -> _TimedNamespace:
        table = self._tables.get(name)
        if table is None:
            table = self._tables[name] = _TimedNamespace(
                self.inner.namespace(name), self._tracer
            )
        return table

    def namespaces(self) -> tuple[str, ...]:
        return self.inner.namespaces()

    def snapshot(self) -> dict:
        return self.inner.snapshot()

    def restore(self, snapshot: dict) -> None:
        self.inner.restore(snapshot)

    def clear(self) -> None:
        self.inner.clear()
