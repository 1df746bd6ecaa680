"""Decision recorder: capture admitted traffic as a replayable v2 trace.

:class:`TraceRecorder` subscribes to a framework's
:class:`~repro.core.events.EventBus` and turns every admission outcome
into a :class:`~repro.traffic.trace.TraceEntry` carrying its
:class:`~repro.core.records.DecisionRecord`:

* ``PUZZLE_ISSUED``  → verdict ``"admit"`` with the score, difficulty,
  policy/model names and the issued puzzle's parameters;
* ``REQUEST_SHED``   → verdict ``"shed"`` with the shed reason.

Because it hangs off the event bus, the same recorder works against
every serving path — the in-process framework, the async
:class:`~repro.net.gateway.server.GatewayServer`, each worker of a
:class:`~repro.net.gateway.cluster.GatewayCluster`, and both
simulators — and costs nothing when not attached (the framework skips
event construction with no subscribers).

Requests that arrive without a ``request_id`` (the live transports
build them from raw sockets) are assigned a sequential ``rec-N`` id at
capture time, so the resulting trace satisfies the unique-id invariant
replay depends on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Mapping

from repro.core.events import EventBus, EventKind, FrameworkEvent
from repro.core.records import ClientRequest, DecisionRecord
from repro.traffic.trace import Trace, TraceEntry, TraceHeader

__all__ = ["TraceRecorder", "spec_hash"]

#: Resolves a client IP to (profile name, true score) for trace entries.
SourceResolver = Callable[[str], tuple[str, float]]


def spec_hash(spec) -> str:
    """Stable hash of a framework recipe (:class:`FrameworkSpec`).

    The hash goes into the trace header; replayers compare it against
    the replay-side recipe so decisions recorded under one pipeline are
    never silently diffed against another.
    """
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        spec = dataclasses.asdict(spec)
    payload = json.dumps(spec, sort_keys=True, default=str).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class TraceRecorder:
    """Accumulates (request, decision) pairs from a framework event bus.

    Parameters
    ----------
    sources:
        Optional mapping of client IP → ``(profile, true_score)`` used
        to stamp trace entries with their generating population's
        ground truth.  Unknown addresses record as
        ``(default_profile, 0.0)``.  :meth:`register_source` adds
        mappings incrementally (the simulators feed it as trace entries
        are submitted).
    default_profile:
        Profile label for addresses without a registered source —
        ``"live"`` fits gateway captures, where ground truth is unknown.
    id_prefix:
        Prefix for ids assigned to requests that arrive without one.
        Cluster workers use ``w<shard>`` so ids stay unique after the
        parent merges the per-shard partial traces.
    """

    def __init__(
        self,
        sources: Mapping[str, tuple[str, float]] | None = None,
        *,
        default_profile: str = "live",
        id_prefix: str = "rec",
    ) -> None:
        self._sources: dict[str, tuple[str, float]] = dict(sources or {})
        self.default_profile = default_profile
        self.id_prefix = id_prefix
        self.entries: list[TraceEntry] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> "TraceRecorder":
        """Subscribe to admission outcomes on ``bus``; returns self."""
        bus.subscribe(
            self._on_event,
            kinds=[EventKind.PUZZLE_ISSUED, EventKind.REQUEST_SHED],
        )
        return self

    def register_source(
        self, client_ip: str, profile: str, true_score: float
    ) -> None:
        """Record the ground truth behind ``client_ip``'s traffic."""
        self._sources[client_ip] = (profile, true_score)

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def _on_event(self, event: FrameworkEvent) -> None:
        if event.kind is EventKind.PUZZLE_ISSUED:
            decision = event.payload.get("decision")
            puzzle = event.payload.get("puzzle")
            if decision is None:
                return
            record = DecisionRecord(
                request_id="",  # assigned in _capture
                client_ip=decision.request.client_ip,
                verdict="admit",
                score=decision.reputation_score,
                difficulty=decision.difficulty,
                policy_name=decision.policy_name,
                model_name=decision.model_name,
                puzzle_algorithm=(
                    puzzle.algorithm if puzzle is not None else ""
                ),
                puzzle_seed=puzzle.seed if puzzle is not None else "",
            )
            self._capture(decision.request, record)
        elif event.kind is EventKind.REQUEST_SHED:
            request = event.payload.get("request")
            if request is None:
                return
            record = DecisionRecord(
                request_id="",
                client_ip=request.client_ip,
                verdict="shed",
                policy_name=str(event.payload.get("policy", "")),
                detail=str(event.payload.get("reason", "")),
            )
            self._capture(request, record)

    def _capture(self, request: ClientRequest, record: DecisionRecord) -> None:
        request_id = request.request_id
        if not request_id:
            request_id = f"{self.id_prefix}-{self._next_id}"
            self._next_id += 1
            request = dataclasses.replace(request, request_id=request_id)
        record = dataclasses.replace(record, request_id=request_id)
        profile, true_score = self._sources.get(
            request.client_ip, (self.default_profile, 0.0)
        )
        self.entries.append(
            TraceEntry(
                request=request,
                profile=profile,
                true_score=true_score,
                decision=record,
            )
        )

    def capture_error(self, request: ClientRequest, detail: str) -> None:
        """Record a failed admission (the framework emits no event)."""
        self._capture(
            request,
            DecisionRecord(
                request_id="",
                client_ip=request.client_ip,
                verdict="error",
                detail=detail,
            ),
        )

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def trace(
        self,
        *,
        config_hash: str = "",
        seed: int | None = None,
        meta: Mapping | None = None,
    ) -> Trace:
        """The captured entries as a v2 :class:`Trace`."""
        header = TraceHeader(
            config_hash=config_hash, seed=seed, meta=dict(meta or {})
        )
        return Trace(self.entries, header=header)

    def dump(
        self,
        path,
        *,
        config_hash: str = "",
        seed: int | None = None,
        meta: Mapping | None = None,
    ) -> Trace:
        """Write the captured trace to ``path``; returns it."""
        trace = self.trace(config_hash=config_hash, seed=seed, meta=meta)
        trace.dump_jsonl(path)
        return trace
