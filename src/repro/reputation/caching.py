"""Per-IP score caching: shaving the AI model off the hot path.

Scoring every request is wasteful when an address's threat-intelligence
attributes change on the scale of hours — and under a flood, the AI
model is itself a resource the attack consumes.  :class:`CachedModel`
wraps any reputation model with a TTL-bounded, capacity-bounded per-IP
cache keyed by the requesting address.

Composition with
:class:`~repro.reputation.feedback.FeedbackReputationModel`: the
recommended order is still feedback *wrapping* caching (the offset is
applied on top of the cached base score, so behaviour reacts
instantly).  The reverse order — caching a feedback-adjusted score —
is now coherent too: the cache subscribes to the inner chain's offset
changes and invalidates the affected IP the moment a penalty or reward
lands, instead of serving the stale pre-feedback score until the TTL
expires.

Cache entries live in an :class:`~repro.state.AdmissionStateStore`
namespace (``score-cache``, entries ``ip -> [cached_at, score]``), so
a warmed cache snapshots/restores with the rest of the admission
state.  Hit/miss counters are process-local diagnostics, not state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import ReputationModel, batch_scores
from repro.core.records import ClientRequest
from repro.reputation.base import BatchModel, model_chain, model_score_batch
from repro.state import AdmissionStateStore, InMemoryStateStore

__all__ = ["CachedModel"]


class CachedModel(BatchModel):
    """TTL + LRU cache over an inner model's per-request scores.

    Parameters
    ----------
    inner:
        The wrapped reputation model.
    ttl:
        Seconds a cached score stays valid.
    max_entries:
        Capacity bound; least-recently-used entries are evicted.
    store:
        Admission state store holding the cache table; a private
        in-memory store is created when omitted.
    namespace:
        Store namespace name, for deployments running several caches
        over one store.
    """

    def __init__(
        self,
        inner: ReputationModel,
        ttl: float = 3600.0,
        max_entries: int = 100_000,
        *,
        store: AdmissionStateStore | None = None,
        namespace: str = "score-cache",
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if max_entries <= 0:
            raise ValueError(f"max_entries must be > 0, got {max_entries}")
        self.inner = inner
        self.ttl = ttl
        self.max_entries = max_entries
        self.store = store if store is not None else InMemoryStateStore()
        self._cache = self.store.namespace(namespace)
        self._count = (namespace, "len")
        self.hits = 0
        self.misses = 0
        self._subscribe_offset_changes(inner)

    def _subscribe_offset_changes(self, inner) -> None:
        """Invalidate on feedback shifts anywhere in the inner chain.

        Walks ``inner`` through wrapper links (``.base`` / ``.inner``)
        and registers :meth:`invalidate` with every model that
        announces offset changes, keeping a cached feedback-adjusted
        score coherent with the behavioural signal beneath it.
        """
        for node in model_chain(inner):
            subscribe = getattr(node, "subscribe_offset_changes", None)
            if callable(subscribe):
                subscribe(self.invalidate)

    @property
    def name(self) -> str:
        return f"cached({self.inner.name})"

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._cache)

    def score_batch(self, features) -> np.ndarray:
        """Feature-level scoring has no IP key: always delegates."""
        return model_score_batch(self.inner, features)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        """Cached per-IP scores; see :meth:`score_and_read`."""
        return self.score_and_read(requests, ())[0]

    def score_and_read(
        self, requests: Sequence[ClientRequest], reads
    ) -> tuple[np.ndarray, list]:
        """Cached per-IP scores, plus the results of ``reads`` on this store.

        ``reads`` ride in the cache's own read call, ahead of its
        writes, so a model above this one (feedback's offsets) needs no
        call of its own.  Scores are recomputed when an entry ages out.

        Walks the batch in arrival order resolving cache hits, then
        scores all misses through the inner model in a single batch and
        applies the insert/evict updates in arrival order.  A repeated
        address later in the batch counts as a hit on the score its
        first occurrence is about to compute (as if the first
        occurrence had already populated the cache), unless the gap
        between their timestamps exceeds the TTL.

        Hits are resolved against pre-batch cache state, which only
        equals request-by-request admission when no eviction can fire
        mid-batch; when the batch could overflow ``max_entries`` it is
        scored as a loop of batches of one, so the result does not
        depend on the batch size under cache pressure either.  A batch
        of one writes its entry, then evicts the oldest down to the cap.

        State access is *read set -> decide -> write set*: one awaited
        :meth:`~repro.state.AdmissionStateStore.execute` call per batch
        whatever its size (plus one per eviction), the write set posted;
        only an address read as absent grows the table.
        """
        # Read set: every address's entry, the table size and the
        # riders, one store call (one frame on a networked store).
        name = self._cache.name
        count = len(requests)
        found = self.store.execute(
            [*[(name, "get", request.client_ip) for request in requests],
             self._count, *reads]
        )
        riders = found[count + 1:]
        size = found[count]
        if size + count > self.max_entries and count > 1:
            return np.concatenate(
                [self.score_requests([request]) for request in requests]
            ), riders
        scores = np.empty(len(requests), dtype=np.float64)
        writes: list[tuple] = []
        miss_indices: list[int] = []
        miss_waiters: list[list[int]] = []
        # ip -> (timestamp of the latest pending miss, its waiter list)
        pending: dict[str, tuple[float, list[int]]] = {}
        for i, (request, entry) in enumerate(zip(requests, found)):
            now = request.timestamp
            ip = request.client_ip
            waiting = pending.get(ip)
            if waiting is not None:
                if now - waiting[0] <= self.ttl:
                    self.hits += 1
                    waiting[1].append(i)
                    continue
                # What was read is already replaced: re-scored.
            elif entry is None:
                size += 1
            else:
                cached_at, score = entry
                if now - cached_at <= self.ttl:
                    writes.append((name, "move_to_end", ip))
                    self.hits += 1
                    scores[i] = score
                    continue
            self.misses += 1
            miss_indices.append(i)
            waiters: list[int] = []
            miss_waiters.append(waiters)
            pending[ip] = (now, waiters)
        if miss_indices:
            fresh = batch_scores(
                self.inner, [requests[i] for i in miss_indices]
            )
            for i, waiters, value in zip(miss_indices, miss_waiters, fresh):
                request = requests[i]
                ip = request.client_ip
                score = float(value)
                scores[i] = score
                # An overwrite keeps its slot: the move places the entry,
                # also when a re-sent frame applies the write set twice.
                writes.append((name, "put", ip, [request.timestamp, score]))
                writes.append((name, "move_to_end", ip))
                for j in waiters:
                    scores[j] = score
        # Write set, in arrival order; then evict the oldest down to the
        # cap (a batch of one at capacity, or another writer's entries).
        if writes:
            self.store.post(writes)
        while size > self.max_entries:
            self._cache.popitem(last=False)
            size -= 1
        return scores, riders

    def invalidate(self, client_ip: str | None = None) -> None:
        """Drop one address's entry, or the whole cache when None."""
        if client_ip is None:
            self._cache.clear()
        else:
            self._cache.pop(client_ip, None)
