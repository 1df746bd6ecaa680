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

from typing import Mapping, Sequence

import numpy as np

from repro.core.interfaces import ReputationModel
from repro.core.records import ClientRequest
from repro.reputation.base import model_score_batch, model_score_requests
from repro.state import AdmissionStateStore, InMemoryStateStore

__all__ = ["CachedModel"]


class CachedModel:
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
        seen: set[int] = set()
        node = inner
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            subscribe = getattr(node, "subscribe_offset_changes", None)
            if callable(subscribe):
                subscribe(self.invalidate)
            node = getattr(node, "base", None) or getattr(node, "inner", None)

    @property
    def name(self) -> str:
        return f"cached({self.inner.name})"

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._cache)

    def score(self, features: Mapping[str, float]) -> float:
        """Feature-level scoring has no IP key: always delegates."""
        return self.inner.score(features)

    def score_request(self, request: ClientRequest) -> float:
        """Cached per-IP score, recomputed when the entry ages out."""
        now = request.timestamp
        entry = self._cache.get(request.client_ip)
        if entry is not None:
            cached_at, score = entry
            if now - cached_at <= self.ttl:
                self._cache.move_to_end(request.client_ip)
                self.hits += 1
                return score
            del self._cache[request.client_ip]

        self.misses += 1
        score = self.inner.score_request(request)
        self._cache[request.client_ip] = [now, score]
        self._cache.move_to_end(request.client_ip)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
        return score

    def score_batch(self, features: np.ndarray) -> np.ndarray:
        """Feature-level scoring has no IP key: always delegates."""
        return model_score_batch(self.inner, features)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        """Batch variant of :meth:`score_request` with one inner call.

        Walks the batch in arrival order resolving cache hits, then
        scores all misses through the inner model in a single batch and
        replays the insert/evict updates in the same order the scalar
        loop would have.  A repeated address later in the batch counts
        as a hit on the score its first occurrence is about to compute
        (matching the scalar loop, where the first occurrence has
        already populated the cache), unless the gap between their
        timestamps exceeds the TTL.

        Hits are resolved against pre-batch cache state, which only
        matches the scalar loop's interleaved inserts when no eviction
        can fire mid-batch; when the batch could overflow
        ``max_entries`` the method falls back to the scalar loop so the
        two paths stay exactly equivalent under cache pressure too.

        State access is *read set -> decide -> write set*: two
        :meth:`~repro.state.AdmissionStateStore.execute` calls per
        batch whatever its size, on every backend.
        """
        # Read set: the table size and every address's entry, one
        # store call (one frame on a networked store).
        name = self._cache.name
        found = self.store.execute(
            [*[(name, "get", request.client_ip) for request in requests],
             self._count]
        )
        if found.pop() + len(requests) > self.max_entries:
            return np.array(
                [self.score_request(request) for request in requests],
                dtype=np.float64,
            )
        scores = np.empty(len(requests), dtype=np.float64)
        writes: list[tuple] = []
        miss_indices: list[int] = []
        miss_waiters: list[list[int]] = []
        # ip -> (timestamp of the latest pending miss, its waiter list)
        pending: dict[str, tuple[float, list[int]]] = {}
        rescored: set[int] = set()  # misses of an address already missed
        for i, (request, entry) in enumerate(zip(requests, found)):
            now = request.timestamp
            ip = request.client_ip
            waiting = pending.get(ip)
            if waiting is not None:
                if now - waiting[0] <= self.ttl:
                    self.hits += 1
                    waiting[1].append(i)
                    continue
                entry = None  # what was read is already replaced
                rescored.add(i)
            if entry is not None:
                cached_at, score = entry
                if now - cached_at <= self.ttl:
                    writes.append((name, "move_to_end", ip))
                    self.hits += 1
                    scores[i] = score
                    continue
                writes.append((name, "delete", ip))
            self.misses += 1
            miss_indices.append(i)
            waiters: list[int] = []
            miss_waiters.append(waiters)
            pending[ip] = (now, waiters)
        if miss_indices:
            fresh = model_score_requests(
                self.inner, [requests[i] for i in miss_indices]
            )
            for i, waiters, value in zip(miss_indices, miss_waiters, fresh):
                request = requests[i]
                ip = request.client_ip
                score = float(value)
                scores[i] = score
                writes.append((name, "put", ip, [request.timestamp, score]))
                if i in rescored:
                    # Overwriting keeps the old slot; the scalar loop
                    # moves a re-scored address to the back.
                    writes.append((name, "move_to_end", ip))
                for j in waiters:
                    scores[j] = score
        # Write set, in the order the scalar loop would have applied it.
        if writes:
            writes.append(self._count)
            size = self.store.execute(writes)[-1]
            while size > self.max_entries:  # another writer filled the table
                self._cache.popitem(last=False)
                size -= 1
        return scores

    def invalidate(self, client_ip: str | None = None) -> None:
        """Drop one address's entry, or the whole cache when None."""
        if client_ip is None:
            self._cache.clear()
        else:
            self._cache.pop(client_ip, None)
