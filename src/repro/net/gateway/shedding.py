"""Load-shedding policies for the admission gateway.

When the gateway's admission queue is full, *something* has to give.  A
:class:`ShedPolicy` decides which pending request to sacrifice — the
incoming one (classic drop-newest / tail drop) or a queued one that a
cheap prior says is less worth admitting (drop-by-reputation-prior).

The policy only ever sees :class:`PendingAdmission` wrappers; it must
not block, score through the AI model, or touch the framework — the
whole point of shedding is to bound work *before* the expensive
pipeline runs.  Selection is O(queue) at worst and runs on the event
loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Callable, Protocol, Sequence

from repro.core.records import ClientRequest

__all__ = [
    "PendingAdmission",
    "ShedOutcome",
    "ShedPolicy",
    "DropNewest",
    "DropByReputationPrior",
    "DropByGlobalReputation",
    "make_shed_policy",
]


@dataclasses.dataclass(slots=True)
class PendingAdmission:
    """One request waiting in the gateway's admission queue."""

    request: ClientRequest
    future: "asyncio.Future"
    enqueued_at: float


@dataclasses.dataclass(frozen=True, slots=True)
class ShedOutcome:
    """Terminal outcome for a request the gateway refused to admit.

    Resolved into the pending request's future in place of a
    :class:`~repro.core.framework.Challenge`; the connection handler
    relays ``reason`` to the client as an ``ERR shed: ...`` frame.
    """

    reason: str
    policy: str


class ShedPolicy(Protocol):
    """Chooses the victim when the admission queue is full."""

    name: str

    def select_victim(
        self,
        queued: Sequence[PendingAdmission],
        incoming: PendingAdmission,
    ) -> PendingAdmission:
        """Return the pending admission to shed.

        ``queued`` is the current queue in arrival order (read-only);
        ``incoming`` is the request that found the queue full.  The
        returned object must be ``incoming`` or an element of
        ``queued``.
        """
        ...  # pragma: no cover - protocol definition


class DropNewest:
    """Tail drop: the request that found the queue full is the victim.

    The baseline policy — O(1), never reorders the queue, and gives
    earlier arrivals strict priority.  Under a flood this sheds honest
    latecomers and attackers alike.
    """

    name = "drop-newest"

    def select_victim(
        self,
        queued: Sequence[PendingAdmission],
        incoming: PendingAdmission,
    ) -> PendingAdmission:
        return incoming


class DropByReputationPrior:
    """Shed the pending request a cheap prior distrusts the most.

    ``prior`` maps a :class:`ClientRequest` to a suspicion score
    (higher = shed first), mirroring the reputation model's score
    orientation without paying for real scoring on the shed path.  The
    default prior is *in-queue multiplicity*: the number of pending
    requests already queued from the same address — a flooding source
    fills the queue with its own requests and becomes its own victim,
    while a single queued request from a quiet address is never
    preferred over the incoming one.

    Ties go to the newest contender (the incoming request), so under a
    uniform prior this degrades to :class:`DropNewest` rather than
    churning the queue.
    """

    name = "drop-reputation"

    def __init__(
        self,
        prior: Callable[[ClientRequest], float] | None = None,
    ) -> None:
        self._prior = prior

    def select_victim(
        self,
        queued: Sequence[PendingAdmission],
        incoming: PendingAdmission,
    ) -> PendingAdmission:
        if self._prior is None:
            counts: dict[str, int] = {}
            for pending in queued:
                ip = pending.request.client_ip
                counts[ip] = counts.get(ip, 0) + 1
            ip = incoming.request.client_ip
            counts[ip] = counts.get(ip, 0) + 1
            prior = lambda request: float(counts[request.client_ip])  # noqa: E731
        else:
            prior = self._prior

        victim = incoming
        worst = prior(incoming.request)
        for pending in queued:
            score = prior(pending.request)
            if score > worst:
                victim, worst = pending, score
        return victim


class DropByGlobalReputation:
    """Shed by *cluster-wide* behavioural reputation from a shared store.

    The in-queue multiplicity prior only sees one worker's queue: a
    botnet spraying connections across shards keeps per-queue
    multiplicity low everywhere and hides from it.  When workers share
    an admission state store (``--state-server``), the feedback
    namespace already holds every client's behavioural offset — this
    policy consults it, so overload on one shard sheds by the *global*
    reputation a client earned anywhere in the cluster.

    Offsets are cached per IP for ``cache_ttl`` seconds, bounding the
    shed path to at most one store round trip per distinct address per
    TTL window (a shed decision tolerates slightly stale reputation;
    an unbounded-latency shed path would not tolerate a lookup per
    queued entry per decision).  Primary key is the cached offset
    (higher = more hostile = shed first); in-queue multiplicity breaks
    offset ties, and full ties go to the incoming request so an
    all-neutral queue degrades to drop-newest.
    """

    name = "drop-global-reputation"

    #: Offsets cached at most this many distinct IPs; beyond it the
    #: oldest half is dropped (a shed storm from few IPs stays cheap).
    cache_limit = 4096

    def __init__(
        self,
        store,
        *,
        namespace: str = "feedback",
        cache_ttl: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if cache_ttl < 0:
            raise ValueError(f"cache_ttl must be >= 0, got {cache_ttl}")
        self._states = store.namespace(namespace)
        self.cache_ttl = cache_ttl
        self._clock = clock
        self._cache: dict[str, tuple[float, float]] = {}

    def _offset(self, client_ip: str) -> float:
        now = self._clock()
        hit = self._cache.get(client_ip)
        if hit is not None and now - hit[0] <= self.cache_ttl:
            return hit[1]
        state = self._states.get(client_ip)
        offset = float(state[0]) if state else 0.0
        if len(self._cache) >= self.cache_limit:
            for stale in list(self._cache)[: self.cache_limit // 2]:
                del self._cache[stale]
        self._cache[client_ip] = (now, offset)
        return offset

    def select_victim(
        self,
        queued: Sequence[PendingAdmission],
        incoming: PendingAdmission,
    ) -> PendingAdmission:
        counts: dict[str, int] = {}
        for pending in queued:
            ip = pending.request.client_ip
            counts[ip] = counts.get(ip, 0) + 1
        ip = incoming.request.client_ip
        counts[ip] = counts.get(ip, 0) + 1

        def rank(pending: PendingAdmission) -> tuple[float, int]:
            request = pending.request
            return (
                self._offset(request.client_ip),
                counts[request.client_ip],
            )

        victim = incoming
        worst = rank(incoming)
        for pending in queued:
            score = rank(pending)
            if score > worst:
                victim, worst = pending, score
        return victim


def make_shed_policy(name: str, store=None) -> ShedPolicy:
    """Shed policy from its CLI name (specs cross process boundaries).

    ``drop-global-reputation`` needs the gateway's (shared) state
    store; the other policies ignore ``store``.
    """
    if name == DropByReputationPrior.name:
        return DropByReputationPrior()
    if name == DropNewest.name:
        return DropNewest()
    if name == DropByGlobalReputation.name:
        if store is None:
            raise ValueError(
                f"{name!r} needs a shared state store (--state-server)"
            )
        return DropByGlobalReputation(store)
    raise ValueError(f"unknown shed policy {name!r}")
