"""Behavioural feedback: the *dynamic* half of Dynamic Attribute-based
Reputation.

The base DAbR score is computed from static threat-intelligence
attributes.  The original DAbR paper (and this paper's conclusion) point
toward scores that *react to observed behaviour*: a client that keeps
submitting bad solutions or abandoning puzzles should drift toward
untrustworthy; one with a long record of clean exchanges should earn
back trust.

:class:`FeedbackReputationModel` wraps any base model with a per-IP
behavioural offset:

* every rejected/replayed solution adds ``penalty_step`` to the
  client's offset (up to ``max_penalty``);
* every served response subtracts ``reward_step`` (down to
  ``-max_reward``);
* offsets decay exponentially with a half-life, so stale history fades.

The wrapper satisfies the :class:`~repro.core.interfaces.ReputationModel`
protocol and learns every outcome a framework settles once attached to
it (:meth:`attach`).

State lives in an :class:`~repro.state.AdmissionStateStore` namespace
(``feedback``, entries ``ip -> [offset, updated_at]``), so a warmed
reputation table can be snapshotted, restored, and sharded across
gateway workers.  Offset changes are announced to subscribers
(:meth:`subscribe_offset_changes`) so caching layers above this model
can invalidate the affected IP instead of serving a stale score.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from repro.core.interfaces import ReputationModel, batch_scores
from repro.core.records import ClientRequest, ResponseStatus, ServedResponse
from repro.reputation.base import BatchModel, clamp_score, model_score_batch
from repro.state import AdmissionStateStore, InMemoryStateStore

__all__ = ["FeedbackConfig", "FeedbackReputationModel"]


@dataclasses.dataclass(frozen=True, slots=True)
class FeedbackConfig:
    """Tuning of the behavioural feedback loop.

    Parameters
    ----------
    penalty_step:
        Score points added per bad outcome (rejected/replayed).
    reward_step:
        Score points subtracted per clean served exchange.
    max_penalty / max_reward:
        Clamps on the accumulated offset in either direction.
    half_life:
        Seconds for an offset to decay to half; ``inf`` disables decay.
    """

    penalty_step: float = 1.0
    reward_step: float = 0.1
    max_penalty: float = 5.0
    max_reward: float = 2.0
    half_life: float = 600.0

    def __post_init__(self) -> None:
        if self.penalty_step < 0 or self.reward_step < 0:
            raise ValueError("steps must be >= 0")
        if self.max_penalty < 0 or self.max_reward < 0:
            raise ValueError("clamps must be >= 0")
        if self.half_life <= 0:
            raise ValueError(f"half_life must be > 0, got {self.half_life}")


# Per-IP state is a JSON-safe two-slot list, written back whole:
_OFFSET, _UPDATED_AT = 0, 1

#: Oldest addresses the cap eviction ranks (within one page of a
#: remote namespace's default ``batch_size`` of 128).
EVICTION_PAGE = 64


class FeedbackReputationModel(BatchModel):
    """Per-IP behavioural offset on top of a base reputation model.

    Parameters
    ----------
    base:
        The wrapped reputation model.
    config:
        Feedback tuning; defaults to :class:`FeedbackConfig`.
    max_tracked_ips:
        Capacity bound on the offset table (on a ring store, on each
        node's partition of it).  Past it, each new address evicts the
        smallest |offset| among the :data:`EVICTION_PAGE` oldest others.
    store:
        Admission state store holding the offset table; a private
        in-memory store is created when omitted.
    namespace:
        Store namespace name, for deployments running several feedback
        models over one store.
    """

    #: Outcomes that count as hostile behaviour.
    _BAD = (ResponseStatus.REJECTED, ResponseStatus.REPLAYED)

    #: Scores drift as offsets move mid-run, so batch consumers that
    #: pre-score clients (the vectorized simulator's array admission)
    #: must route requests through the framework path instead.
    scoring_is_stateful = True

    def __init__(
        self,
        base: ReputationModel,
        config: FeedbackConfig | None = None,
        max_tracked_ips: int = 100_000,
        *,
        store: AdmissionStateStore | None = None,
        namespace: str = "feedback",
    ) -> None:
        if max_tracked_ips <= 0:
            raise ValueError(
                f"max_tracked_ips must be > 0, got {max_tracked_ips}"
            )
        self.base = base
        self.config = config or FeedbackConfig()
        self.max_tracked_ips = max_tracked_ips
        self.store = store if store is not None else InMemoryStateStore()
        self._states = self.store.namespace(namespace)
        self._listeners: list[Callable[[str], None]] = []

    @property
    def name(self) -> str:
        return f"feedback({self.base.name})"

    # ------------------------------------------------------------------
    # ReputationModel protocol
    # ------------------------------------------------------------------
    def score_batch(self, features) -> np.ndarray:
        """Base scores only — feature-level scoring has no IP context."""
        return model_score_batch(self.base, features)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        """Base score plus each client's decayed behavioural offset.

        Base scores are batched and the offsets read in one store call:
        the score cache's read call when the base model is a cache over
        this store (:meth:`~repro.reputation.caching.CachedModel.score_and_read`).
        """
        name = self._states.name
        reads = [(name, "get", request.client_ip) for request in requests]
        ride = getattr(self.base, "score_and_read", None)
        if ride is not None and self.base.store is self.store:
            base, states = ride(requests, reads)
        else:
            base = batch_scores(self.base, requests)
            states = self.store.execute(reads)
        scores = np.empty(len(base), dtype=np.float64)
        for i, (request, value, state) in enumerate(
            zip(requests, base, states)
        ):
            offset = (
                0.0 if state is None
                else self._decayed(state, request.timestamp)
            )
            scores[i] = clamp_score(float(value) + offset)
        return scores

    # ------------------------------------------------------------------
    # Feedback plumbing
    # ------------------------------------------------------------------

    def _decayed(self, state: list, now: float) -> float:
        elapsed = max(0.0, now - state[_UPDATED_AT])
        if math.isinf(self.config.half_life):
            return state[_OFFSET]
        return state[_OFFSET] * 0.5 ** (elapsed / self.config.half_life)

    def observe(self, response: ServedResponse, now: float | None = None) -> None:
        """Fold one terminal outcome into the client's offset."""
        ip = response.decision.request.client_ip
        when = response.decision.request.timestamp if now is None else now
        self.record(self.store.execute(self.read_ops(ip)), response.status,
                    ip, when)

    # Read set -> decide -> write set, split so ``redeem`` reads the
    # entry in the same store call as the replay claim.
    def read_ops(self, client_ip: str) -> list[tuple]:
        """The read set for one outcome: the entry and its partition's size."""
        name = self._states.name
        return [(name, "get", client_ip), (name, "partition_len", client_ip)]

    def record(
        self, found: list, status: ResponseStatus, client_ip: str, now: float
    ) -> None:
        """Fold ``status`` into the read set's results (read at ``now``).

        The write is an absolute put of ``[offset, now]`` (re-stamped
        even when neutral) and posted: no decision waits on it.  The
        size read, plus one for a new address, is trimmed to the cap.
        """
        state, size = found
        current = 0.0 if state is None else self._decayed(state, now)
        if status in self._BAD:
            current = min(
                current + self.config.penalty_step, self.config.max_penalty
            )
        elif status is ResponseStatus.SERVED:
            current = max(
                current - self.config.reward_step, -self.config.max_reward
            )
        self.store.post([(self._states.name, "put", client_ip, [current, now])])
        size += state is None
        while size > self.max_tracked_ips:
            self._evict_smallest(keep=client_ip)
            size -= 1
        # ABANDONED / EXPIRED are ambiguous (patience, network) — neutral.
        if status in self._BAD or status is ResponseStatus.SERVED:
            for listener in self._listeners:
                listener(client_ip)

    def subscribe_offset_changes(
        self, listener: Callable[[str], None]
    ) -> None:
        """Call ``listener(client_ip)`` whenever an offset shifts.

        Cache layers above this model subscribe their ``invalidate`` so
        a penalty or reward is reflected by the very next score instead
        of after the cached entry's TTL.
        """
        self._listeners.append(listener)

    def _evict_smallest(self, keep: str) -> None:
        """Drop the smallest |offset| among ``keep``'s partition's oldest.

        Candidates: the partition's first :data:`EVICTION_PAGE` entries
        in insertion order, ``keep`` excluded; ties go to the oldest.
        That is one ``iter_batch`` frame over the wire, not a scan of
        the table per new address, and the same victim on every backend.
        """
        table = self._states.partition(keep)
        page = itertools.islice(
            (entry for entry in table.items() if entry[0] != keep),
            EVICTION_PAGE,
        )
        victim = min(page, key=lambda e: abs(e[1][_OFFSET]), default=None)
        if victim is not None:  # None: another writer emptied the page
            table.pop(victim[0], None)  # another may have taken it too

    def attach(self, framework) -> "FeedbackReputationModel":
        """Learn every outcome ``framework`` settles, before its bus does.

        The offset table moves into the framework's store (entries
        already there win), as stateful policies do, so ``redeem``
        shares its store call and ``snapshot()`` covers it.
        """
        if self.store is not framework.store:
            entries = self._states.dump()
            self.store = framework.store
            self._states = self.store.namespace(self._states.name)
            self.store.execute(
                [(self._states.name, "setdefault", ip, state)
                 for ip, state in entries]
            )
        framework.feedback = self
        return self
