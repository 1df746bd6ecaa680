"""Subnet-aggregate scoring: guilt by network association.

Botnets concentrate in address space — compromised hosting ranges, open
resolvers in one AS.  DAbR-style per-address scoring misses a *fresh*
bot from a known-bad /24 until intel catches up.
:class:`SubnetAggregateModel` closes that gap: it tracks a running mean
score per enclosing subnet and scores each request as::

    max(base_score, blend * subnet_mean)

so a new address inherits (part of) its neighbourhood's reputation
while genuinely clean subnets are unaffected.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interfaces import ReputationModel, batch_scores
from repro.core.records import ClientRequest
from repro.metrics.stats import StreamingStats
from repro.reputation.base import BatchModel, clamp_score, model_score_batch
from repro.traffic.ipaddr import subnet_of

__all__ = ["SubnetAggregateModel"]


class SubnetAggregateModel(BatchModel):
    """Blends per-address scores with their subnet's running mean.

    Parameters
    ----------
    inner:
        The per-address model.
    prefix:
        Aggregation prefix length (24 = /24 neighbourhoods).
    blend:
        Fraction of the subnet mean an address can inherit, in [0, 1].
    min_observations:
        Subnet means based on fewer addresses than this are ignored
        (one bad apple should not condemn a /24 by itself).
    """

    def __init__(
        self,
        inner: ReputationModel,
        prefix: int = 24,
        blend: float = 0.8,
        min_observations: int = 3,
    ) -> None:
        if not 0 <= prefix <= 32:
            raise ValueError(f"prefix must be in [0, 32], got {prefix}")
        if not 0.0 <= blend <= 1.0:
            raise ValueError(f"blend must be in [0, 1], got {blend}")
        if min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        self.inner = inner
        self.prefix = prefix
        self.blend = blend
        self.min_observations = min_observations
        self._aggregates: dict[str, StreamingStats] = {}
        self._seen_ips: dict[str, set[str]] = {}

    @property
    def name(self) -> str:
        return f"subnet(/{self.prefix},{self.inner.name})"

    def subnet_mean(self, client_ip: str) -> float | None:
        """The usable aggregate for ``client_ip``'s subnet, if any."""
        subnet = subnet_of(client_ip, self.prefix)
        stats = self._aggregates.get(subnet)
        if stats is None:
            return None
        if len(self._seen_ips.get(subnet, ())) < self.min_observations:
            return None
        return stats.mean

    def score_batch(self, features) -> np.ndarray:
        """Feature-level scoring has no address: delegates unchanged."""
        return model_score_batch(self.inner, features)

    def score_requests(
        self, requests: Sequence[ClientRequest]
    ) -> np.ndarray:
        """Inner scores batched, blended and folded in request order.

        Each request is scored as ``max(base, blend * subnet_mean)`` and
        then adds its own base score to its subnet's aggregate, so a
        repeated subnet later in the batch sees the evidence its earlier
        members contributed — the result does not depend on batch size.
        """
        base = batch_scores(self.inner, requests)
        scores = np.empty(len(base), dtype=np.float64)
        for i, (request, value) in enumerate(zip(requests, base)):
            value = float(value)
            subnet = subnet_of(request.client_ip, self.prefix)
            aggregate = self.subnet_mean(request.client_ip)
            score = value
            if aggregate is not None:
                score = max(value, self.blend * aggregate)
            stats = self._aggregates.setdefault(subnet, StreamingStats())
            stats.add(value)
            self._seen_ips.setdefault(subnet, set()).add(request.client_ip)
            scores[i] = clamp_score(score)
        return scores

    def tracked_subnets(self) -> int:
        """Number of subnets with at least one observation."""
        return len(self._aggregates)
