"""Declarative framework construction: the same pipeline, anywhere.

A multi-worker gateway needs to build *the same* framework in N
processes — and a spawn-started worker cannot inherit live objects, so
the recipe itself must cross the process boundary.
:class:`FrameworkSpec` is that recipe: a frozen, picklable, JSON-safe
description of the paper pipeline (corpus → fitted DAbR → optional
score cache → optional behavioural feedback → policy) with a
:meth:`build` that wires every stateful component onto one
:class:`~repro.state.AdmissionStateStore`.

Everything in the recipe is deterministic — the corpus is seeded, the
DAbR fit is closed-form, policies come from the registry — so two
workers building the same spec hold bit-identical pipelines, which is
what makes sharded admission decisions equal to the single-process
path.
"""

from __future__ import annotations

import dataclasses

from repro.core.framework import AIPoWFramework
from repro.state import AdmissionStateStore, InMemoryStateStore

__all__ = ["FrameworkSpec"]


@dataclasses.dataclass(frozen=True)
class FrameworkSpec:
    """Recipe for one admission pipeline.

    Parameters
    ----------
    policy:
        Policy registry name (``policy-1``/``policy-2``/...).
    corpus_size / corpus_seed:
        Synthetic threat-intelligence corpus the DAbR model is fitted
        on; seeded, so every build fits the identical model.
    feedback:
        Wrap the model with behavioural feedback
        (:class:`~repro.reputation.feedback.FeedbackReputationModel`),
        attached to the framework so every outcome it settles feeds
        back.
    cache_ttl:
        Per-IP score-cache TTL in seconds; ``None`` disables caching.
    cache_max_entries / max_tracked_ips:
        Capacity bounds of the cache and the feedback table.
    feedback_half_life:
        Offset decay half-life in seconds; ``inf`` freezes offsets,
        which makes admission decisions independent of wall-clock
        timing — what the shard-parity tests rely on.
    """

    policy: str = "policy-2"
    corpus_size: int = 4000
    corpus_seed: int = 7
    feedback: bool = True
    cache_ttl: float | None = 3600.0
    cache_max_entries: int = 100_000
    max_tracked_ips: int = 100_000
    feedback_half_life: float = 600.0

    def build(
        self,
        store: AdmissionStateStore | None = None,
    ) -> AIPoWFramework:
        """Construct the pipeline, all state behind ``store``.

        The returned framework's ``snapshot()`` therefore covers the
        replay cache plus (when enabled) the score cache and the
        behavioural reputation table.
        """
        from repro.policies import POLICY_REGISTRY
        from repro.reputation.caching import CachedModel
        from repro.reputation.dabr import DAbRModel
        from repro.reputation.dataset import generate_corpus
        from repro.reputation.feedback import (
            FeedbackConfig,
            FeedbackReputationModel,
        )

        store = store if store is not None else InMemoryStateStore()
        train, _ = generate_corpus(
            size=self.corpus_size, seed=self.corpus_seed
        ).split()
        model = DAbRModel().fit(train)
        if self.cache_ttl is not None:
            model = CachedModel(
                model,
                ttl=self.cache_ttl,
                max_entries=self.cache_max_entries,
                store=store,
            )
        feedback = None
        if self.feedback:
            model = feedback = FeedbackReputationModel(
                model,
                FeedbackConfig(half_life=self.feedback_half_life),
                max_tracked_ips=self.max_tracked_ips,
                store=store,
            )
        framework = AIPoWFramework(
            model, POLICY_REGISTRY.create(self.policy), store=store
        )
        if feedback is not None:
            feedback.attach(framework)
        return framework
