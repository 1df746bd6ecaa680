"""Load-adaptive policy wrapper.

The paper notes the inflicted work "is adaptive and can be tuned".  One
natural tuning signal is server load: under attack, shift the whole
difficulty ladder up; in quiet periods, relax it.  :class:`LoadAdaptivePolicy`
wraps any inner policy and adds a load-dependent difficulty surcharge.

Load is reported by the caller (the simulator's server reports its
pending-request ratio) via :meth:`observe_load`; the wrapper is
otherwise a drop-in :class:`Policy`.

The smoothed load estimate lives in an
:class:`~repro.state.AdmissionStateStore` namespace (``policy-load``,
key ``load``), so a gateway worker's difficulty posture survives a
restart along with the rest of the admission state.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.core.interfaces import Policy, batch_difficulties
from repro.policies.base import BatchPolicy
from repro.state import AdmissionStateStore, InMemoryStateStore

__all__ = ["LoadAdaptivePolicy"]


class LoadAdaptivePolicy(BatchPolicy):
    """Adds ``ceil(max_surcharge * load)`` to an inner policy's output.

    Parameters
    ----------
    inner:
        The base score → difficulty policy.
    max_surcharge:
        Extra difficulty bits applied at full load (load = 1.0).
    initial_load:
        Starting load estimate in [0, 1].
    smoothing:
        Exponential-moving-average factor for :meth:`observe_load`; 1.0
        means "trust the latest sample completely".
    store:
        Admission state store holding the load estimate; a private
        in-memory store is created when omitted.
    namespace:
        Store namespace name, for stacks running several adaptive
        policies over one store.
    """

    _KEY = "load"

    def __init__(
        self,
        inner: Policy,
        max_surcharge: int = 4,
        initial_load: float = 0.0,
        smoothing: float = 0.5,
        *,
        store: AdmissionStateStore | None = None,
        namespace: str = "policy-load",
    ) -> None:
        if max_surcharge < 0:
            raise ValueError(f"max_surcharge must be >= 0, got {max_surcharge}")
        if not 0.0 <= initial_load <= 1.0:
            raise ValueError(f"initial_load must be in [0, 1], got {initial_load}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.inner = inner
        self.max_surcharge = max_surcharge
        self.smoothing = smoothing
        self.store = store if store is not None else InMemoryStateStore()
        self.state_namespace = namespace
        self._state = self.store.namespace(namespace)
        # A restored store already carries the warmed estimate; only a
        # cold table takes the configured starting value.
        if self._KEY not in self._state:
            self._state[self._KEY] = float(initial_load)

    def bind_store(
        self,
        store: AdmissionStateStore,
        namespace: str | None = None,
    ) -> None:
        """Re-home the load estimate into ``store``.

        Policies are often constructed before the framework (and its
        store) exist — the registry and the policy DSL know nothing
        about stores — so :class:`~repro.core.framework.AIPoWFramework`
        calls this on any policy that offers it, bringing the load
        estimate under the framework's ``snapshot()``/``restore()``.
        A value already present in the target store (a restored
        snapshot) wins; otherwise the current estimate carries over.
        ``namespace`` lets the caller disambiguate when several
        adaptive policies share one store (the framework suffixes
        nested wrappers so their estimates stay independent).
        """
        previous = self.load
        self.store = store
        if namespace is not None:
            self.state_namespace = namespace
        self._state = store.namespace(self.state_namespace)
        if self._KEY not in self._state:
            self._state[self._KEY] = previous

    @property
    def name(self) -> str:
        return f"adaptive({self.inner.name},+{self.max_surcharge})"

    @property
    def load(self) -> float:
        """The current smoothed load estimate in [0, 1]."""
        return float(self._state.get(self._KEY, 0.0))

    def observe_load(self, load: float) -> None:
        """Feed a fresh load sample in [0, 1] (values outside are clamped)."""
        load = min(max(float(load), 0.0), 1.0)
        self._state[self._KEY] = (
            (1 - self.smoothing) * self.load + self.smoothing * load
        )

    def surcharge(self) -> int:
        """The extra difficulty currently applied on top of ``inner``."""
        return int(math.ceil(self.max_surcharge * self.load))

    def difficulty_batch(self, scores, rng: random.Random) -> np.ndarray:
        """The inner policy's difficulties plus one surcharge, read once."""
        return batch_difficulties(self.inner, scores, rng) + self.surcharge()

    def describe(self) -> str:
        return (
            f"{self.name}: inner + ceil({self.max_surcharge} * load), "
            f"load={self.load:.2f}"
        )
