"""Residual per-cohort array kernels of the fastsim hot loop.

After vectorization (DESIGN §1.5) the fastsim hot loop spends its time
in a handful of small array kernels that run once per cohort: the FIFO
running sum, the patience/TTL comparison masks, and geometric solve
sampling.  Each is one plain numpy function here.

Bit-exactness is part of the kernel contract, not a nicety: FIFO
completion times feed the load-adaptive policy and the TTL comparison
(where one ULP flips a decision), and the geometric sampler's outputs
enter the decision stream parity checks.  Callers own RNG consumption —
:func:`geometric_attempts` takes pre-drawn uniforms.

``python -m repro kernels`` microbenches every kernel
(:mod:`repro.bench.kernels`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "active_backend",
    "backends",
    "fifo_running_sum",
    "geometric_attempts",
    "patience_mask",
    "ttl_mask",
]


def fifo_running_sum(
    start: float, costs: np.ndarray | float, count: int
) -> np.ndarray:
    """Left-associated running sum of ``costs`` seeded with ``start``.

    ``out[i] = start + costs[0] + ... + costs[i]`` with the additions
    performed strictly left to right — the vector form of the callback
    engine's scalar FIFO recurrence (see ``FastSimulation._fifo``).
    ``costs`` may be a scalar (uniform per-item cost) or a vector.
    """
    seeded = np.empty(count + 1)
    seeded[0] = start
    seeded[1:] = costs
    return np.cumsum(seeded)[1:]


def geometric_attempts(
    difficulties: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Inverse-CDF geometric attempt counts from pre-drawn uniforms.

    ``ceil(ln U / ln(1 - 2**-d))`` for strictly positive difficulties;
    the ``U == 0`` edge is nudged to the smallest positive float (the
    array equivalent of redrawing).  Callers draw ``uniforms``
    themselves.
    """
    p = np.exp2(-np.asarray(difficulties, dtype=np.float64))
    u = np.maximum(uniforms, np.nextafter(0.0, 1.0))
    return np.maximum(1.0, np.ceil(np.log(u) / np.log1p(-p)))


def patience_mask(
    solve_end: np.ndarray, receipt: np.ndarray, patience: np.ndarray
) -> np.ndarray:
    """True where grinding past ``receipt + patience`` → client abandons."""
    return (solve_end - receipt) > patience


def ttl_mask(
    now: float, issued_at: np.ndarray, ttl: float
) -> np.ndarray:
    """True where a solution arrives after its puzzle's TTL window."""
    return (now - issued_at) > ttl


def active_backend() -> str:
    """The kernels' backend: always ``"numpy"``."""
    return "numpy"


def backends() -> dict[str, dict[str, object]]:
    """Kernel name → {backend name → callable}, for the microbench."""
    return {
        "fifo_running_sum": {"numpy": fifo_running_sum},
        "geometric_attempts": {"numpy": geometric_attempts},
        "patience_mask": {"numpy": patience_mask},
        "ttl_mask": {"numpy": ttl_mask},
    }
