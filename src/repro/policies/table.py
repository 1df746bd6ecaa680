"""Table-driven policy: explicit difficulty per integer score.

The most direct encoding of an administrator's intent — one difficulty
per integer reputation score, exactly like the mapping tables in the
paper's §III.  Non-integer scores take the entry of their ceiling,
matching the paper's ``d_i = ceil(s_i + 1)`` convention of rounding
*against* the client.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.policies.base import BasePolicy

__all__ = ["TablePolicy", "FixedPolicy"]


class FixedPolicy(BasePolicy):
    """Ignores the score entirely: every client gets the same difficulty.

    Combined with any model this is classic uniform PoW — the baseline
    the paper's adaptive issuer is compared against.  ``FixedPolicy(0)``
    disables puzzles altogether (every digest meets difficulty 0).
    """

    def __init__(self, difficulty: int = 0, name: str | None = None) -> None:
        super().__init__()
        if difficulty < 0:
            raise ValueError(f"difficulty must be >= 0, got {difficulty}")
        self.difficulty = difficulty
        self._name = name or f"fixed({difficulty})"

    @property
    def name(self) -> str:
        return self._name

    def _difficulty_batch(self, scores: np.ndarray, rng: random.Random):
        return np.full(scores.shape, self.difficulty, dtype=np.int64)

    def describe(self) -> str:
        return f"{self.name}: difficulty = {self.difficulty} for all scores"


class TablePolicy(BasePolicy):
    """Explicit per-score difficulty table.

    Parameters
    ----------
    entries:
        Difficulties for integer scores 0..N (N = len(entries) - 1); the
        domain becomes [0, N].  Must be non-decreasing so worse clients
        never get easier puzzles.
    """

    def __init__(self, entries: Sequence[int], name: str | None = None) -> None:
        entries = tuple(int(d) for d in entries)
        if len(entries) < 2:
            raise ValueError("table needs at least two entries")
        if any(d < 0 for d in entries):
            raise ValueError(f"difficulties must be >= 0: {entries}")
        if any(b < a for a, b in zip(entries, entries[1:])):
            raise ValueError(f"difficulties must be non-decreasing: {entries}")
        super().__init__(domain=(0.0, float(len(entries) - 1)))
        self.entries = entries
        self._entries_arr = np.array(entries, dtype=np.int64)
        self._name = name or f"table({len(entries)} entries)"

    @property
    def name(self) -> str:
        return self._name

    def _difficulty_batch(self, scores: np.ndarray, rng: random.Random):
        return self._entries_arr[np.ceil(scores).astype(np.int64)]

    def describe(self) -> str:
        return f"{self.name}: {list(self.entries)}"
