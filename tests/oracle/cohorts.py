"""Reference cohort plumbing: the fast engine's grouping, written plainly.

:func:`push_grouped` always stable-sorts and splits, and
:func:`merge_segments` concatenates pairwise, one segment at a time.
``FastSimulation._push_grouped`` and ``repro.net.sim.fastsim
._merge_segments`` take shortcuts (no sort for sorted input, one
segment for a single bucket, one concatenation per run), and
``tests/net/test_cohort_grouping.py`` holds them to these.
"""

from __future__ import annotations

import numpy as np

__all__ = ["merge_segments", "push_grouped"]


def push_grouped(queue, tick, times: np.ndarray, kind: str, payload: tuple):
    """Push ``payload`` onto ``queue`` in per-bucket segments.

    Columns are stable-sorted by ``times``; each run of equal bucket
    index (``ceil(t / tick)``, or the raw time when ``tick`` is
    ``None``) is one segment, pushed at its earliest member's time.
    """
    if times.size == 0:
        return
    order = np.argsort(times, kind="stable")
    times = times[order]
    payload = tuple(column[order] for column in payload)
    keyed = times if tick is None else np.ceil(times / tick)
    boundaries = np.nonzero(np.diff(keyed))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [times.size]])
    for lo, hi in zip(starts, ends):
        queue.push(
            float(times[lo]), (kind, tuple(col[lo:hi] for col in payload))
        )


def merge_segments(segments: list) -> list:
    """Concatenate adjacent same-kind segments, two at a time."""
    merged: list = []
    for kind, payload in segments:
        if merged and merged[-1][0] == kind:
            merged[-1] = (
                kind,
                tuple(
                    np.concatenate([a, b])
                    for a, b in zip(merged[-1][1], payload)
                ),
            )
        else:
            merged.append((kind, payload))
    return merged
