"""Harness arithmetic shared by the parent and the child processes.

Everything here is plain stdlib and is covered by ``selftest.py``:
medians and quartile spreads, the tail percentile rule, self time from
nested spans, and the error-rate base.
"""

from __future__ import annotations

import math

# Percentiles tried from the top; the first one with at least
# TAIL_MIN_BEYOND samples above it is the reported tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    s = sorted(values)
    if not s:
        raise ValueError("median of an empty sequence")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between ranks."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of an empty sequence")
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def has_tail(values, q: float) -> bool:
    """True when percentile q leaves at least TAIL_MIN_BEYOND samples beyond it."""
    return len(values) * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9


def tail_percentile(values):
    """(q, value) for the highest percentile in TAIL_LADDER that leaves at
    least TAIL_MIN_BEYOND samples beyond it, or (None, None) when even the
    median does not."""
    for q in TAIL_LADDER:
        if has_tail(values, q):
            return q, percentile(values, q)
    return None, None


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    Spans are given in opening order (a child's index is larger than its
    parent's, and siblings open in time order); ``parents[i]`` is the
    index of the enclosing span or -1.  Overlapping children are merged,
    so a covered instant is subtracted once.
    """
    n = len(starts)
    covered = [0.0] * n
    frontier = [-math.inf] * n  # end of the merged child coverage so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], frontier[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > frontier[p]:
            frontier[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def error_rate(failed: int, attempted: int) -> tuple[float, int]:
    """Failed over attempted, returned with its base.  An empty base is
    an error of the harness, not a zero rate."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted, attempted


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the base is empty (the work did not occur)."""
    return num / den if den else 0.0
