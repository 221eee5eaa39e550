"""Pace: how fast the machine runs Python right now.

On a shared host the same pure-Python loop can take 70 or 120 us,
switching between the two every few tenths of a second as neighbours
come and go, so raw seconds spread by 15-40% between runs of the same
code.  Every benchmark child therefore samples the machine's pace: a
timer signal interrupts it every INTERVAL_S, runs a fixed calibration
unit once to warm it and once timed, and records the timed duration.

``normalized(a, b)`` turns the wall interval [a, b] into seconds at the
reference pace: each stretch of work between two samples is scaled by
REF_UNIT_S / (local unit duration), and the sampler's own time is left
out.  A program that does more work still takes longer at any pace, so
program changes show while host slow-downs cancel.  The raw seconds are
reported beside the normalized ones.
"""

from __future__ import annotations

import signal
import time
from array import array

INTERVAL_S = 0.02
REF_UNIT_S = 70e-6  # the timed unit at full speed on a 2.0 GHz Xeon vCPU

_TABLE = {(i, i % 7): i * 3 for i in range(512)}
_BIG = 3 ** 200


def unit() -> int:
    """Fixed calibration work: tuple building, dict lookups, big-int adds."""
    acc = _BIG
    table = _TABLE
    for i in range(400):
        acc += table[(i, i % 7)]
    return acc


class Pace:
    """Samples the unit duration on SIGALRM until stopped."""

    def __init__(self):
        self.begin = array("d")  # handler entry
        self.end = array("d")    # handler exit
        self.unit = array("d")   # timed unit duration

    def _tick(self, signum, frame):
        clock = time.monotonic
        h0 = clock()
        unit()  # warm the table back into cache
        t0 = clock()
        unit()
        t1 = clock()
        self.begin.append(h0)
        self.unit.append(t1 - t0)
        self.end.append(clock())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rate(self, i: int) -> float:
        """Reference pace over local pace at sample i, from the median of
        the sample and its two neighbours (the sample alone at either
        end), so one interrupted unit cannot distort a stretch."""
        n = len(self.unit)
        if n == 0:
            return 1.0
        if 0 < i < n - 1:
            return REF_UNIT_S / sorted(self.unit[i - 1:i + 2])[1]
        return REF_UNIT_S / self.unit[i]

    def rate_at(self, t: float) -> float:
        """Rate of the first sample taken at or after t (the last one when
        none is)."""
        for i, h0 in enumerate(self.begin):
            if h0 >= t:
                return self.rate(i)
        return self.rate(len(self.begin) - 1)

    def normalized(self, a: float, b: float) -> float:
        """Seconds at the reference pace spent working in [a, b]."""
        total, prev = 0.0, a
        n = len(self.begin)
        for i in range(n):
            h0, h1 = self.begin[i], self.end[i]
            if h1 <= a:
                continue
            if h0 >= b:
                break
            total += max(0.0, min(h0, b) - prev) * self.rate(i)
            prev = max(prev, h1)
        if prev < b:
            total += (b - prev) * self.rate_at(b)
        return total
