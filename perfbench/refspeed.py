"""Machine-speed reference for normalising timings.

Shared small machines change speed by up to 1.7x for minutes at a time
(co-tenants, clock boost); measured as is, the same code reads 20-45%
apart between runs.  Every timing is therefore taken next to a fixed
pure-Python reference loop (Fraction arithmetic, frozenset-keyed dict,
list growth: the operations ``ccx`` spends its time in) that does not
depend on the program under test, and reported as

    seconds * NOMINAL_S / reference time around it

that is, in seconds on a machine where the loop takes NOMINAL_S.  A
change to ``ccx`` moves these numbers as it moves wall time; a change of
machine speed does not.  Raw seconds stay in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010  # the loop on a 2-vCPU Xeon at its usual speed
WINDOW_S = 3.0  # reference samples this close to a timing scale it


def reference_seconds() -> float:
    """Time of one run of the reference loop."""
    t0 = time.perf_counter()
    acc, table, seen = Fraction(0), {}, []
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        table[frozenset((i, i + 1))] = acc
        seen.append(acc.limit_denominator(10**12))
    return time.perf_counter() - t0


class Speedometer:
    """Reference samples over a run, and the scale factor at any moment."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(reference_seconds())
        self.stamps.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time within WINDOW_S of
        [start, end], or of the nearest sample when none is that close."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            i = min(range(len(self.stamps)), key=lambda k: abs(self.stamps[k] - start))
            near = [self.samples[i]]
        return NOMINAL_S / statistics.median(near)
