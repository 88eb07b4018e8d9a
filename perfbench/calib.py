"""The calibration loop that turns wall times into calibrated seconds.

The host is shared and its speed moves in phases of seconds to minutes: the
same operation's time drifts by up to a factor 1.8.  A fixed pure-Python loop
timed next to each operation sees the same phase, so the ratio of the two
stays put while both drift.  A timing is reported as

    wall time / (median of the last three loop times) * C0_S

C0_S is the loop's median on the host where the benchmark was defined (a
2-vCPU Intel Xeon at 2.0 GHz, Python 3.11).  The unit stays "seconds at
that host's usual speed", and a change to the program moves the numerator
only.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

C0_S = 0.0021
GAP_S = 0.05  # a new loop sample at most every 50 ms


def loop():
    """Rational arithmetic and dict updates, like the solvers' inner work."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7, i)
    d = {}
    for i in range(4000):
        d[i % 97] = d.get(i % 97, 0) + i
    return acc


def sample() -> float:
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


class Calibrator:
    """Keeps the last three loop times; `ref()` takes a new one when the
    last is more than GAP_S old and returns their median."""

    def __init__(self):
        self.recent = [sample() for _ in range(3)]
        self.all = list(self.recent)
        self.last = perf_counter()

    def ref(self) -> float:
        if perf_counter() - self.last > GAP_S:
            t = sample()
            self.recent = self.recent[1:] + [t]
            self.all.append(t)
            self.last = perf_counter()
        return statistics.median(self.recent)
