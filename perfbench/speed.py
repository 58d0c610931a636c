"""Machine-speed normalisation of wall times.

The machine this benchmark was built on shares its CPUs with other
tenants.  A fixed pure-Python loop runs up to 30% slower or faster for a
minute at a time (IQR of 15-second means: 10% of their median), which is
wider than any regression bound worth having.  That drift hits the
reference loop below and the package's code alike, so each timing is
rescaled by how fast the reference loop ran around it.  In a 200-second
trial on that machine the rescaling cut the coefficient of variation of
20-second means from 12-21% to 4-10%, depending on the workload.

    normalised = wall * REF_SECONDS / median(reference durations nearby)

REF_SECONDS is the loop's median duration on the baseline machine
(2 vCPUs at 2.1 GHz, CPython 3.11.7).  A normalised time is therefore the
wall time the op would have taken at the baseline machine's typical
speed.  Raw wall times are recorded beside every normalised figure.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from math import gcd
from time import perf_counter

REF_SECONDS = 3.8e-3
# one reference run per this much elapsed time, taken at op boundaries,
# at most MAX_BURST runs at once: ~1.5% of the run, however long the ops
SAMPLE_EVERY_S = 0.25
MAX_BURST = 8
# an op is rescaled by the samples taken within this distance of it
WINDOW_S = 3.0


def reference_work() -> int:
    """Modular arithmetic, gcd and label formatting, the package's own
    staples.  It allocates no container, so it never triggers the
    garbage collector, whatever the heap holds."""
    s = 0
    for i in range(15_000):
        s += i * i % 7
    for i in range(1, 8_000):
        s += gcd(i, 30_030)
    for i in range(2_500):
        s += len(f"({i},{3 * i})")
    return s


def reference_duration() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class SpeedProbe:
    """Reference-loop samples taken between ops, by time."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def maybe_sample(self) -> None:
        runs = MAX_BURST
        if self.times:
            runs = min(MAX_BURST, int((perf_counter() - self.times[-1]) / SAMPLE_EVERY_S))
        for _ in range(runs):
            self.durations.append(reference_duration())
            self.times.append(perf_counter())

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time spent in [start, end] into a
        normalised one."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # nothing nearby: fall back to the closest sample
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return REF_SECONDS / statistics.median(self.durations[lo:hi])

    def machine_speed(self) -> float:
        """Median reference speed over the run; 1.0 is the baseline."""
        return REF_SECONDS / statistics.median(self.durations)
