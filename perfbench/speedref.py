"""A reference loop that tells how fast the host is running right now.

The benchmark runs on shared hosts whose speed for the same work moves
by up to 1.8 times, in states that can last a whole run, and any wall
time moves with it.  `reference()` is a fixed loop of integer
multiply, mask, XOR and modulo, the kind of work fcplx's bitmask
elimination does.  It is part of the benchmark, not of fcplx, so a
change to the program cannot change its cost.  Timed between ops, it
gives the host's speed at that moment.  Each op's wall time is scaled
by `NOMINAL_S / median(nearby reference times)`, which reports it as it
would be on a host where the reference takes `NOMINAL_S`.

Of the loops tried, this one followed the ops' slowdowns most closely;
loops heavy in `Fraction`s or big-int XOR slowed more than the ops did,
and loops bound by memory access less.  The match is not exact, so
scaling narrows the host's swings rather than removing them.
"""

import statistics
from time import perf_counter

# The median reference time on the 2-vCPU x86-64 host that made the
# baselines in README.md.  Scaled times are in seconds of that host.
NOMINAL_S = 0.002
# A reference sample is taken after an op once this much time has passed
# since the last one, and after the first op.
EVERY_S = 0.05
# An op is scaled by the median of the samples within this many places
# of the latest one at its end.
WINDOW = 10


def reference(n=9000):
    total = 0
    mask = 0
    for i in range(n):
        mask ^= (i * 2654435761) & 0xFFFFFFFFFFFF
        total += mask % 7
    return total


def sample():
    t = perf_counter()
    reference()
    return perf_counter() - t


def scale(samples):
    """The factor that turns wall times taken alongside these reference
    samples into seconds of the nominal host."""
    return NOMINAL_S / statistics.median(samples)


class Gauge:
    """Reference samples taken between ops, in order."""

    def __init__(self):
        self.samples = []
        self.last = None

    def after_op(self):
        """Take a sample if one is due; return the latest one's index."""
        if self.last is None or perf_counter() - self.last >= EVERY_S:
            self.samples.append(sample())
            self.last = perf_counter()
        return len(self.samples) - 1

    def scale(self, k):
        """The scale for an op whose latest sample at its end is k."""
        return scale(self.samples[max(0, k - WINDOW):k + WINDOW + 1])
