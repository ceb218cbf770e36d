"""The machine's current speed, from a fixed reference loop.

The shared host this benchmark runs on changes speed by up to 1.6x from one
few-second phase to the next, for every process on it. ``Pace`` times a
fixed pure-Python loop between ops; the loop never calls ``choqlat``, so no
change to the program can change its work. A time measured between two
samples is divided by the median of the samples around it and multiplied
by ``REFERENCE_MS``: the result is the time the work would take on a
machine where the loop takes exactly ``REFERENCE_MS``. The loop does
``Fraction`` arithmetic and hashes ``frozenset`` keys, the operations
``choqlat`` spends its time in, so it slows down with the program.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_MS = 1.0
# A segment's scale is the median of the samples from NEIGHBOURS before its
# start to NEIGHBOURS after its end.
NEIGHBOURS = 2


def reference_loop() -> int:
    """Fixed work of about 1 ms: Fraction sums and frozenset-keyed dict stores."""
    total, table = Fraction(0), {}
    for i in range(1, 240):
        total += Fraction(i, i + 7)
        table[frozenset((i, i % 7))] = total
    return len(table)


class Pace:
    """Reference-loop samples taken over one timed phase, in ms."""

    def __init__(self):
        self.samples: list[float] = []
        # The first runs are slower while the interpreter specialises the loop.
        for _ in range(3):
            reference_loop()

    def sample(self) -> None:
        """Time the reference loop once, with the collector held off so the
        program's heap does not add to the loop's time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            self.samples.append((time.perf_counter() - start) * 1e3)
        finally:
            if enabled:
                gc.enable()

    def scale(self, after: int) -> float:
        """Factor from wall time to reference time for the segment between
        sample ``after`` and the next one."""
        low = max(after + 1 - NEIGHBOURS, 0)
        nearby = self.samples[low: after + 1 + NEIGHBOURS]
        return REFERENCE_MS / statistics.median(nearby)

    def median_ms(self) -> float:
        return statistics.median(self.samples)
