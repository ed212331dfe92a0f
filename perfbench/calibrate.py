"""Machine-speed calibration taken between records, outside the timed work.

The host this benchmark was built on is shared: its speed drifts by up to
a third over seconds to minutes, and a run of 15-30 s sits in one state.
A fixed pure-Python kernel with the program's mix of work (Fraction
arithmetic, tuple-keyed dicts, small objects) is timed every
CALIBRATE_EVERY_S between records; the median of those samples over the
run, divided by REFERENCE_KERNEL_S, is the run's slowdown factor.  Reported
times are divided by it and rates multiplied by it, giving figures at the
reference speed.  Raw wall-clock figures are kept in result.json.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11.7).  It only sets the scale; a change to it rescales every
# figure and must come with a new baseline.
REFERENCE_KERNEL_S = 0.020
CALIBRATE_EVERY_S = 0.5


def kernel() -> int:
    """Fixed work: rational elimination-style updates and sparse dict sums."""
    acc = Fraction(0)
    terms: dict[tuple, Fraction] = {}
    for i in range(1, 1200):
        a = Fraction(i % 97 + 1, i % 89 + 1)
        acc = acc * Fraction(3, 4) + a
        key = (i % 13, i % 7, i % 5)
        terms[key] = terms.get(key, Fraction(0)) + a
    words = sorted(str(i * 7919 % 10007) for i in range(6000))
    return len(terms) + len(words) + acc.denominator % 7


class Calibration:
    """Kernel timings gathered over one run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def between(self) -> None:
        """Call between records: samples when CALIBRATE_EVERY_S has passed."""
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        return statistics.median(self.samples) / REFERENCE_KERNEL_S
