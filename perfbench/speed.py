"""Machine-speed reference: a fixed exact-arithmetic loop timed next to the work.

On a shared machine the speed of one core can change by 2x from one second
to the next, and CPU time tracks wall time, so neither clock alone gives
repeatable figures. The benchmark therefore times this loop before and
after each operation (and each set-up) and reports times scaled to the
nominal speed at which the loop takes ``NOMINAL_MS``:

    scaled = wall * NOMINAL_MS / (mean of the loop's times around it)

The loop uses only the standard library (``Fraction`` arithmetic, tuple
hashing, dict stores: the mix ``cmdpkit`` spends its time in), so no change
to the package can move it. The raw wall times are printed beside the
scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The loop's time in milliseconds at nominal speed (its fast state on an
# Intel Xeon at 2.0 GHz with Python 3.11).
NOMINAL_MS = 2.0

_clock = time.perf_counter


def reference_ms() -> float:
    start = _clock()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        f = Fraction(i % 13 + 1, i % 17 + 2)
        acc += f * f
        seen[(f, i % 7)] = acc
    return (_clock() - start) * 1e3


def scale(wall: float, ref_before_ms: float, ref_after_ms: float) -> float:
    """``wall`` at nominal speed, given the reference times around it."""
    return wall * NOMINAL_MS * 2 / (ref_before_ms + ref_after_ms)


class Stopwatch:
    """Time of a sequence of steps, each scaled by the reference around it.

    ``lap()`` ends a step; the reference loop's own time is left out.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._ref = reference_ms()
        self._last = _clock()

    def lap(self) -> None:
        wall = _clock() - self._last
        ref = reference_ms()
        self.raw_s += wall
        self.scaled_s += scale(wall, self._ref, ref)
        self._ref = ref
        self._last = _clock()

    def add(self, raw_s: float, scaled_s: float) -> None:
        """Count a step timed elsewhere (in a child process) instead of the last one."""
        self.raw_s += raw_s
        self.scaled_s += scaled_s
        self._ref = reference_ms()
        self._last = _clock()
