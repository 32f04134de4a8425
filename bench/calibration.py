"""The calibration loop: a reading of the machine's speed right now.

On a shared machine other tenants slow the CPU by 20-60%, for stretches
from a fraction of a second to minutes.  Timings are scaled by
``REFERENCE_S`` over the loop time measured next to them, so that a
slowdown the loop also saw drops out.  The loop is plain interpreter
work that shares nothing with the program (it allocates no tracked
objects, so the program's heap cannot slow it): a change to the program
leaves it alone and shows in full in the scaled timings.
"""

from __future__ import annotations

import math
import time

#: Loop time the scaled timings refer to.
REFERENCE_S = 1e-3

_ITERATIONS = 15000


def _loop() -> int:
    total = 0
    for i in range(_ITERATIONS):
        total += i * i % 7
    return total


def calibrate() -> float:
    """Seconds the loop (about 1 ms) takes now: the best of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best
