"""Small shared helpers: the dimension check, logarithmic grids, and the
safeguarded Newton root and replay band of the growth and Luxemburg
solvers.

The growth and Orlicz tabulations sample on geometric grids of a fixed
density, :data:`POINTS_PER_DECADE` points per decade.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .errors import BadParameter

__all__ = ["log_grid", "POINTS_PER_DECADE"]

POINTS_PER_DECADE = 64

#: Relative distance from a solver's root beyond which a bisection step
#: takes its side from that root instead of evaluating.  The replay
#: contract: a side decided outside the band always equals the evaluated
#: side (tests hold the roots to a hundredth of the band), so the replay
#: is bit-identical to a bisection that evaluates every step.
_ROOT_BAND = 1e-12

#: Newton's method in :func:`_log_newton_root` stops at this relative
#: step, or gives up after this many steps.
_NEWTON_RTOL, _NEWTON_STEPS = 1e-15, 60


def _check_dimension(n: object) -> int:
    """`n` as an ``int``: any positive integer that is not a ``bool``,
    numpy's integer types included."""
    try:
        k = operator.index(n)
    except TypeError:
        k = 0
    if isinstance(n, bool) or k < 1:
        raise BadParameter(f"dimension must be a positive integer, got {n!r}")
    return k


def log_grid(lo: float, hi: float) -> np.ndarray:
    """Geometric grid from `lo` to `hi` inclusive.

    The number of points is :data:`POINTS_PER_DECADE` times the number of
    decades spanned, with a floor of two points.
    """
    if not (0.0 < lo < hi):
        raise BadParameter(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    decades = np.log10(hi / lo)
    count = max(2, int(np.ceil(decades * POINTS_PER_DECADE)) + 1)
    return np.geomspace(lo, hi, count)


def _log_newton_root(step_at: Callable[[float], float | None],
                     lo: float, hi: float) -> float | None:
    """A root in ``[lo, hi]`` by Newton's method in ``u = ln t`` from `lo`,
    ``step_at(t)`` being the step at `t` (positive below the root; None
    gives None).  A step that leaves the bracket every evaluation shrinks
    goes to its geometric midpoint instead; None if the steps never settle."""
    a, b, t = lo, hi, lo
    for _ in range(_NEWTON_STEPS):
        step = step_at(t)
        if step is None:
            return None
        a, b = (t, b) if step > 0.0 else (a, t)
        t *= math.exp(step)
        if abs(step) <= _NEWTON_RTOL:
            return t
        if not a < t < b:
            t = a * math.exp(0.5 * math.log(b / a))
    return None
