"""Small shared helpers: logarithmic grids.

The growth and Orlicz tabulations sample on geometric grids of a fixed
density, :data:`POINTS_PER_DECADE` points per decade.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameter

__all__ = ["log_grid", "POINTS_PER_DECADE"]

POINTS_PER_DECADE = 64


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
