"""Brute-force verifiers for the variational formulas.

The analytic modules compute norms and invariants from closed-form
integrals of piecewise-power tables.  This module re-derives the same
quantities the slow, obvious way so the two can be compared:

* :func:`aux_diag_norm` — minimizes the two-term decomposition bound for
  a diagonal sequence over half-line supports on a finite search grid;
* :func:`indicator_search` — minimizes the indicator-decomposition bound
  for the mixed quadrant over rectangle corners on a log grid;
* :func:`riemann_integral` — plain log-grid trapezoid integration, the
  oracle for the closed-form integrals;
* :func:`orlicz_norm_scan` — a secant-steered search of a fixed grid
  for the Luxemburg norm's modular crossing, whose output equals a full
  scan's, the oracle for the bisection solver.

The two search routines evaluate each candidate decomposition with exact
tail masses and level crossings that this module computes from the
densities' knots, values and exponents alone, not with the library code
they check; every reported value is the exact objective of a concrete
candidate, so refining a search grid with nested points can only lower
the result.  Neither search scores a candidate known to be infeasible or
recomputes a tail mass or crossing it has, and both keep the bits of a
full search (see each function).  Grid minima and argmins tie-break
toward the smallest coordinates.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import BadCutoff, BadParameter, DivergentTail, DomainError
from .monotone_fn import MonotoneFn, evaluate_many
from .orlicz import OrliczFn, quiet_sum, rescaled_norm
from .spaces import WeightPair
from .util import _check_dimension

__all__ = [
    "aux_diag_norm",
    "indicator_search",
    "orlicz_norm_scan",
    "riemann_integral",
]

# Master integration lattice for indicator_search: fixed absolute span
# and density, independent of the corner-grid parameter, so a corner's
# objective never depends on how many corners are searched.
_LATTICE_LO = 1e-6
_LATTICE_HI = 1e8
_LATTICE_PER_DECADE = 96

# Scan resolution of orlicz_norm_scan.
_SCAN_POINTS = 10_000


def _tail_masses(w: MonotoneFn) -> Callable[[np.ndarray], np.ndarray]:
    """``H(t) = integral of w over [t, inf)`` for a nonincreasing `w`, as a
    function of arrays of ``t >= 0``.  On the piece from knot ``a``, with
    exponent ``e``, to the next knot ``b`` (``inf`` past the last),
    ``integral of v (s/a)^e over [t, b] = v (t/a)^e t E(e + 1, ln(b/t))``
    with ``E(p, l) = expm1(p l)/p`` and ``E(0, l) = l``: every term is
    positive, so nothing cancels near ``e = -1``.  Below the first knot
    ``v_1 (t_1 - t)`` is added to ``H(t_1)``.

    Raises
    ------
    DivergentTail
        Tail exponent >= -1 (the integral diverges).
    """
    if w.right_exponent >= -1.0:
        raise DivergentTail(
            f"tail exponent {w.right_exponent} >= -1: tail integral diverges"
        )
    knots, vals, exps = map(np.asarray, (w.knots, w.values, w.exponents))
    ends = np.append(knots[1:], math.inf)

    def to_end(j: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``integral of w over [t, ends[j]]``, `t` on piece `j`."""
        p, span = exps[j] + 1.0, np.log(ends[j] / t)
        e_pl = np.divide(np.expm1(p * span), p, out=span, where=p != 0.0)
        return vals[j] * (t / knots[j]) ** exps[j] * t * e_pl

    at_knots = np.cumsum(to_end(np.arange(knots.size), knots)[::-1])[::-1]
    at_ends = np.append(at_knots[1:], 0.0)

    def tail(ts: np.ndarray) -> np.ndarray:
        j = np.searchsorted(knots, ts, side="right") - 1
        head, inside = j < 0, j >= 0
        out = np.empty(ts.shape)
        out[head] = vals[0] * (knots[0] - ts[head]) + at_knots[0]
        out[inside] = to_end(j[inside], ts[inside]) + at_ends[j[inside]]
        return out

    return tail


def _crossings(w: MonotoneFn, ys: np.ndarray) -> np.ndarray:
    """``sup{t : w(t) >= y}`` at each level ``y > 0`` of `ys`, for a
    nonincreasing `w` whose tail is not flat: ``t_j (y/v_j)^(1/e_j)`` from
    the last knot ``j`` with ``v_j >= y``, whose exponent is then nonzero,
    and 0 above the maximum."""
    vals = np.asarray(w.values)
    j = np.searchsorted(-vals, -ys, side="right") - 1
    hit = j >= 0
    j = j[hit]
    out = np.zeros(ys.shape)
    out[hit] = (np.asarray(w.knots)[j]
                * (ys[hit] / vals[j]) ** (1.0 / np.asarray(w.exponents)[j]))
    return out


def _clean_abs(x: Iterable[float]) -> np.ndarray:
    arr = np.abs(np.asarray(list(x), dtype=float))
    if arr.size and np.any(~np.isfinite(arr)):
        raise DomainError("sequence entries must be finite reals")
    return arr[arr > 0.0]


def aux_diag_norm(
    p: WeightPair, x: Iterable[float], tau_points: int = 96
) -> float:
    """Two-term decomposition bound for a diagonal sequence, minimized
    over half-line supports.

    Each entry ``x_k`` is split along a set ``A_k``; the bound is
    ``sup_k |x_k| w_c(A_k)**0.5 + (sum_k |x_k|**2 w_r(A_k^c))**0.5``.
    The search restricts ``A_k`` to left half-lines ``(-inf, tau_k]``
    (optimal up to constants, the column weight growing leftward and the
    row weight decaying rightward), where the reflected bookkeeping
    gives ``w_c(A_k) = 1 + tau_k`` and ``w_r(A_k^c)`` equal to the row
    tail mass beyond ``tau_k``.  The objective separates once the first
    term's budget is fixed: for each achievable budget the best feasible
    ``tau_k`` is chosen independently per entry, and the smallest total
    over budgets is returned.  `tau_points` sets the per-run search-grid
    size; a nested refinement never increases the result.

    Budgets under ``max|x_k| (1 - 1e-9)`` are dropped unscored: below
    ``max|x_k|`` the largest entry's slack ``(budget/max|x_k|)**2 - 1``
    is negative, so no grid ``tau >= 0`` fits.  The entries are first
    scaled by a power of two, exactly, as the bound is homogeneous.

    Raises
    ------
    BadParameter
        `tau_points` < 1.
    DomainError
        `x` has nonfinite entries, or ``sum|x_k| / min|x_k|`` exceeds
        about 1.34e154, so its square (the grid's end) overflows.
    """
    if tau_points < 1:
        raise BadParameter(f"need at least one grid point, got {tau_points}")
    row_tail = _tail_masses(p.ur_fn)
    xs = _clean_abs(x)
    if xs.size == 0:
        return 0.0
    e = math.frexp(float(xs.max()))[1]  # the largest entry to [0.5, 1)
    xs = np.ldexp(xs, -e)
    try:  # an entry that scales to 0 lies over 2**1074 below the largest
        tau_hi = max(1e4, (float(xs.sum()) / float(xs.min())) ** 2)
    except (OverflowError, ZeroDivisionError):
        raise DomainError("entries spread too widely: sum/min must stay "
                          "below 1.34e+154 to square to a float") from None
    taus = np.concatenate(([0.0], np.geomspace(1e-4, tau_hi, tau_points)))
    h_vals = row_tail(taus)
    budgets = np.unique(np.outer(xs, np.sqrt(1.0 + taus)).ravel())
    budgets = budgets[np.searchsorted(budgets, xs.max() * (1.0 - 1e-9)):]

    # Largest grid tau each entry can afford within each budget.
    with np.errstate(over="ignore"):  # an infinite slack affords them all
        slack = (budgets[:, None] / xs[None, :]) ** 2 - 1.0
    idx = np.searchsorted(taus, slack * (1.0 + 1e-12), side="right") - 1
    feasible = np.all(idx >= 0, axis=1)
    sums = np.sum(xs[None, :] ** 2 * h_vals[np.maximum(idx, 0)], axis=1)
    values = budgets + np.sqrt(sums)
    with np.errstate(over="ignore"):  # a bound past the float range is inf
        return float(np.ldexp(np.min(values[feasible]), e))


def _lattice() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    decades = math.log10(_LATTICE_HI / _LATTICE_LO)
    count = int(round(decades * _LATTICE_PER_DECADE)) + 1
    edges = np.geomspace(_LATTICE_LO, _LATTICE_HI, count)
    mids = np.sqrt(edges[:-1] * edges[1:])
    return edges, mids, np.diff(edges)


def indicator_search(
    uE: WeightPair, vF: WeightPair, n: int, grid: int = 64
) -> tuple[float, tuple[float, float]]:
    """Indicator-decomposition bound on the mixed quadrant, minimized
    over rectangle corners.

    For each corner ``(s*, t*)`` on a log grid, the quadrant is split
    into ``b = 1`` on ``(s*, inf) x (t*, inf)`` and ``a = 1`` elsewhere;
    the objective is the balanced combination
    ``sqrt(n * |a|**2 + (n * |b|)**2)`` with

    * ``|a|**2`` the integral of ``min(col(s), row(t))`` over the
      ``a``-region (`uE`'s reflected column density against `vF`'s row
      density), and
    * ``|b|`` the product of the two tail masses' square roots (an
      indicator rectangle is a tensor, so its norm factors).

    The two-term decomposition bound ``sqrt(n)|a| + n|b|`` lies within
    ``sqrt(2)`` of this value at every corner; the balanced form is used
    because it is what the split actually trades off, so its minimizer
    sits at the corner where the column level ``col(s*)``, the row level
    ``row(t*)``, and ``n * col(s*) * row(t*)`` tie — the calibration
    point where both densities reach ``1/n``.

    Inner one-dimensional reductions use exact tail masses and level
    crossings; the outer integral is a midpoint sum on a fixed master
    lattice, and corners snap to lattice edges, so each corner's
    objective is independent of `grid` and nested refinements never
    increase the minimum.  Returns the grid minimum and its corner,
    tie-breaking toward the smallest coordinates.

    A strip's ``H(min(cross, t*))`` is ``H(cross)`` or ``H(t*)``, both
    computed once, and ``H(t*)`` is the corner's own tail mass; the
    helpers act elementwise, so the bits are those of one value at a time.

    Raises
    ------
    BadParameter
        ``n < 1`` or ``grid < 2``.
    DivergentTail
        Either density's tail exponent is >= -1.
    """
    n = _check_dimension(n)
    if grid < 2:
        raise BadParameter(f"need at least a 2x2 corner grid, got {grid}")
    col, row = uE.uc_fn, vF.ur_fn
    col_tail = _tail_masses(col)
    row_tail = _tail_masses(row)

    edges, mids, widths = _lattice()
    # The column levels at the lattice's lower end, then at its midpoints,
    # where the row density drops below them (0 above the row's maximum).
    levels = evaluate_many(col, np.concatenate(([_LATTICE_LO], mids)))
    crossings = _crossings(row, levels)
    h_crossings = row_tail(crossings)
    # Constant head below the lattice: the column density is flat there.
    head = (levels[0] * crossings[0] + h_crossings[0]) * _LATTICE_LO
    col_mid, cross, h_cross = levels[1:], crossings[1:], h_crossings[1:]
    # Full row integral of min(col(s), row(.)) at each s-midpoint.
    full_min = col_mid * cross + h_cross
    below = np.concatenate(([0.0], np.cumsum(full_min * widths)))

    col_tails = col_tail(edges)
    nf = float(n)
    span = np.geomspace(0.25, max(16.0, 4.0 * nf), grid)
    corner_idx = np.unique(
        np.clip(np.searchsorted(edges, span), 0, edges.size - 1)
    )
    s_corners = edges[corner_idx]
    t_corners = s_corners
    h_corners = row_tail(t_corners)

    values = np.empty((corner_idx.size, t_corners.size))
    for j, t_star in enumerate(t_corners):
        tj, row_tail_j = float(t_star), h_corners[j]
        clipped = np.minimum(cross, tj)
        h_clipped = np.where(cross <= tj, h_cross, h_corners[j])
        strip = col_mid * clipped + h_clipped - row_tail_j
        beyond = np.concatenate(
            (np.cumsum((strip * widths)[::-1])[::-1], [0.0])
        )
        a_sq = head + below[corner_idx] + beyond[corner_idx]
        a_sq += tj * col_tails[-1]
        b_sq = col_tails[corner_idx] * row_tail_j
        values[:, j] = np.sqrt(nf * a_sq + nf * nf * b_sq)
    # Row-major argmin: the first minimum has the smallest s, then the
    # smallest t.
    flat = int(np.argmin(values))
    i, j = divmod(flat, t_corners.size)
    return float(values[i, j]), (float(s_corners[i]), float(t_corners[j]))


def riemann_integral(
    f: MonotoneFn | Callable[[float], float],
    a: float,
    b: float,
    points: int = 2048,
    cutoff: float | None = None,
) -> float:
    """Trapezoid integral of `f` on a log-spaced grid over ``[a, b]``.

    `f` may be a table or any callable.  An infinite `b` requires a
    finite `cutoff` to integrate to; the cutoff must be generous enough
    that the estimated remaining tail (from the local decay exponent at
    the cutoff) stays below 1e-8 of the total.

    Raises
    ------
    BadParameter
        ``not 0 < a < b`` or fewer than two points.
    BadCutoff
        Infinite `b` without a cutoff, cutoff at or below `a`, or a tail
        estimate above the 1e-8 budget (including a non-integrable-
        looking decay at the cutoff).
    """
    a = float(a)
    b = float(b)
    if points < 2:
        raise BadParameter(f"need at least two points, got {points}")
    if not (0.0 < a < b):
        raise BadParameter(f"need 0 < a < b, got a={a}, b={b}")
    if math.isinf(b):
        if cutoff is None:
            raise BadCutoff("an infinite upper limit needs a finite cutoff")
        hi = float(cutoff)
        if not (math.isfinite(hi) and hi > a):
            raise BadCutoff(f"cutoff must be finite and above a, got {hi}")
    else:
        hi = b

    xs = np.geomspace(a, hi, points)
    if isinstance(f, MonotoneFn):
        ys = evaluate_many(f, xs)
    else:
        ys = np.array([float(f(float(v))) for v in xs])
    total = float(np.trapezoid(ys, xs))

    if math.isinf(b):
        y_hi = float(ys[-1])
        y_ref = (
            float(f(hi / 4.0))
            if not isinstance(f, MonotoneFn)
            else float(evaluate_many(f, np.array([hi / 4.0]))[0])
        )
        if y_hi > 0.0:
            if y_ref <= 0.0:
                raise BadCutoff("decay at the cutoff is not measurable")
            exponent = math.log(y_hi / y_ref) / math.log(4.0)
            if exponent >= -1.0 - 1e-6:
                raise BadCutoff(
                    "tail does not look integrable at the cutoff "
                    f"(local exponent {exponent:.3f})"
                )
            tail = y_hi * hi / (-1.0 - exponent)
            if tail > 1e-8 * (total + tail):
                raise BadCutoff(
                    f"cutoff {hi:g} leaves an estimated relative tail "
                    f"{tail / (total + tail):.2e} > 1e-08"
                )
    return total


def _scan_grid(start: float, stop: float) -> Callable[[int], float]:
    """Candidate ``k`` of ``np.geomspace(start, stop, _SCAN_POINTS)``
    for float64 ends, computed on its own with ``geomspace``'s
    arithmetic: 10 to the power of a ``linspace`` of the ends' base-10
    logarithms, with the ends pinned.  numpy's elementwise loops give an
    element the same bits whatever its neighbours, so it is the grid's."""
    log_start = np.log10(start)
    step = (np.log10(stop) - log_start) / (_SCAN_POINTS - 1)

    def candidate(k: int) -> np.float64:
        if 0 < k < _SCAN_POINTS - 1:
            return np.power(10.0, np.float64(k) * step + log_start)
        return start if k == 0 else stop

    return candidate


def orlicz_norm_scan(phi: OrliczFn, x: Iterable[float]) -> float:
    """Luxemburg norm by searching a fixed grid for the modular crossing
    of 1.

    The candidates are 10,000 log-spaced ``lam`` between ``max|x_k| /
    1e3`` and ``1e3 * sum|x_k|``.  The result is that of a full scan:
    the first candidate whose modular ``sum_k phi(|x_k|/lam)`` is at most
    1, with the crossing abscissa log-interpolated within the cell it
    closes.  The zero or empty sequence has norm 0, and a norm beyond the
    float range is ``inf``.

    The first crossing is found by a bracketing search of the candidate
    index: ``M > 1`` at the bracket's lower end, ``M <= 1`` at its upper
    end.  The first probe is the middle candidate; each next one is
    where the secant through the last two probes' ``(k, ln M)`` reaches
    ``ln M = 0``, rounded toward the far side (up from ``M > 1``, down
    from ``M <= 1``) and clamped inside the bracket.  With one probe the
    slope of ``ln M`` in ``ln lam`` is taken as -1; as every exponent is
    at least 1, that step reaches or passes the crossing, closing a
    bracket (up to rounding).  A probe that left
    more than 2/3 of the bracket, or a modular of 0 or ``inf``, makes
    the next probe the bracket's midpoint.  The search reads only the
    scan's own modulars.  It evaluates the modular at no more than 24
    candidates (8 on the ``verify`` battery's scans), candidate 0 only
    when the search reaches it.  A candidate is computed only where
    probed, with ``np.geomspace``'s arithmetic (:func:`_scan_grid`).
    Any bracketing search finds the scan's candidate because the
    candidates whose computed modular is at most 1 form a suffix of the
    grid.
    ``OrliczFn`` guarantees a nondecreasing body with every exponent at
    least ``1 - 1e-9``, so ``M(r lam) <= M(lam) / r**(1 - 1e-9)`` for
    ``r >= 1``.  Consecutive candidates differ by a ratio of at least
    ``(1e6)**(1/9999)``, about ``1 + 1.38e-3``.  The computed terms and
    their pairwise sum are within about 1e-14 relative of the exact
    ones, far inside that ratio, so a candidate whose computed modular
    is at most 1 is followed by one whose computed modular is below 1.
    Each candidate's terms are summed as one row, in the same order as
    a full-grid sum.

    Raises
    ------
    DomainError
        `x` has nonfinite entries.
    """
    xs = _clean_abs(x)
    if xs.size == 0:
        return 0.0
    largest = float(xs.max())
    top = 1e3 * quiet_sum(xs)
    if largest / 1e3 == 0.0 or not math.isfinite(top):
        # The grid's lower end underflows or its upper end overflows.
        e = math.frexp(largest)[1]  # the largest entry to [0.5, 1)
        return rescaled_norm(orlicz_norm_scan, phi, xs, e)
    candidate = _scan_grid(np.float64(largest / 1e3), np.float64(top))
    # ln M falls by at least this much per candidate: every exponent is >= 1.
    unit = (math.log(top) - math.log(largest / 1e3)) / (_SCAN_POINTS - 1)
    lo, hi = -1, _SCAN_POINTS  # M > 1 at lo, M <= 1 at hi, where in the grid
    k, last = _SCAN_POINTS // 2, None  # the next probe; the last (k, ln M)
    while hi - lo > 1:
        lam = candidate(k)
        m = float(np.add.reduce(phi.eval_many(xs / lam)))
        width = hi - lo
        if m <= 1.0:
            hi, lam_hi, m_hi = k, lam, m
        else:
            lo, lam_lo, m_lo = k, lam, m
        if 0.0 < m < math.inf:
            ln_m = math.log(m)
            slope = -unit if last is None else (ln_m - last[1]) / (k - last[0])
            last = k, ln_m
        else:  # no secant through a modular of 0 or inf
            slope = last = None
        if slope is None or slope >= 0.0 or 3 * (hi - lo) > 2 * width:
            k = (max(lo, 0) + hi) // 2
            continue
        guess = min(max(k - ln_m / slope, lo), hi)
        # Rounded toward the far side, then kept inside the bracket.
        k = math.ceil(guess) if ln_m > 0.0 else math.floor(guess)
        k = min(max(k, lo + 1), hi - 1)
    if hi == _SCAN_POINTS:
        return float(lam_lo)
    if lo < 0 or m_hi <= 0.0 or m_lo <= m_hi:
        return float(lam_hi)
    frac = math.log(m_lo) / (math.log(m_lo) - math.log(m_hi))
    return float(lam_lo * (lam_hi / lam_lo) ** frac)
