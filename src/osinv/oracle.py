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
* :func:`orlicz_norm_scan` — a scan for the Luxemburg norm's modular
  crossing, the oracle for the bisection solver.

The two search routines evaluate each candidate decomposition with
exact tail masses and level crossings (those primitives are validated
independently by :func:`riemann_integral`); every reported value is the
exact objective of a concrete candidate, so refining a search grid with
nested points can only lower the result.  Grid minima and argmins
tie-break toward the smallest coordinates.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import BadCutoff, BadParameter, DomainError
from .growth import TailIntegral
from .monotone_fn import MonotoneFn, crossing_below, evaluate_many
from .orlicz import OrliczFn, quiet_sum, rescaled_norm
from .spaces import WeightPair

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

# Scan resolution of orlicz_norm_scan; the candidates per block of its
# largest-term bound row; and the (entry, lam) pairs it evaluates in its
# first chunk of ascending lam, doubling per chunk up to the cap.  The
# crossing lies a few hundred candidates past the first unskipped one on
# the verify battery's sequences, so small first chunks waste little;
# chunks of 8k-16k pairs ran fastest there, 32k and up slower.
_SCAN_POINTS = 10_000
_SCAN_BLOCK = 1_024
_SCAN_FIRST_CHUNK = 1_024
_SCAN_CHUNK = 16_384


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

    Raises
    ------
    BadParameter
        `tau_points` < 1.
    DomainError
        `x` has nonfinite entries.
    """
    if tau_points < 1:
        raise BadParameter(f"need at least one grid point, got {tau_points}")
    row_tail = TailIntegral.from_density(p.ur_fn)
    xs = _clean_abs(x)
    if xs.size == 0:
        return 0.0

    tau_hi = max(1e4, float(xs.sum() / xs.min()) ** 2)
    taus = np.concatenate(([0.0], np.geomspace(1e-4, tau_hi, tau_points)))
    h_vals = row_tail.eval_many(taus)
    budgets = np.unique(np.outer(xs, np.sqrt(1.0 + taus)).ravel())

    # Largest grid tau each entry can afford within each budget.
    slack = (budgets[:, None] / xs[None, :]) ** 2 - 1.0
    idx = np.searchsorted(taus, slack * (1.0 + 1e-12), side="right") - 1
    feasible = np.all(idx >= 0, axis=1)
    sums = np.sum(xs[None, :] ** 2 * h_vals[np.maximum(idx, 0)], axis=1)
    values = budgets + np.sqrt(sums)
    return float(np.min(values[feasible]))


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

    Raises
    ------
    BadParameter
        ``n < 1`` or ``grid < 2``.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise BadParameter(f"dimension must be a positive integer, got {n}")
    if grid < 2:
        raise BadParameter(f"need at least a 2x2 corner grid, got {grid}")
    col = uE.uc_fn
    row = vF.ur_fn
    col_tail = TailIntegral.from_density(col)
    row_tail = TailIntegral.from_density(row)

    edges, mids, widths = _lattice()
    col_mid = evaluate_many(col, mids)
    # Where the row density drops below each column level (0 when the
    # level is above the row's maximum).
    cross = np.array([crossing_below(row, float(y)) for y in col_mid])
    # Full row integral of min(col(s), row(.)) at each s-midpoint.
    full_min = col_mid * cross + row_tail.eval_many(cross)
    below = np.concatenate(([0.0], np.cumsum(full_min * widths)))
    # Constant head below the lattice: the column density is flat there.
    y0 = float(evaluate_many(col, np.array([_LATTICE_LO]))[0])
    t0 = crossing_below(row, y0)
    head = (y0 * t0 + row_tail.eval(t0)) * _LATTICE_LO

    col_tails = col_tail.eval_many(edges)
    nf = float(n)
    span = np.geomspace(0.25, max(16.0, 4.0 * nf), grid)
    corner_idx = np.unique(
        np.clip(np.searchsorted(edges, span), 0, edges.size - 1)
    )
    s_corners = edges[corner_idx]
    t_corners = s_corners

    values = np.empty((corner_idx.size, t_corners.size))
    for j, t_star in enumerate(t_corners):
        tj = float(t_star)
        row_tail_j = row_tail.eval(tj)
        clipped = np.minimum(cross, tj)
        strip = col_mid * clipped + row_tail.eval_many(clipped) - row_tail_j
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


def orlicz_norm_scan(phi: OrliczFn, x: Iterable[float]) -> float:
    """Luxemburg norm by scanning for the modular crossing of 1.

    Scans log-spaced candidates ``lam`` between ``max|x_k| / 1e3`` and
    ``1e3 * sum|x_k|`` for the first one whose modular
    ``sum_k phi(|x_k|/lam)`` is at most 1, and returns the crossing
    abscissa log-interpolated within the cell it closes (the modular is
    nonincreasing in ``lam``).  The zero or empty sequence has norm 0,
    and a norm beyond the float range is ``inf``.

    Candidates whose largest term ``phi(max|x_k|/lam)`` alone exceeds 1
    are skipped: every term is >= 0, and a float sum of nonnegative
    terms, in any order, is at least its largest term (``fl(a + b) >=
    a``), so such a candidate's modular exceeds 1 and it cannot be the
    first crossing.  The bound needs no monotonicity of ``phi``.  It is
    taken with a 1e-9 margin, which covers last-bit differences between
    the bound's row of terms and the same terms evaluated in a chunk.
    The bound row is taken in blocks of 1,024 candidates up to the first
    block holding an unskipped candidate.  The rest are evaluated in
    ascending chunks, from the last skipped candidate (the left end of a
    crossing cell), starting at about 1,024 (entry, lam) pairs and
    doubling per chunk up to 16,384, and the scan stops at the first
    chunk holding a crossing; later candidates cannot change the first
    crossing, so the result is that of a full scan.

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
    if not math.isfinite(top):
        e = math.frexp(largest)[1]  # the largest entry to [0.5, 1)
        return rescaled_norm(orlicz_norm_scan, phi, xs, e)
    lams = np.geomspace(largest / 1e3, top, _SCAN_POINTS)
    for block in range(0, lams.size, _SCAN_BLOCK):
        bound = phi.eval_many(largest / lams[block:block + _SCAN_BLOCK])
        over = bound > 1.0 + 1e-9
        if not over.all():
            break
    else:
        return float(lams[-1])
    start = max(block + int(np.argmin(over)) - 1, 0)
    cap = max(1, _SCAN_CHUNK // xs.size)
    step = min(max(1, _SCAN_FIRST_CHUNK // xs.size), cap)
    m_prev = math.nan  # modular at the candidate before the chunk
    while start < lams.size:
        chunk = lams[start:start + step]
        # Entry-major ratios keep each row sorted for the piece lookup;
        # each lam's terms are then summed as one contiguous row, in the
        # same pairwise order as a full-grid sum.
        terms = phi.eval_many(xs[:, None] / chunk[None, :])
        modular = np.ascontiguousarray(terms.T).sum(axis=1)
        under = modular <= 1.0
        if not under.any():
            m_prev = float(modular[-1])
            start += step
            step = min(2 * step, cap)
            continue
        j = int(np.argmax(under))
        k = start + j
        if k == 0:
            return float(lams[0])
        m_lo = float(modular[j - 1]) if j else m_prev
        m_hi = float(modular[j])
        if m_hi <= 0.0 or m_lo <= m_hi:
            return float(lams[k])
        frac = math.log(m_lo) / (math.log(m_lo) - math.log(m_hi))
        return float(lams[k - 1] * (lams[k] / lams[k - 1]) ** frac)
    return float(lams[-1])
