"""Orlicz functions, modular sequence norms, and fundamental sequences.

The central object is :class:`OrliczFn`: a nondecreasing piecewise-power
function ``phi`` with ``phi(0) = 0`` and ``phi(t)/t`` nondecreasing (a
quasi-convexity surrogate; true convexity is restored by
:func:`smooth_from_raw`).  On top of it sit the Luxemburg sequence norm,
the fundamental sequence ``phi_n = 1/phi^{-1}(1/n)`` and its inverse
construction, the function induced by a weight density via
``phi(t) = t^2 h(t^{-2})``, and the reference function
``psi(t) = t^2 log(t + 1/t)``.

Everything here matters only in a neighbourhood of zero (sequence norms
never evaluate ``phi`` beyond ``phi^{-1}(1)``); tabulated functions span
``t`` in ``[1e-12, 1e3]`` and extend by pure powers outside.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    BadParameter,
    DomainError,
    Inconsistent,
    NonPositive,
    NotAdmissible,
    TooFewPoints,
)
from .growth import TailIntegral
from .monotone_fn import (
    MonotoneFn,
    _local_power,
    _merge_close,
    _pieces_at,
    _solve_on_segment,
    generalized_inverse,
    integral,
    make_piecewise,
)
from .util import _ROOT_BAND, _log_newton_root, log_grid

__all__ = [
    "OrliczFn",
    "make_orlicz",
    "power_orlicz",
    "from_weight",
    "sequence_norm",
    "fundamental_sequence",
    "from_fundamental_sequence",
    "smooth_from_raw",
    "psi",
]

logger = logging.getLogger(__name__)

#: Tabulated Orlicz functions span this abscissa range.
GRID_SPAN = (1e-12, 1e3)

#: Slack allowed on the "every local exponent >= 1" admissibility check.
_EXPONENT_TOL = 1e-9

#: Relative half-width of the norm bisection bracket at termination.
_BISECT_RTOL = 1e-12

#: Largest relative violation of the monotone band that
#: :func:`from_fundamental_sequence` repairs rather than rejects.
_REPAIR_TOL = 1e-3


@dataclass(frozen=True)
class OrliczFn:
    """A nondecreasing function ``phi`` with ``phi(0)=0``, power tails.

    Attributes
    ----------
    body:
        Piecewise-power table of ``phi``.  Below the first knot the
        exponent of the *first piece above it* extends the function (so
        ``phi(0+) = 0``), unlike a bare :class:`MonotoneFn` whose left
        extension is constant; above the last knot `body`'s own right
        exponent rules.
    delta2_constant:
        Least ``lam`` with ``phi(2t) <= lam * phi(t)`` for all ``t``,
        computed exactly from `body`; it must be a finite float.

    Every local exponent — segments, right tail, and hence the left
    extension — must be at least 1, which makes ``phi`` strictly
    increasing with ``phi(t)/t`` nondecreasing.  Build instances with
    :func:`make_orlicz` (or the dedicated constructors).

    Evaluation reads `body`'s piece layout (see :mod:`osinv.monotone_fn`)
    with :attr:`left_exponent` as the head exponent: :meth:`eval` through
    the scalar bisection, every array reader through ``_pieces_at`` on
    :attr:`_table`.
    """

    body: MonotoneFn
    delta2_constant: float = field(init=False)

    def __post_init__(self) -> None:
        if self.body.direction != "nondecreasing":
            raise NotAdmissible("an Orlicz function must be nondecreasing")
        worst = min(self.body.exponents)
        if worst < 1.0 - _EXPONENT_TOL:
            raise NotAdmissible(
                f"local exponent {worst} < 1: phi(t)/t would decrease"
            )
        delta2 = _sup_doubling_ratio(self)
        if not (math.isfinite(delta2) and delta2 >= 1.0):
            raise NotAdmissible(
                f"doubling constant must be finite and >= 1, got {delta2}"
            )
        object.__setattr__(self, "delta2_constant", delta2)

    @property
    def left_exponent(self) -> float:
        """Exponent of the power piece extending below the first knot:
        that of the first piece above it."""
        return self.body.exponents[0]

    def eval(self, t: float) -> float:
        """``phi(t)`` for ``t >= 0`` (``phi(0) = 0``)."""
        t = float(t)
        if not (math.isfinite(t) and t >= 0.0):
            raise DomainError(f"argument must be a finite real >= 0, got {t}")
        if t == 0.0:
            return 0.0
        v0, t0, e = _local_power(self.body, t, self.left_exponent)
        return v0 * (t / t0) ** e

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """`body`'s piece table with :attr:`left_exponent` as the head
        exponent."""
        edges, rows = self.body._table
        rows = rows.copy()
        rows[2, 0] = self.left_exponent
        return edges, rows

    def eval_many(self, ts: Iterable[float]) -> np.ndarray:
        """Vectorized :meth:`eval`: one lookup in the piece table."""
        arr = np.asarray(ts, dtype=float)
        if not arr.size:
            return np.zeros_like(arr)
        flat = arr.reshape(-1)
        lo, hi = flat.min(), flat.max()
        if not (lo >= 0.0 and hi < math.inf):
            raise DomainError("arguments must be finite reals >= 0")
        out = self._power_terms(flat, *_pieces_at(self._table, flat))
        if lo == 0.0:  # phi(-0.0) is +0.0 too, whatever the exponent
            out[flat == 0.0] = 0.0
        return out.reshape(arr.shape)

    def _power_terms(
        self,
        flat: np.ndarray,
        idx: np.ndarray,
        v0: np.ndarray,
        t0: np.ndarray,
        e: np.ndarray,
    ) -> np.ndarray:
        """``phi`` at the entries of `flat` from their pieces (see
        :func:`~osinv.monotone_fn._pieces_at`)."""
        out = v0 * (flat / t0) ** e
        head = idx == 0
        if head.any():
            # The head piece is taken again with its exponent as a
            # scalar: numpy takes fast paths for some scalars (``square``
            # for 2.0) whose last bit differs from an array-exponent power.
            out[head] = (
                self.body.values[0]
                * (flat[head] / self.body.knots[0]) ** self.left_exponent
            )
        return out

    def inverse(self, y: float) -> float:
        """``phi^{-1}(y) = sup {t : phi(t) <= y}`` (0 at ``y = 0``)."""
        y = float(y)
        if not (math.isfinite(y) and y >= 0.0):
            raise DomainError(f"argument must be a finite real >= 0, got {y}")
        if y == 0.0:
            return 0.0
        body = self.body
        if y >= body.values[0]:
            return generalized_inverse(body, y)
        return _solve_on_segment(
            body.knots[0], body.values[0], self.left_exponent, y
        )


def _sup_doubling_ratio(phi: OrliczFn) -> float:
    """Exact ``sup_t phi(2t)/phi(t)`` for a piecewise-power ``phi``
    (``inf`` where it overflows).

    Up to half the first knot the ratio is ``2**left_exponent``, and from
    the last knot on ``2**right_exponent``.  Between, it is piecewise
    power with breakpoints at the knots and half-knots, monotone between
    them, so the sup is attained on the breakpoints.  The ratio does not
    change when ``phi`` is scaled, so where ``phi`` leaves the normal
    float range at a breakpoint it is taken from the logarithms of the
    two pieces instead.
    """
    try:
        sup = 2.0 ** max(phi.left_exponent, phi.body.right_exponent)
    except OverflowError:
        return math.inf
    knots = np.asarray(phi.body.knots)
    pts = np.union1d(knots, knots / 2.0)[1:-1]
    if not pts.size:
        return sup
    with np.errstate(over="ignore", under="ignore"):
        below, above = phi.eval_many(pts), phi.eval_many(2.0 * pts)
        ok = (below >= sys.float_info.min) & (above < math.inf)
        ratio = above[ok] / below[ok]
        if not ok.all():
            logs = _log_phi(phi, 2.0 * pts[~ok]) - _log_phi(phi, pts[~ok])
            ratio = np.concatenate((ratio, np.exp(logs)))
    return max(sup, float(np.max(ratio)))


def _log_phi(phi: OrliczFn, ts: np.ndarray) -> np.ndarray:
    """``ln phi`` at the positive entries of `ts`, from their pieces."""
    _, v0, t0, e = _pieces_at(phi._table, ts)
    return np.log(v0) + e * np.log(ts / t0)


def make_orlicz(body: MonotoneFn) -> OrliczFn:
    """Wrap a piecewise-power table as an :class:`OrliczFn`.

    Computes the least doubling constant exactly.

    Raises
    ------
    NotAdmissible
        `body` is nonincreasing, or some local exponent is below 1 (so
        ``phi(t)/t`` would decrease somewhere), or its doubling constant
        overflows.
    """
    return OrliczFn(body)


def power_orlicz(p: float) -> OrliczFn:
    """The pure power ``phi(t) = t^p`` for ``p >= 1``.

    Raises
    ------
    NotAdmissible
        ``p < 1``.
    """
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise NotAdmissible(f"power must be >= 1, got {p}")
    body = make_piecewise(
        [1.0], [1.0], right_exponent=p, direction="nondecreasing"
    )
    return make_orlicz(body)


def from_weight(w: MonotoneFn) -> OrliczFn:
    """The Orlicz function ``phi(t) = t^2 h(t^{-2})`` induced by a weight.

    ``h`` is the exact tail integral of `w`; the table samples it on a
    log grid of ``u = t^{-2}`` spanning the standard abscissa range, with
    `w`'s knots added so every kink lands on a knot.  Wherever ``h`` is a
    pure power (beyond `w`'s knots, notably) the table is exact; elsewhere
    it is second-order accurate in the grid spacing.  The large-``t``
    extension is exactly ``t^2`` (times the sampled tail mass) and the
    small-``t`` exponent is pinned exactly by a flanking knot.

    Raises
    ------
    DirectionError
        `w` is nondecreasing.
    DivergentTail
        `w` is not integrable at infinity.
    """
    hh = TailIntegral.from_density(w)
    u_lo, u_hi = GRID_SPAN[1] ** -2.0, GRID_SPAN[0] ** -2.0
    grid = {float(u) for u in log_grid(u_lo, u_hi)}
    grid.update(k for k in w.knots if u_lo <= k <= u_hi)
    # One flanking sample beyond the grid pins the exact small-t exponent.
    grid.add(u_hi * 1e4)
    us = _merge_close(sorted(grid))
    knots = [u ** -0.5 for u in reversed(us)]
    values = [float(hh.eval(u)) / u for u in reversed(us)]
    body = make_piecewise(
        knots, values, right_exponent=2.0, direction="nondecreasing"
    )
    return make_orlicz(body)


def sequence_norm(phi: OrliczFn, x: Iterable[float]) -> float:
    """Luxemburg norm ``inf {lam : sum phi(|x_k|/lam) <= 1}``.

    For a nonzero sequence this is the unique ``lam`` solving the modular
    equation ``sum phi(|x_k|/lam) = 1`` (the modular is strictly
    decreasing in ``lam``), found by geometric bisection inside the
    bracket ``[max|x_k|/phi^{-1}(1), sum|x_k|/phi^{-1}(1/n)]``.  The zero
    or empty sequence has norm 0, and a norm beyond the float range is
    ``inf``.

    The root is first found by Newton's method (:func:`_modular_root`),
    then the bisection is replayed: a midpoint farther than
    :data:`_ROOT_BAND` from that root takes its side from it, and only
    the few midpoints inside the band evaluate the modular, with the
    arithmetic of :meth:`OrliczFn.eval_many`.  The computed modular is
    within about ``(24 + log2(n/128)) eps`` relative of the true one (a
    few ulp per power, and numpy's pairwise sum), and ``|d ln M| >= |d ln
    lam|`` as every exponent is at least 1, so rounding moves a side only
    within about 3e-15 of the root.  The norm is thus bit-identical to a
    bisection that evaluates every step.
    """
    arr = np.abs(np.asarray(x if isinstance(x, np.ndarray) else list(x),
                            dtype=float))
    if arr.size and np.any(~np.isfinite(arr)):
        raise DomainError("sequence entries must be finite reals")
    arr = arr[arr > 0.0]
    if arr.size == 0:
        return 0.0
    n = arr.size
    lo = float(arr.max()) / phi.inverse(1.0)
    hi = quiet_sum(arr) / phi.inverse(1.0 / n)
    if lo < sys.float_info.min or not math.isfinite(hi):
        # The bracket's lower end is subnormal, where a bisection rounds
        # its midpoints to a few bits, or its upper end overflows.  Scale
        # the lower end near 1; for an admissible phi the upper end is at
        # most n**2 times the lower.
        e = math.frexp(float(arr.max()))[1] - math.frexp(phi.inverse(1.0))[1]
        return rescaled_norm(sequence_norm, phi, arr, e)
    if hi <= lo * (1.0 + _BISECT_RTOL):
        return lo

    root = _modular_root(phi, arr, lo, hi)
    # Each step takes one square root, of the midpoint that becomes an end.
    sqrt_lo, sqrt_hi = math.sqrt(lo), math.sqrt(hi)
    for _ in range(200):
        mid = sqrt_lo * sqrt_hi
        if root is not None and abs(mid - root) > _ROOT_BAND * root:
            over = mid < root
        else:
            ts = arr / mid
            terms = phi._power_terms(ts, *_pieces_at(phi._table, ts))
            over = np.add.reduce(terms) > 1.0
        if over:
            lo, sqrt_lo = mid, math.sqrt(mid)
        else:
            hi, sqrt_hi = mid, math.sqrt(mid)
        if hi <= lo * (1.0 + _BISECT_RTOL):
            break
    return sqrt_lo * sqrt_hi


def _modular_root(
    phi: OrliczFn, arr: np.ndarray, lo: float, hi: float
) -> float | None:
    """The root of ``M(lam) = sum phi(arr_k/lam) = 1`` in ``[lo, hi]`` by
    Newton's method on ``ln M`` in ``u = ln lam``; None if it does not
    settle.

    On fixed pieces ``M`` is a sum of terms ``t_k`` proportional to
    ``lam**-e_k``, so ``ln M`` is a log-sum-exp of affine functions of
    ``u``: convex, decreasing, and linear for a single exponent (one
    step).  Its derivative is ``-sum e_k t_k / M``.  Across a knot where
    the exponent drops a step can leave the bracket ``M(a) > 1 >= M(b)``,
    and is replaced (see :func:`_log_newton_root`).
    """
    def step_at(lam: float) -> float | None:
        ts = arr / lam
        idx, v0, t0, e = _pieces_at(phi._table, ts)
        terms = phi._power_terms(ts, idx, v0, t0, e)
        m = float(np.add.reduce(terms))
        slope = float(np.dot(e, terms))
        if 0.0 < m < math.inf and 0.0 < slope < math.inf:
            return math.log(m) * m / slope
        return None

    return _log_newton_root(step_at, lo, hi)


def quiet_sum(arr: np.ndarray) -> float:
    """``arr.sum()``, ``inf`` without a warning where it overflows."""
    with np.errstate(over="ignore"):
        return float(arr.sum())


def rescaled_norm(
    norm: Callable[[OrliczFn, np.ndarray], float],
    phi: OrliczFn,
    arr: np.ndarray,
    e: int,
) -> float:
    """``norm(phi, arr)`` as ``2**e * norm(phi, arr / 2**e)``, for
    entries whose search range overflows.

    The Luxemburg norm is positively homogeneous and scaling by a power
    of two is exact (entries pushed below the normal range lose bits,
    but their terms are negligible beside the largest); a norm beyond
    the float range is ``inf``.
    """
    value = norm(phi, np.ldexp(arr, -e))
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def fundamental_sequence(phi: OrliczFn, n: float) -> float:
    """``phi_n = 1/phi^{-1}(1/n)`` — the norm of ``n`` ones.

    Raises
    ------
    BadParameter
        ``n < 1`` or nonfinite.
    """
    n = float(n)
    if not (math.isfinite(n) and n >= 1.0):
        raise BadParameter(f"need n >= 1, got {n}")
    return 1.0 / phi.inverse(1.0 / n)


def from_fundamental_sequence(
    phis: Mapping[float, float] | Iterable[tuple[float, float]],
) -> OrliczFn:
    """Reconstruct ``phi`` from values of its fundamental sequence.

    Plots ``phi^{-1}(1/n) = 1/phi_n`` at the grid points and interpolates
    the inverse geometrically, which pins ``phi`` itself as a piecewise
    power through ``(1/phi_n, 1/n)``.  The data must have ``phi_n``
    nondecreasing and ``phi_n/n`` nonincreasing; violations up to
    :data:`_REPAIR_TOL` (relative) are projected back onto the admissible
    band and logged, larger ones are rejected.

    Raises
    ------
    TooFewPoints
        Fewer than two grid points.
    NonPositive
        Some ``phi_n <= 0``.
    BadParameter
        Some grid ``n < 1``, or some ``1/phi_n`` overflows.
    Inconsistent
        Monotonicity of ``phi_n`` or ``phi_n/n`` fails beyond
        :data:`_REPAIR_TOL`, or the data collapse to a constant.
    """
    data = dict(phis)
    if len(data) < 2:
        raise TooFewPoints("need at least two fundamental-sequence points")
    items = sorted((float(n), float(v)) for n, v in data.items())
    for n, v in items:
        if not (math.isfinite(n) and n >= 1.0):
            raise BadParameter(f"grid points must be reals >= 1, got {n}")
        if not (math.isfinite(v) and v > 0.0):
            raise NonPositive(f"phi_n must be positive, got {v} at n={n}")

    ln_n = [math.log(n) for n, _ in items]
    g = [math.log(v) for _, v in items]
    # Project onto the band "nondecreasing with slope <= 1 in log n":
    # phi_n up, phi_n/n down.
    h = [g[0]]
    for j in range(1, len(g)):
        cap = h[-1] + (ln_n[j] - ln_n[j - 1])
        h.append(min(max(g[j], h[-1]), cap))
    worst = max(abs(a - b) for a, b in zip(h, g))
    if worst > math.log1p(_REPAIR_TOL):
        raise Inconsistent(
            "fundamental sequence is not monotone within tolerance "
            f"(relative deviation {math.expm1(worst):.3e})"
        )
    if worst > 0.0:
        logger.info(
            "fundamental-sequence data repaired onto the monotone band "
            "(max relative correction %.3e)",
            math.expm1(worst),
        )

    # phi passes through (1/phi_n, 1/n); ascending knots mean descending n.
    pts: list[tuple[float, float]] = []
    for (n, v), lv in zip(reversed(items), reversed(h)):
        try:
            s = math.exp(-lv)
        except OverflowError:
            raise BadParameter(
                f"1/phi_n overflows the float range at n={n}: phi_n = {v!r}"
            ) from None
        if pts and s <= pts[-1][0] * (1.0 + 1e-13):
            # Equal phi_n: keep the smaller n (larger 1/n) so the sup
            # inverse reproduces the repaired value there exactly.
            pts[-1] = (pts[-1][0], max(pts[-1][1], 1.0 / n))
            continue
        pts.append((s, 1.0 / n))
    if len(pts) < 2:
        raise Inconsistent("fundamental sequence is constant on the grid")
    knots = [s for s, _ in pts]
    values = [y for _, y in pts]
    body = make_piecewise(
        knots,
        values,
        right_exponent=math.log(values[-1] / values[-2])
        / math.log(knots[-1] / knots[-2]),
        direction="nondecreasing",
    )
    return make_orlicz(body)


def _left_flank(t1: float, v1: float, e_left: float) -> float:
    """The knot below `t1` that pins the smoothed function's left exponent.

    It is ``t1/100`` unless the smoothed value there,
    ``v1 (t/t1)^e_left / e_left``, falls below the normal float range;
    then it is the point where that value is 4 times the smallest
    normal float.

    Raises
    ------
    NotAdmissible
        The smoothed value at `t1` itself is that small.
    """
    flank = t1 / 100.0
    tiny = 4.0 * sys.float_info.min
    if v1 * (flank / t1) ** e_left / e_left >= tiny:
        return flank
    ratio = math.exp((math.log(tiny) - math.log(v1 / e_left)) / e_left)
    if not ratio < 1.0 - 1e-9:
        raise NotAdmissible(
            f"the smoothed value {v1 / e_left!r} at the first knot {t1!r} "
            "is below the normal float range")
    return t1 * ratio


def smooth_from_raw(phi_tilde: OrliczFn | MonotoneFn) -> OrliczFn:
    """Convexify a raw quasi-convex function by ``phi(t) = int_0^t raw(s)/s ds``.

    The output is genuinely convex (its derivative ``raw(t)/t`` is
    nondecreasing) and sandwiched: ``phi <= raw <= E * phi`` pointwise,
    where ``E`` is the largest local exponent of the raw function (at
    most 4 throughout this library's pipeline).  The integral is computed
    in closed form piece by piece and tabulated on the raw knots plus a
    log refinement; below the first knot it is exactly
    ``raw(t)/left_exponent``.

    Raises
    ------
    NotAdmissible
        The raw function is nonincreasing or has a local exponent below 1
        (``raw(t)/t`` must be nondecreasing).
    """
    raw = phi_tilde if isinstance(phi_tilde, OrliczFn) else make_orlicz(phi_tilde)
    body = raw.body
    e_left = raw.left_exponent
    t1, v1 = body.knots[0], body.values[0]

    if len(body.knots) == 1:
        # Pure power: the integral is raw/exponent, again a pure power.
        scaled = make_piecewise(
            [t1],
            [v1 / e_left],
            right_exponent=body.right_exponent,
            direction="nondecreasing",
        )
        return make_orlicz(scaled)

    # Integrand raw(s)/s on [t1, inf): piecewise power, exponents >= 0.
    ratio_vals = [v / k for v, k in zip(body.values, body.knots)]
    for j in range(1, len(ratio_vals)):  # clamp float noise on exponent-1 pieces
        ratio_vals[j] = max(ratio_vals[j], ratio_vals[j - 1])
    integrand = make_piecewise(
        list(body.knots),
        ratio_vals,
        right_exponent=body.right_exponent - 1.0,
        direction="nondecreasing",
    )

    # Tabulate out to the standard span: beyond the last raw knot the
    # integrand is a pure power, so the closed-form accumulation stays
    # exact, while a bare power extension from the last knot would be off
    # by a bounded factor.
    t_hi = max(body.knots[-1], GRID_SPAN[1], t1 * 10.0)
    grid = {float(t) for t in log_grid(t1, t_hi)}
    grid.update(body.knots)
    grid.add(_left_flank(t1, v1, e_left))
    pts = _merge_close(sorted(grid))

    values = [v1 * (t / t1) ** e_left / e_left for t in pts if t <= t1]
    acc, k = v1 / e_left, len(values)  # pts[k - 1] is t1, a grid point
    for x, y in zip(pts[k - 1:], pts[k:]):
        acc += integral(integrand, x, y)
        values.append(acc)
    out_body = make_piecewise(
        pts, values, right_exponent=body.right_exponent,
        direction="nondecreasing",
    )
    out = make_orlicz(out_body)

    # Sandwich self-check: phi <= raw <= E*phi on the tabulation grid.
    e_max = max(body.exponents)  # e_left is exponents[0]
    bound = max(4.0, e_max)
    raw_vals = raw.eval_many(pts)
    smooth_vals = out.eval_many(pts)
    with np.errstate(over="ignore"):  # an infinite upper bound holds
        upper = bound * smooth_vals * (1.0 + 1e-9)
    if np.any(smooth_vals > raw_vals * (1.0 + 1e-9)) or np.any(
        raw_vals > upper
    ):
        raise Inconsistent(
            "smoothing sandwich failed; raw function was not admissible"
        )
    return out


@lru_cache(maxsize=1)
def psi() -> OrliczFn:
    """The reference function ``psi(t) = t^2 log(t + 1/t)``.

    Tabulated on the standard grid.  Its fundamental sequence grows like
    ``sqrt(n log(n+1))`` and its inverse obeys
    ``psi^{-1}(t) ~ sqrt(2t) (log 1/t)^{-1/2}`` as ``t -> 0``.
    """
    ts = log_grid(*GRID_SPAN)
    vals = ts**2 * np.log(ts + 1.0 / ts)
    body = make_piecewise(
        ts.tolist(), vals.tolist(), right_exponent=2.0,
        direction="nondecreasing",
    )
    return make_orlicz(body)
