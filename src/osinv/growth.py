"""Tail integrals, growth functions, weight recovery, and regularity.

For a nonincreasing integrable density ``w`` on the half line, this module
computes

* the tail function ``h(t) = integral of w over [t, infinity)``,
* the growth function ``g(s)``, the unique fixed point of ``t = s h(t)``,
* the recovered weight ``w = 1 / g^{-1}`` (clamped to 1 near the origin),
* sharp power-envelope regularity diagnostics for increasing tables.

The central object is :class:`TailIntegral`, which stores ``h`` *exactly*
as one record ``(const, coef, q, anchor)`` per piece of ``w``: on each
piece the tail integral is ``const + coef (t/anchor)^q``, or, where ``q``
is near 0, ``h`` at the piece's right end plus a series in ``q`` that is
exact at ``q = 0``, so evaluation and the composed integrals used by the
invariant formulas carry no quadrature error.  :func:`tail_fn`
exposes a sampled piecewise-power view of the same function for callers
that need a :class:`MonotoneFn`.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import (
    BracketFailure,
    DirectionError,
    DivergentTail,
    DomainError,
    NotRegular,
    Unbounded,
)
from .monotone_fn import (
    _KNOT_MERGE_RTOL,
    _SERIES_CUT,
    MonotoneFn,
    _local_power,
    _log_ratio,
    _merge_close,
    _segment_integral,
    evaluate,
    generalized_inverse,
    inverse_fn,
    reciprocal,
)
from .util import _ROOT_BAND, _log_newton_root, log_grid

__all__ = [
    "TailIntegral",
    "GrowthProfile",
    "RegularityReport",
    "tail_fn",
    "growth_fn",
    "growth_profile",
    "recover_weight",
    "regularity_report",
    "clamped_reciprocal_inverse",
]

#: Window of [1, HI] abscissas over which regularity exponents are read.
_REG_LO = 1.0
_REG_HI = 1.0e6

#: Default power-exponent window (alpha >= 0.02, beta <= 0.98).
DEFAULT_REG_WINDOW = (0.02, 0.98)

_BISECT_REL_TOL = 1e-13
_MAX_DOUBLINGS = 200


@dataclass(frozen=True)
class TailIntegral:
    """Exact ``H(t) = integral of w over [t, infinity)`` for nonincreasing `w`.

    Attributes
    ----------
    density:
        The underlying density `w` (tail exponent < -1).
    pieces:
        Records ``(const, coef, q, anchor)``, one per piece of `density`
        in the :class:`MonotoneFn` layout (``bisect_right(density.knots,
        t)`` is the piece of `t`): on the piece ``H(t) = const + coef
        (t/anchor)^q``, `anchor` being its first knot (``t_1`` for the
        head).  A near-log piece, whose ``q`` is so close to 0 that
        ``const`` and ``coef`` (both of order ``1/q``) would cancel, down
        to ``q = 0`` exactly, has ``coef = None`` and `const` ``H`` at its
        right end, to which :meth:`eval` adds the density's integral up to
        there (``_segment_integral``'s series, exact at ``q = 0``).
    """

    density: MonotoneFn
    pieces: tuple[tuple[float, float | None, float, float], ...]

    @classmethod
    def from_density(cls, w: MonotoneFn) -> "TailIntegral":
        """Build the exact tail integral of `w`.

        Raises
        ------
        DirectionError
            `w` is nondecreasing.
        DivergentTail
            Tail exponent >= -1 (the integral diverges).
        """
        if w.direction != "nonincreasing":
            raise DirectionError("tail integral needs a nonincreasing density")
        if w.right_exponent >= -1.0:
            raise DivergentTail(
                f"tail exponent {w.right_exponent} >= -1: tail integral diverges"
            )
        knots, vals = w.knots, w.values
        # Beyond the last knot: H(t) = coef (t/t_m)^q with q = e_inf + 1 < 0.
        q_inf = w.right_exponent + 1.0
        h_right = -vals[-1] * knots[-1] / q_inf
        pieces = [(0.0, h_right, q_inf, knots[-1])]
        h_next = h_right  # H at the left edge of the piece just added
        for i in range(len(knots) - 2, -1, -1):
            t0, t1, v0, e = knots[i], knots[i + 1], vals[i], w.segment_exponents[i]
            q = e + 1.0
            # Every chord exponent within 1e-9 of -1 lands here too, since
            # ln(t1/t0) < 1455 for floats.
            if abs(q) * math.log(t1 / t0) < _SERIES_CUT:
                pieces.append((h_next, None, q, t0))
                h_next = h_next + _segment_integral(v0, t0, e, t0, t1)
            else:
                scale = v0 * t0 / q  # -scale is -v0 * t0 / q, bit for bit
                const = h_next + scale * (t1 / t0) ** q
                pieces.append((const, -scale, q, t0))
                h_next = const - scale
        # Constant head: H(t) = H(t_1) + v_1 (t_1 - t) on (0, t_1].
        pieces.append((h_next + vals[0] * knots[0], -vals[0] * knots[0], 1.0,
                       knots[0]))
        pieces.reverse()
        return cls(density=w, pieces=tuple(pieces))

    @cached_property
    def _knot_levels(self) -> list[float]:
        """The levels ``s`` whose roots of ``t = s H(t)`` are the knots."""
        return [t / h if (h := self.eval(t)) else math.inf
                for t in self.density.knots]

    @property
    def mass(self) -> float:
        """Total mass ``H(0+) = integral of w over (0, infinity)``."""
        return self.pieces[0][0]

    def eval(self, t: float) -> float:
        """Exact value of the tail integral at ``t >= 0``.

        ``H(0) = mass`` bit for bit: the head piece is
        ``mass - v_1 t_1 (t/t_1)`` and its second term vanishes at 0.
        """
        t = float(t)
        if not (math.isfinite(t) and t >= 0.0):
            raise DomainError(f"abscissa must be a real >= 0, got {t}")
        w = self.density
        k = bisect_right(w.knots, t)
        const, coef, q, anchor = self.pieces[k]
        if coef is None:
            return const + _segment_integral(
                w.values[k - 1], anchor, w.segment_exponents[k - 1], t, w.knots[k]
            )
        return const + coef * (t / anchor) ** q

    def integral_of_composed(self, tau: MonotoneFn, lo: float, hi: float) -> float:
        """Exact ``integral of H(tau(s))`` over ``[lo, hi]``.

        `tau` must be nondecreasing.  The range is split at `tau`'s knots
        and at the preimages under `tau` of this integral's piece edges, so
        each sub-segment composes one power piece of `tau` with one piece
        of ``H`` and integrates in closed form.  The cuts come from
        :meth:`composed_table`, built once per `tau`.
        """
        if tau.direction != "nondecreasing":
            raise DirectionError("composed integral needs nondecreasing inner fn")
        lo = float(lo)
        hi = float(hi)
        if not (0.0 <= lo < hi) or not math.isfinite(hi):
            raise DomainError(f"need 0 <= lo < hi (finite), got {lo}, {hi}")
        return self.composed_table(tau).integral(self, lo, hi)

    def composed_table(self, tau: MonotoneFn) -> "_ComposedTable":
        """The cut table of ``H(tau(s))`` (see :class:`_ComposedTable`).

        The table of the most recent `tau` is kept on this object, so
        repeated integrals against one `tau` share their cuts.
        """
        table = self.__dict__.get("_composed_table")
        if table is None or table.tau is not tau:
            table = _ComposedTable(self, tau)
            # Frozen dataclass: store beside the fields, as cached_property does.
            self.__dict__["_composed_table"] = table
        return table

    def _composed_segment(self, tau: MonotoneFn, x: float, y: float) -> float:
        """``integral of H(tau(s))`` over ``[x, y]``, a span on which `tau`
        is one power piece and ``tau(s)`` stays in one piece of ``H``."""
        mid = math.sqrt(x) * math.sqrt(y) if x > 0.0 else y / 2.0
        v0, t0, m_exp = _local_power(tau, mid)
        k = bisect_right(self.density.knots, v0 * (mid / t0) ** m_exp)
        return self._located_segment(k, v0, t0, m_exp, x, y)

    def _located_segment(self, k: int, v0: float, t0: float, m_exp: float,
                         x: float, y: float) -> float:
        """_composed_segment given tau's piece ``v0 (s/t0)^m_exp``, H's piece `k`."""
        const, coef, q, anchor = self.pieces[k]
        if coef is None:
            return self._series_segment(k, v0, t0, m_exp, x, y)
        return const * (y - x) + _segment_integral(
            coef * (v0 / anchor) ** q, t0, m_exp * q, x, y
        )

    def _series_segment(self, k: int, v0: float, t0: float, m_exp: float,
                        x: float, y: float) -> float:
        """:meth:`_composed_segment` on the near-log piece `k`, whose
        record holds ``H = right`` at its right end.

        On the piece ``H(t) = right + v_i t_i S(L1) - v_i t_i S(L(t))``
        with ``L(t) = ln(t/t_i)``, ``L1 = L(t_{i+1})`` and
        ``S(l) = sum_{j=1..4} q^(j-1) l^j / j!``, the series of
        ``_segment_integral``.  ``L(tau(s)) = a + m ln(s/t0)`` is affine
        in ``ln s``, and ``s sum_r (-m)^r j!/(j-r)! L^(j-r)`` is an
        antiderivative of its ``j``-th power.
        """
        right, _, q, anchor = self.pieces[k]
        w = self.density
        scale = w.values[k - 1] * anchor
        a = math.log(v0 / anchor)
        l1 = math.log(w.knots[k] / anchor)
        head = sum(q ** (j - 1) * l1**j / math.factorial(j) for j in range(1, 5))

        def antiderivative(s: float) -> float:
            if s == 0.0:
                return 0.0
            lt = a + m_exp * _log_ratio(s, t0)
            return s * sum(
                q ** (j - 1) * (-m_exp) ** r * lt ** (j - r)
                / math.factorial(j - r)
                for j in range(1, 5)
                for r in range(j + 1)
            )

        return (right + scale * head) * (y - x) - scale * (
            antiderivative(y) - antiderivative(x)
        )


class _ComposedTable:
    """Cut points of ``H(tau(s))`` on the half line, with running integrals.

    ``raw`` holds, sorted, `tau`'s knots and the positive preimages under
    `tau` of ``H``'s piece edges; none depends on the integration range.
    ``merged`` is ``raw`` behind a leading 0 with near-duplicates dropped,
    and ``prefix[j]`` is the integral over ``[0, merged[j]]`` summed one
    segment at a time from the left.  Greedy merging of a prefix of the
    cuts gives a prefix of ``merged``, so an integral from 0 is a prefix
    value plus at most one partial segment, with the same float
    operations in the same order as splitting ``[0, hi]`` afresh.
    ``prefix`` grows only as far as queries reach, in a walk that resumes
    where the last stopped, so no segment is evaluated that the range asked
    for does not contain; a lock keeps extensions from interleaving.  The
    table is kept on its tail integral and so takes that as an argument
    rather than holding it, which would make a reference cycle.
    """

    def __init__(self, hh: TailIntegral, tau: MonotoneFn) -> None:
        self.tau = tau
        cuts = list(tau.knots)
        for edge in hh.density.knots:
            try:
                pre = generalized_inverse(tau, edge)
            except Unbounded:
                continue
            if pre > 0.0:
                cuts.append(pre)
        self.raw = sorted(cuts)
        self.merged = _merge_close([0.0] + self.raw)
        self.prefix = [0.0]
        self._walk = 0, 0, tau.values[0], tau.knots[0], 0.0  # see integral
        self._lock = threading.Lock()

    def integral(self, hh: TailIntegral, lo: float, hi: float) -> float:
        """``integral of H(tau(s))`` over ``[lo, hi]``, ``0 <= lo < hi``,
        for the tail integral ``H = hh`` this table was built from."""
        if lo > 0.0:
            inner = self.raw[bisect_right(self.raw, lo):bisect_left(self.raw, hi)]
            pts = _merge_close([lo] + inner + [hi])
            total = 0.0
            for x, y in zip(pts, pts[1:]):
                total += hh._composed_segment(self.tau, x, y)
            return total
        merged, prefix = self.merged, self.prefix
        k = bisect_left(merged, hi) - 1
        if len(prefix) <= k:
            with self._lock:
                # _composed_segment's pieces, stepped to from the last mid's: i tau
                # knots and d H edges <= it and its image (tau ascends to rounding).
                tk, tv, te = self.tau.knots, self.tau.values, self.tau.exponents
                edges, segment = hh.density.knots, hh._located_segment
                i, d, v0, t0, e, total = *self._walk, prefix[-1]
                n_tau, n_edges = len(tk), len(edges)
                for x, y in zip(merged[len(prefix) - 1:k], merged[len(prefix):k + 1]):
                    mid = math.sqrt(x) * math.sqrt(y) if x > 0.0 else y / 2.0
                    while i < n_tau and tk[i] <= mid:
                        v0, t0, e = tv[i], tk[i], te[i]
                        i += 1
                    u = v0 * (mid / t0) ** e
                    while d and edges[d - 1] > u:
                        d -= 1
                    while d < n_edges and edges[d] <= u:
                        d += 1
                    total += segment(d, v0, t0, e, x, y)
                    prefix.append(total)
                self._walk = i, d, v0, t0, e
        total = prefix[k]
        if hi > merged[k] * (1.0 + _KNOT_MERGE_RTOL):
            total += hh._composed_segment(self.tau, merged[k], hi)
        return total


def tail_fn(w: MonotoneFn, extra_knots: Sequence[float] = ()) -> MonotoneFn:
    """Tail function ``h(t) = integral of w over [t, infinity)`` as a table.

    Exact at every knot (values come from :class:`TailIntegral`); between
    knots the piecewise-power interpolation is exact wherever `w` is a pure
    power below its first knot's reach, and second-order accurate in the
    log spacing otherwise.  Beyond the last knot of `w` the table's tail
    exponent ``e_inf + 1`` is exact.  `extra_knots` forces additional exact
    sample abscissas (used to align the table with a growth table).

    Raises
    ------
    DirectionError
        `w` is nondecreasing.
    DivergentTail
        Tail exponent of `w` is >= -1.
    """
    hh = TailIntegral.from_density(w)
    t_lo = w.knots[0] * 1e-9
    grid = {float(t) for t in log_grid(t_lo, w.knots[-1])}
    grid.update(w.knots)
    grid.update(float(t) for t in extra_knots if t > 0.0)
    knots = _merge_close(sorted(grid))
    values = [float(hh.eval(t)) for t in knots]
    return MonotoneFn(
        knots=tuple(knots),
        values=tuple(values),
        right_exponent=w.right_exponent + 1.0,
        direction="nonincreasing",
    )


def _growth_root(hh: TailIntegral, s: float) -> float | None:
    """The root of ``t = s H(t)`` on the piece of ``H`` holding it (found
    from the increasing levels ``t/H(t)`` at the knots): in closed form on
    the linear head and the pure-power tail, by Newton on an interior
    piece.  None on a near-log piece, for a root that is not a positive
    float, and where the piece's terms cancel so far (``s |coef (t/a)^q|
    > 10 t``) that rounding could blur the sign of ``t - s H(t)`` over a
    hundredth of :data:`_ROOT_BAND`."""
    knots = hh.density.knots
    k = bisect_left(hh._knot_levels, s)
    const, coef, q, anchor = hh.pieces[k]
    if coef is None:
        return None
    try:
        if k == 0:
            t = s * const / (1.0 - s * coef / anchor)
        elif k == len(knots):
            t = anchor * (s * coef / anchor) ** (1.0 / (1.0 - q))
        else:  # Newton on ln t - ln(s H(t)), whose slope is 1 - q term/H

            def step_at(t: float) -> float:
                term = coef * (t / anchor) ** q
                h = const + term
                return math.log(t / (s * h)) / (q * term / h - 1.0)

            t = _log_newton_root(step_at, anchor, knots[k])
            if t is None:
                return None
        cancels = s * abs(coef * (t / anchor) ** q) > 10.0 * t
    except (ArithmeticError, ValueError):  # overflow, or a log of <= 0
        return None
    return t if 0.0 < t < math.inf and not cancels else None


def _solve_growth(hh: TailIntegral, s: float) -> float:
    """Unique root of ``t = s H(t)`` (the map ``t - s H(t)`` is increasing).

    A bracket search from 1 by doubling or halving, then a geometric
    bisection, replayed from the root of :func:`_growth_root`: a point
    farther than :data:`_ROOT_BAND` from it takes its side from it, and
    a point inside the band is evaluated with the arithmetic of
    :meth:`TailIntegral.eval` (the piece's own expression where the band
    lies inside one piece).  So the root, and any
    :class:`BracketFailure`, is that of a search that evaluates every
    step, as it does when there is no root.
    """
    knots = hh.density.knots
    root = _growth_root(hh, s)
    tail = hh.eval
    # Without a root the band is the whole line: every point is evaluated.
    band_lo, band_hi = -math.inf, math.inf
    if root is not None:
        band_lo, band_hi = root - _ROOT_BAND * root, root + _ROOT_BAND * root
        k = bisect_right(knots, band_lo)
        const, coef, q, anchor = hh.pieces[k]
        if k == bisect_right(knots, band_hi) and coef is not None:

            def tail(t: float) -> float:
                return const + coef * (t / anchor) ** q

    def f(t: float) -> float:
        if band_lo <= t <= band_hi:
            return t - s * tail(t)
        return t - root  # the sign of t - s H(t) there

    lo = hi = 1.0
    grow = f(1.0) < 0.0
    for _ in range(_MAX_DOUBLINGS):
        if grow:
            hi *= 2.0
            if f(hi) >= 0.0:
                break
        else:
            lo /= 2.0
            if f(lo) <= 0.0:
                break
    else:
        raise BracketFailure(
            f"no sign change of t - s*h(t) after {_MAX_DOUBLINGS} "
            + ("doublings" if grow else "halvings")
        )
    # Each step takes one square root, of the midpoint that becomes an end,
    # and tests f(mid) < 0 inline.
    sqrt_lo, sqrt_hi = math.sqrt(lo), math.sqrt(hi)
    for _ in range(_MAX_DOUBLINGS):
        mid = sqrt_lo * sqrt_hi
        if mid < band_lo or mid <= band_hi and mid - s * tail(mid) < 0.0:
            lo, sqrt_lo = mid, math.sqrt(mid)
        else:
            hi, sqrt_hi = mid, math.sqrt(mid)
        if hi - lo <= _BISECT_REL_TOL * hi:
            break
    return sqrt_lo * sqrt_hi


def growth_fn(w: MonotoneFn, s_grid: Sequence[float] | None = None) -> MonotoneFn:
    """Growth function ``g``: for each grid point `s`, the root of ``t = s h(t)``.

    Parameters
    ----------
    w:
        Nonincreasing density with integrable tail.
    s_grid:
        Positive sample abscissas (default: 64 points per decade on
        ``[1, 1e8]``).  The returned table interpolates between them and
        continues beyond the last with the locally fitted tail exponent.

    Raises
    ------
    BracketFailure
        The solver found no sign change after 200 doublings.
    DomainError
        Grid is empty or has an entry that is not a positive finite real.
    """
    hh = TailIntegral.from_density(w)
    if s_grid is None:
        grid = [float(s) for s in log_grid(1.0, 1e8)]
    else:
        grid = [float(s) for s in s_grid]
        if not grid:
            raise DomainError("s_grid must be nonempty")
        if not all(math.isfinite(s) and s > 0.0 for s in grid):
            raise DomainError("s_grid entries must be positive finite reals")
        grid = _merge_close(sorted(grid))
    roots = [_solve_growth(hh, s) for s in grid]
    # Tail exponent from an auxiliary solve past the grid's end.
    s_aux = grid[-1] * 4.0
    t_aux = _solve_growth(hh, s_aux)
    e_inf = math.log(t_aux / roots[-1]) / math.log(s_aux / grid[-1])
    return MonotoneFn(
        knots=tuple(grid),
        values=tuple(roots),
        right_exponent=max(e_inf, 0.0),
        direction="nondecreasing",
    )


@dataclass(frozen=True)
class GrowthProfile:
    """A density together with its tail, growth, and inverse-growth tables."""

    w: MonotoneFn
    h: MonotoneFn
    g: MonotoneFn
    g_inv: MonotoneFn


def growth_profile(
    w: MonotoneFn, s_grid: Sequence[float] | None = None
) -> GrowthProfile:
    """Bundle ``(w, h, g, g^{-1})`` for one density (see :class:`GrowthProfile`).

    The tail table is sampled at the growth table's values as well, so the
    inverse identity ``h(t) g^{-1}(t) = t`` holds to solver accuracy at
    every profile sample point ``t = g(s)``.
    """
    g = growth_fn(w, s_grid)
    return GrowthProfile(
        w=w, h=tail_fn(w, extra_knots=g.values), g=g, g_inv=inverse_fn(g)
    )


@dataclass(frozen=True)
class RegularityReport:
    """Sharp power envelope of an increasing table over ``[1, 1e6]``.

    ``(t/s)^alpha <= f(t)/f(s) <= (t/s)^beta`` for all ``1 <= s <= t <=
    1e6``: for piecewise-power tables the extreme segment slopes give the
    sharp exponents, with no constant in front.  `passed` states whether
    ``0 < alpha <= beta < 1`` holds within the requested window.
    """

    alpha: float
    beta: float
    passed: bool
    window: tuple[float, float]


def regularity_report(
    f: MonotoneFn,
    alpha_beta_window: tuple[float, float] = DEFAULT_REG_WINDOW,
) -> RegularityReport:
    """Power-envelope exponents of `f` on ``[1, 1e6]`` and a pass verdict.

    Raises
    ------
    DirectionError
        `f` is nonincreasing (report is defined for increasing tables).
    """
    if f.direction != "nondecreasing":
        raise DirectionError("regularity report needs a nondecreasing function")
    slopes: list[float] = []
    if f.knots[0] > _REG_LO:
        slopes.append(0.0)  # constant head intersects the window
    # The segments [t_i, t_{i+1}] with t_{i+1} > LO and t_i < HI, in order.
    lo = max(bisect_right(f.knots, _REG_LO) - 1, 0)
    slopes += f.segment_exponents[lo:bisect_left(f.knots, _REG_HI)]
    if f.knots[-1] < _REG_HI:
        slopes.append(f.right_exponent)
    alpha = min(slopes)
    beta = max(slopes)
    lo, hi = alpha_beta_window
    passed = lo <= alpha <= beta <= hi
    return RegularityReport(
        alpha=alpha, beta=beta, passed=passed, window=(lo, hi)
    )


def clamped_reciprocal_inverse(f: MonotoneFn) -> MonotoneFn:
    """The weight ``t -> min(1, 1 / f^{-1}(t))`` for strictly increasing `f`.

    Equals 1 on ``(0, f(1)]`` and ``1/f^{-1}`` beyond — the construction
    that turns a growth/fundamental function back into a canonical
    weight density on the half line.
    """
    t0 = evaluate(f, 1.0)
    w = reciprocal(inverse_fn(f))
    # Knots past t0 (1 + 1e-12) with values <= 1 (falling): a suffix.
    k = max(bisect_right(w.knots, t0 * (1.0 + 1e-12)),
            bisect_left(w.values, -1.0, key=operator.neg))
    return MonotoneFn(
        knots=(t0,) + w.knots[k:],
        values=(1.0,) + w.values[k:],
        right_exponent=w.right_exponent,
        direction="nonincreasing",
    )


def recover_weight(g: MonotoneFn) -> MonotoneFn:
    """Recover the density whose growth function is (equivalent to) `g`.

    Returns ``w = 1/g^{-1}`` clamped to 1 on ``(0, g(1)]``.  Running
    :func:`growth_fn` on the result reproduces `g` up to a bounded ratio at
    infinity.

    Raises
    ------
    NotRegular
        `g` fails the power-window regularity check (exponents outside
        the default window), so recovery is not guaranteed.
    """
    report = regularity_report(g)
    if not report.passed:
        raise NotRegular(
            f"growth exponents [{report.alpha}, {report.beta}] outside "
            f"window {report.window}; weight recovery not guaranteed"
        )
    return clamped_reciprocal_inverse(g)
