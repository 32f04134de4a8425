"""Tail integrals, growth functions, weight recovery, and regularity.

For a nonincreasing integrable density ``w`` on the half line, this module
computes

* the tail function ``h(t) = integral of w over [t, infinity)``,
* the growth function ``g(s)``, the unique fixed point of ``t = s h(t)``,
* the recovered weight ``w = 1 / g^{-1}`` (clamped to 1 near the origin),
* sharp power-envelope regularity diagnostics for increasing tables.

The central object is :class:`TailIntegral`, which stores ``h`` *exactly*:
on each segment of ``w`` the tail integral is ``const + coef (t/anchor)^q``
(or ``const + coef ln(t/anchor)`` when the segment exponent is -1), so
evaluation and the composed integrals used by the invariant formulas carry
no quadrature error.  :func:`tail_fn` exposes a sampled piecewise-power
view of the same function for callers that need a :class:`MonotoneFn`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

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
from .util import log_grid

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

#: Segment pieces with ``|q| ln(t1/t0)`` below this are evaluated through
#: ``_segment_integral``, whose series in ``q`` covers the same range.
_NEAR_LOG = 1e-3


@dataclass(frozen=True)
class TailIntegral:
    """Exact ``H(t) = integral of w over [t, infinity)`` for nonincreasing `w`.

    Attributes
    ----------
    density:
        The underlying density `w` (tail exponent < -1).
    pieces:
        Tuples ``(lo, const, coef, q, anchor)``, ascending in `lo`; on the
        span from `lo` to the next piece's `lo`,
        ``H(t) = const + coef (t/anchor)^q``, with ``q = None`` meaning
        ``H(t) = const + coef ln(t/anchor)``.
    near_log:
        Pairs ``(k, h)`` for the segment pieces whose ``q`` is so close to
        0 that ``const`` and ``coef`` (both of order ``1/q``) cancel: `h`
        is ``H`` at the right end of piece `k`, and :meth:`eval` adds the
        density's integral up to there (``_segment_integral``'s series).
    """

    density: MonotoneFn
    pieces: tuple[tuple[float, float, float, float | None, float], ...]
    near_log: tuple[tuple[int, float], ...] = ()

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
        m = len(knots)
        pieces: list[tuple[float, float, float, float | None, float]] = []
        near_log: list[tuple[int, float]] = []
        # Beyond the last knot: H(t) = coef (t/t_m)^q with q = e_inf + 1 < 0.
        q_inf = w.right_exponent + 1.0
        h_right = -vals[-1] * knots[-1] / q_inf
        pieces.append((knots[-1], 0.0, h_right, q_inf, knots[-1]))
        h_next = h_right  # H at the left edge of the piece just added
        for i in range(m - 2, -1, -1):
            t0, t1 = knots[i], knots[i + 1]
            v0 = vals[i]
            e = w.segment_exponents[i]
            if abs(e + 1.0) < 1e-9:
                # Chord exponents within float noise of -1 are stored as
                # log pieces; the swap error is O(|e+1| ln^2) and for chord
                # tables that is far below every tolerance used here.
                const = h_next + v0 * t0 * math.log(t1 / t0)
                pieces.append((t0, const, -v0 * t0, None, t0))
                h_next = const
            else:
                q = e + 1.0
                const = h_next + (v0 * t0 / q) * (t1 / t0) ** q
                pieces.append((t0, const, -v0 * t0 / q, q, t0))
                if abs(q) * math.log(t1 / t0) < _NEAR_LOG:
                    near_log.append((i + 1, h_next))
                    h_next = h_next + _segment_integral(v0, t0, e, t0, t1)
                else:
                    h_next = const - v0 * t0 / q
        # Constant head: H(t) = H(t_1) + v_1 (t_1 - t) on (0, t_1].
        pieces.append((0.0, h_next + vals[0] * knots[0], -vals[0] * knots[0],
                       1.0, knots[0]))
        pieces.reverse()
        return cls(density=w, pieces=tuple(pieces), near_log=tuple(near_log))

    @cached_property
    def _los(self) -> list[float]:
        return [p[0] for p in self.pieces]

    @cached_property
    def _near_log_right(self) -> dict[int, float]:
        return dict(self.near_log)

    @property
    def mass(self) -> float:
        """Total mass ``H(0+) = integral of w over (0, infinity)``."""
        return self.pieces[0][1]

    @property
    def boundaries(self) -> tuple[float, ...]:
        """Interior piece edges (the knots of the density)."""
        return self.density.knots

    def eval(self, t: float) -> float:
        """Exact value of the tail integral at ``t >= 0``.

        ``H(0) = mass`` bit for bit: the head piece is
        ``mass - v_1 t_1 (t/t_1)`` and its second term vanishes at 0.
        """
        t = float(t)
        if not (math.isfinite(t) and t >= 0.0):
            raise DomainError(f"abscissa must be a real >= 0, got {t}")
        k = bisect_right(self._los, t) - 1
        right = self._near_log_right.get(k)
        if right is not None:
            w, i = self.density, k - 1
            return right + _segment_integral(
                w.values[i], w.knots[i], w.segment_exponents[i], t, w.knots[i + 1]
            )
        _, const, coef, q, anchor = self.pieces[k]
        if q is None:
            return const + coef * math.log(t / anchor)
        return const + coef * (t / anchor) ** q

    def eval_many(self, ts: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`eval`."""
        arr = np.asarray(ts, dtype=float)
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
            raise DomainError("abscissas must be finite reals >= 0")
        out = np.empty_like(arr)
        los = np.asarray(self._los)
        idx = np.searchsorted(los, arr, side="right") - 1
        for k, (_, const, coef, q, anchor) in enumerate(self.pieces):
            mask = idx == k
            if not np.any(mask):
                continue
            if k in self._near_log_right:
                out[mask] = [self.eval(float(t)) for t in arr[mask]]
            elif q is None:
                out[mask] = const + coef * np.log(arr[mask] / anchor)
            else:
                out[mask] = const + coef * (arr[mask] / anchor) ** q
        return out

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
        tau_mid = v0 * (mid / t0) ** m_exp
        k = bisect_right(self._los, tau_mid) - 1
        right = self._near_log_right.get(k)
        if right is not None:
            return self._near_log_segment(k, right, v0, t0, m_exp, x, y)
        _, const, coef, q, anchor = self.pieces[k]
        if q is None:
            # H(tau(s)) = const + coef ln(v0/anchor) + coef m ln(s/t0)
            base = const + coef * math.log(v0 / anchor)
            return base * (y - x) + coef * m_exp * (
                (_xlog(y, t0) - y) - (_xlog(x, t0) - x)
            )
        return const * (y - x) + _segment_integral(
            coef * (v0 / anchor) ** q, t0, m_exp * q, x, y
        )

    def _near_log_segment(
        self, k: int, right: float, v0: float, t0: float, m_exp: float,
        x: float, y: float,
    ) -> float:
        """:meth:`_composed_segment` on the near-log piece `k`, whose
        right end has ``H = right``.

        On the piece ``H(t) = right + v_i t_i S(L1) - v_i t_i S(L(t))``
        with ``L(t) = ln(t/t_i)``, ``L1 = L(t_{i+1})`` and
        ``S(l) = sum_{j=1..4} q^(j-1) l^j / j!``, the series of
        ``_segment_integral``.  ``L(tau(s)) = a + m ln(s/t0)`` is affine
        in ``ln s``, and ``s sum_r (-m)^r j!/(j-r)! L^(j-r)`` is an
        antiderivative of its ``j``-th power.
        """
        w, i = self.density, k - 1
        scale = w.values[i] * w.knots[i]
        q = w.segment_exponents[i] + 1.0
        a = math.log(v0 / w.knots[i])
        l1 = math.log(w.knots[i + 1] / w.knots[i])
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


def _xlog(s: float, t0: float) -> float:
    """``s ln(s/t0)``, with its limit 0 at ``s = 0``."""
    return s * _log_ratio(s, t0) if s > 0.0 else 0.0


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
    ``prefix`` grows only as far as queries reach, so no segment is
    evaluated that the range asked for does not contain; a lock keeps
    concurrent extensions from interleaving.  The table is kept on its
    tail integral and so takes that as an argument rather than holding
    it, which would make a reference cycle.
    """

    def __init__(self, hh: TailIntegral, tau: MonotoneFn) -> None:
        self.tau = tau
        cuts = list(tau.knots)
        for edge in hh.boundaries:
            try:
                pre = generalized_inverse(tau, edge)
            except Unbounded:
                continue
            if pre > 0.0:
                cuts.append(pre)
        self.raw = sorted(cuts)
        self.merged = _merge_close([0.0] + self.raw)
        self.prefix = [0.0]
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
                while len(prefix) <= k:
                    j = len(prefix)
                    prefix.append(prefix[-1] + hh._composed_segment(
                        self.tau, merged[j - 1], merged[j]))
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


def _solve_growth(hh: TailIntegral, s: float) -> float:
    """Unique root of ``t = s H(t)`` (the map ``t - s H(t)`` is increasing).

    The bisection looks up the piece of ``H`` at each midpoint only until
    both ends of the bracket lie in one piece: from then on a midpoint
    inside the bracket lies in it too, and is evaluated with that piece's
    expression, the arithmetic of :meth:`TailIntegral.eval`, so the root
    is bit-identical to a full lookup at every step.  Near-log pieces,
    and midpoints that round outside the bracket, take the full lookup.
    """

    def f(t: float) -> float:
        return t - s * hh.eval(t)

    lo = hi = 1.0
    if f(1.0) < 0.0:
        for _ in range(_MAX_DOUBLINGS):
            hi *= 2.0
            if f(hi) >= 0.0:
                break
        else:
            raise BracketFailure(
                f"no sign change of t - s*h(t) after {_MAX_DOUBLINGS} doublings"
            )
    else:
        for _ in range(_MAX_DOUBLINGS):
            lo /= 2.0
            if f(lo) <= 0.0:
                break
        else:
            raise BracketFailure(
                f"no sign change of t - s*h(t) after {_MAX_DOUBLINGS} halvings"
            )
    los, near_log = hh._los, hh._near_log_right
    k_lo = bisect_right(los, lo) - 1
    k_hi = bisect_right(los, hi) - 1
    frozen = False  # whether const, coef, q, anchor hold the shared piece
    for _ in range(_MAX_DOUBLINGS):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if frozen and lo <= mid <= hi:
            r = mid / anchor
            below = mid - s * (
                const + coef * (math.log(r) if q is None else r ** q)
            ) < 0.0
        else:
            k = bisect_right(los, mid) - 1
            below = f(mid) < 0.0
            if below:
                k_lo = k
            else:
                k_hi = k
            frozen = k_lo == k_hi and k not in near_log
            if frozen:
                _, const, coef, q, anchor = hh.pieces[k]
        if below:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_REL_TOL * hi:
            break
    return math.sqrt(lo) * math.sqrt(hi)


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
        Grid contains nonpositive entries.
    """
    hh = TailIntegral.from_density(w)
    if s_grid is None:
        grid = [float(s) for s in log_grid(1.0, 1e8)]
    else:
        grid = sorted(float(s) for s in s_grid)
        if not grid:
            raise DomainError("s_grid must be nonempty")
        if grid[0] <= 0.0 or not math.isfinite(grid[-1]):
            raise DomainError("s_grid entries must be positive finite reals")
        grid = _merge_close(grid)
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

    ``c (t/s)^alpha <= f(t)/f(s) <= d (t/s)^beta`` for all ``1 <= s <= t <=
    1e6``; for piecewise-power tables the extreme segment slopes give the
    sharp exponents with ``c = d = 1``.  `passed` states whether
    ``0 < alpha <= beta < 1`` holds within the requested window.
    """

    alpha: float
    beta: float
    c: float
    d: float
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
    for i, e in enumerate(f.segment_exponents):
        if f.knots[i + 1] > _REG_LO and f.knots[i] < _REG_HI:
            slopes.append(e)
    if f.knots[-1] < _REG_HI:
        slopes.append(f.right_exponent)
    alpha = min(slopes)
    beta = max(slopes)
    lo, hi = alpha_beta_window
    passed = lo <= alpha <= beta <= hi
    return RegularityReport(
        alpha=alpha, beta=beta, c=1.0, d=1.0, passed=passed,
        window=(lo, hi),
    )


def clamped_reciprocal_inverse(f: MonotoneFn) -> MonotoneFn:
    """The weight ``t -> min(1, 1 / f^{-1}(t))`` for strictly increasing `f`.

    Equals 1 on ``(0, f(1)]`` and ``1/f^{-1}`` beyond — the construction
    that turns a growth/fundamental function back into a canonical
    weight density on the half line.
    """
    t0 = evaluate(f, 1.0)
    w = reciprocal(inverse_fn(f))
    knots = [t0]
    values = [1.0]
    for t, v in zip(w.knots, w.values):
        if t > t0 * (1.0 + 1e-12) and v <= 1.0:
            knots.append(t)
            values.append(v)
    return MonotoneFn(
        knots=tuple(knots),
        values=tuple(values),
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
