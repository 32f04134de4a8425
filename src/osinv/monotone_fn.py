"""Piecewise power-law monotone functions on the positive half line.

A :class:`MonotoneFn` is a positive monotone function stored as a table of
knots and values, interpolated *log-log linearly*: between consecutive
knots the function is an exact power law ``f(t) = v_i (t/t_i)^{e_i}`` whose
exponent is the chord slope in log-log coordinates, to the left of the
first knot it is constant (``f(t) = v_1`` for ``t <= t_1``), and beyond the
last knot it follows a single power with prescribed exponent ``e_inf``.

Every operation in this module — evaluation, generalized inversion,
composition, reciprocal, and integration — is closed form per segment, so
results carry no quadrature error.  Improper tail integrals converge
exactly when ``e_inf < -1``.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (
    BadParameter,
    BadKnots,
    DirectionError,
    DivergentTail,
    DomainError,
    NonMonotone,
    NonPositive,
    TooFewPoints,
    Unbounded,
)

__all__ = [
    "MonotoneFn",
    "make_piecewise",
    "evaluate",
    "evaluate_many",
    "generalized_inverse",
    "inverse_fn",
    "reciprocal",
    "compose",
    "crossing_below",
    "integral",
    "fit_loglog_slope",
]

Direction = Literal["nondecreasing", "nonincreasing"]

_DIRECTIONS = ("nondecreasing", "nonincreasing")

#: Relative tolerance below which two abscissas are treated as one knot.
_KNOT_MERGE_RTOL = 1e-13


@dataclass(frozen=True)
class MonotoneFn:
    """Positive monotone piecewise power-law function on (0, infinity).

    Attributes
    ----------
    knots:
        Strictly increasing positive abscissas ``t_1 < ... < t_m``.
    values:
        Positive ordinates ``v_1 ... v_m``, monotone per `direction`.
    right_exponent:
        Power ``e_inf`` governing ``f(t) = v_m (t/t_m)^{e_inf}`` for
        ``t > t_m``; its sign must match `direction`.
    direction:
        ``"nondecreasing"`` or ``"nonincreasing"``.

    For ``t <= t_1`` the function is constant at ``v_1`` (so, as a table of
    counting-function values, ``f(0) = f(t_1)``).  Instances are immutable
    and hashable; all operations on them are pure.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    right_exponent: float
    direction: Direction

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise BadParameter(f"unknown direction {self.direction!r}")
        if len(self.knots) == 0:
            raise BadKnots("need at least one knot")
        if len(self.knots) != len(self.values):
            raise BadKnots(
                f"{len(self.knots)} knots but {len(self.values)} values"
            )
        prev = 0.0
        for t in self.knots:
            if not (math.isfinite(t) and t > prev):
                raise BadKnots(
                    "knots must be finite, positive, strictly increasing; "
                    f"got {self.knots}"
                )
            prev = t
        for v in self.values:
            if not (math.isfinite(v) and v > 0.0):
                raise NonMonotone(f"values must be finite and positive; got {v}")
        sign = 1.0 if self.direction == "nondecreasing" else -1.0
        for lo, hi in zip(self.values, self.values[1:]):
            if sign * (hi - lo) < 0.0:
                raise NonMonotone(
                    f"values {self.values} are not {self.direction}"
                )
        if not math.isfinite(self.right_exponent):
            raise BadParameter(
                f"right exponent must be finite, got {self.right_exponent}"
            )
        if sign * self.right_exponent < 0.0:
            raise NonMonotone(
                f"right exponent {self.right_exponent} fights {self.direction}"
            )

    @cached_property
    def segment_exponents(self) -> tuple[float, ...]:
        """Chord exponent of each bounded segment (``m - 1`` entries)."""
        out = []
        for (t0, t1), (v0, v1) in zip(
            zip(self.knots, self.knots[1:]), zip(self.values, self.values[1:])
        ):
            out.append(math.log(v1 / v0) / math.log(t1 / t0))
        return tuple(out)

    @cached_property
    def _knots_arr(self) -> np.ndarray:
        return np.asarray(self.knots, dtype=float)

    @cached_property
    def _values_arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def _exponents_arr(self) -> np.ndarray:
        """Per-knot exponent array: segment exponents plus the tail."""
        return np.asarray(
            self.segment_exponents + (self.right_exponent,), dtype=float
        )

    @property
    def left_value(self) -> float:
        """Constant value taken on ``(0, t_1]``."""
        return self.values[0]

    def __call__(self, t: float) -> float:
        return evaluate(self, t)


def make_piecewise(
    knots: Sequence[float],
    values: Sequence[float],
    left_mode: float | None = None,
    right_exponent: float = 0.0,
    direction: Direction = "nondecreasing",
) -> MonotoneFn:
    """Build and validate a :class:`MonotoneFn`.

    Parameters
    ----------
    knots, values:
        The interpolation table (see :class:`MonotoneFn`).
    left_mode:
        Constant-extension value for ``t <= t_1``.  Continuity forces this
        to equal ``values[0]``; pass ``None`` (default) to use it.
    right_exponent:
        Tail power beyond the last knot.
    direction:
        ``"nondecreasing"`` or ``"nonincreasing"``.

    Raises
    ------
    BadKnots
        Knots not strictly increasing positive, or length mismatch.
    NonMonotone
        Values (or the tail exponent's sign) violate `direction`.
    BadParameter
        Unknown direction, non-finite exponent, or a `left_mode` that
        differs from the first ordinate.
    """
    fn = MonotoneFn(
        knots=tuple(float(t) for t in knots),
        values=tuple(float(v) for v in values),
        right_exponent=float(right_exponent),
        direction=direction,
    )
    if left_mode is not None and not math.isclose(
        float(left_mode), fn.values[0], rel_tol=1e-12
    ):
        raise BadParameter(
            "left extension is constant at the first ordinate; "
            f"got left_mode={left_mode} but values[0]={fn.values[0]}"
        )
    return fn


def _solve_on_segment(t0: float, v0: float, e: float, y: float) -> float:
    """Solve ``v0 (s/t0)^e = y`` for `s`; exact when ``y == v0``.

    Raises
    ------
    Unbounded
        The solution exceeds the floating-point range (exponent so close
        to zero that the crossing is astronomically far out).
    """
    try:
        return t0 * (y / v0) ** (1.0 / e)
    except OverflowError:
        raise Unbounded(
            f"solution of v0 (s/t0)^{e} = {y} lies beyond float range"
        ) from None


def _check_positive_abscissa(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"abscissa must be a positive real, got {t}")
    return t


def evaluate(f: MonotoneFn, t: float) -> float:
    """Value of `f` at ``t > 0`` (exact at knots).

    Raises
    ------
    DomainError
        If ``t <= 0`` or not finite.
    """
    t = _check_positive_abscissa(t)
    knots = f.knots
    if t <= knots[0]:
        return f.values[0]
    i = bisect_right(knots, t) - 1
    if i == len(knots) - 1:
        e = f.right_exponent
    else:
        e = f.segment_exponents[i]
    return f.values[i] * (t / knots[i]) ** e


def evaluate_many(f: MonotoneFn, ts: Iterable[float]) -> np.ndarray:
    """Vectorized :func:`evaluate` over an array of positive abscissas."""
    arr = np.asarray(list(ts) if not isinstance(ts, np.ndarray) else ts, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("abscissas must be positive finite reals")
    idx = np.searchsorted(f._knots_arr, arr, side="right") - 1
    below = idx < 0
    idx = np.clip(idx, 0, len(f.knots) - 1)
    anchor_t = f._knots_arr[idx]
    anchor_v = f._values_arr[idx]
    expo = np.where(below, 0.0, f._exponents_arr[idx])
    return anchor_v * (arr / anchor_t) ** expo


def generalized_inverse(f: MonotoneFn, y: float) -> float:
    """Largest abscissa whose value does not exceed `y`.

    Returns ``sup{ s : f(s) <= y }`` for nondecreasing `f`.  Below the
    function's range the supremum is over the empty set and 0 is returned;
    beyond the last knot the power extension is inverted.

    Raises
    ------
    DirectionError
        `f` is nonincreasing (reflect first, or use :func:`crossing_below`).
    Unbounded
        `y` is at or above a flat tail (``e_inf == 0``), so the sublevel
        set is all of (0, infinity).
    DomainError
        ``y <= 0`` or not finite.
    """
    if f.direction != "nondecreasing":
        raise DirectionError("generalized inverse needs a nondecreasing function")
    y = float(y)
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"level must be a positive real, got {y}")
    vals = f.values
    j = bisect_right(vals, y) - 1
    if j < 0:
        return 0.0
    if j == len(vals) - 1:
        e = f.right_exponent
        if e == 0.0:
            raise Unbounded(
                f"level {y} meets the flat tail; the sublevel set is unbounded"
            )
        return _solve_on_segment(f.knots[j], vals[j], e, y)
    if vals[j + 1] == vals[j]:
        # Flat run with y == v_j: sup of the level set is its right edge,
        # found by walking to the run's last repeated ordinate.
        k = j
        while k + 1 < len(vals) and vals[k + 1] == vals[k]:
            k += 1
        if k == len(vals) - 1:
            if f.right_exponent == 0.0:
                raise Unbounded(
                    f"level {y} meets the flat tail; the sublevel set is unbounded"
                )
            return f.knots[k]
        return f.knots[k]
    e = f.segment_exponents[j]
    return _solve_on_segment(f.knots[j], vals[j], e, y)


def inverse_fn(f: MonotoneFn) -> MonotoneFn:
    """The inverse of a strictly increasing `f`, as a function object.

    The returned table swaps knots and values, so it agrees with
    :func:`generalized_inverse` on the range of `f` but extends by
    continuity (constant ``t_1``) below ``f(t_1)`` instead of dropping
    to zero.

    Raises
    ------
    DirectionError
        `f` is nonincreasing.
    NonMonotone
        `f` has flat segments (values not strictly increasing).
    Unbounded
        `f` is bounded (``e_inf == 0``), so no total inverse exists.
    """
    if f.direction != "nondecreasing":
        raise DirectionError("inverse_fn needs a nondecreasing function")
    for lo, hi in zip(f.values, f.values[1:]):
        if hi <= lo:
            raise NonMonotone("inverse_fn needs strictly increasing values")
    if f.right_exponent <= 0.0:
        raise Unbounded("inverse_fn needs an unbounded range (e_inf > 0)")
    return MonotoneFn(
        knots=f.values,
        values=f.knots,
        right_exponent=1.0 / f.right_exponent,
        direction="nondecreasing",
    )


def reciprocal(f: MonotoneFn) -> MonotoneFn:
    """Pointwise ``1/f`` (flips the monotonicity direction).

    Exact: segment exponents negate because the chord slopes of the
    reciprocal ordinates are the negated originals.
    """
    return MonotoneFn(
        knots=f.knots,
        values=tuple(1.0 / v for v in f.values),
        right_exponent=-f.right_exponent,
        direction="nonincreasing"
        if f.direction == "nondecreasing"
        else "nondecreasing",
    )


def _merge_close(sorted_pts: list[float]) -> list[float]:
    """Drop near-duplicate abscissas (relative tolerance 1e-13)."""
    out: list[float] = []
    for t in sorted_pts:
        if not out or t > out[-1] * (1.0 + _KNOT_MERGE_RTOL):
            out.append(t)
    return out


def compose(f: MonotoneFn, g: MonotoneFn) -> MonotoneFn:
    """The composition ``t -> f(g(t))`` as an exact piecewise power table.

    `g` must be nondecreasing; `f` may go either way, and the result
    inherits `f`'s direction.  Knots are the union of `g`'s knots with the
    preimages under `g` of `f`'s knots, so every segment of the result maps
    through a single power piece of each factor and the chord exponents of
    the output are exact.

    Raises
    ------
    DirectionError
        `g` is nonincreasing.
    """
    if g.direction != "nondecreasing":
        raise DirectionError("compose needs a nondecreasing inner function")
    pts = list(g.knots)
    for knot_f in f.knots:
        try:
            pre = generalized_inverse(g, knot_f)
        except Unbounded:
            continue  # g is bounded below this knot of f; never reached
        if pre > 0.0:
            pts.append(pre)
    pts = _merge_close(sorted(pts))
    raw = [evaluate(f, evaluate(g, t)) for t in pts]

    # Clamp float noise so the table passes strict monotonicity validation.
    sign = 1.0 if f.direction == "nondecreasing" else -1.0
    vals = [raw[0]]
    for v in raw[1:]:
        if sign * (v - vals[-1]) < 0.0:
            if abs(v - vals[-1]) > 1e-9 * max(abs(v), abs(vals[-1])):
                raise NonMonotone(
                    "composition produced a genuinely non-monotone table"
                )
            v = vals[-1]
        vals.append(v)

    e_inner = g.right_exponent
    e_outer = f.right_exponent
    right = 0.0 if e_inner == 0.0 else e_outer * e_inner
    return MonotoneFn(
        knots=tuple(pts),
        values=tuple(vals),
        right_exponent=right,
        direction=f.direction,
    )


def crossing_below(f: MonotoneFn, y: float) -> float:
    """Last abscissa at which a nonincreasing `f` still reaches `y`.

    Returns ``sup{ s : f(s) >= y }``; returns 0 when `y` exceeds the
    function's maximum (the supremum over an empty set).

    Raises
    ------
    DirectionError
        `f` is nondecreasing.
    Unbounded
        The flat tail (``e_inf == 0``) stays at or above `y` forever.
    DomainError
        ``y <= 0`` or not finite.
    """
    if f.direction != "nonincreasing":
        raise DirectionError("crossing_below needs a nonincreasing function")
    y = float(y)
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"level must be a positive real, got {y}")
    vals = f.values
    if y > vals[0]:
        return 0.0
    # Number of ordinates still >= y (vals is nonincreasing).
    neg = [-v for v in vals]
    count = bisect_right(neg, -y)
    j = count - 1
    if j == len(vals) - 1:
        e = f.right_exponent
        if e == 0.0:
            raise Unbounded(
                f"flat tail stays at {vals[-1]} >= {y}; crossing is at infinity"
            )
        return _solve_on_segment(f.knots[j], vals[j], e, y)
    if vals[j + 1] == vals[j]:  # pragma: no cover - count lands on run end
        return f.knots[j]
    e = f.segment_exponents[j]
    return _solve_on_segment(f.knots[j], vals[j], e, y)


def _log_ratio(x: float, t0: float) -> float:
    """``log(x / t0)`` for ``x > 0``, also where ``x / t0`` underflows to 0."""
    r = x / t0
    return math.log(r) if r > 0.0 else math.log(x) - math.log(t0)


def _ratio_pow(x: float, t0: float, p: float) -> float:
    """``(x / t0) ** p``, taken through logarithms where ``x / t0``
    underflows to 0 although ``x > 0`` (a subnormal `x`)."""
    r = x / t0
    if r > 0.0 or x == 0.0:
        return r**p
    return math.exp(p * _log_ratio(x, t0))


def _segment_integral(v0: float, t0: float, e: float, x: float, y: float) -> float:
    """Exact ``integral of v0 (t/t0)^e`` over ``[x, y]`` (y may be inf if e < -1).

    Near ``e = -1`` the closed form ``((y/t0)^p - (x/t0)^p)/p`` with
    ``p = e + 1`` cancels catastrophically, so a series in `p` is used
    there (exact at ``p = 0``, relative error below 1e-14 elsewhere in the
    switchover region).
    """
    p = e + 1.0
    if y == math.inf:
        return -v0 * t0 * _ratio_pow(x, t0, p) / p
    if x == 0.0:
        return v0 * t0 * _ratio_pow(y, t0, p) / p
    big = _log_ratio(y, t0)
    small = _log_ratio(x, t0)
    if abs(p) * max(abs(big), abs(small)) < 1e-3:
        return v0 * t0 * (
            (big - small)
            + p * (big * big - small * small) / 2.0
            + p * p * (big**3 - small**3) / 6.0
            + p**3 * (big**4 - small**4) / 24.0
        )
    return v0 * t0 * (_ratio_pow(y, t0, p) - _ratio_pow(x, t0, p)) / p


def _pieces(f: MonotoneFn) -> list[tuple[float, float, float, float, float]]:
    """Piece table ``(lo, hi, anchor_v, anchor_t, exponent)`` covering (0, inf)."""
    out = [(0.0, f.knots[0], f.values[0], f.knots[0], 0.0)]
    for i, e in enumerate(f.segment_exponents):
        out.append((f.knots[i], f.knots[i + 1], f.values[i], f.knots[i], e))
    out.append(
        (f.knots[-1], math.inf, f.values[-1], f.knots[-1], f.right_exponent)
    )
    return out


def integral(f: MonotoneFn, a: float, b: float) -> float:
    """Exact ``integral of f`` over ``[a, b]`` (closed form per power segment).

    Parameters
    ----------
    a:
        Lower limit, ``a >= 0``.
    b:
        Upper limit, ``b > a``; may be ``math.inf`` when the tail decays
        fast enough.

    Raises
    ------
    DomainError
        ``a < 0`` or ``b <= a``.
    DivergentTail
        ``b == inf`` but the tail exponent is >= -1.
    """
    a = float(a)
    b = float(b)
    if not (a >= 0.0 and b > a):
        raise DomainError(f"need 0 <= a < b, got a={a}, b={b}")
    if b == math.inf and f.right_exponent >= -1.0:
        raise DivergentTail(
            f"tail exponent {f.right_exponent} >= -1: divergent at infinity"
        )
    total = 0.0
    for lo, hi, v0, t0, e in _pieces(f):
        x = max(a, lo)
        y = min(b, hi)
        if x < y:
            total += _segment_integral(v0, t0, e, x, y)
    return total


def _local_power(f: MonotoneFn, t: float) -> tuple[float, float, float]:
    """Anchor ``(v0, t0, e)`` of the piece of `f` containing abscissa `t`.

    The constant head ``(v_1, t_1, 0)`` below the first knot, the segment
    starting at ``t_i`` for ``t_i <= t < t_{i+1}``, and the tail at and
    beyond the last knot: the pieces of :func:`_pieces`, found by bisection.
    """
    i = bisect_right(f.knots, t) - 1
    if i < 0:
        return f.values[0], f.knots[0], 0.0
    if i == len(f.knots) - 1:
        return f.values[i], f.knots[i], f.right_exponent
    return f.values[i], f.knots[i], f.segment_exponents[i]


def _unit_design(ln_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.polyfit``'s design matrix ``[ln_n, 1]`` scaled to unit
    columns, and the column scales."""
    lhs = np.ones((ln_n.size, 2))
    lhs[:, 0] = ln_n
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    return lhs, scale


def _fit_rank(ns: Sequence[float]) -> int:
    """Rank of the log-log fit over abscissas `ns`: below 2 exactly when
    :func:`fit_loglog_slope` on them warns (its solver and cutoff)."""
    lhs, _ = _unit_design(np.log(np.asarray(ns, dtype=float)))
    return int(np.linalg.lstsq(lhs, lhs[:, 1])[2])


def fit_loglog_slope(points: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of ``log y`` against ``log n``.

    Parameters
    ----------
    points:
        Pairs ``(n, y)``, at least three, all coordinates positive.

    Returns
    -------
    (slope, r_squared):
        Fitted exponent and goodness of fit; a constant `y` gives
        ``(0.0, 1.0)``.

    Raises
    ------
    TooFewPoints
        Fewer than three points.
    NonPositive
        Any coordinate <= 0.
    BadParameter
        All abscissas identical.

    Warns
    -----
    numpy.exceptions.RankWarning
        The log abscissas are so close that the system is rank
        deficient, as ``np.polyfit`` warns; the slope is then unreliable.
    """
    pts = list(points)
    if len(pts) < 3:
        raise TooFewPoints(f"need >= 3 points, got {len(pts)}")
    xy = np.array(pts, dtype=float)
    if np.any(xy <= 0.0):
        raise NonPositive("all coordinates must be positive for a log-log fit")
    ln_n, ln_y = np.log(xy).T
    if np.ptp(ln_n) == 0.0:
        raise BadParameter("all abscissas identical; slope undefined")
    if np.ptp(ln_y) == 0.0:
        return 0.0, 1.0
    # np.polyfit(ln_n, ln_y, 1) without its argument handling: the same
    # design matrix [ln_n, 1] scaled to unit columns and the same solver,
    # whose default cutoff eps * max(M, N) is polyfit's len * eps, so the
    # same bits.  One solve per column: a 2-D right-hand side moves bits.
    lhs, scale = _unit_design(ln_n)
    coef, _, rank, _ = np.linalg.lstsq(lhs, ln_y)
    if rank != 2:
        warnings.warn(
            "Polyfit may be poorly conditioned",
            np.exceptions.RankWarning,
            stacklevel=2,
        )
    slope, intercept = coef / scale
    fitted = slope * ln_n + intercept
    ss_res = float(np.sum((ln_y - fitted) ** 2))
    ss_tot = float(np.sum((ln_y - ln_y.mean()) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot
