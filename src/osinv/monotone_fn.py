"""Piecewise power-law monotone functions on the positive half line.

A :class:`MonotoneFn` is a positive monotone function stored as a table of
knots and values, interpolated *log-log linearly*: between consecutive
knots the function is an exact power law ``f(t) = v_i (t/t_i)^{e_i}`` whose
exponent is the chord slope in log-log coordinates, to the left of the
first knot it is constant (``f(t) = v_1`` for ``t <= t_1``), and beyond the
last knot it follows a single power with prescribed exponent ``e_inf``.

Piece layout.  A table with knots ``t_1 < ... < t_m`` has ``m + 1`` power
pieces ``v (t/t_a)^e``.  Piece 0 is the head below ``t_1``, anchored at
``(t_1, v_1)``.  Piece ``k >= 1`` starts at ``t_k`` with anchor
``(t_k, v_k)`` and exponent ``MonotoneFn.exponents[k - 1]``; the last
piece, from ``t_m`` on, is the right tail.  The head exponent is 0 for
the table's own constant head; callers that extend the function below
``t_1`` as a pure power (Orlicz functions) use the first piece's exponent
instead.
Scalars bisect (:func:`_local_power`, :func:`generalized_inverse`);
:func:`compose` walks its ascending abscissas, stepping from one point's
piece to the next, and so does the composed-integral table of
``growth.TailIntegral`` over its ascending cuts.  Arrays take one lookup,
:func:`_pieces_at`, in a piece table such as the cached
``MonotoneFn._table``: the knots as search edges, then per piece its
anchor value, anchor abscissa and exponent.

Every operation in this module — evaluation, generalized inversion,
composition, reciprocal, and integration — is closed form per segment, so
results carry no quadrature error.  Improper tail integrals converge
exactly when ``e_inf < -1``.
"""

from __future__ import annotations

import math
import operator
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice, repeat
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

#: Below this ``|p| |ln(t/t0)|``, :func:`_segment_integral` integrates
#: ``(t/t0)^(p-1)`` through its series in `p`, exact at ``p = 0``.
_SERIES_CUT = 1e-3


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
        k, v = self.knots, self.values
        div = operator.truediv
        # Through a list, so that the tuple is allocated at its size.
        return tuple(list(map(div, map(math.log, map(div, v[1:], v)),
                              map(math.log, map(div, k[1:], k)))))

    @cached_property
    def exponents(self) -> tuple[float, ...]:
        """Exponent of the piece starting at each knot: the segment
        exponents, then the right exponent (``m`` entries)."""
        return self.segment_exponents + (self.right_exponent,)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The piece table that :func:`_pieces_at` reads: the search edges
        (the knots), then the rows of anchor values, anchor abscissas and
        exponents, a column per piece; piece 0 is the constant head."""
        k, v = self.knots, self.values
        return np.array(k, dtype=float), np.array(
            ((v[0], *v), (k[0], *k), (0.0, *self.exponents)), dtype=float)

    @property
    def left_value(self) -> float:
        """Constant value taken on ``(0, t_1]``."""
        return self.values[0]


def make_piecewise(
    knots: Sequence[float],
    values: Sequence[float],
    right_exponent: float = 0.0,
    direction: Direction = "nondecreasing",
) -> MonotoneFn:
    """Build and validate a :class:`MonotoneFn`.

    Parameters
    ----------
    knots, values:
        The interpolation table (see :class:`MonotoneFn`).
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
        Unknown direction or non-finite exponent.
    """
    return MonotoneFn(
        knots=tuple(float(t) for t in knots),
        values=tuple(float(v) for v in values),
        right_exponent=float(right_exponent),
        direction=direction,
    )


def _solve_on_segment(t0: float, v0: float, e: float, y: float) -> float:
    """Solve ``v0 (s/t0)^e = y`` for `s`; exact when ``y == v0``.

    Raises
    ------
    Unbounded
        The solution exceeds the floating-point range (exponent so close
        to zero that the crossing is astronomically far out, or ``y/v0``
        underflowing to 0 before a negative power).
    """
    try:
        return t0 * (y / v0) ** (1.0 / e)
    except (OverflowError, ZeroDivisionError):
        raise Unbounded(
            f"solution of v0 (s/t0)^{e} = {y} lies beyond float range"
        ) from None


def evaluate(f: MonotoneFn, t: float) -> float:
    """Value of `f` at ``t > 0`` (exact at knots).

    Raises
    ------
    DomainError
        If ``t <= 0`` or not finite.
    """
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"abscissa must be a positive real, got {t}")
    v0, t0, e = _local_power(f, t)
    return v0 * (t / t0) ** e


def evaluate_many(f: MonotoneFn, ts: Iterable[float]) -> np.ndarray:
    """Vectorized :func:`evaluate` over an array of positive abscissas."""
    arr = np.asarray(list(ts) if not isinstance(ts, np.ndarray) else ts, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("abscissas must be positive finite reals")
    _, v0, t0, e = _pieces_at(f._table, arr)
    return v0 * (arr / t0) ** e


def _pieces_at(
    table: tuple[np.ndarray, np.ndarray], ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of `table` (see :attr:`MonotoneFn._table`) holding the
    entries of `ts`: their indices, then their anchor values, anchor
    abscissas and exponents, so that each piece reads ``v0 (t/t0)^e``
    there.  One search finds the pieces and one gather reads them."""
    edges, rows = table
    idx = np.searchsorted(edges, ts, side="right")
    v0, t0, e = rows.take(idx, axis=1)
    return idx, v0, t0, e


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
    if not 0.0 < y < math.inf:
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
    # j is the last ordinate <= y, so the segment from knot j ends above y
    # (a flat run at level y resolves to its right edge).
    return _solve_on_segment(f.knots[j], vals[j], f.segment_exponents[j], y)


def inverse_fn(f: MonotoneFn) -> MonotoneFn:
    """The inverse of a strictly increasing `f`, as a function object.

    The returned table swaps knots and values, so it agrees with
    :func:`generalized_inverse` on the range of `f` but extends by
    continuity (constant ``t_1``) below ``f(t_1)`` instead of dropping
    to zero.  It is kept on `f`, so every later call returns it.

    Raises
    ------
    DirectionError
        `f` is nonincreasing.
    NonMonotone
        `f` has flat segments (values not strictly increasing).
    Unbounded
        `f` is bounded (``e_inf == 0``), so no total inverse exists.
    """
    inv = f.__dict__.get("_inverse")
    if inv is not None:
        return inv
    if f.direction != "nondecreasing":
        raise DirectionError("inverse_fn needs a nondecreasing function")
    for lo, hi in zip(f.values, f.values[1:]):
        if hi <= lo:
            raise NonMonotone("inverse_fn needs strictly increasing values")
    if f.right_exponent <= 0.0:
        raise Unbounded("inverse_fn needs an unbounded range (e_inf > 0)")
    inv = MonotoneFn(
        knots=f.values,
        values=f.knots,
        right_exponent=1.0 / f.right_exponent,
        direction="nondecreasing",
    )
    # Frozen dataclass: store beside the fields, as cached_property does.
    f.__dict__["_inverse"] = inv
    return inv


def reciprocal(f: MonotoneFn) -> MonotoneFn:
    """Pointwise ``1/f`` (flips the monotonicity direction).

    Exact: segment exponents negate because the chord slopes of the
    reciprocal ordinates are the negated originals.
    """
    return MonotoneFn(
        knots=f.knots,
        values=tuple(map(operator.truediv, repeat(1.0), f.values)),
        right_exponent=-f.right_exponent,
        direction="nonincreasing"
        if f.direction == "nondecreasing"
        else "nondecreasing",
    )


def _merge_close(sorted_pts: list[float]) -> list[float]:
    """Drop near-duplicate abscissas (relative tolerance 1e-13)."""
    out, c = sorted_pts[:1], 1.0 + _KNOT_MERGE_RTOL
    bound = out[0] * c if out else 0.0
    for t in islice(sorted_pts, 1, None):
        if t > bound:
            out.append(t)
            bound = t * c
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
    # f(g(t)) as evaluate reads it, walking the pieces: pts ascend, and
    # g at them only up to rounding, so f's piece may step back.
    g_knots, g_vals, g_expo = g.knots, g.values, g.exponents
    f_knots, f_vals, f_expo = f.knots, f.values, f.exponents
    i, j, g_end, f_end = 0, 0, len(g_knots), len(f_knots)
    v0, t0, e = g_vals[0], g_knots[0], 0.0  # g's constant head
    raw = []
    for t in pts:
        while i < g_end and g_knots[i] <= t:
            v0, t0, e = g_vals[i], g_knots[i], g_expo[i]
            i += 1
        u = v0 * (t / t0) ** e
        if not 0.0 < u < math.inf:  # evaluate(f, u) rejects it
            raise DomainError(f"abscissa must be a positive real, got {u}")
        while j and f_knots[j - 1] > u:
            j -= 1
        while j < f_end and f_knots[j] <= u:
            j += 1
        k = j - 1 if j else 0
        raw.append(f_vals[k] * (u / f_knots[k]) ** (f_expo[k] if j else 0.0))

    # Clamp dips of float noise (<= 1e-9) so the table passes validation;
    # values already in order (one sort of sorted data) need no clamp.
    vals = raw
    if raw != sorted(raw, reverse=f.direction != "nondecreasing"):
        vals = list(accumulate(raw, max if f.direction == "nondecreasing" else min))
        for v, clamped in zip(raw, vals):
            if abs(v - clamped) > 1e-9 * max(abs(v), abs(clamped)):
                raise NonMonotone("composition produced a genuinely non-monotone table")

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
    # Last ordinate still >= y (vals is nonincreasing, its negation is
    # sorted).
    j = bisect_right(vals, -y, key=operator.neg) - 1
    if j == len(vals) - 1:
        e = f.right_exponent
        if e == 0.0:
            raise Unbounded(
                f"flat tail stays at {vals[-1]} >= {y}; crossing is at infinity"
            )
        return _solve_on_segment(f.knots[j], vals[j], e, y)
    # j is the last ordinate >= y, so the segment from knot j ends below y
    # (a flat run at level y resolves to its right edge).
    return _solve_on_segment(f.knots[j], vals[j], f.segment_exponents[j], y)


def _crossings_below(f: MonotoneFn, ys: np.ndarray) -> np.ndarray:
    """:func:`crossing_below` at each level of `ys`, bit for bit: one
    ``searchsorted`` on the ascending negated values finds its pieces,
    and each solve takes its IEEE operations, the power by libm ``pow``
    on Python floats (numpy's ``**`` may differ in the last bit).
    Invalid levels, and solves that raise, take the scalar loop."""
    ys = np.asarray(ys, dtype=float)
    if f.direction == "nonincreasing" and np.all((ys > 0.0) & (ys < math.inf)):
        vals = np.asarray(f.values)
        j = np.searchsorted(-vals, -ys, side="right") - 1
        hit = j >= 0  # the others lie above the maximum: crossing 0
        j = j[hit]
        try:
            inv = [1.0 / e for e in np.asarray(f.exponents)[j].tolist()]
            powers = list(map(operator.pow, (ys[hit] / vals[j]).tolist(), inv))
        except ArithmeticError:
            pass
        else:
            out = np.zeros(ys.shape)
            out[hit] = np.asarray(f.knots)[j] * np.array(powers)
            return out
    return np.array([crossing_below(f, float(y)) for y in ys])


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
    # The series needs |p| max(|ln(y/t0)|, |ln(x/t0)|) < _SERIES_CUT, and that
    # max is >= ln(y/x)/2 >= (y-x)/(2y): past this gate (a factor 2 for rounding)
    # no log is taken.  (y-x)/y keeps its digits for subnormal y, where a bound
    # scaled by y would vanish.
    if (y - x) / y * abs(p) < 4.0 * _SERIES_CUT:
        big = _log_ratio(y, t0)
        small = _log_ratio(x, t0)
        if abs(p) * max(abs(big), abs(small)) < _SERIES_CUT:
            return v0 * t0 * (
                (big - small)
                + p * (big * big - small * small) / 2.0
                + p * p * (big**3 - small**3) / 6.0
                + p**3 * (big**4 - small**4) / 24.0
            )
    return v0 * t0 * (_ratio_pow(y, t0, p) - _ratio_pow(x, t0, p)) / p


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
    x = a
    # Right ends of the pieces from the one holding `a` on.
    for hi in (*f.knots[bisect_right(f.knots, a):], math.inf):
        y = min(b, hi)
        total += _segment_integral(*_local_power(f, x), x, y)
        if y == b:
            break
        x = y
    return total


def _local_power(
    f: MonotoneFn, t: float, left: float = 0.0
) -> tuple[float, float, float]:
    """Anchor ``(v0, t0, e)`` of the piece of `f` holding abscissa `t`,
    so that the piece reads ``v0 (t/t0)^e`` there.

    Below the first knot this is the head ``(v_1, t_1, left)``: `left` is
    the head exponent, 0 for the table's constant head.  At and beyond
    knot ``t_i`` it is ``(v_i, t_i, exponents[i])``, the tail from the
    last knot on.  One bisection finds the piece.
    """
    i = bisect_right(f.knots, t) - 1
    if i < 0:
        return f.values[0], f.knots[0], left
    return f.values[i], f.knots[i], f.exponents[i]


class _LogLogDesign:
    """``np.polyfit``'s degree-1 system over log abscissas ``ln_n``, not
    all 0: the design matrix ``[ln n, 1]`` scaled to unit columns, and
    the column scales, shared by every row of ordinates fitted on them."""

    def __init__(self, ln_n: np.ndarray) -> None:
        self.ln_n = ln_n
        self.lhs = np.ones((ln_n.size, 2))
        self.lhs[:, 0] = ln_n
        self.scale = np.sqrt((self.lhs * self.lhs).sum(axis=0))
        self.lhs /= self.scale

    @cached_property
    def rank(self) -> int:
        """Below 2 exactly when :meth:`fit` warns (its solver and cutoff)."""
        return int(np.linalg.lstsq(self.lhs, self.lhs[:, 1])[2])

    def fit(self, rows: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
        """:func:`fit_loglog_slope` of each row of ordinates, bit for bit.

        The solver's default cutoff eps * max(M, N) is polyfit's len * eps.
        One solve per row, since a 2-D right-hand side moves bits; the sums
        run along contiguous rows, in the pairwise order of a 1-D sum.
        """
        ys = np.asarray(rows, dtype=float)
        if np.any(ys <= 0.0):
            raise NonPositive("all coordinates must be positive for a log-log fit")
        ln_y = np.log(ys)
        flat = (np.ptp(ln_y, axis=-1) == 0.0).tolist()
        coef = np.zeros((len(flat), 2))
        for i in (i for i, f in enumerate(flat) if not f):
            coef[i], _, rank, _ = np.linalg.lstsq(self.lhs, ln_y[i])
            if rank != 2:
                warnings.warn("Polyfit may be poorly conditioned",
                              np.exceptions.RankWarning, stacklevel=3)
        slope, intercept = (coef / self.scale).T[:, :, None]
        ss_res = ((ln_y - (slope * self.ln_n + intercept)) ** 2).sum(axis=-1)
        mean = ln_y.sum(axis=-1, keepdims=True) / self.ln_n.size
        ss_tot = ((ln_y - mean) ** 2).sum(axis=-1)
        return [(0.0, 1.0) if f else (s, 1.0 - r / t) for f, s, r, t in zip(
            flat, slope.ravel().tolist(), ss_res.tolist(), ss_tot.tolist())]


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
    ln_n = np.log(xy[:, 0])
    if np.ptp(ln_n) == 0.0:
        raise BadParameter("all abscissas identical; slope undefined")
    return _LogLogDesign(ln_n).fit([xy[:, 1]])[0]
