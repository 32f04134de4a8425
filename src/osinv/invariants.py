"""Headline invariants of a regular structure.

Three quantities are computed for the n-dimensional truncation of a
structure: the exactness constant, the projection constant, and the
fundamental sequence of the completely-1-summing ideal.  All three come
from integral formulas over the structure's canonical weight densities,
evaluated in closed form per power piece:

* ``pi1_fundamental`` sums, over the two mixed quadrants, three
  contributions ``lambda_1, lambda_2, lambda_3`` (two tail/growth
  integrals and a product of tail values at the breaking points), plus a
  constant ``n`` for each diagonal quadrant.
* ``exactness`` integrates the pointwise minimum of the two rescaled
  densities on each half line.
* ``projection`` is pinned to ``n / pi1`` by the two-sided sandwich
  between the summing norm and the projection constant.

The closed-form displays that usually accompany these quantities are
ambiguous where their arguments fall below 1, so they are exposed only
as cross-checks (``exactness_display``, ``projection_display``) that
track the integral values within bounded ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .errors import BadParameter, Inconsistent, TooFewPoints
from .growth import TailIntegral
from .monotone_fn import (
    MonotoneFn,
    _fit_rank,
    _local_power,
    compose,
    crossing_below,
    evaluate,
    fit_loglog_slope,
    integral,
    inverse_fn,
)
from .spaces import SpaceDescriptor, canonical_weights, dual

__all__ = [
    "InvariantReport",
    "SweepResult",
    "exactness",
    "exactness_display",
    "pi1_fundamental",
    "projection",
    "projection_display",
    "sweep",
]

_SELF_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class InvariantReport:
    """Invariants of one n-dimensional truncation.

    ``lambda1``/``lambda2``/``lambda3`` hold the per-quadrant
    contributions to ``pi1**2`` as ``(minus_plus, plus_minus)`` pairs;
    ``s_break``/``t_break`` are the breaking points of the first mixed
    quadrant.  ``ex`` and ``proj`` are filled by self-sweeps and left
    ``None`` by pair computations.

    Raises
    ------
    BadParameter
        ``n < 1``.
    Inconsistent
        A constructed value violates a structural bound: ``pi1`` below
        the one-dimensional lower bound ``sqrt(n)``, a negative quadrant
        contribution, ``ex < 1``, or ``proj * pi1 != n``.
    """

    n: int
    pi1: float
    lambda1: tuple[float, float]
    lambda2: tuple[float, float]
    lambda3: tuple[float, float]
    s_break: float
    t_break: float
    ex: float | None = None
    proj: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadParameter(f"dimension must be >= 1, got {self.n}")
        if not self.pi1 >= math.sqrt(self.n) * (1.0 - _SELF_CHECK_TOL):
            raise Inconsistent(
                f"pi1 = {self.pi1!r} below the sqrt(n) lower bound at "
                f"n = {self.n}"
            )
        for name in ("lambda1", "lambda2", "lambda3"):
            pair = getattr(self, name)
            if min(pair) < 0.0:
                raise Inconsistent(f"{name} = {pair!r} must be nonnegative")
        if self.ex is not None and not self.ex >= 1.0 - _SELF_CHECK_TOL:
            raise Inconsistent(f"exactness constant {self.ex!r} below 1")
        if self.proj is not None:
            slack = abs(self.proj * self.pi1 / self.n - 1.0)
            if slack > 1e-9:
                raise Inconsistent(
                    f"proj * pi1 / n = 1 violated by {slack:.3e}"
                )


@dataclass(frozen=True)
class SweepResult:
    """Reports over an n-grid plus fitted log-log slopes.

    ``slopes`` maps a quantity name (``"pi1"``, and for self-sweeps
    ``"ex"`` and ``"proj"``) to ``(slope, r_squared)`` fitted over the
    last ``window`` reports, the upper half of the grid (at least 3
    points), where small-n transients have died off.
    """

    reports: tuple[InvariantReport, ...]
    slopes: Mapping[str, tuple[float, float]]
    window: int


@dataclass(frozen=True)
class _Quadrant:
    """One mixed quadrant: fundamental function `a` on the first axis
    and `b` on the second, with the tail integrals of their canonical
    densities and the exact cross-composition tables."""

    a: MonotoneFn
    b: MonotoneFn
    tail_a: TailIntegral
    tail_b: TailIntegral
    tau_ab: MonotoneFn  # s -> b(a^{-1}(s))
    tau_ba: MonotoneFn  # t -> a(b^{-1}(t))

    @classmethod
    def build(
        cls,
        a: MonotoneFn,
        b: MonotoneFn,
        w_a: MonotoneFn,
        w_b: MonotoneFn,
    ) -> "_Quadrant":
        quad = cls(
            a=a,
            b=b,
            tail_a=TailIntegral.from_density(w_a),
            tail_b=TailIntegral.from_density(w_b),
            tau_ab=compose(b, inverse_fn(a)),
            tau_ba=compose(a, inverse_fn(b)),
        )
        # The cuts of both composed integrals do not depend on n.
        quad.tail_b.composed_table(quad.tau_ab)
        quad.tail_a.composed_table(quad.tau_ba)
        return quad

    def contributions(
        self, n: int
    ) -> tuple[float, float, float, float, float]:
        """``(lambda1, lambda2, lambda3, s_n, t_n)`` at dimension `n`."""
        nf = float(n)
        s_n = evaluate(self.a, nf)
        t_n = evaluate(self.b, nf)
        lam3 = nf * nf * self.tail_a.eval(s_n) * self.tail_b.eval(t_n)
        lam2 = nf * self.tail_b.integral_of_composed(self.tau_ab, 0.0, s_n)
        lam1 = nf * self.tail_a.integral_of_composed(self.tau_ba, 0.0, t_n)
        return lam1, lam2, lam3, s_n, t_n


def _pair_quadrants(
    domain: SpaceDescriptor, codomain: SpaceDescriptor
) -> tuple[_Quadrant, _Quadrant]:
    """The two mixed quadrants of the summing-norm formula for maps
    from `domain` to `codomain` (built on the antidual of `domain`)."""
    e_star = dual(domain)
    w_e = canonical_weights(e_star)
    w_f = canonical_weights(codomain)
    return (
        _Quadrant.build(
            e_star.phi_c, codomain.phi_r, w_e.uc_fn, w_f.ur_fn
        ),
        _Quadrant.build(
            e_star.phi_r, codomain.phi_c, w_e.ur_fn, w_f.uc_fn
        ),
    )


def _report(quads: tuple[_Quadrant, _Quadrant], n: int) -> InvariantReport:
    l1m, l2m, l3m, s_n, t_n = quads[0].contributions(n)
    l1p, l2p, l3p, _, _ = quads[1].contributions(n)
    total = 2.0 * n + l1m + l2m + l3m + l1p + l2p + l3p
    return InvariantReport(
        n=n,
        pi1=math.sqrt(total),
        lambda1=(l1m, l1p),
        lambda2=(l2m, l2p),
        lambda3=(l3m, l3p),
        s_break=s_n,
        t_break=t_n,
    )


def _check_dimension(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadParameter(f"dimension must be a positive integer, got {n!r}")
    return n


def pi1_fundamental(
    domain: SpaceDescriptor, codomain: SpaceDescriptor, n: int
) -> InvariantReport:
    """Completely-1-summing norm of the rank-n identity, with breakdown.

    ``pi1**2`` is assembled as ``2n`` (one ``n`` per diagonal quadrant)
    plus, for each of the two mixed quadrants with fundamental functions
    ``a`` (from the antidual of `domain`) and ``b`` (from `codomain`):

    * ``lambda3 = n**2 * H_a(a(n)) * H_b(b(n))`` — the rectangle beyond
      both breaking points ``s_n = a(n)``, ``t_n = b(n)``;
    * ``lambda2 = n * integral_0^{s_n} H_b(b(a^{-1}(s))) ds``;
    * ``lambda1`` — the same with the roles of the axes exchanged;

    where ``H`` is the tail integral of the side's canonical density.
    All integrals are evaluated in closed form per power piece.

    Raises
    ------
    NotRegular
        Either space is an endpoint structure (no canonical weights).
    BadParameter
        ``n`` is not a positive integer.
    """
    n = _check_dimension(n)
    return _report(_pair_quadrants(domain, codomain), n)


def _clipped_mass(flat: float, scale: float, tail: TailIntegral) -> float:
    """Exact ``integral over (0, inf) of min(flat, scale * w(s)) ds``.

    `w` is the nonincreasing density of `tail`.  When ``flat/scale``
    reaches the sup of `w` the flat level never binds and the integral
    is ``scale * mass(w)``; otherwise the crossing point splits the
    integral into a flat part and a tail part.
    """
    w = tail.density
    ratio = flat / scale
    if ratio >= w.left_value:
        return scale * tail.mass
    s_star = crossing_below(w, ratio)
    return flat * s_star + scale * tail.eval(s_star)


@dataclass(frozen=True)
class _Exactness:
    """What the exactness constant of one structure needs at every `n`:
    the tail integrals of its canonical densities, and the antidual's
    fundamental functions."""

    tail_c: TailIntegral
    tail_r: TailIntegral
    anti_c: MonotoneFn
    anti_r: MonotoneFn

    @classmethod
    def build(cls, desc: SpaceDescriptor) -> "_Exactness":
        w = canonical_weights(desc)
        anti = dual(desc)
        return cls(
            tail_r=TailIntegral.from_density(w.ur_fn),
            tail_c=TailIntegral.from_density(w.uc_fn),
            anti_c=anti.phi_c,
            anti_r=anti.phi_r,
        )

    def at(self, n: int) -> float:
        col_level = evaluate(self.anti_c, float(n))
        row_level = evaluate(self.anti_r, float(n))
        i_plus = _clipped_mass(col_level, row_level, self.tail_r)
        i_minus = _clipped_mass(row_level, col_level, self.tail_c)
        return math.sqrt(i_plus + i_minus)


def exactness(desc: SpaceDescriptor, n: int) -> float:
    """Exactness constant of the n-dimensional truncation.

    Computed as ``sqrt(I_minus + I_plus)`` where, with ``(w_c, w_r)``
    the canonical densities of `desc` and ``A = phi_c(n)``,
    ``B = phi_r(n)`` evaluated on the antidual's fundamental functions:

    * ``I_plus = integral min(A, B * w_r(s)) ds`` over the positive
      half line,
    * ``I_minus = integral min(B, A * w_c(t)) dt`` over the negative
      one.

    Raises
    ------
    NotRegular
        `desc` is an endpoint structure.
    BadParameter
        ``n`` is not a positive integer.
    """
    n = _check_dimension(n)
    return _Exactness.build(desc).at(n)


def exactness_display(desc: SpaceDescriptor, n: int) -> float:
    """Closed-form display for the exactness constant (cross-check).

    Evaluates ``sqrt((n/phi_c(n)) * phi_r(phi_c(n)/phi_r(n)) +
    (n/phi_r(n)) * phi_c(phi_r(n)/phi_c(n)))`` on the structure's own
    fundamental functions, reading ``phi`` below 1 as a pure power (the
    clamped reading makes one term spuriously dominant).  Tracks
    :func:`exactness` within a bounded ratio on catalog structures; the
    integral form is the authoritative value.
    """
    n = _check_dimension(n)
    a = evaluate(desc.phi_c, float(n))
    b = evaluate(desc.phi_r, float(n))
    total = 0.0
    for f, num, den in ((desc.phi_r, a, b), (desc.phi_c, b, a)):
        # Below its first knot, f extends with its first piece's power.
        x = num / den
        v0, t0, e = _local_power(f, x, f.exponents[0])
        total += n / num * (v0 * (x / t0) ** e)
    return math.sqrt(total)


def projection(desc: SpaceDescriptor, n: int) -> float:
    """Projection constant of the n-dimensional truncation.

    Defined as ``n / pi1_fundamental(desc, desc, n).pi1``: the summing
    norm of the identity and the projection constant sandwich ``n``
    between them up to the homogeneity constants, which pins the ratio.

    Raises
    ------
    NotRegular
        `desc` is an endpoint structure.
    """
    n = _check_dimension(n)
    return n / pi1_fundamental(desc, desc, n).pi1


def _ratio_integral(outer: MonotoneFn, inner: MonotoneFn, hi: float) -> float:
    """Exact ``integral_1^hi outer(inner^{-1}(t)) / inner^{-1}(t) dt``."""
    if hi <= 1.0:
        return 0.0
    quotient = MonotoneFn(
        knots=outer.knots,
        values=tuple(v / t for t, v in zip(outer.knots, outer.values)),
        right_exponent=outer.right_exponent - 1.0,
        direction="nonincreasing",
    )
    return integral(compose(quotient, inverse_fn(inner)), 1.0, hi)


def projection_display(desc: SpaceDescriptor, n: int) -> float:
    """Closed-form display for the projection constant (cross-check).

    Evaluates the reciprocal of the symmetric two-block expression: a
    ``1/sqrt(phi * phi-antidual)`` head plus ``1/sqrt(n)`` times the
    square root of four cross integrals of ``phi_b(phi_a^{-1}(t))/
    phi_a^{-1}(t)`` between the structure and its antidual.  Tracks
    :func:`projection` within a bounded ratio on catalog structures.
    """
    n = _check_dimension(n)
    anti = dual(desc)
    nf = float(n)
    a = evaluate(desc.phi_c, nf)
    b = evaluate(desc.phi_r, nf)
    a_star = evaluate(anti.phi_c, nf)
    b_star = evaluate(anti.phi_r, nf)
    head = math.sqrt(1.0 / (a * b_star) + 1.0 / (b * a_star))
    cross = (
        _ratio_integral(desc.phi_r, anti.phi_c, a_star)
        + _ratio_integral(desc.phi_c, anti.phi_r, b_star)
        + _ratio_integral(anti.phi_r, desc.phi_c, a)
        + _ratio_integral(anti.phi_c, desc.phi_r, b)
    )
    return 1.0 / (head + math.sqrt(cross) / math.sqrt(nf))


def sweep(
    domain: SpaceDescriptor,
    codomain: SpaceDescriptor | None = None,
    n_grid: Iterable[int] = (),
) -> SweepResult:
    """Invariant reports over an n-grid, with fitted exponents.

    With `codomain` omitted the sweep is a self-sweep: each report also
    carries ``ex`` (exactness of `domain`) and ``proj = n/pi1``, and
    slopes are fitted for all three quantities.  With a `codomain` the
    reports carry the summing-norm breakdown only and just the ``pi1``
    slope is fitted.  Slopes are fitted over the upper half of the grid
    (at least 3 points) to suppress small-n transients.

    Raises
    ------
    TooFewPoints
        Fewer than 3 distinct grid points, or upper points so close in
        ``log n`` that a slope fit over them is rank deficient.
    BadParameter
        A grid point below 1.
    NotRegular
        Either space is an endpoint structure.
    """
    ns = sorted({int(n) for n in n_grid})
    if len(ns) < 3:
        raise TooFewPoints(
            f"sweep needs at least 3 distinct grid points, got {len(ns)}"
        )
    if ns[0] < 1:
        raise BadParameter(f"grid points must be >= 1, got {ns[0]}")
    window = max(3, (len(ns) + 1) // 2)
    if _fit_rank(ns[-window:]) < 2:
        raise TooFewPoints(
            f"grid points {ns[-window]}..{ns[-1]} are too close in log n "
            "to fit a slope over them; spread the upper grid points apart"
        )
    self_sweep = codomain is None
    quads = _pair_quadrants(domain, domain if self_sweep else codomain)
    ex = None
    if self_sweep:
        # Each quadrant's `a` is an antidual fundamental function and its
        # `tail_b` a tail integral of the domain's own densities.
        ex = _Exactness(tail_c=quads[1].tail_b, tail_r=quads[0].tail_b,
                        anti_c=quads[0].a, anti_r=quads[1].a)
    reports: list[InvariantReport] = []
    for n in ns:
        rep = _report(quads, n)
        if ex is not None:
            rep = replace(rep, ex=ex.at(n), proj=n / rep.pi1)
        reports.append(rep)
    upper = reports[-window:]
    slopes: dict[str, tuple[float, float]] = {
        "pi1": fit_loglog_slope([(r.n, r.pi1) for r in upper])
    }
    if self_sweep:
        slopes["ex"] = fit_loglog_slope([(r.n, r.ex) for r in upper])
        slopes["proj"] = fit_loglog_slope([(r.n, r.proj) for r in upper])
    return SweepResult(reports=tuple(reports), slopes=slopes, window=window)
