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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import BadParameter, Inconsistent, TooFewPoints
from .growth import TailIntegral
from .monotone_fn import (
    MonotoneFn,
    _LogLogDesign,
    compose,
    crossing_below,
    evaluate,
    inverse_fn,
)
from .spaces import SpaceDescriptor, canonical_weights, dual
from .util import _check_dimension

__all__ = [
    "InvariantReport",
    "SweepResult",
    "exactness",
    "pi1_fundamental",
    "projection",
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

    ``reports`` holds one report per grid point, or only the last
    ``window`` when the sweep was asked for its slopes alone.  ``slopes``
    maps a quantity name (``"pi1"``, and for self-sweeps ``"ex"`` and
    ``"proj"``) to ``(slope, r_squared)`` fitted over the last
    ``window`` reports, the upper half of the grid (at least 3 points),
    where small-n transients have died off; ``_design`` is the
    fit over those ``n``, for further columns.
    """

    reports: tuple[InvariantReport, ...]
    slopes: Mapping[str, tuple[float, float]]
    window: int
    _design: _LogLogDesign = field(repr=False, compare=False)


@dataclass(frozen=True)
class _Quadrant:
    """One mixed quadrant: fundamental function `a` on the first axis
    and `b` on the second, with the tail integrals of their canonical
    densities and the exact cross-composition tables.

    When the two axes carry equal tables (``a == b`` and ``w_a == w_b``)
    the second axis is the first: one tail integral, one composition and
    one cut table serve both, so ``lambda1 = lambda2`` and ``t_n = s_n``.
    """

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
        tail_a = TailIntegral.from_density(w_a)
        tau_ab = compose(b, inverse_fn(a))
        if a == b and w_a == w_b:
            return cls(a, a, tail_a, tail_a, tau_ab, tau_ab)
        return cls(a, b, tail_a, TailIntegral.from_density(w_b), tau_ab,
                   compose(a, inverse_fn(b)))

    def contributions(
        self, n: int
    ) -> tuple[float, float, float, float, float]:
        """``(lambda1, lambda2, lambda3, s_n, t_n)`` at dimension `n`."""
        nf = float(n)
        s_n = evaluate(self.a, nf)
        h_a = self.tail_a.eval(s_n)
        lam2 = nf * self.tail_b.integral_of_composed(self.tau_ab, s_n)
        if self.tail_b is self.tail_a:  # equal axes
            return lam2, lam2, nf * nf * h_a * h_a, s_n, s_n
        t_n = evaluate(self.b, nf)
        lam3 = nf * nf * h_a * self.tail_b.eval(t_n)
        lam1 = nf * self.tail_a.integral_of_composed(self.tau_ba, t_n)
        return lam1, lam2, lam3, s_n, t_n


def _pair_quadrants(
    domain: SpaceDescriptor, codomain: SpaceDescriptor
) -> tuple[_Quadrant, _Quadrant]:
    """The two mixed quadrants of the summing-norm formula for maps
    from `domain` to `codomain` (built on the antidual of `domain`); one
    quadrant serves as both when their four tables are equal."""
    e_star = dual(domain)
    w_e = canonical_weights(e_star)
    w_f = canonical_weights(codomain)
    tables = (e_star.phi_c, codomain.phi_r, w_e.uc_fn, w_f.ur_fn)
    other = (e_star.phi_r, codomain.phi_c, w_e.ur_fn, w_f.uc_fn)
    first = _Quadrant.build(*tables)
    return first, first if other == tables else _Quadrant.build(*other)


def _report(
    quads: tuple[_Quadrant, _Quadrant], n: int, self_pair: bool = False
) -> InvariantReport:
    """The report at `n`.  A self-sweep's report (`self_pair`) also
    carries ``ex`` and ``proj = n/pi1``."""
    l1m, l2m, l3m, s_n, t_n = quads[0].contributions(n)
    if quads[1] is quads[0]:
        l1p, l2p, l3p, s_p = l1m, l2m, l3m, s_n
    else:
        l1p, l2p, l3p, s_p, _ = quads[1].contributions(n)
    total = 2.0 * n + l1m + l2m + l3m + l1p + l2p + l3p
    pi1 = math.sqrt(total)
    return InvariantReport(
        n=n,
        pi1=pi1,
        lambda1=(l1m, l1p),
        lambda2=(l2m, l2p),
        lambda3=(l3m, l3p),
        s_break=s_n,
        t_break=t_n,
        ex=(_exactness(s_n, s_p, quads[0].tail_b, quads[1].tail_b)
            if self_pair else None),
        proj=n / pi1 if self_pair else None,
    )


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
        ``n`` is not an integer from 1 to 2**60.
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


def _exactness(
    col_level: float, row_level: float, tail_r: TailIntegral,
    tail_c: TailIntegral,
) -> float:
    """The exactness constant from the antidual's fundamental functions
    at `n` (the breaking levels ``a(n)`` of a self-sweep's quadrants) and
    the tail integrals of the space's row and column densities."""
    i_plus = _clipped_mass(col_level, row_level, tail_r)
    i_minus = _clipped_mass(row_level, col_level, tail_c)
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
        ``n`` is not an integer from 1 to 2**60.
    """
    n = _check_dimension(n)
    anti = dual(desc)
    w = canonical_weights(desc)
    nf = float(n)
    return _exactness(evaluate(anti.phi_c, nf), evaluate(anti.phi_r, nf),
                      TailIntegral.from_density(w.ur_fn),
                      TailIntegral.from_density(w.uc_fn))


def projection(desc: SpaceDescriptor, n: int) -> float:
    """Projection constant of the n-dimensional truncation.

    Defined as ``n / pi1_fundamental(desc, desc, n).pi1``: the summing
    norm of the identity and the projection constant sandwich ``n``
    between them up to the homogeneity constants, which pins the ratio.

    Raises
    ------
    NotRegular
        `desc` is an endpoint structure.
    BadParameter
        ``n`` is not an integer from 1 to 2**60.
    """
    n = _check_dimension(n)
    return n / pi1_fundamental(desc, desc, n).pi1


def sweep(
    domain: SpaceDescriptor,
    codomain: SpaceDescriptor | None = None,
    n_grid: Iterable[int] = (),
    *,
    _slopes_only: bool = False,
) -> SweepResult:
    """Invariant reports over an n-grid, with fitted exponents.

    With `codomain` omitted the sweep is a self-sweep: each report also
    carries ``ex`` (exactness of `domain`) and ``proj = n/pi1``, and
    slopes are fitted for all three quantities.  With a `codomain` the
    reports carry the summing-norm breakdown only and just the ``pi1``
    slope is fitted.  Slopes are fitted over the upper half of the grid
    (at least 3 points) to suppress small-n transients; `_slopes_only`
    (for ``osinv fit``) builds only the reports of that window, so the
    grid points below it are neither evaluated nor checked: an error
    there, which a full sweep raises, does not stop a slopes-only one.

    Each distinct piece of the formula is built and evaluated once per
    sweep: when the two mixed quadrants carry equal tables (for example
    a space with ``phi_c == phi_r``, against itself) one quadrant serves
    both, and when a quadrant's two axes carry equal tables (for example
    a column space against itself) one tail integral and one composed
    table serve both axes.  Equality is that of the tables' values, so
    every shared number is the one the unshared formula computes; nothing
    is kept from one sweep to the next.

    Raises
    ------
    TooFewPoints
        Fewer than 3 distinct grid points, or upper points so close in
        ``log n`` that a slope fit over them is rank deficient.
    BadParameter
        A grid point below 1 or above 2**60.
    NotRegular
        Either space is an endpoint structure.
    """
    ns = sorted({int(n) for n in n_grid})
    if len(ns) < 3:
        raise TooFewPoints(
            f"sweep needs at least 3 distinct grid points, got {len(ns)}"
        )
    _check_dimension(ns[0])
    _check_dimension(ns[-1])
    window = max(3, (len(ns) + 1) // 2)
    design = _LogLogDesign(np.log(np.asarray(ns[-window:], dtype=float)))
    if design.rank < 2:
        raise TooFewPoints(
            f"grid points {ns[-window]}..{ns[-1]} are too close in log n "
            "to fit a slope over them; spread the upper grid points apart"
        )
    self_sweep = codomain is None
    quads = _pair_quadrants(domain, domain if self_sweep else codomain)
    reports = [_report(quads, n, self_sweep)
               for n in (ns[-window:] if _slopes_only else ns)]
    upper = reports[-window:]
    names = ("pi1", "ex", "proj") if self_sweep else ("pi1",)
    fits = design.fit([[getattr(r, k) for r in upper] for k in names])
    return SweepResult(reports=tuple(reports), slopes=dict(zip(names, fits)),
                       window=window, _design=design)
