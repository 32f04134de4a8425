"""Closed-form displays of the exactness and projection constants.

The displays that usually accompany these constants are ambiguous where
their arguments fall below 1, so the library computes the integral forms
(``invariants.exactness``, ``invariants.projection``) instead.  The tests
keep the displays as references: they track the integral values within
bounded ratios, and the exactness display reads its functions below the
first knot through ``monotone_fn._local_power`` with a head exponent.
"""

from __future__ import annotations

import math

from osinv.monotone_fn import (
    MonotoneFn,
    _local_power,
    compose,
    evaluate,
    integral,
    inverse_fn,
)
from osinv.spaces import SpaceDescriptor, dual
from osinv.util import _check_dimension


def exactness_display(desc: SpaceDescriptor, n: int) -> float:
    """Closed-form display for the exactness constant (cross-check).

    Evaluates ``sqrt((n/phi_c(n)) * phi_r(phi_c(n)/phi_r(n)) +
    (n/phi_r(n)) * phi_c(phi_r(n)/phi_c(n)))`` on the structure's own
    fundamental functions, reading ``phi`` below 1 as a pure power (the
    clamped reading makes one term spuriously dominant).  Tracks
    ``invariants.exactness`` within a bounded ratio on catalog structures; the
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
    ``invariants.projection`` within a bounded ratio on catalog structures.
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
