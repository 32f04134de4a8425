"""Tests for tail integrals, growth functions, recovery, and regularity."""

from __future__ import annotations

import json
import math
import random
import sys
import threading
from bisect import bisect_right

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osinv import growth
from osinv.cli import main
from osinv.errors import (
    BracketFailure,
    DirectionError,
    DivergentTail,
    DomainError,
    NotRegular,
    OsinvError,
    Unbounded,
)
from osinv.growth import (
    _BISECT_REL_TOL,
    _MAX_DOUBLINGS,
    _ROOT_BAND,
    TailIntegral,
    _solve_growth,
    clamped_reciprocal_inverse,
    growth_fn,
    growth_profile,
    recover_weight,
    regularity_report,
    tail_fn,
)
from osinv.monotone_fn import (
    _merge_close,
    _segment_integral,
    evaluate,
    evaluate_many,
    generalized_inverse,
    integral,
    make_piecewise,
)
from osinv.invariants import _pair_quadrants, sweep
from osinv.spaces import canonical_weights, from_fundamental
from test_schatten import _knotted_space


def power_weight(a: float) -> "make_piecewise":
    """w(s) = 1 on (0,1], s^{-a} beyond."""
    return make_piecewise([1.0], [1.0], right_exponent=-a,
                          direction="nonincreasing")


def two_piece_weight() -> "make_piecewise":
    """w = 1 head, s^{-1.5} on [1,100], s^{-3} tail."""
    return make_piecewise(
        [1.0, 100.0], [1.0, 100.0 ** -1.5], right_exponent=-3.0,
        direction="nonincreasing",
    )


def log_segment_weight() -> "make_piecewise":
    """w = 1 head, s^{-1} on [1,10], s^{-3} tail (a near-log piece of H
    whose ``q`` is exactly 0)."""
    return make_piecewise(
        [1.0, 10.0], [1.0, 0.1], right_exponent=-3.0, direction="nonincreasing"
    )


@st.composite
def decaying_weights(draw):
    """Random nonincreasing piecewise-power densities with integrable tails."""
    m = draw(st.integers(min_value=1, max_value=4))
    start = draw(st.floats(min_value=-1.0, max_value=1.0))
    gaps = draw(st.lists(st.floats(0.2, 1.5), min_size=m - 1, max_size=m - 1))
    log_knots = [start]
    for gap in gaps:
        log_knots.append(log_knots[-1] + gap)
    knots = [math.exp(u) for u in log_knots]
    v0 = draw(st.floats(min_value=0.2, max_value=5.0))
    exps = draw(
        st.lists(st.floats(min_value=0.0, max_value=3.0),
                 min_size=m - 1, max_size=m - 1)
    )
    values = [v0]
    for (t0, t1), e in zip(zip(knots, knots[1:]), exps):
        values.append(values[-1] * (t1 / t0) ** -e)
    e_inf = -draw(st.floats(min_value=1.2, max_value=4.0))
    return make_piecewise(knots, values, right_exponent=e_inf,
                          direction="nonincreasing")


class TestTailIntegral:
    def test_inverse_square_closed_form(self):
        hh = TailIntegral.from_density(power_weight(2.0))
        assert hh.eval(1.0) == pytest.approx(1.0, rel=1e-14)
        assert hh.eval(50.0) == pytest.approx(1.0 / 50.0, rel=1e-14)
        assert hh.eval(0.25) == pytest.approx(2.0 - 0.25, rel=1e-14)
        assert hh.mass == pytest.approx(2.0, rel=1e-14)

    def test_log_piece(self):
        hh = TailIntegral.from_density(log_segment_weight())
        # Beyond 10: 0.1 * (s/10)^{-3} integrates to 0.5 at 10.
        assert hh.eval(10.0) == pytest.approx(0.5, rel=1e-14)
        for t in (1.0, 2.5, 10.0):
            assert hh.eval(t) == pytest.approx(0.5 + math.log(10.0 / t),
                                               rel=1e-14)
        assert hh.mass == pytest.approx(1.5 + math.log(10.0), rel=1e-14)

    @given(decaying_weights(), st.floats(min_value=1e-3, max_value=1e4))
    @settings(deadline=None)
    def test_matches_segment_integration(self, w, t):
        hh = TailIntegral.from_density(w)
        assert hh.eval(t) == pytest.approx(
            integral(w, t, math.inf), rel=1e-11
        )

    def test_exponent_near_minus_one(self):
        # Chord exponent -0.99999: the (const, coef, q) closed form
        # cancels to ~1e-11 relative, so such pieces integrate the density.
        w = make_piecewise([math.e, math.e**2], [1.0, 0.367883119984248],
                           right_exponent=-4.0, direction="nonincreasing")
        hh = TailIntegral.from_density(w)
        assert _series_pieces(hh) and not _series_pieces(
            TailIntegral.from_density(two_piece_weight()))
        ts = [0.5, 2.0, math.e, 4.0, 7.0, math.e**2, 9.0]
        for t in ts:
            assert hh.eval(t) == pytest.approx(integral(w, t, math.inf),
                                               rel=1e-14)
        assert hh.mass == pytest.approx(integral(w, 0.0, math.inf), rel=1e-14)

    @given(decaying_weights())
    def test_zero_gives_mass_bitwise(self, w):
        hh = TailIntegral.from_density(w)
        mass = hh.mass
        assert hh.eval(0.0) == mass
        assert hh.eval(-0.0) == mass

    def test_negative_abscissa_rejected(self):
        hh = TailIntegral.from_density(two_piece_weight())
        with pytest.raises(DomainError):
            hh.eval(-1e-300)
        with pytest.raises(DomainError):
            hh.eval(math.nan)

    def test_divergent_tail(self):
        with pytest.raises(DivergentTail):
            TailIntegral.from_density(power_weight(1.0))

    def test_direction_error(self):
        rising = make_piecewise([1.0], [1.0], right_exponent=1.0)
        with pytest.raises(DirectionError):
            TailIntegral.from_density(rising)


class TestIntegralOfComposed:
    # Each inner function is constant on (0, 1], so H(tau(s)) is H(tau(1))
    # there and the integral over [0, X] adds that to the one over [1, X].

    def test_identity_inner(self):
        hh = TailIntegral.from_density(power_weight(2.0))
        ident = make_piecewise([1.0], [1.0], right_exponent=1.0)
        # H(1) = 1 and H(s) = 1/s beyond 1: the integral over [0, X] is
        # 1 + ln X.
        assert hh.integral_of_composed(ident, 50.0) == pytest.approx(
            1.0 + math.log(50.0), rel=1e-13
        )

    def test_sqrt_inner(self):
        hh = TailIntegral.from_density(power_weight(2.0))
        root = make_piecewise([1.0], [1.0], right_exponent=0.5)
        # H(sqrt(s)) = s^{-1/2} beyond 1: integral over [0, X] = 2 sqrt X - 1.
        x = 400.0
        assert hh.integral_of_composed(root, x) == pytest.approx(
            2.0 * math.sqrt(x) - 1.0, rel=1e-13
        )

    def test_log_piece_inner_identity(self):
        hh = TailIntegral.from_density(log_segment_weight())
        ident = make_piecewise([1.0], [1.0], right_exponent=1.0)
        # H(1) = 0.5 + ln 10 over [0, 1], and the integral over [1, 10] of
        # (0.5 + ln 10 - ln t) dt = 13.5 - ln 10: 14 in all.
        assert hh.integral_of_composed(ident, 10.0) == pytest.approx(
            14.0, rel=1e-13
        )

    @given(decaying_weights(), st.floats(0.3, 0.9), st.floats(2.0, 50.0))
    @settings(deadline=None, max_examples=40)
    def test_against_trapezoid(self, w, inner_exp, hi):
        hh = TailIntegral.from_density(w)
        inner = make_piecewise([1.0], [2.0], right_exponent=inner_exp)
        exact = hh.integral_of_composed(inner, hi)
        s = np.geomspace(0.5, hi, 20001)
        vals = [hh.eval(t) for t in evaluate_many(inner, s)]
        # The inner function is 2 on (0, 0.5]: the integrand is H(2) there.
        approx = 0.5 * hh.eval(2.0) + float(np.trapezoid(vals, s))
        assert exact == pytest.approx(approx, rel=2e-6)

    def test_requires_finite_range(self):
        hh = TailIntegral.from_density(power_weight(2.0))
        ident = make_piecewise([1.0], [1.0], right_exponent=1.0)
        for hi in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                hh.integral_of_composed(ident, hi)

    def test_log_piece_from_zero(self):
        # tau = 2 on (0, 1] lands in the q = 0 near-log piece of H, so the
        # first segment starts at s = 0, where s ln(s) has the limit 0.
        hh = TailIntegral.from_density(log_segment_weight())
        tau = make_piecewise([1.0], [2.0], right_exponent=1.0)
        # H(t) = 0.5 + ln(10/t) on [1, 10]: the integral is 5 (0.5 + ln 5)
        # - (5 ln 5 - 4) = 6.5.
        assert hh.integral_of_composed(tau, 5.0) == pytest.approx(
            6.5, rel=1e-13
        )


def _series_pieces(hh: TailIntegral) -> list[int]:
    """The near-log pieces of `hh`: those whose record has no ``coef``."""
    return [k for k, (_, coef, _, _) in enumerate(hh.pieces) if coef is None]


def _near_log_weight(q: float) -> "make_piecewise":
    """w = 1 head, chord exponent about ``q - 1`` on [e, e^2], s^-4 tail."""
    return make_piecewise([math.e, math.e**2], [1.0, math.exp(q - 1.0)],
                          right_exponent=-4.0, direction="nonincreasing")


def _mp_composed(w, tau, lo: float, hi: float) -> float:
    """mpmath reference for ``integral of H(tau(s))`` over ``[lo, hi]``,
    from the exact decimal values of the float tables of a two-knot `w`
    and a one-knot `tau`."""
    import mpmath

    with mpmath.workdps(40):
        return float(_mp_composed_at_precision(mpmath, w, tau, lo, hi))


def _mp_tail(mpmath, w):
    """mpmath ``H`` of a two-knot `w`, from the exact decimal values of
    its float table (call inside ``mpmath.workdps``)."""
    t0, t1 = (mpmath.mpf(t) for t in w.knots)
    v0, v1 = (mpmath.mpf(v) for v in w.values)
    p = mpmath.log(v1 / v0) / mpmath.log(t1 / t0) + 1
    tail_q = mpmath.mpf(w.right_exponent) + 1
    h_t1 = -v1 * t1 / tail_q

    def seg(a, b):  # integral of v0 (u/t0)^(p-1) over [a, b]
        if p == 0:
            return v0 * t0 * mpmath.log(b / a)
        return (v0 * t0 * (a / t0) ** p
                * mpmath.expm1(p * mpmath.log(b / a)) / p)

    def h(t):
        if t >= t1:
            return h_t1 * (t / t1) ** tail_q
        if t >= t0:
            return h_t1 + seg(t, t1)
        return h_t1 + seg(t0, t1) + v0 * (t0 - t)

    return h


def _mp_composed_at_precision(mpmath, w, tau, lo: float, hi: float):
    h = _mp_tail(mpmath, w)

    def tau_mp(s):
        knot, value = mpmath.mpf(tau.knots[0]), mpmath.mpf(tau.values[0])
        if s <= knot:
            return value
        return value * (s / knot) ** mpmath.mpf(tau.right_exponent)

    cuts = sorted({lo, hi} | {k for k in tau.knots if lo < k < hi})
    cuts += [generalized_inverse(tau, edge) for edge in w.knots]
    pts = sorted({mpmath.mpf(p) for p in cuts if lo <= p <= hi})
    return mpmath.quad(lambda s: h(tau_mp(s)), pts)


#: Chord exponents at or within 1e-9 of -1, on a short and a long
#: segment: every one is a near-log piece, ``q = 0`` exactly included.
_FORMER_LOG_CHORDS = [
    pytest.param([1.0, 2.0], [1.0, 0.5], id="chord=-1"),
    pytest.param([1.0, 2.0], [1.0, 0.5 * 2.0**-4.3e-10],
                 id="chord=-1-4.3e-10"),
    pytest.param([1.0, 1e6], [1.0, 1e-6 * 1e6**-7.2e-11],
                 id="chord=-1-7.2e-11"),
]


def _former_log_tail(knots, values) -> TailIntegral:
    w = make_piecewise(knots, values, right_exponent=-3.0,
                       direction="nonincreasing")
    hh = TailIntegral.from_density(w)
    assert _series_pieces(hh) == [1]
    return hh


def _mp_growth_root(w, s: float) -> float:
    """mpmath root of ``t = s H(t)``: 200 geometric bisection steps on
    ``[1e-6, 1e12]`` at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        h = _mp_tail(mpmath, w)
        s_mp = mpmath.mpf(s)
        lo, hi = mpmath.mpf("1e-6"), mpmath.mpf("1e12")
        for _ in range(200):
            mid = mpmath.sqrt(lo * hi)
            if mid - s_mp * h(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float(mpmath.sqrt(lo * hi))


class TestNearLogComposed:
    """Pieces of H whose chord exponent is near -1 integrate through the
    series of ``_segment_integral`` instead of ``const + coef (t/a)^q``.
    Chord exponents at or within 1e-9 of -1 take that series too, and
    ``eval``, the composed integral and the growth solver stay within
    1e-13 of 40-digit mpmath on them."""

    @pytest.mark.parametrize(
        "tau_knot, tau_value, tau_exp, lo, hi",
        [
            (1.0, 1.0, 1.0, 3.0, 7.0),      # identity, inside the piece
            (1.0, 1.0, 1.0, 2.0, 9.0),      # crosses both piece edges
            (1.0, 2.0, 0.5, 3.0, 12.0),     # square root
            (1.0, 2.0, 0.5, 0.0, 12.0),     # from 0, constant head
            (8.0, 4.0, 3.0, 0.0, 8.1),      # constant tau inside the piece
        ],
    )
    @pytest.mark.parametrize("q", [1e-5, -3e-7, 9.5e-4])
    def test_matches_mpmath(self, tau_knot, tau_value, tau_exp, lo, hi, q):
        w = _near_log_weight(q)
        hh = TailIntegral.from_density(w)
        assert _series_pieces(hh)
        tau = make_piecewise([tau_knot], [tau_value], right_exponent=tau_exp)
        exact = _mp_composed(w, tau, 0.0, hi)
        assert hh.integral_of_composed(tau, hi) == pytest.approx(
            exact, rel=1e-13
        )
        if lo:  # [lo, hi] on its own, undiluted by [0, lo]
            assert _loop_integral_of_composed(hh, tau, lo, hi) == (
                pytest.approx(_mp_composed(w, tau, lo, hi), rel=1e-13))

    @pytest.mark.parametrize("knots, values", _FORMER_LOG_CHORDS)
    def test_former_log_eval(self, knots, values):
        import mpmath

        hh = _former_log_tail(knots, values)
        t0, t1 = knots
        ts = [0.5 * t0, t0, *np.geomspace(t0, t1, 9)[1:-1].tolist(),
              math.nextafter(t1, 0.0), t1, 2.0 * t1]
        with mpmath.workdps(40):
            h = _mp_tail(mpmath, hh.density)
            want = [float(h(mpmath.mpf(t))) for t in ts]
            mass = float(h(mpmath.mpf(0)))
        for t, v in zip(ts, want):
            assert hh.eval(t) == pytest.approx(v, rel=1e-13, abs=0.0), t
        assert hh.mass == pytest.approx(mass, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("knots, values", _FORMER_LOG_CHORDS)
    @pytest.mark.parametrize(
        "tau_value, tau_exp, lo, hi",
        [
            (1.0, 1.0, 1.05, 0.95),     # identity, inside the piece
            (1.0, 1.0, 0.5, 2.0),       # identity, across both edges
            (1.0, 0.5, 1.05, 0.95),     # square root, inside the piece
            (1.5, 0.5, 0.0, 2.0),       # from 0, constant head inside it
        ],
    )
    def test_former_log_composed(self, knots, values, tau_value,
                                  tau_exp, lo, hi):
        hh = _former_log_tail(knots, values)
        tau = make_piecewise([1.0], [tau_value], right_exponent=tau_exp)
        # lo and hi scale the piece's ends and map back through tau.
        lo = (lo * knots[0] / tau_value) ** (1.0 / tau_exp) if lo else 0.0
        hi = (hi * knots[1] / tau_value) ** (1.0 / tau_exp)
        exact = _mp_composed(hh.density, tau, 0.0, hi)
        assert hh.integral_of_composed(tau, hi) == pytest.approx(
            exact, rel=1e-13, abs=0.0
        )
        if lo:  # [lo, hi] on its own, undiluted by [0, lo]
            assert _loop_integral_of_composed(hh, tau, lo, hi) == (
                pytest.approx(_mp_composed(hh.density, tau, lo, hi),
                              rel=1e-13, abs=0.0))

    @pytest.mark.parametrize("knots, values", _FORMER_LOG_CHORDS)
    def test_former_log_solve_growth(self, knots, values):
        hh = _former_log_tail(knots, values)
        t0, t1 = knots
        for t in np.geomspace(t0, t1, 7)[1:-1].tolist():
            s = t / hh.eval(t)
            assert _solve_growth(hh, s) == pytest.approx(
                _mp_growth_root(hh.density, s), rel=1e-13, abs=0.0
            ), s


@st.composite
def many_knot_fns(draw, direction: str, max_knots: int = 200):
    """Tables with up to `max_knots` knots, some of them closer than the
    1e-13 merge tolerance of composed-integral cuts.  Densities
    (nonincreasing) get exponent -1 (near-log pieces with ``q = 0``) and
    an integrable tail; inner functions (nondecreasing) get flat runs and
    may be bounded."""
    m = draw(st.integers(min_value=1, max_value=max_knots))
    gaps = draw(st.lists(
        st.one_of(st.floats(0.01, 0.3), st.sampled_from([3e-14, 8e-14, 2e-13])),
        min_size=m - 1, max_size=m - 1))
    if direction == "nonincreasing":
        exponent = st.one_of(st.just(-1.0), st.floats(-3.0, 0.0))
        e_inf = -draw(st.floats(min_value=1.2, max_value=4.0))
    else:
        exponent = st.one_of(st.just(0.0), st.floats(0.05, 2.5))
        e_inf = draw(exponent)
    exps = draw(st.lists(exponent, min_size=m - 1, max_size=m - 1))
    knots = [math.exp(draw(st.floats(min_value=-1.0, max_value=1.0)))]
    values = [draw(st.floats(min_value=0.2, max_value=5.0))]
    for gap, e in zip(gaps, exps):
        knots.append(knots[-1] * (1.0 + gap))
        values.append(values[-1] * (knots[-1] / knots[-2]) ** e)
    return make_piecewise(knots, values, right_exponent=e_inf,
                          direction=direction)


def _piece_table(f) -> list[tuple[float, float, float, float, float]]:
    """Reference pieces ``(lo, hi, v0, t0, e)``: constant head, one piece
    per segment, power tail."""
    pieces = [(0.0, f.knots[0], f.values[0], f.knots[0], 0.0)]
    for i, e in enumerate(f.segment_exponents):
        pieces.append((f.knots[i], f.knots[i + 1], f.values[i], f.knots[i], e))
    pieces.append(
        (f.knots[-1], math.inf, f.values[-1], f.knots[-1], f.right_exponent)
    )
    return pieces


def _scan_local_power(pieces, t: float) -> tuple[float, float, float]:
    """Reference piece lookup: a linear scan of the piece table."""
    for lo, hi, v0, t0, e in pieces:
        if lo <= t < hi or (hi == math.inf and t >= lo):
            return v0, t0, e
    raise AssertionError("pieces cover (0, inf)")


def _cuts(hh: TailIntegral, tau) -> list[float]:
    """`tau`'s knots and the positive preimages of the tail's edges."""
    out = list(tau.knots)
    for edge in hh.density.knots:
        try:
            pre = generalized_inverse(tau, edge)
        except Unbounded:
            continue
        if pre > 0.0:
            out.append(pre)
    return sorted(out)


def _loop_integral_of_composed(hh: TailIntegral, tau, lo: float, hi: float):
    """Reference: split ``[lo, hi]`` afresh at every cut inside it and
    sum the closed-form segments left to right."""
    cuts = {lo, hi}
    cuts.update(c for c in _cuts(hh, tau) if lo < c < hi)
    pts = _merge_close(sorted(cuts))
    pieces = _piece_table(tau)
    total = 0.0
    for x, y in zip(pts, pts[1:]):
        mid = math.sqrt(x) * math.sqrt(y) if x > 0.0 else y / 2.0
        v0, t0, m_exp = _scan_local_power(pieces, mid)
        tau_mid = v0 * (mid / t0) ** m_exp
        knots = hh.density.knots
        k = sum(1 for t in knots if t <= tau_mid)
        const, coef, q, _ = hh.pieces[k]
        if coef is None:
            # Near-log pieces have their own closed form, checked
            # against mpmath in TestNearLogComposed.
            total += hh._series_segment(k, v0, t0, m_exp, x, y)
            continue
        anchor = knots[k - 1] if k else knots[0]
        total += const * (y - x) + _segment_integral(
            coef * (v0 / anchor) ** q, t0, m_exp * q, x, y
        )
    return total


#: A fundamental pair whose composed tables overflow past their last
#: reached cuts (see test_prefix_walks_only_the_queried_segments).
_FAR_CUTS = {
    "kind": "fundamental",
    "phi_c": {"knots": [0.001, 1e300],
              "values": [1.0, 3.172733526444528e165],
              "right_exponent": 0.999999},
    "phi_r": {"knots": [0.12328467394420686, 1e50],
              "values": [4.668665335940499e20, 8.389901612049193e40],
              "right_exponent": 0.999999},
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, OsinvError) as exc:
        return type(exc)


class TestComposedTableMatchesLoop:
    """The cut table must give, to the bit, what splitting each range
    afresh gives: same cuts, same segments, same summation order."""

    @given(many_knot_fns("nonincreasing"), many_knot_fns("nondecreasing"),
           st.data())
    @settings(deadline=None, max_examples=40)
    def test_bit_identical(self, w, tau, data):
        hh = TailIntegral.from_density(w)
        cuts = _cuts(hh, tau)
        finite = [c for c in cuts if math.isfinite(c)]
        near = [1.0, 1.0 + 5e-14, 1.0 - 5e-14, 1.0 + 1e-13, 1.0 - 1e-13,
                1.0 + 2e-13, 1.0 - 2e-13]
        his = [c * r for c in data.draw(st.lists(
            st.sampled_from(finite), min_size=1, max_size=3)) for r in near]
        his += [math.nextafter(c, math.inf) for c in finite[:2]]
        his += [math.nextafter(c, 0.0) for c in finite[-2:]]
        his += data.draw(st.lists(st.floats(1e-3, 1e8), max_size=3))
        his.append(finite[-1] * 10.0)
        his = data.draw(st.permutations(his))
        for hi in his:
            assert _outcome(hh.integral_of_composed, tau, hi) == (
                _outcome(_loop_integral_of_composed, hh, tau, 0.0, hi))

    @staticmethod
    def _each_order(hh: TailIntegral, tau, his: list[float], rng) -> None:
        """`his` queried ascending, descending and shuffled, each on a
        fresh table, give the reference's bits."""
        want = {hi: _outcome(_loop_integral_of_composed, hh, tau, 0.0, hi)
                for hi in his}
        for order in (sorted(his), sorted(his, reverse=True),
                      rng.sample(his, len(his))):
            fresh = TailIntegral.from_density(hh.density)
            assert [_outcome(fresh.integral_of_composed, tau, hi)
                     for hi in order] == [want[hi] for hi in order]

    @pytest.mark.parametrize("m", [25, 200])
    def test_knotted_tables_in_any_query_order(self, m):
        # Both composed tables of both quadrants of a seeded self-pair.
        desc = _knotted_space(18 + m, m)
        rng = random.Random(m)
        for quad in _pair_quadrants(desc, desc):
            for hh, tau in ((quad.tail_b, quad.tau_ab),
                            (quad.tail_a, quad.tau_ba)):
                cuts = _cuts(hh, tau)
                his = [c * r for c in rng.sample(cuts, 3)
                       for r in (1.0, 1.0 + 5e-14, 1.0 - 2e-13)]
                his += [rng.uniform(cuts[0], cuts[-1]) for _ in range(3)]
                his += [cuts[0] * 0.5, cuts[-1] * 10.0]
                self._each_order(hh, tau, his, rng)

    def test_near_log_density_in_any_query_order(self):
        # Chord -1 + 1e-4 on knots a factor 2 apart: |q| L = 6.9e-5, so
        # every segment piece of H is near-log.
        knots = [2.0**i for i in range(12)]
        w = make_piecewise(knots, [1.0 / t ** (1.0 - 1e-4) for t in knots],
                           right_exponent=-2.0, direction="nonincreasing")
        hh = TailIntegral.from_density(w)
        assert len(_series_pieces(hh)) == len(knots) - 1
        tau = make_piecewise([0.7 * 1.5**i for i in range(14)],
                             [0.7 * 1.5 ** (1.1 * i) for i in range(14)],
                             right_exponent=1.1)
        rng = random.Random(4)
        his = [c * r for c in _cuts(hh, tau)[::3] for r in (1.0, 1.0 + 3e-13)]
        his += [rng.uniform(0.1, 300.0) for _ in range(6)]
        self._each_order(hh, tau, his, rng)

    def test_piece_of_h_steps_back(self):
        # Computed values of tau ascend only up to rounding; exaggerated
        # here, tau falls from 6 to 4 on [6, 9], back across H's edge at
        # 5, so the walk steps H's piece back as a bisection would find it.
        tau = make_piecewise([1.0, 6.0, 9.0, 12.0], [1.0, 6.0, 9.0, 12.0],
                             right_exponent=1.0)
        tau.__dict__["segment_exponents"] = (1.0, -1.0, 1.0)  # as cached
        w = make_piecewise([2.0, 5.0, 8.0], [1.0, 0.5, 0.2],
                           right_exponent=-2.0, direction="nonincreasing")
        hh = TailIntegral.from_density(w)
        self._each_order(hh, tau, [3.0, 6.5, 7.0, 8.5, 10.0, 20.0],
                         random.Random(5))

    def test_one_bisecting_lookup_per_integral(self, monkeypatch):
        # A 9-point self-sweep takes two integrals per quadrant per n.
        # Their prefixes walk the cuts, so only a partial last segment
        # finds its pieces by bisection: at most 36 lookups (one per
        # segment of each prefix, 836, before the walk).
        lookups = []
        segment = TailIntegral._composed_segment

        def counted(self, tau, x, y):
            lookups.append((x, y))
            return segment(self, tau, x, y)

        monkeypatch.setattr(TailIntegral, "_composed_segment", counted)
        sweep(_knotted_space(200, 200),
              n_grid=[16 * 4**k for k in range(9)])
        assert 0 < len(lookups) <= 36

    def test_hi_merged_into_the_last_cut(self):
        # hi within 1e-13 of a cut is dropped, so the range ends at the cut.
        hh = TailIntegral.from_density(two_piece_weight())
        tau = make_piecewise([1.0, 3.0], [1.0, 9.0], right_exponent=1.0)
        for hi in (3.0, 3.0 * (1 + 5e-14), 3.0 * (1 - 5e-14), 3.0 * (1 + 2e-13)):
            assert hh.integral_of_composed(tau, hi) == (
                _loop_integral_of_composed(hh, tau, 0.0, hi))
        assert hh.integral_of_composed(tau, 3.0 * (1 + 5e-14)) == (
            hh.integral_of_composed(tau, 3.0))

    def test_concurrent_queries_share_one_table(self):
        # Threads extending one table's running integrals at once must
        # each get the value a table of their own gives.
        w = make_piecewise(
            [1.0 + 0.5 * i for i in range(120)],
            [(1.0 + 0.5 * i) ** -1.5 for i in range(120)],
            right_exponent=-2.5, direction="nonincreasing")
        tau = make_piecewise([1.0 + 0.7 * i for i in range(120)],
                             [(1.0 + 0.7 * i) ** 0.6 for i in range(120)],
                             right_exponent=0.6)
        his = [1.0 + 0.37 * i for i in range(1, 240)]
        want = {h: TailIntegral.from_density(w).integral_of_composed(
            tau, h) for h in his}
        shared = TailIntegral.from_density(w)
        shared.composed_table(tau)
        got: dict[int, list[tuple[float, float]]] = {}

        def worker(k: int) -> None:
            got[k] = [(h, shared.integral_of_composed(tau, h))
                      for h in his[k % 3::3] + his]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8
        assert all(v == want[h] for k in got for h, v in got[k])

    @pytest.mark.parametrize(
        "grid", ["1,2,3", "geometric:16:1152921504606846976:9"])
    def test_prefix_walks_only_the_queried_segments(self, monkeypatch,
                                                    capsys, grid):
        # Past the cuts these sweeps reach, the composed segments of this
        # pair (found by a seeded fuzz of hostile tables) overflow in
        # _located_segment: a prefix filled eagerly would raise there.
        built = []
        init = growth._ComposedTable.__init__

        def recorded(self, hh, tau):
            init(self, hh, tau)
            built.append(self)

        monkeypatch.setattr(growth._ComposedTable, "__init__", recorded)
        assert main(["table", "--space", json.dumps(_FAR_CUTS),
                     "--n", grid]) == 0
        assert capsys.readouterr().err == ""
        walked = [(len(t.prefix) - 1, len(t.merged) - 1) for t in built]
        assert walked == [(3, 5), (2, 5), (2, 4), (3, 5)]

    def test_table_is_kept_per_inner_function(self):
        hh = TailIntegral.from_density(two_piece_weight())
        tau = make_piecewise([1.0, 3.0], [1.0, 9.0], right_exponent=1.0)
        table = hh.composed_table(tau)
        hh.integral_of_composed(tau, 50.0)
        assert hh.composed_table(tau) is table
        assert table.merged[0] == 0.0 and len(table.prefix) <= len(table.merged)
        other = make_piecewise([1.0], [1.0], right_exponent=0.5)
        assert hh.composed_table(other) is not table


class TestTailFn:
    def test_inverse_square_exact_beyond_one(self):
        h = tail_fn(power_weight(2.0))
        for t in (1.0, 7.0, 1e4, 1e8):
            assert evaluate(h, t) == pytest.approx(1.0 / t, rel=1e-12)

    @pytest.mark.parametrize("a", [1.5, 3.0])
    def test_power_closed_form(self, a):
        h = tail_fn(power_weight(a))
        for t in (1.0, 10.0, 123.0):
            assert evaluate(h, t) == pytest.approx(
                t ** (1.0 - a) / (a - 1.0), rel=1e-12
            )

    @pytest.mark.parametrize("a", [2.0, 3.0])
    def test_vanishes_at_infinity(self, a):
        h = tail_fn(power_weight(a))
        assert evaluate(h, 1e8) < 1e-6

    def test_between_knot_accuracy(self):
        w = two_piece_weight()
        h = tail_fn(w)
        hh = TailIntegral.from_density(w)
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.5, 500.0, size=50):
            assert evaluate(h, float(t)) == pytest.approx(
                hh.eval(float(t)), rel=1e-3
            )

    def test_head_is_nearly_total_mass(self):
        w = power_weight(2.0)
        h = tail_fn(w)
        assert h.values[0] == pytest.approx(2.0, rel=1e-8)

    def test_divergent(self):
        with pytest.raises(DivergentTail):
            tail_fn(power_weight(0.5))


class TestGrowthFn:
    def test_inverse_square_gives_sqrt(self):
        g = growth_fn(power_weight(2.0))
        for s in np.geomspace(10.0, 1e6, 25):
            assert evaluate(g, float(s)) == pytest.approx(
                math.sqrt(s), rel=1e-9
            )

    @pytest.mark.parametrize("a", [1.5, 3.0])
    def test_power_closed_form(self, a):
        # The closed form solves t = s h(t) on the power branch (root >= 1),
        # valid once s >= a - 1; checked well inside that region.
        g = growth_fn(power_weight(a), s_grid=np.geomspace(1.0, 1e6, 97))
        for s in (10.0, 31.0, 1e4, 9e5):
            assert evaluate(g, s) == pytest.approx(
                (s / (a - 1.0)) ** (1.0 / a), rel=1e-9
            )

    @pytest.mark.parametrize(
        "w", [power_weight(2.0), two_piece_weight(), log_segment_weight()]
    )
    def test_fixed_point_residual(self, w):
        grid = np.geomspace(1.0, 1e8, 129)
        g = growth_fn(w, s_grid=grid)
        hh = TailIntegral.from_density(w)
        for s, t in zip(g.knots, g.values):
            assert abs(t - s * hh.eval(t)) <= 1e-9 * t

    def test_strictly_increasing_on_grid(self):
        g = growth_fn(two_piece_weight(), s_grid=np.geomspace(1.0, 1e8, 257))
        assert np.all(np.diff(g.values) > 0.0)

    def test_grid_sorted_and_deduped(self):
        g = growth_fn(power_weight(2.0), s_grid=[100.0, 1.0, 10.0, 10.0])
        assert g.knots == (1.0, 10.0, 100.0)

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            growth_fn(power_weight(2.0), s_grid=[0.0, 1.0])
        with pytest.raises(DomainError):
            growth_fn(power_weight(2.0), s_grid=[])

    @pytest.mark.parametrize("grid", [
        [math.nan, 1.0], [1.0, math.nan, 2.0], [2.0, 1.0, math.nan],
        [1.0, math.inf], [-math.inf, 1.0], [1.0, -0.0, 2.0],
        np.array([1.0, np.nan, 3.0]),
    ])
    def test_grid_entry_not_a_positive_finite_real(self, grid):
        # Every entry is checked, whatever its place after sorting.
        with pytest.raises(DomainError, match="positive finite reals"):
            growth_fn(power_weight(2.0), s_grid=grid)


def _full_lookup_solve_growth(hh: TailIntegral, s: float) -> float:
    """Reference root of ``t = s H(t)``: every step evaluates ``H``
    through :meth:`TailIntegral.eval`."""

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
    for _ in range(_MAX_DOUBLINGS):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_REL_TOL * hi:
            break
    return math.sqrt(lo) * math.sqrt(hi)


def _knotted_densities(seed: int, m: int) -> tuple:
    """Canonical densities of a seeded fundamental pair on
    ``geomspace(1, 1e6, m)`` with chord exponents in (0.3, 0.7)."""
    rng = np.random.default_rng(seed)

    def table():
        knots = np.geomspace(1.0, 1e6, m)
        exps = rng.uniform(0.3, 0.7, size=m)
        values = [1.0]
        for i in range(m - 1):
            values.append(values[-1] * (knots[i + 1] / knots[i]) ** exps[i])
        return make_piecewise([float(k) for k in knots], values,
                              right_exponent=float(exps[-1]))

    w = canonical_weights(from_fundamental(table(), table()))
    return w.uc_fn, w.ur_fn


def _levels(hh: TailIntegral) -> list[float]:
    """Levels `s` whose roots lie below 1, at every knot of the density
    (and one ulp to either side), between knots and past the last one,
    plus a log grid."""
    knots = hh.density.knots
    ts = [0.3, 0.999, 1.0, knots[-1] * 2.0, knots[-1] * 1e3]
    for a, b in zip(knots, knots[1:]):
        ts.append(math.sqrt(a * b))
    for t in knots:
        ts += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    levels = [t / hh.eval(t) for t in ts]
    return levels + [float(s) for s in np.geomspace(1e-3, 1e12, 31)]


def _assert_solves_bitwise(hh: TailIntegral, levels) -> None:
    for s in levels:
        assert _solve_growth(hh, s) == _full_lookup_solve_growth(hh, s), s


class TestSolveGrowthBitwise:
    """The solver replays its bracket search and bisection from the root
    of ``_growth_root``, evaluating only the points near it; its roots
    must equal, to the bit, those of a full :meth:`TailIntegral.eval` at
    every step."""

    @pytest.mark.parametrize("m", [5, 12, 40, 200])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_canonical_densities_of_knotted_tables(self, seed, m):
        for w in _knotted_densities(seed, m):
            hh = TailIntegral.from_density(w)
            assert len(hh.pieces) > m
            _assert_solves_bitwise(hh, _levels(hh))

    def test_log_piece(self):
        # Chord exponent within 1e-9 of -1: H is stored as a near-log piece.
        w = make_piecewise([1.0, 10.0], [1.0, 0.1 * (1.0 + 1e-12)],
                           right_exponent=-3.0, direction="nonincreasing")
        hh = TailIntegral.from_density(w)
        assert _series_pieces(hh)
        _assert_solves_bitwise(hh, _levels(hh))

    @pytest.mark.parametrize("q", [1e-5, -3e-7, 9.5e-4])
    def test_near_log_piece(self, q):
        hh = TailIntegral.from_density(_near_log_weight(q))
        assert _series_pieces(hh)
        _assert_solves_bitwise(hh, _levels(hh))

    @settings(max_examples=60, deadline=None)
    @given(many_knot_fns("nonincreasing", max_knots=60),
           st.lists(st.floats(-4.0, 14.0), min_size=1, max_size=8))
    def test_random_densities(self, w, log_s):
        hh = TailIntegral.from_density(w)
        _assert_solves_bitwise(hh, [10.0**v for v in log_s])

    @pytest.mark.parametrize("s, which", [(1e80, "doublings"),
                                          (1e-70, "halvings")])
    def test_bracket_failures_unchanged(self, s, which):
        hh = TailIntegral.from_density(power_weight(1.2))
        with pytest.raises(BracketFailure) as want:
            _full_lookup_solve_growth(hh, s)
        with pytest.raises(BracketFailure) as got:
            _solve_growth(hh, s)
        assert which in str(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("k", [-3, 0, 1, 17])
    def test_roots_at_a_power_of_two(self, k):
        # The doubling or halving ends at the first power of two past
        # the root.  A root on 2**k or an ulp from it puts that power in
        # the band, one just past it the power before the end; k = 0 is
        # a root at 1.  At roots a few bands away every step takes its
        # side from the root.
        edge = 2.0**k
        ts = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        ts += [edge * (1.0 + d) for d in (-3e-12, -5e-13, 5e-13, 3e-12)]
        for w in (power_weight(1.2), two_piece_weight(),
                  *_knotted_densities(0, 12)):
            hh = TailIntegral.from_density(w)
            _assert_solves_bitwise(hh, [t / hh.eval(t) for t in ts])

    @pytest.mark.parametrize("k", [-201, -200, -199, 198, 199, 200])
    def test_roots_at_the_step_limit(self, k):
        # A root of 1.5 * 2**k ends the doubling at 2**(k+1) or the
        # halving at 2**k: within the 200 steps, on the last one, or
        # past it, which raises as the full search does.
        hh = TailIntegral.from_density(power_weight(1.2))
        t = 1.5 * 2.0**k
        s = t / hh.eval(t)
        if k in (-201, 200):
            with pytest.raises(BracketFailure) as want:
                _full_lookup_solve_growth(hh, s)
            with pytest.raises(BracketFailure) as got:
                _solve_growth(hh, s)
            assert str(got.value) == str(want.value)
        else:
            assert _solve_growth(hh, s) == _full_lookup_solve_growth(hh, s)

    def test_band_straddling_a_knot(self, monkeypatch):
        # Roots at a knot and one ulp to either side: the band holds
        # points of two pieces, which take the full lookup.
        hh = TailIntegral.from_density(two_piece_weight())
        full_eval = TailIntegral.eval
        calls = []

        def recording_eval(self, t):
            calls.append(t)
            return full_eval(self, t)

        monkeypatch.setattr(TailIntegral, "eval", recording_eval)
        knot = 100.0
        for t in (math.nextafter(knot, 0.0), knot, math.nextafter(knot, 1e3)):
            s = t / full_eval(hh, t)
            root = growth._growth_root(hh, s)
            assert abs(root - knot) <= _ROOT_BAND * knot
            calls.clear()
            got = _solve_growth(hh, s)
            assert any(abs(c - root) <= _ROOT_BAND * root for c in calls)
            assert got == _full_lookup_solve_growth(hh, s)

    def test_midpoints_outside_the_bracket(self, monkeypatch):
        # A square root biased low puts late midpoints below the bracket;
        # far from the root they take its side, near it they are
        # evaluated, and either way the side is the evaluated one.
        cases = [(hh, _levels(hh)) for hh in map(TailIntegral.from_density, (
            *_knotted_densities(3, 12), two_piece_weight(),
            log_segment_weight(), _near_log_weight(1e-5)))]
        sqrt = math.sqrt
        biased = type(sys)("biased_math")
        biased.__dict__.update(vars(math))
        biased.sqrt = lambda x: sqrt(x) * (1.0 - 1e-3)
        monkeypatch.setattr(growth, "math", biased)
        monkeypatch.setitem(_full_lookup_solve_growth.__globals__, "math",
                            biased)
        for hh, levels in cases:
            _assert_solves_bitwise(hh, levels)

    def test_frozen_steps_skip_the_lookup(self, monkeypatch):
        calls = 0
        full_eval = TailIntegral.eval

        def counting_eval(self, t):
            nonlocal calls
            calls += 1
            return full_eval(self, t)

        monkeypatch.setattr(TailIntegral, "eval", counting_eval)
        hh = TailIntegral.from_density(power_weight(2.0))
        for s in (10.0, 1e4, 1e7):
            calls = 0
            _solve_growth(hh, s)
            # At most the evaluations of a bracket search from 1 and of
            # one bisection step; sides taken from the root need none.
            assert calls <= math.log2(s) + 3

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
    def test_battery_solves_evaluate_almost_nothing(self, monkeypatch, a):
        # A search evaluating every step makes about 9 full evaluations
        # per solve on these densities.
        from osinv.verify import _power_weight

        evals = solves = 0
        full_eval, solve = TailIntegral.eval, growth._solve_growth

        def counting_eval(self, t):
            nonlocal evals
            evals += 1
            return full_eval(self, t)

        def counting_solve(hh, s):
            nonlocal solves
            solves += 1
            return solve(hh, s)

        monkeypatch.setattr(TailIntegral, "eval", counting_eval)
        monkeypatch.setattr(growth, "_solve_growth", counting_solve)
        growth_fn(_power_weight(a))
        assert solves == 514
        assert evals / solves < 0.1


def _mp_piece_root(hh: TailIntegral, s: float, k: int, t: float) -> float:
    """40-digit root of ``t = s (const + coef (t/a)^q)`` on piece `k` of
    `hh`, with the piece's float constants taken exactly: Newton's method
    in ``ln t`` from `t`."""
    knots = hh.density.knots
    with mpmath.workdps(40):
        const, coef, q = map(mpmath.mpf, hh.pieces[k][:3])
        s_mp, t = mpmath.mpf(s), mpmath.mpf(t)
        anchor = mpmath.mpf(knots[k - 1 if k else 0])
        for _ in range(50):
            term = coef * (t / anchor) ** q
            step = (mpmath.log(t / (s_mp * (const + term)))
                    / (q * term / (const + term) - 1))
            t *= mpmath.exp(step)
            if abs(step) < mpmath.mpf(10) ** -36:
                return float(t)
    raise AssertionError("mpmath Newton did not settle")


def _assert_roots_near_mpmath(hh: TailIntegral, levels) -> int:
    """Check every root ``_growth_root`` gives at `levels` against the
    40-digit root on the piece where a full-lookup bisection puts it;
    returns how many there were."""
    checked = 0
    for s in levels:
        root = growth._growth_root(hh, s)
        if root is None:
            continue
        k = bisect_right(hh.density.knots, _full_lookup_solve_growth(hh, s))
        want = _mp_piece_root(hh, s, k, root)
        assert abs(root - want) <= _ROOT_BAND / 100 * want, s
        checked += 1
    return checked


def _battery_solves(monkeypatch) -> list[tuple[TailIntegral, float]]:
    """Every ``_solve_growth`` input of the ``osinv verify`` battery."""
    from osinv import verify

    seen = []
    solve = growth._solve_growth

    def recording(hh, s):
        seen.append((hh, s))
        return solve(hh, s)

    monkeypatch.setattr(growth, "_solve_growth", recording)
    verify._check_power_law_growth()
    verify._check_tail_growth_identity()
    verify._check_weight_recovery()
    return seen


class TestGrowthRoot:
    """``_growth_root`` against 40-digit roots: the replay is bit-exact
    only if the root lies well inside ``_ROOT_BAND``."""

    def test_battery_roots(self, monkeypatch):
        solves = _battery_solves(monkeypatch)
        assert len(solves) == 2322
        assert sum(_assert_roots_near_mpmath(hh, [s])
                   for hh, s in solves) == 2322

    @pytest.mark.parametrize("m", [5, 25, 200])
    def test_canonical_densities_of_knotted_tables(self, m):
        for w in _knotted_densities(0, m):
            hh = TailIntegral.from_density(w)
            levels = _levels(hh)
            assert _assert_roots_near_mpmath(hh, levels) == len(levels)

    @settings(max_examples=40, deadline=None)
    @given(many_knot_fns("nonincreasing"),
           st.lists(st.floats(-4.0, 14.0), min_size=1, max_size=8))
    def test_random_densities(self, w, log_s):
        hh = TailIntegral.from_density(w)
        _assert_roots_near_mpmath(hh, [10.0**v for v in log_s])

    def test_newton_kept_inside_its_piece(self):
        # For roots near the interior piece's right end, 100, the first
        # Newton step from its left end, 1, lands beyond 100, where the
        # piece's expression is negative.
        hh = TailIntegral.from_density(two_piece_weight())
        levels = [t / hh.eval(t) for t in (80.0, 95.0, 99.0)]
        assert _assert_roots_near_mpmath(hh, levels) == 3

    @pytest.mark.parametrize("w", [
        log_segment_weight(), _near_log_weight(1e-5),
        _near_log_weight(-3e-7), _near_log_weight(9.5e-4),
    ], ids=["q=0", "q=1e-5", "q=-3e-7", "q=9.5e-4"])
    def test_none_on_near_log_pieces(self, w):
        hh = TailIntegral.from_density(w)
        k, = _series_pieces(hh)
        t0, t1 = hh.density.knots[k - 1], hh.density.knots[k]
        for t in np.geomspace(t0, t1, 7)[1:-1].tolist():
            assert growth._growth_root(hh, t / hh.eval(t)) is None
        # The pieces beside it have roots.
        assert growth._growth_root(hh, t0 / 2.0 / hh.eval(t0 / 2.0))
        assert growth._growth_root(hh, 2.0 * t1 / hh.eval(2.0 * t1))


class TestGrowthProfile:
    @pytest.mark.parametrize(
        "w", [power_weight(2.0), two_piece_weight(), log_segment_weight()]
    )
    def test_inverse_identity_at_sample_points(self, w):
        prof = growth_profile(w, s_grid=np.geomspace(1.0, 1e8, 129))
        for t in prof.g.values[::4]:
            lhs = evaluate(prof.h, t) * evaluate(prof.g_inv, t) / t
            assert lhs == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize(
        "w", [power_weight(2.0), two_piece_weight(), log_segment_weight()]
    )
    def test_tail_and_fixed_point_invariants(self, w):
        prof = growth_profile(w, s_grid=np.geomspace(1.0, 1e8, 65))
        for t in prof.h.knots[:: len(prof.h.knots) // 40 + 1]:
            assert evaluate(prof.h, t) == pytest.approx(
                integral(w, t, math.inf), rel=1e-6
            )
        for s in prof.g.knots[::8]:
            gs = evaluate(prof.g, s)
            assert gs == pytest.approx(s * evaluate(prof.h, gs), rel=1e-6)


class TestRecoverWeight:
    def test_sqrt_growth(self):
        g = make_piecewise([1.0], [1.0], right_exponent=0.5)
        w = recover_weight(g)
        assert w.direction == "nonincreasing"
        assert evaluate(w, 0.3) == 1.0
        for t in (1.0, 5.0, 100.0):
            assert evaluate(w, t) == pytest.approx(t ** -2.0, rel=1e-12)

    def test_roundtrip_bounded_ratio(self):
        g0 = make_piecewise([1.0], [1.0], right_exponent=0.3)
        w = recover_weight(g0)
        g1 = growth_fn(w, s_grid=np.geomspace(1.0, 1e7, 129))
        for s in np.geomspace(10.0, 1e6, 30):
            ratio = evaluate(g1, float(s)) / evaluate(g0, float(s))
            assert 0.25 <= ratio <= 4.0

    def test_linear_growth_not_regular(self):
        g = make_piecewise([1.0], [1.0], right_exponent=1.0)
        with pytest.raises(NotRegular):
            recover_weight(g)

    def test_clamp_region(self):
        # Clamped reciprocal inverse is 1 up to f(1), then decays.
        f = make_piecewise([1.0, 4.0], [1.0, 2.0], right_exponent=0.5)
        w = clamped_reciprocal_inverse(f)
        assert evaluate(w, 1.0) == 1.0
        assert evaluate(w, 2.0) == pytest.approx(0.25, rel=1e-12)  # f(4)=2
        assert evaluate(w, 0.1) == 1.0


class TestRegularityReport:
    def test_sqrt_passes(self):
        rep = regularity_report(make_piecewise([1.0], [1.0], right_exponent=0.5))
        assert rep.alpha == rep.beta == pytest.approx(0.5)
        assert rep.passed

    def test_linear_fails(self):
        rep = regularity_report(make_piecewise([1.0], [1.0], right_exponent=1.0))
        assert rep.beta == pytest.approx(1.0)
        assert not rep.passed

    def test_conjugate_power_passes(self):
        rep = regularity_report(
            make_piecewise([1.0], [1.0], right_exponent=2.0 / 3.0)
        )
        assert rep.alpha == pytest.approx(2.0 / 3.0)
        assert rep.passed

    def test_multi_segment_envelope(self):
        f = make_piecewise([1.0, 100.0], [1.0, 10.0], right_exponent=0.9)
        rep = regularity_report(f)
        assert rep.alpha == pytest.approx(0.5)
        assert rep.beta == pytest.approx(0.9)
        assert rep.passed

    def test_constant_head_fails(self):
        f = make_piecewise([10.0], [5.0], right_exponent=0.5)
        rep = regularity_report(f)
        assert rep.alpha == 0.0
        assert not rep.passed

    def test_custom_window(self):
        f = make_piecewise([1.0], [1.0], right_exponent=0.5)
        assert not regularity_report(f, (0.6, 0.9)).passed

    def test_direction_error(self):
        with pytest.raises(DirectionError):
            regularity_report(power_weight(2.0))


class TestRegularityChain:
    """Power bounds on w propagate to h and g with matching exponents."""

    @pytest.mark.parametrize(
        "a,beta_hi",
        [
            # a = 1.5: the root stays on the power branch over the whole
            # window, so alpha = beta = 2/3 sharp.  a = 3: near s = 1 the
            # root sits below the density's first knot where the local
            # slope rises to 1/2, still inside the window.
            (1.5, 2.0 / 3.0 + 1e-9),
            (3.0, 0.51),
        ],
    )
    def test_pure_powers(self, a, beta_hi):
        w = power_weight(a)
        h = tail_fn(w)
        assert h.right_exponent == pytest.approx(1.0 - a)
        g = growth_fn(w, s_grid=np.geomspace(1.0, 1e6, 65))
        rep = regularity_report(g)
        assert rep.alpha == pytest.approx(1.0 / a, abs=1e-6)
        assert rep.beta <= beta_hi
        assert g.right_exponent == pytest.approx(1.0 / a, abs=1e-9)
        assert rep.passed

    def test_log_perturbed_power(self):
        s = np.geomspace(1.0, 1e6, 200)
        vals = s ** -2.0 * (1.0 + np.log(s))
        tail_slope = -2.0 + 1.0 / (1.0 + math.log(1e6))
        w = make_piecewise(
            [float(x) for x in s],
            [float(v) for v in vals],
            right_exponent=tail_slope,
            direction="nonincreasing",
        )
        g = growth_fn(w, s_grid=np.geomspace(1.0, 1e6, 65))
        rep = regularity_report(g)
        # g(s) ~ sqrt(s log s): local slope 1/2 + 1/(2 ln s), dropping
        # toward 1/2 from above across the window.
        assert 0.5 <= rep.alpha <= rep.beta <= 0.7
        assert rep.passed
