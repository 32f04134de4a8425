"""Every piecewise-power evaluation reads one piece lookup.

``evaluate``, ``integral``, ``OrliczFn.eval``, ``OrliczFn.inverse`` and
the tests' ``exactness_display`` all find their power piece through
``monotone_fn._local_power``, and ``generalized_inverse`` and
``crossing_below`` solve on the piece their bisection lands on.  Each is
compared here, with ``==``, against the separate formula it replaced:
the hand-written power head below the first knot of the Orlicz and
display readings, the ``(lo, hi)`` piece list of the integral, and the
flat-run walks of the two inverses.  Probe points sit on every knot, one
ulp to either side, below the first knot and beyond the last.

The doubling constant of ``make_orlicz`` is now one array evaluation
instead of a loop of scalar ones; numpy's array ``power`` may differ from
Python's ``**`` in the last bit, so it is held to the loop within a few
ulps.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from osinv.errors import Unbounded
from osinv.monotone_fn import (
    MonotoneFn,
    _segment_integral,
    _solve_on_segment,
    crossing_below,
    evaluate,
    generalized_inverse,
    integral,
    make_piecewise,
)
from osinv.orlicz import make_orlicz
from osinv.spaces import SpaceDescriptor

from displays import exactness_display


# --- the formulas the piece lookup replaced --------------------------------

def _ref_evaluate(f: MonotoneFn, t: float) -> float:
    knots = f.knots
    if t <= knots[0]:
        return f.values[0]
    i = bisect_right(knots, t) - 1
    if i == len(knots) - 1:
        e = f.right_exponent
    else:
        e = f.segment_exponents[i]
    return f.values[i] * (t / knots[i]) ** e


def _ref_left_exponent(f: MonotoneFn) -> float:
    if len(f.knots) >= 2:
        return f.segment_exponents[0]
    return f.right_exponent


def _ref_power_eval(f: MonotoneFn, x: float) -> float:
    """The table, extended below its first knot as a pure power."""
    t0 = f.knots[0]
    if x >= t0:
        return _ref_evaluate(f, x)
    return f.values[0] * (x / t0) ** _ref_left_exponent(f)


def _ref_generalized_inverse(f: MonotoneFn, y: float) -> float:
    vals = f.values
    j = bisect_right(vals, y) - 1
    if j < 0:
        return 0.0
    if j == len(vals) - 1:
        e = f.right_exponent
        if e == 0.0:
            raise Unbounded("flat tail")
        return _solve_on_segment(f.knots[j], vals[j], e, y)
    if vals[j + 1] == vals[j]:
        k = j
        while k + 1 < len(vals) and vals[k + 1] == vals[k]:
            k += 1
        if k == len(vals) - 1 and f.right_exponent == 0.0:
            raise Unbounded("flat tail")
        return f.knots[k]
    return _solve_on_segment(f.knots[j], vals[j], f.segment_exponents[j], y)


def _ref_crossing_below(f: MonotoneFn, y: float) -> float:
    vals = f.values
    if y > vals[0]:
        return 0.0
    j = bisect_right([-v for v in vals], -y) - 1
    if j == len(vals) - 1:
        if f.right_exponent == 0.0:
            raise Unbounded("flat tail")
        return _solve_on_segment(f.knots[j], vals[j], f.right_exponent, y)
    if vals[j + 1] == vals[j]:
        return f.knots[j]
    return _solve_on_segment(f.knots[j], vals[j], f.segment_exponents[j], y)


def _ref_integral(f: MonotoneFn, a: float, b: float) -> float:
    pieces = [(0.0, f.knots[0], f.values[0], f.knots[0], 0.0)]
    for i, e in enumerate(f.segment_exponents):
        pieces.append((f.knots[i], f.knots[i + 1], f.values[i], f.knots[i], e))
    pieces.append(
        (f.knots[-1], math.inf, f.values[-1], f.knots[-1], f.right_exponent)
    )
    total = 0.0
    for lo, hi, v0, t0, e in pieces:
        x = max(a, lo)
        y = min(b, hi)
        if x < y:
            total += _segment_integral(v0, t0, e, x, y)
    return total


def _ref_orlicz_eval(body: MonotoneFn, t: float) -> float:
    return 0.0 if t == 0.0 else _ref_power_eval(body, t)


def _ref_orlicz_inverse(body: MonotoneFn, y: float) -> float:
    if y == 0.0:
        return 0.0
    v1 = body.values[0]
    if y >= v1:
        return _ref_generalized_inverse(body, y)
    return body.knots[0] * (y / v1) ** (1.0 / _ref_left_exponent(body))


def _ref_sup_doubling_ratio(body: MonotoneFn) -> float:
    pts = sorted({k for k in body.knots} | {k / 2.0 for k in body.knots})
    pts = [pts[0] / 4.0] + pts + [pts[-1] * 4.0]
    return max(
        _ref_orlicz_eval(body, 2.0 * t) / _ref_orlicz_eval(body, t)
        for t in pts
    )


def _ref_exactness_display(desc: SpaceDescriptor, n: int) -> float:
    a = _ref_evaluate(desc.phi_c, float(n))
    b = _ref_evaluate(desc.phi_r, float(n))
    term_plus = n / a * _ref_power_eval(desc.phi_r, a / b)
    term_minus = n / b * _ref_power_eval(desc.phi_c, b / a)
    return math.sqrt(term_plus + term_minus)


# --- random tables and probe points ----------------------------------------

@st.composite
def tables(
    draw,
    exponents: st.SearchStrategy[float],
    direction: str = "nondecreasing",
    max_knots: int = 30,
) -> MonotoneFn:
    """Tables of 1 to `max_knots` knots whose segment and right exponents
    are drawn from `exponents`."""
    m = draw(st.integers(min_value=1, max_value=max_knots))
    knots = [math.exp(draw(st.floats(-6.0, 4.0)))]
    values = [math.exp(draw(st.floats(-5.0, 5.0)))]
    for _ in range(m - 1):
        knots.append(knots[-1] * math.exp(draw(st.floats(0.01, 2.0))))
        values.append(values[-1] * (knots[-1] / knots[-2]) ** draw(exponents))
    return make_piecewise(knots, values, right_exponent=draw(exponents),
                          direction=direction)


def _probe_points(knots, extra=()) -> list[float]:
    pts = [knots[0] / 3.0, knots[0] * 1e-9, knots[-1] * 7.0, knots[-1] * 1e6]
    for t in knots:
        pts += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    return pts + [float(x) for x in extra]


_EXTRA = st.lists(st.floats(1e-8, 1e8), max_size=10)

#: Orlicz-admissible exponents, often exact integers.
_ORLICZ_EXPONENTS = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0]), st.floats(1.0, 4.0)
)
#: Nondecreasing exponents with flat runs.
_FLAT_OR_RISING = st.one_of(st.just(0.0), st.floats(0.0, 2.5))
#: Fundamental-function exponents: phi(n)/n nonincreasing.
_FUNDAMENTAL_EXPONENTS = st.one_of(
    st.sampled_from([0.5, 1.0]), st.floats(0.05, 1.0)
)


@st.composite
def fundamental_fns(draw) -> MonotoneFn:
    """Normalised fundamental functions: value 1 at the knot 1, which
    has 0 to 4 knots below it and 0 to 8 above."""
    knots, values = [1.0], [1.0]
    for _ in range(draw(st.integers(0, 4))):
        knots.insert(0, knots[0] / math.exp(draw(st.floats(0.05, 3.0))))
        values.insert(
            0, values[0] * (knots[0] / knots[1]) ** draw(_FUNDAMENTAL_EXPONENTS)
        )
    for _ in range(draw(st.integers(0, 8))):
        knots.append(knots[-1] * math.exp(draw(st.floats(0.05, 3.0))))
        values.append(
            values[-1] * (knots[-1] / knots[-2]) ** draw(_FUNDAMENTAL_EXPONENTS)
        )
    return make_piecewise(knots, values,
                          right_exponent=draw(_FUNDAMENTAL_EXPONENTS))


# --- the comparisons ---------------------------------------------------------

class TestMatchesReplacedFormulas:
    @given(tables(_FLAT_OR_RISING), _EXTRA)
    @settings(deadline=None, max_examples=150)
    def test_evaluate(self, f, extra):
        for t in _probe_points(f.knots, extra):
            assert evaluate(f, t) == _ref_evaluate(f, t)

    @given(
        st.one_of(
            tables(_FLAT_OR_RISING),
            tables(st.floats(-3.0, -1.01), direction="nonincreasing"),
        ),
        st.data(),
    )
    @settings(deadline=None, max_examples=150)
    def test_integral(self, f, data):
        pts = sorted(set(_probe_points(f.knots)))
        lows = st.sampled_from([0.0, *pts])
        ends = [*pts, math.inf] if f.right_exponent < -1.0 else pts
        for _ in range(10):
            a = data.draw(lows)
            b = data.draw(st.sampled_from(ends).filter(lambda b: b > a))
            assert integral(f, a, b) == _ref_integral(f, a, b)

    @given(tables(_ORLICZ_EXPONENTS), _EXTRA)
    @settings(deadline=None, max_examples=150)
    def test_orlicz_eval_and_inverse(self, body, extra):
        phi = make_orlicz(body)
        pts = [0.0, *_probe_points(body.knots, extra)]
        for t in pts:
            assert phi.eval(t) == _ref_orlicz_eval(body, t)
        levels = [0.0, *_probe_points(body.values, extra)]
        levels += [_ref_orlicz_eval(body, t) for t in pts]
        for y in levels:
            assert phi.inverse(y) == _ref_orlicz_inverse(body, y)

    @given(tables(_ORLICZ_EXPONENTS))
    @settings(deadline=None, max_examples=150)
    def test_doubling_constant_within_ulps_of_scalar_loop(self, body):
        # Each phi value may move by 1 ulp: 8 eps bounds the ratio's max.
        want = _ref_sup_doubling_ratio(body)
        got = make_orlicz(body).delta2_constant
        assert abs(got - want) <= 8.0 * np.finfo(float).eps * want

    @given(fundamental_fns(), fundamental_fns(),
           st.integers(min_value=1, max_value=2**40))
    @settings(deadline=None, max_examples=150)
    def test_exactness_display(self, phi_c, phi_r, n):
        desc = SpaceDescriptor(kind="column_cap_row", phi_c=phi_c, phi_r=phi_r)
        assert exactness_display(desc, n) == _ref_exactness_display(desc, n)

    @given(
        st.one_of(
            tables(_FLAT_OR_RISING),
            tables(st.one_of(st.just(0.0), st.floats(-2.5, 0.0)),
                   direction="nonincreasing"),
        ),
        _EXTRA,
    )
    @settings(deadline=None, max_examples=150)
    def test_inverses_without_flat_run_walks(self, f, extra):
        if f.direction == "nondecreasing":
            new, ref = generalized_inverse, _ref_generalized_inverse
        else:
            new, ref = crossing_below, _ref_crossing_below
        # Every ordinate hits its flat run, if any, exactly.
        for y in _probe_points(f.values, extra):
            try:
                want = ref(f, y)
            except Unbounded:
                try:
                    new(f, y)
                except Unbounded:
                    continue
                raise AssertionError(f"level {y} should be unbounded")
            assert new(f, y) == want
