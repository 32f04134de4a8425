"""Walks over ascending inputs give what per-point searches gave.

``compose`` visits its sorted abscissas in order and finds each one's
piece of the inner and of the outer function by stepping from the last;
``MonotoneFn.segment_exponents`` computes its chord exponents in one
pass.  Each is compared here, with ``repr`` (so on every bit, and on
exception type and message), against a copy of the code it replaced:
an ``evaluate`` of each factor per composed value, one Python-level
loop per chord exponent.

The tables have flat runs and bounded (``e_inf = 0``) inner functions;
the outer knots sit on the inner ordinates, one ulp to either side and
below the range; a tail exponent of 1e-300 makes ``_solve_on_segment``
overflow.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osinv.errors import DomainError, NonMonotone, OsinvError, Unbounded
from osinv.monotone_fn import (
    MonotoneFn,
    _merge_close,
    compose,
    evaluate,
    generalized_inverse,
)

# --- the per-point code the walks replaced ----------------------------------


def _ref_preimages(g: MonotoneFn, levels) -> list[float]:
    out = []
    for y in levels:
        try:
            pre = generalized_inverse(g, y)
        except Unbounded:
            continue
        if pre > 0.0:
            out.append(pre)
    return out


def _ref_compose(f: MonotoneFn, g: MonotoneFn) -> MonotoneFn:
    pts = _merge_close(sorted(list(g.knots) + _ref_preimages(g, f.knots)))
    raw = [evaluate(f, evaluate(g, t)) for t in pts]
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
    right = 0.0 if g.right_exponent == 0.0 else (
        f.right_exponent * g.right_exponent)
    return MonotoneFn(tuple(pts), tuple(vals), right, f.direction)


def _ref_segment_exponents(f: MonotoneFn) -> tuple[float, ...]:
    out = []
    for (t0, t1), (v0, v1) in zip(
        zip(f.knots, f.knots[1:]), zip(f.values, f.values[1:])
    ):
        out.append(math.log(v1 / v0) / math.log(t1 / t0))
    return tuple(out)


def _outcome(fn, *args) -> str:
    """``repr`` of the result, or of the exception's type and message:
    equal floats have equal reprs, and so do NaNs, unlike under ``==``."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, OsinvError) as exc:
        return repr((type(exc), str(exc)))


# --- tables ----------------------------------------------------------------


@st.composite
def inner_fns(draw) -> MonotoneFn:
    """Nondecreasing tables with flat runs; the tail may be flat, or so
    nearly flat that inverting it overflows."""
    m = draw(st.integers(1, 12))
    knots = [draw(st.floats(0.05, 5.0))]
    for _ in range(m - 1):
        knots.append(knots[-1] * (1.0 + draw(st.floats(0.01, 2.0))))
    values = [draw(st.floats(0.05, 5.0))]
    for t0, t1 in zip(knots, knots[1:]):
        e = draw(st.sampled_from([0.0, 0.0, 0.3, 0.5, 1.0, 2.5]))
        values.append(values[-1] * (t1 / t0) ** e)
    e_inf = draw(st.sampled_from([0.0, 1e-300, 0.4, 1.0, 3.0]))
    return MonotoneFn(tuple(knots), tuple(values), e_inf, "nondecreasing")


def _levels(draw, g: MonotoneFn, count: int) -> list[float]:
    """Ascending distinct levels: `g`'s ordinates, one ulp either side of
    them, values below its range and beyond its last ordinate."""
    near = []
    for v in g.values:
        near += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    pool = near + [g.values[0] * 0.5, g.values[-1] * 3.0]
    picked = draw(st.lists(st.sampled_from(pool), min_size=1,
                           max_size=count))
    picked += draw(st.lists(st.floats(0.01, 500.0), max_size=3))
    return sorted(set(picked))


@st.composite
def outer_fns(draw, g: MonotoneFn) -> MonotoneFn:
    knots = _levels(draw, g, 10)
    direction = draw(st.sampled_from(["nondecreasing", "nonincreasing"]))
    sign = 1.0 if direction == "nondecreasing" else -1.0
    values = [draw(st.floats(0.1, 10.0))]
    for t0, t1 in zip(knots, knots[1:]):
        e = sign * draw(st.sampled_from([0.0, 0.5, 1.5]))
        values.append(values[-1] * (t1 / t0) ** e)
    e_inf = sign * draw(st.sampled_from([0.0, 0.7, 2.0]))
    return MonotoneFn(tuple(knots), tuple(values), e_inf, direction)


# --- the tests -------------------------------------------------------------


class TestComposeWalk:
    @given(st.data())
    @settings(deadline=None, max_examples=300)
    def test_matches_per_point_code(self, data) -> None:
        g = data.draw(inner_fns())
        f = data.draw(outer_fns(g))
        assert _outcome(compose, f, g) == _outcome(_ref_compose, f, g)

    def test_levels_on_a_flat_run_and_its_ulps(self) -> None:
        # g is flat at 2 on [2, 4]: the level 2 resolves to the run's
        # right edge, the ulp below it to a point on the rising segment.
        g = MonotoneFn((1.0, 2.0, 4.0, 8.0), (1.0, 2.0, 2.0, 4.0), 0.0,
                       "nondecreasing")
        levels = (0.5, math.nextafter(2.0, 0.0), 2.0,
                  math.nextafter(2.0, 3.0), 4.0, 9.0)
        f = MonotoneFn(levels, tuple(range(1, 7)), 1.0, "nondecreasing")
        assert repr(compose(f, g)) == repr(_ref_compose(f, g))

    def test_overflowing_solve_is_skipped(self) -> None:
        g = MonotoneFn((1.0, 2.0), (1.0, 2.0), 1e-300, "nondecreasing")
        f = MonotoneFn((1.5, 2.0, 3.0), (1.0, 2.0, 3.0), 1.0, "nondecreasing")
        with pytest.raises(Unbounded):
            generalized_inverse(g, 3.0)
        assert repr(compose(f, g)) == repr(_ref_compose(f, g))
        assert compose(f, g).knots == (1.0, 1.5, 2.0)


def _dipping(f: MonotoneFn, exponents) -> MonotoneFn:
    """`f` with its piece exponents replaced, so that its values dip.
    Computed values of a monotone table ascend only up to rounding (a
    pow that is not monotone would make them dip); a walk must then step
    back, as a bisection per point would."""
    f.__dict__["exponents"] = tuple(exponents)  # as cached_property does
    return f


class TestComposeEdges:
    def test_outer_piece_steps_back(self) -> None:
        # g reads 6 at t = 6, then 4.8 at t = 7.5 (the preimage of f's
        # knot 7.5 under g's table): f's piece steps back over its knot
        # at 6 to the flat run, where the value stays 5.  Kept on the
        # rising piece from 6, the value would read 4 and the clamp
        # would reject the table.
        g = _dipping(MonotoneFn((1.0, 6.0, 9.0, 12.0), (1.0, 6.0, 9.0, 12.0),
                                1.0, "nondecreasing"), (1.0, -1.0, 1.0, 1.0))
        f = MonotoneFn((3.0, 6.0, 7.5), (5.0, 5.0, 6.25), 1.0,
                       "nondecreasing")
        got = compose(f, g)
        assert repr(got) == repr(_ref_compose(f, g))
        assert got.knots == (1.0, 3.0, 6.0, 7.5, 9.0, 12.0)
        assert got.values[2:4] == (5.0, 5.0)

    def test_inner_value_beyond_float_range(self) -> None:
        # The preimage of 1e301 is 20, on g's tail, where its piece reads
        # 1e300 (t/2)^30 = inf: evaluate(f, inf) raised, and so does the
        # walk.
        g = _dipping(MonotoneFn((1.0, 2.0), (1.0, 1e300), 1.0,
                                "nondecreasing"), (1.0, 30.0))
        f = MonotoneFn((1e301,), (1.0,), 1.0, "nondecreasing")
        with pytest.raises(DomainError, match="got inf"):
            compose(f, g)
        assert _outcome(compose, f, g) == _outcome(_ref_compose, f, g)


#: Entries whose ratios underflow or overflow.
_EXTREMES = [5e-324, 1e-310, 1e308, 1.7e308]


class TestSegmentExponents:
    @given(st.lists(st.one_of(st.floats(1e-300, 1e300),
                              st.sampled_from(_EXTREMES)),
                    min_size=1, max_size=8, unique=True),
           st.lists(st.one_of(st.floats(1e-300, 1e300),
                              st.sampled_from(_EXTREMES)),
                    min_size=8, max_size=8),
           st.sampled_from(["nondecreasing", "nonincreasing"]))
    @settings(deadline=None, max_examples=300)
    def test_matches_the_loop(self, knots, values, direction) -> None:
        knots = tuple(sorted(knots))
        values = tuple(sorted(values[:len(knots)],
                              reverse=direction == "nonincreasing"))
        f = MonotoneFn(knots, values, 0.0, direction)
        got = _outcome(lambda: f.segment_exponents)
        assert got == _outcome(_ref_segment_exponents, f)
