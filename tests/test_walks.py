"""Walks over ascending inputs give what per-point searches gave.

``compose`` visits its sorted abscissas in order and finds each one's
piece of the inner and of the outer function by stepping from the last,
and clamps its values with a running max or min;
``MonotoneFn.segment_exponents`` computes its chord exponents in one
pass, and ``MonotoneFn`` checks its table in such passes too;
``_segment_integral`` skips its logs past a gate where its series cannot
apply.  Each is compared here, with ``repr`` (so on every bit, and on
exception type and message), against a copy of the code it replaced:
an ``evaluate`` of each factor per composed value and a clamping loop,
one Python-level loop per chord exponent and per check, and the logs
taken on every call.

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

from osinv.errors import (
    BadKnots,
    BadParameter,
    DomainError,
    NonMonotone,
    OsinvError,
    Unbounded,
)
from osinv.growth import clamped_reciprocal_inverse, regularity_report
from osinv.monotone_fn import (
    MonotoneFn,
    _log_ratio,
    _merge_close,
    _ratio_pow,
    _segment_integral,
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


def _ref_validate(knots, values, right_exponent, direction) -> None:
    """``MonotoneFn.__post_init__``'s checks, one element at a time."""
    if direction not in ("nondecreasing", "nonincreasing"):
        raise BadParameter(f"unknown direction {direction!r}")
    if len(knots) == 0:
        raise BadKnots("need at least one knot")
    if len(knots) != len(values):
        raise BadKnots(f"{len(knots)} knots but {len(values)} values")
    prev = 0.0
    for t in knots:
        if not (math.isfinite(t) and t > prev):
            raise BadKnots(
                "knots must be finite, positive, strictly increasing; "
                f"got {knots}"
            )
        prev = t
    for v in values:
        if not (math.isfinite(v) and v > 0.0):
            raise NonMonotone(f"values must be finite and positive; got {v}")
    sign = 1.0 if direction == "nondecreasing" else -1.0
    for lo, hi in zip(values, values[1:]):
        if sign * (hi - lo) < 0.0:
            raise NonMonotone(f"values {values} are not {direction}")
    if not math.isfinite(right_exponent):
        raise BadParameter(f"right exponent must be finite, got {right_exponent}")
    if sign * right_exponent < 0.0:
        raise NonMonotone(
            f"right exponent {right_exponent} fights {direction}"
        )


def _ref_segment_integral(v0, t0, e, x, y) -> float:
    """``_segment_integral`` taking both logs on every finite range."""
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


def _ref_merge_close(sorted_pts) -> list[float]:
    out: list[float] = []
    for t in sorted_pts:
        if not out or t > out[-1] * (1.0 + 1e-13):
            out.append(t)
    return out


def _ref_window_exponents(f: MonotoneFn) -> tuple[float, float]:
    """``regularity_report``'s (alpha, beta), one segment at a time."""
    slopes = [0.0] if f.knots[0] > 1.0 else []
    for i, e in enumerate(f.segment_exponents):
        if f.knots[i + 1] > 1.0 and f.knots[i] < 1e6:
            slopes.append(e)
    if f.knots[-1] < 1e6:
        slopes.append(f.right_exponent)
    return min(slopes), max(slopes)


def _ref_clamped_reciprocal_inverse(f: MonotoneFn) -> MonotoneFn:
    """``reciprocal(inverse_fn(f))`` clamped, one knot at a time."""
    t0 = evaluate(f, 1.0)
    for lo, hi in zip(f.values, f.values[1:]):
        if hi <= lo:
            raise NonMonotone("inverse_fn needs strictly increasing values")
    knots, values = [t0], [1.0]
    for t, s in zip(f.values, f.knots):
        if t > t0 * (1.0 + 1e-12) and 1.0 / s <= 1.0:
            knots.append(t)
            values.append(1.0 / s)
    return MonotoneFn(tuple(knots), tuple(values), -(1.0 / f.right_exponent),
                      "nonincreasing")


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

    @pytest.mark.parametrize("dip", [1e-12, 1e-6])
    def test_a_dip_is_clamped_up_to_1e_9(self, dip) -> None:
        # g's piece on [2, 4] reads 4 (1 + dip) at 3, the preimage of f's
        # knot, then 4 at its knot 4: the composed values dip there.
        e = math.log(2.0 * (1.0 + dip)) / math.log(1.5)
        g = _dipping(MonotoneFn((1.0, 2.0, 4.0), (1.0, 2.0, 4.0), 1.0,
                                "nondecreasing"), (1.0, e, 1.0))
        f = MonotoneFn((3.0,), (3.0,), 1.0, "nondecreasing")
        assert _outcome(compose, f, g) == _outcome(_ref_compose, f, g)
        if dip < 1e-9:
            got = compose(f, g)
            assert got.knots == (1.0, 2.0, 3.0, 4.0)
            assert got.values[3] == got.values[2] > 4.0
        else:
            with pytest.raises(NonMonotone, match="genuinely non-monotone"):
                compose(f, g)

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


#: Entries that each check of a table must catch, and neighbours of them.
_HOSTILE = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1.0,
            2.0, 3.0, 1.7e308]


@st.composite
def _raw_tables(draw):
    """Knots and values drawn from :data:`_HOSTILE` and any floats, some
    sorted either way, so that equal, reversed and valid runs occur."""
    entries = st.lists(st.one_of(st.sampled_from(_HOSTILE), st.floats()),
                       min_size=draw(st.sampled_from([0, 1, 1, 2, 3])),
                       max_size=4)
    knots, values = draw(entries), draw(entries)
    if draw(st.booleans()):
        knots = sorted(knots, key=lambda t: (math.isnan(t), t))
    order = draw(st.sampled_from([None, False, True]))
    if order is not None:
        values = sorted(values, key=lambda v: (math.isnan(v), v),
                        reverse=order)
    if draw(st.booleans()):
        values = (values + knots)[:len(knots)]
    return tuple(knots), tuple(values)


class TestTableChecks:
    @given(_raw_tables(), st.sampled_from([0.5, -0.5, 0.0, -0.0, math.nan,
                                           math.inf, -math.inf]),
           st.sampled_from(["nondecreasing", "nonincreasing", "sideways"]))
    @settings(deadline=None, max_examples=300)
    def test_errors_match_the_loop(self, table, e_inf, direction) -> None:
        knots, values = table
        assert _outcome(lambda: MonotoneFn(knots, values, e_inf, direction)
                        and None) == _outcome(_ref_validate, knots, values,
                                              e_inf, direction)

    @pytest.mark.parametrize("knots, values, direction", [
        ((1.0,), (2.0,), "nonincreasing"),
        ((1.0, 1.0), (1.0, 2.0), "nondecreasing"),
        ((2.0, 1.0), (1.0, 2.0), "nondecreasing"),
        ((-0.0, 1.0), (1.0, 2.0), "nondecreasing"),
        ((1.0, math.nan), (1.0, 2.0), "nondecreasing"),
        ((1.0, 2.0), (2.0, 2.0), "nonincreasing"),
        ((1.0, 2.0, 3.0), (1.0, 3.0, 2.0), "nondecreasing"),
        ((1.0, 2.0, 3.0), (3.0, 1.0, 2.0), "nonincreasing"),
        ((1.0, 2.0, 3.0), (1.0, -0.0, 2.0), "nondecreasing"),
        ((1.0, 2.0, 3.0), (1.0, math.inf, math.nan), "nondecreasing"),
        ((1.0, 2.0, 3.0), (3.0, 2.0, -1.0), "nonincreasing"),
    ])
    def test_named_cases(self, knots, values, direction) -> None:
        for e_inf in (0.5, -0.5, math.nan):
            assert _outcome(lambda: MonotoneFn(knots, values, e_inf,
                                               direction) and None) == (
                _outcome(_ref_validate, knots, values, e_inf, direction))

    @given(st.lists(st.one_of(st.floats(0.0, 1e300),
                              st.sampled_from([5e-324, 1.0, 1.0 + 1e-13,
                                               1.0 + 2e-13])),
                    max_size=6))
    @settings(deadline=None, max_examples=300)
    def test_merge_matches_the_loop(self, pts) -> None:
        pts = sorted(pts)
        assert _merge_close(list(pts)) == _ref_merge_close(pts)


@st.composite
def _segments(draw):
    """``(v0, t0, e, x, y)`` with ``p = e + 1`` near the series cut
    ``|p| max |ln(./t0)| = 1e-3`` or near the gate ``|p| (y-x)/y = 4e-3``,
    on ranges from one ulp wide to many decades, down to subnormals."""
    t0 = draw(st.one_of(st.floats(1e-300, 1e300),
                        st.sampled_from([1.0, 5e-324, 1e-320, 2.2e-308])))
    x = t0 * math.exp(draw(st.floats(-3.0, 3.0)))
    if x == 0.0 or not math.isfinite(x):
        x = t0
    width = draw(st.sampled_from(["ulps", "close", "wide"]))
    if width == "ulps":
        y = x
        for _ in range(draw(st.integers(1, 4))):
            y = math.nextafter(y, math.inf)
    else:
        rel = draw(st.floats(1e-15, 1e-6) if width == "close"
                   else st.floats(1e-6, 1e3))
        y = x * (1.0 + rel)
    if not (math.isfinite(y) and y > x):
        y = math.nextafter(x, math.inf)
    scale = draw(st.one_of(st.floats(0.25, 4.0), st.sampled_from(
        [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)])))
    near = draw(st.sampled_from(["series", "gate", "zero"]))
    if near == "zero":
        p = 0.0
    elif near == "series":
        p = scale * 1e-3 / max(abs(_log_ratio(y, t0)), abs(_log_ratio(x, t0)),
                               1e-300)
    else:
        p = scale * 4e-3 * y / (y - x)
    p = -p if draw(st.booleans()) else p
    v0 = draw(st.sampled_from([1.0, 3.7e-5, 2.5e8]))
    return v0, t0, p - 1.0, x, y


class TestSegmentIntegralGate:
    @given(_segments())
    @settings(deadline=None, max_examples=600)
    def test_matches_the_logs_on_every_call(self, args) -> None:
        assert _outcome(_segment_integral, *args) == (
            _outcome(_ref_segment_integral, *args))

    @pytest.mark.parametrize("x, y", [(1e-322, 2e-322), (5e-324, 1e-323),
                                      (1e-300, 1e-299)])
    def test_p_zero_on_subnormal_ranges(self, x, y) -> None:
        # 4e-3 * y underflows to 0 here: a gate on it would skip the
        # series at p = 0 and divide by zero.
        assert _segment_integral(2.0, 1.0, -1.0, x, y) == (
            _ref_segment_integral(2.0, 1.0, -1.0, x, y))


@st.composite
def _increasing_fns(draw) -> MonotoneFn:
    """Strictly increasing tables with knots on and one ulp around 1 and
    1e6, the edges of the regularity window and of the weight's clamp."""
    edges = [1.0, 1e6]
    pool = edges + [math.nextafter(t, d) for t in edges for d in (0.0, 2e6)]
    knots = sorted(set(draw(st.lists(
        st.one_of(st.sampled_from(pool), st.floats(1e-3, 1e8)),
        min_size=1, max_size=8))))
    values = [draw(st.floats(1e-3, 1e3))]
    for t0, t1 in zip(knots, knots[1:]):
        e = draw(st.sampled_from([0.3, 0.5, 1.0, 2.5]))
        values.append(values[-1] * (t1 / t0) ** e)
    e_inf = draw(st.sampled_from([0.2, 0.7, 1.5]))
    return MonotoneFn(tuple(knots), tuple(values), e_inf, "nondecreasing")


class TestWindowAndClampPasses:
    """The regularity window and the clamp of ``min(1, 1/f^{-1})`` are
    contiguous runs of a table's pieces, taken as slices."""

    @given(_increasing_fns())
    @settings(deadline=None, max_examples=300)
    def test_regularity_matches_the_loop(self, f) -> None:
        report = regularity_report(f)
        assert (report.alpha, report.beta) == _ref_window_exponents(f)

    @given(_increasing_fns())
    @settings(deadline=None, max_examples=300)
    def test_clamped_reciprocal_inverse_matches_the_loop(self, f) -> None:
        assert _outcome(clamped_reciprocal_inverse, f) == (
            _outcome(_ref_clamped_reciprocal_inverse, f))
