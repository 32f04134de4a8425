"""Tests for exact piecewise power-law monotone functions."""

from __future__ import annotations

import hashlib
import math
import random
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osinv.errors import (
    BadKnots,
    BadParameter,
    DirectionError,
    DivergentTail,
    DomainError,
    NonMonotone,
    NonPositive,
    OsinvError,
    TooFewPoints,
    Unbounded,
)
from osinv.monotone_fn import (
    MonotoneFn,
    _LogLogDesign,
    _crossings_below,
    _local_power,
    _solve_on_segment,
    compose,
    crossing_below,
    evaluate,
    evaluate_many,
    fit_loglog_slope,
    generalized_inverse,
    integral,
    inverse_fn,
    make_piecewise,
    reciprocal,
)


def power_fn(exponent: float, anchor: float = 1.0, value: float = 1.0) -> MonotoneFn:
    """Single-knot power law: constant below `anchor`, power beyond."""
    direction = "nondecreasing" if exponent >= 0 else "nonincreasing"
    return make_piecewise(
        [anchor], [value], right_exponent=exponent, direction=direction
    )


@st.composite
def monotone_fns(
    draw, direction: str | None = None, max_knots: int = 6
) -> MonotoneFn:
    """Random well-conditioned piecewise power tables."""
    if direction is None:
        direction = draw(st.sampled_from(["nondecreasing", "nonincreasing"]))
    sign = 1.0 if direction == "nondecreasing" else -1.0
    m = draw(st.integers(min_value=1, max_value=max_knots))
    start = draw(st.floats(min_value=-2.0, max_value=2.0))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=1.5), min_size=m - 1, max_size=m - 1
        )
    )
    log_knots = [start]
    for gap in gaps:
        log_knots.append(log_knots[-1] + gap)
    knots = [math.exp(u) for u in log_knots]
    v0 = draw(st.floats(min_value=0.1, max_value=10.0))
    exponent = st.one_of(
        st.just(0.0), st.floats(min_value=0.05, max_value=2.5)
    )
    exps = draw(st.lists(exponent, min_size=m - 1, max_size=m - 1))
    values = [v0]
    for (t0, t1), e in zip(zip(knots, knots[1:]), exps):
        values.append(values[-1] * (t1 / t0) ** (sign * e))
    e_inf = sign * draw(exponent)
    return make_piecewise(
        knots, values, right_exponent=e_inf, direction=direction
    )


class TestConstruction:
    def test_single_knot_sqrt(self):
        f = power_fn(0.5)
        assert evaluate(f, 16.0) == pytest.approx(4.0, rel=1e-15)
        assert evaluate(f, 0.5) == 1.0  # constant extension below the knot

    def test_segment_exponent_from_chord(self):
        f = make_piecewise([1.0, 2.0], [1.0, 4.0], right_exponent=1.0)
        assert f.segment_exponents == pytest.approx((2.0,))

    def test_values_against_direction(self):
        with pytest.raises(NonMonotone):
            make_piecewise([1.0, 2.0], [2.0, 1.0], direction="nondecreasing")

    def test_tail_sign_against_direction(self):
        with pytest.raises(NonMonotone):
            make_piecewise([1.0], [1.0], right_exponent=-1.0,
                           direction="nondecreasing")

    @pytest.mark.parametrize(
        "knots", [[2.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-1.0], []]
    )
    def test_bad_knots(self, knots):
        with pytest.raises(BadKnots):
            make_piecewise(knots, [1.0] * len(knots))

    def test_length_mismatch(self):
        with pytest.raises(BadKnots):
            make_piecewise([1.0, 2.0], [1.0])

    def test_nonpositive_value(self):
        with pytest.raises(NonMonotone):
            make_piecewise([1.0, 2.0], [0.0, 1.0])

    def test_unknown_direction(self):
        with pytest.raises(BadParameter):
            make_piecewise([1.0], [1.0], direction="sideways")

    def test_hashable(self):
        assert len({power_fn(0.5), power_fn(0.5), power_fn(2.0)}) == 2


class TestEvaluate:
    def test_conjugate_power(self):
        # t^{1/p'} with p = 3, so the exponent is 2/3.
        f = power_fn(2.0 / 3.0)
        assert evaluate(f, 64.0) == pytest.approx(16.0, rel=1e-15)

    def test_zero_equals_value_at_first_knot(self):
        f = make_piecewise([1.0, 4.0], [2.0, 3.0], right_exponent=0.5)
        assert evaluate(f, 0.5) == 2.0
        assert evaluate(f, 1e-300) == 2.0

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_domain_error(self, t):
        with pytest.raises(DomainError):
            evaluate(power_fn(1.0), t)

    def test_exact_at_knots(self):
        f = make_piecewise([1.0, 3.0, 7.0], [2.0, 5.0, 11.0], right_exponent=1.0)
        for t, v in zip(f.knots, f.values):
            assert evaluate(f, t) == v

    @given(monotone_fns(), st.floats(min_value=1e-3, max_value=1e4))
    def test_many_matches_scalar(self, f, t):
        assert evaluate_many(f, [t])[0] == pytest.approx(evaluate(f, t), rel=1e-14)

    @given(
        monotone_fns(direction="nondecreasing"),
        st.floats(min_value=1e-3, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_monotone(self, f, t1, t2):
        lo, hi = sorted((t1, t2))
        assert evaluate(f, lo) <= evaluate(f, hi) * (1 + 1e-12)

    def test_many_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            evaluate_many(power_fn(1.0), [1.0, 0.0])


def _seeded_table(rng: random.Random, m: int, direction: str) -> MonotoneFn:
    """`m` knots with exponents drawn from exact small values and
    random floats, exponent signs per `direction`."""
    sign = 1.0 if direction == "nondecreasing" else -1.0
    knots = [math.exp(rng.uniform(-4.0, 2.0))]
    values = [math.exp(rng.uniform(-3.0, 3.0))]
    for _ in range(m):
        e = rng.choice((0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 3.0)))
        knots.append(knots[-1] * math.exp(rng.uniform(0.01, 1.5)))
        values.append(values[-1] * (knots[-1] / knots[-2]) ** (sign * e))
    return make_piecewise(knots[:m], values[:m], direction=direction,
                          right_exponent=sign * rng.choice((0.0, 1.0, 2.0, 0.7)))


class TestEvaluateManyDigest:
    """``evaluate_many`` on seeded tables, to the bit: every knot and its
    1-ulp neighbours, head and tail points and interior draws, as a list,
    a 1-d array, a 2-d array and a 0-d array.  The digest covers the
    bytes and shape of every result, so a piece lookup or a power that
    moves a last bit fails."""

    DIGEST = "e605bfa58878db287a3648187d65ec9579b95f86fb295b22713b3b9f0dce7393"

    def test_values_bitwise(self):
        rng = random.Random(83)
        digest = hashlib.sha256()
        for m in (1, 2, 7, 40, 200):
            for direction in ("nondecreasing", "nonincreasing"):
                f = _seeded_table(rng, m, direction)
                knots = np.asarray(f.knots)
                probes = np.concatenate([
                    knots, np.nextafter(knots, 0.0),
                    np.nextafter(knots, np.inf),
                    knots[0] * np.array([1e-300, 1e-9, 0.5, 1.0 - 2**-52]),
                    knots[-1] * np.array([1.0 + 2**-52, 2.0, 1e6]),
                    np.exp([rng.uniform(-6.0, 4.0) for _ in range(37)]),
                ])
                for ts in (probes.tolist(), probes, np.stack((probes, probes[::-1])),
                           np.array(probes[rng.randrange(probes.size)])):
                    out = evaluate_many(f, ts)
                    digest.update(repr(out.shape).encode() + out.tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestGeneralizedInverse:
    def test_sqrt(self):
        assert generalized_inverse(power_fn(0.5), 4.0) == pytest.approx(16.0)

    def test_flat_run_gives_right_edge(self):
        f = make_piecewise([1.0, 2.0, 4.0], [1.0, 1.0, 2.0], right_exponent=1.0)
        assert generalized_inverse(f, 1.0) == pytest.approx(2.0)

    def test_below_range_gives_zero(self):
        assert generalized_inverse(power_fn(0.5), 0.5) == 0.0

    def test_flat_tail_unbounded(self):
        f = make_piecewise([1.0, 2.0], [1.0, 3.0], right_exponent=0.0)
        with pytest.raises(Unbounded):
            generalized_inverse(f, 3.0)
        with pytest.raises(Unbounded):
            generalized_inverse(f, 5.0)

    def test_direction_error(self):
        with pytest.raises(DirectionError):
            generalized_inverse(power_fn(-1.0), 0.5)

    @given(monotone_fns(direction="nondecreasing"), st.floats(0.01, 100.0))
    @example(make_piecewise([1.0], [1.0], right_exponent=0.0), 1.0)
    def test_roundtrip_where_strictly_increasing(self, f, ratio):
        # Pick a level strictly inside the (power-extended) range.
        y = f.values[0] * ratio
        if f.right_exponent == 0.0 and f.values[-1] <= y:
            return  # at or above a flat tail: documented Unbounded
        s = generalized_inverse(f, y)
        if s == 0.0:
            assert y < f.values[0]
            return
        back = evaluate(f, s)
        # f(s) <= y always; equality wherever f is strictly increasing at s.
        assert back <= y * (1 + 1e-9)
        if all(e > 1e-6 for e in f.segment_exponents) and (
            f.right_exponent > 1e-6 or y <= f.values[-1]
        ):
            assert back == pytest.approx(y, rel=1e-9)


class TestInverseFn:
    def test_square(self):
        inv = inverse_fn(power_fn(2.0))
        assert evaluate(inv, 16.0) == pytest.approx(4.0)
        assert inv.right_exponent == pytest.approx(0.5)

    def test_identity_composition(self):
        f = make_piecewise([1.0, 2.0, 8.0], [1.0, 4.0, 16.0], right_exponent=3.0)
        ident = compose(inverse_fn(f), f)
        for t in [1.0, 1.5, 2.0, 5.0, 8.0, 100.0]:
            assert evaluate(ident, t) == pytest.approx(t, rel=1e-12)

    def test_flat_values_rejected(self):
        f = make_piecewise([1.0, 2.0], [1.0, 1.0], right_exponent=1.0)
        with pytest.raises(NonMonotone):
            inverse_fn(f)

    def test_bounded_range_rejected(self):
        f = make_piecewise([1.0, 2.0], [1.0, 2.0], right_exponent=0.0)
        with pytest.raises(Unbounded):
            inverse_fn(f)

    def test_direction_error(self):
        with pytest.raises(DirectionError):
            inverse_fn(power_fn(-1.0))

    def test_kept_on_the_function(self):
        f = make_piecewise([1.0, 2.0, 8.0], [1.0, 4.0, 16.0], right_exponent=3.0)
        inv = inverse_fn(f)
        assert inverse_fn(f) is inv
        fresh = inverse_fn(make_piecewise(f.knots, f.values, f.right_exponent))
        assert fresh is not inv and fresh == inv

    def test_error_is_not_kept(self):
        f = make_piecewise([1.0, 2.0], [1.0, 2.0], right_exponent=0.0)
        for _ in range(2):
            with pytest.raises(Unbounded):
                inverse_fn(f)


class TestReciprocal:
    def test_values_and_direction(self):
        f = power_fn(2.0)
        r = reciprocal(f)
        assert r.direction == "nonincreasing"
        assert evaluate(r, 4.0) == pytest.approx(1.0 / 16.0)
        assert r.right_exponent == -2.0

    @given(monotone_fns(), st.floats(min_value=1e-2, max_value=1e3))
    def test_pointwise(self, f, t):
        assert evaluate(reciprocal(f), t) == pytest.approx(
            1.0 / evaluate(f, t), rel=1e-12
        )


class TestCompose:
    def test_pure_powers_multiply_exponents(self):
        comp = compose(power_fn(2.0), power_fn(3.0))
        assert comp.right_exponent == pytest.approx(6.0)
        assert evaluate(comp, 2.0) == pytest.approx(64.0)

    def test_multi_knot_exact(self):
        f = make_piecewise([1.0, 2.0], [1.0, 8.0], right_exponent=1.0)
        g = make_piecewise([1.0, 4.0], [1.0, 2.0], right_exponent=1.0)
        comp = compose(f, g)
        for t in np.geomspace(0.1, 100.0, 40):
            assert evaluate(comp, t) == pytest.approx(
                evaluate(f, evaluate(g, t)), rel=1e-12
            )

    def test_inner_constant_tail_gives_constant(self):
        g = make_piecewise([1.0, 2.0], [1.0, 3.0], right_exponent=0.0)
        comp = compose(power_fn(2.0), g)
        assert comp.right_exponent == 0.0
        assert evaluate(comp, 1e6) == pytest.approx(9.0)

    def test_outer_nonincreasing(self):
        comp = compose(power_fn(-1.0), power_fn(2.0))
        assert comp.direction == "nonincreasing"
        assert evaluate(comp, 3.0) == pytest.approx(1.0 / 9.0)

    def test_inner_must_be_nondecreasing(self):
        with pytest.raises(DirectionError):
            compose(power_fn(1.0), power_fn(-1.0))

    @given(
        monotone_fns(direction="nondecreasing"),
        monotone_fns(direction="nondecreasing"),
        st.floats(min_value=1e-2, max_value=1e3),
    )
    @settings(deadline=None)
    def test_agrees_pointwise(self, f, g, t):
        assert evaluate(compose(f, g), t) == pytest.approx(
            evaluate(f, evaluate(g, t)), rel=1e-10
        )


class TestCrossingBelow:
    def test_inverse_square(self):
        w = power_fn(-2.0)
        assert crossing_below(w, 0.25) == pytest.approx(2.0)

    def test_above_maximum_gives_zero(self):
        assert crossing_below(power_fn(-2.0), 2.0) == 0.0

    def test_flat_tail_unbounded(self):
        w = make_piecewise([1.0], [1.0], right_exponent=0.0,
                           direction="nonincreasing")
        with pytest.raises(Unbounded):
            crossing_below(w, 0.5)
        assert crossing_below(w, 2.0) == 0.0

    def test_direction_error(self):
        with pytest.raises(DirectionError):
            crossing_below(power_fn(1.0), 1.0)

    def test_flat_run_gives_right_edge(self):
        w = make_piecewise([1.0, 2.0, 4.0, 8.0], [4.0, 2.0, 2.0, 1.0],
                           right_exponent=-1.0, direction="nonincreasing")
        assert crossing_below(w, 2.0) == 4.0
        tail_run = make_piecewise([1.0, 2.0, 4.0], [4.0, 2.0, 2.0],
                                  right_exponent=-1.0,
                                  direction="nonincreasing")
        assert crossing_below(tail_run, 2.0) == 4.0

    @staticmethod
    def _negated_copy_crossing(w: MonotoneFn, y: float) -> float:
        """The crossing found by bisecting a negated copy of the values."""
        vals = w.values
        if y > vals[0]:
            return 0.0
        j = bisect_right([-v for v in vals], -y) - 1
        if j == len(vals) - 1:
            if w.right_exponent == 0.0:
                raise Unbounded("flat tail")
            return _solve_on_segment(w.knots[j], vals[j], w.right_exponent, y)
        return _solve_on_segment(w.knots[j], vals[j], w.segment_exponents[j],
                                 y)

    @pytest.mark.parametrize("m", [1, 2, 7, 500, 2000])
    def test_matches_negated_copy_with_flat_runs(self, m):
        rng = np.random.default_rng(m)
        knots = np.cumsum(rng.uniform(0.1, 2.0, size=m)).tolist()
        steps = rng.uniform(0.0, 0.05, size=m)
        steps[rng.random(m) < 0.3] = 0.0  # flat runs, some of them long
        values = (4.0 * np.exp(-np.cumsum(steps))).tolist()
        for right in (-1.5, 0.0):
            w = make_piecewise(knots, values, right_exponent=right,
                               direction="nonincreasing")
            vals = np.asarray(w.values)
            levels = np.concatenate([
                vals, np.nextafter(vals, 0.0), np.nextafter(vals, np.inf),
                np.sqrt(vals[1:] * vals[:-1]), [vals[-1] / 3.0, 5.0],
            ])
            for y in levels.tolist():
                try:
                    want = self._negated_copy_crossing(w, y)
                except Unbounded:
                    with pytest.raises(Unbounded):
                        crossing_below(w, y)
                    continue
                assert crossing_below(w, y) == want

    @given(monotone_fns(direction="nonincreasing"), st.floats(0.01, 0.99))
    def test_level_attained(self, w, frac):
        y = w.values[0] * frac
        try:
            s = crossing_below(w, y)
        except Unbounded:
            assert w.right_exponent == 0.0
            return
        assert s > 0.0
        assert evaluate(w, s) == pytest.approx(y, rel=1e-9) or evaluate(
            w, s
        ) > y * (1 - 1e-12)


def _each_crossing(w: MonotoneFn, ys: list[float]) -> list[float] | type:
    """The scalar crossings of `ys`, or the type of the first error."""
    try:
        return [crossing_below(w, y) for y in ys]
    except OsinvError as exc:
        return type(exc)


def _all_crossings(w: MonotoneFn, ys: list[float]) -> list[float] | type:
    try:
        return _crossings_below(w, np.array(ys)).tolist()
    except OsinvError as exc:
        return type(exc)


class TestCrossingsBelow:
    """The vectorised crossings equal the scalar ones bit for bit."""

    @staticmethod
    def _levels(w: MonotoneFn, fracs: list[float]) -> list[float]:
        """Levels at every value and 1 ulp to either side, between
        values, above the maximum, past the last knot, and drawn."""
        vals = np.asarray(w.values)
        return np.concatenate([
            vals, np.nextafter(vals, 0.0), np.nextafter(vals, np.inf),
            np.sqrt(vals[1:] * vals[:-1]),
            [2.0 * vals[0], vals[-1] / 3.0, vals[-1] * 1e-6],
            vals[0] * np.asarray(fracs),
        ]).tolist()

    @settings(max_examples=300, deadline=None)
    @given(monotone_fns(direction="nonincreasing", max_knots=8),
           st.lists(st.floats(1e-9, 1.5), max_size=20))
    def test_matches_crossing_below(self, w, fracs):
        ys = self._levels(w, fracs)
        assert _all_crossings(w, ys) == _each_crossing(w, ys)
        # Without the flat tail's levels, which raise for the whole call.
        finite = [y for y in ys if not (w.right_exponent == 0.0
                                        and y <= w.values[-1])]
        assert _all_crossings(w, finite) == _each_crossing(w, finite)

    def test_flat_run_and_levels_above_the_maximum(self):
        w = make_piecewise([1.0, 2.0, 4.0, 8.0], [4.0, 2.0, 2.0, 1.0],
                           right_exponent=-1.0, direction="nonincreasing")
        got = _crossings_below(w, np.array([5.0, 4.0, 2.0, 1.5, 0.5]))
        assert got.tolist() == [0.0, 1.0, 4.0, crossing_below(w, 1.5), 16.0]

    def test_overflowing_solve_keeps_the_scalar_error(self):
        w = make_piecewise([1.0], [1.0], right_exponent=-1e-300,
                           direction="nonincreasing")
        with pytest.raises(Unbounded) as scalar:
            crossing_below(w, 0.5)
        with pytest.raises(Unbounded) as vector:
            _crossings_below(w, np.array([2.0, 0.5]))
        assert str(vector.value) == str(scalar.value)

    def test_underflowing_level_ratio_is_unbounded(self):
        # 1e-300 / 1e300 underflows to 0 before the power -1.
        w = make_piecewise([1.0], [1e300], right_exponent=-1.0,
                           direction="nonincreasing")
        with pytest.raises(Unbounded, match="beyond float range") as scalar:
            crossing_below(w, 1e-300)
        with pytest.raises(Unbounded) as vector:
            _crossings_below(w, np.array([0.5, 1e-300]))
        assert str(vector.value) == str(scalar.value)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_levels_raise_as_the_scalar(self, bad):
        with pytest.raises(DomainError):
            _crossings_below(power_fn(-2.0), np.array([0.5, bad]))

    def test_direction_error(self):
        with pytest.raises(DirectionError):
            _crossings_below(power_fn(1.0), np.array([0.5]))


class TestIntegral:
    def test_inverse_square_tail(self):
        assert integral(power_fn(-2.0), 1.0, math.inf) == pytest.approx(1.0)

    def test_log_segment(self):
        assert integral(power_fn(-1.0), 1.0, math.e) == pytest.approx(1.0)

    def test_divergent_tail(self):
        with pytest.raises(DivergentTail):
            integral(power_fn(-1.0), 1.0, math.inf)

    def test_constant_head(self):
        # Below the first knot the function is constant.
        assert integral(power_fn(0.5), 0.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("exponent", [0.0, 0.5, -0.5, -2.0])
    def test_subnormal_lower_limit(self, exponent):
        # a / t0 underflows to 0 for a subnormal a and t0 > 1.
        f = power_fn(exponent, anchor=math.e)
        a = 5e-324
        assert integral(f, a, 1.0) == pytest.approx(
            integral(f, 0.0, 1.0), rel=1e-15)
        assert integral(f, a, 20.0) == pytest.approx(
            integral(f, a, 1.0) + integral(f, 1.0, 20.0), rel=1e-14)

    def test_bad_limits(self):
        with pytest.raises(DomainError):
            integral(power_fn(1.0), 2.0, 1.0)
        with pytest.raises(DomainError):
            integral(power_fn(1.0), -1.0, 1.0)

    @given(
        monotone_fns(),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(deadline=None)
    def test_additive(self, f, a, gap1, gap2):
        b, c = a + gap1, a + gap1 + gap2
        whole = integral(f, a, c)
        split = integral(f, a, b) + integral(f, b, c)
        assert split == pytest.approx(whole, rel=1e-12, abs=1e-300)


def _piece_table(
    f: MonotoneFn, left: float = 0.0
) -> list[tuple[float, float, float, float, float]]:
    """Reference pieces ``(lo, hi, v0, t0, e)``: a head with exponent
    `left`, one piece per segment, power tail."""
    pieces = [(0.0, f.knots[0], f.values[0], f.knots[0], left)]
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


class TestLocalPower:
    @given(
        monotone_fns(max_knots=200),
        st.one_of(st.just(0.0), st.floats(-3.0, 4.0)),
        st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_bisection_matches_scan(self, f, left, data):
        knots = f.knots
        points = list(knots)
        points += [math.nextafter(t, 0.0) for t in knots]
        points += [math.nextafter(t, math.inf) for t in knots]
        points += [knots[0] * 0.5, knots[0] * 1e-9, knots[-1] * 2.0,
                   knots[-1] * 1e9]
        points += data.draw(st.lists(
            st.floats(min_value=1e-6, max_value=1e6), max_size=20))
        pieces = _piece_table(f, left)
        for t in points:
            assert _local_power(f, t, left) == _scan_local_power(pieces, t)
        if left == 0.0:
            for t in points:
                assert _local_power(f, t) == _scan_local_power(pieces, t)

    def test_head_segment_and_tail_anchors(self):
        f = make_piecewise([1.0, 4.0], [2.0, 8.0], right_exponent=0.5)
        assert _local_power(f, 0.25) == (2.0, 1.0, 0.0)
        assert _local_power(f, 1.0) == (2.0, 1.0, 1.0)
        assert _local_power(f, 4.0) == (8.0, 4.0, 0.5)
        assert _local_power(f, 400.0) == (8.0, 4.0, 0.5)
        assert _local_power(f, 0.25, 1.0) == (2.0, 1.0, 1.0)
        assert _local_power(f, 1.0, 3.0) == (2.0, 1.0, 1.0)


class TestFitLoglogSlope:
    def test_quarter_power(self):
        pts = [(n, n**0.25) for n in (10.0, 100.0, 1000.0)]
        slope, r2 = fit_loglog_slope(pts)
        assert slope == pytest.approx(0.25, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_y(self):
        slope, r2 = fit_loglog_slope([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)])
        assert slope == 0.0
        assert r2 == 1.0

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_loglog_slope([(1.0, 1.0), (2.0, 2.0)])

    def test_non_positive(self):
        with pytest.raises(NonPositive):
            fit_loglog_slope([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])

    def test_identical_abscissas(self):
        with pytest.raises(BadParameter):
            fit_loglog_slope([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])


def _polyfit_slope(points):
    """The ``np.polyfit``-based fit that :func:`fit_loglog_slope` replaced."""
    pts = list(points)
    if len(pts) < 3:
        raise TooFewPoints(f"need >= 3 points, got {len(pts)}")
    n = np.asarray([p[0] for p in pts], dtype=float)
    y = np.asarray([p[1] for p in pts], dtype=float)
    if np.any(n <= 0.0) or np.any(y <= 0.0):
        raise NonPositive("all coordinates must be positive for a log-log fit")
    ln_n = np.log(n)
    ln_y = np.log(y)
    if np.ptp(ln_n) == 0.0:
        raise BadParameter("all abscissas identical; slope undefined")
    if np.ptp(ln_y) == 0.0:
        return 0.0, 1.0
    slope, intercept = np.polyfit(ln_n, ln_y, 1)
    fitted = slope * ln_n + intercept
    ss_res = float(np.sum((ln_y - fitted) ** 2))
    ss_tot = float(np.sum((ln_y - ln_y.mean()) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot


def _outcome(fit, points):
    """`fit`'s result as repr (so NaN and -0.0 compare), error, warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(fit(points))
        except OsinvError as exc:
            result = type(exc).__name__
    return result, [(w.category, str(w.message)) for w in caught]


_abscissas = st.one_of(
    st.integers(1, 2**60), st.floats(1e-300, float(2**60))
)


class TestFitMatchesPolyfit:
    """``fit_loglog_slope`` solves polyfit's system itself, bit for bit."""

    @given(
        st.lists(
            st.tuples(_abscissas, st.floats(1e-300, 1e300)),
            min_size=3,
            max_size=17,
        ),
        st.sampled_from(["plain", "constant", "nan", "non-positive"]),
        st.integers(0, 16),
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_to_polyfit(self, pts, variant, at):
        at %= len(pts)
        if variant == "constant":
            pts = [(n, pts[0][1]) for n, _ in pts]
        elif variant == "nan":
            pts[at] = (pts[at][0], math.nan)
        elif variant == "non-positive":
            pts[at] = (pts[at][0], -abs(pts[at][1]))
        assert _outcome(fit_loglog_slope, pts) == _outcome(_polyfit_slope, pts)

    @given(
        st.lists(st.integers(1, 2**60), min_size=3, max_size=17, unique=True),
        st.floats(-3.0, 3.0),
    )
    @settings(deadline=None)
    def test_equal_to_polyfit_on_power_laws(self, ns, exponent):
        pts = [(n, 2.5 * float(n) ** exponent) for n in sorted(ns)]
        assert _outcome(fit_loglog_slope, pts) == _outcome(_polyfit_slope, pts)

    @pytest.mark.parametrize(
        "pts",
        [
            [],
            [(1.0, 1.0), (2.0, 2.0)],
            [(1.0, 1.0), (0.0, 2.0), (3.0, 3.0)],
            [(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)],
            [(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)],
            [(2**60, 1.0), (2**60 - 1, 2.0), (2**60 - 2, 3.0)],
            [(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)],
            [(1.0, 1.0), (2.0, math.nan), (4.0, 3.0)],
        ],
    )
    def test_errors_and_special_values_match(self, pts):
        assert _outcome(fit_loglog_slope, pts) == _outcome(_polyfit_slope, pts)

    def test_nan_ordinate_passes_through(self):
        slope, r2 = fit_loglog_slope([(1.0, 1.0), (2.0, math.nan), (4.0, 3.0)])
        assert math.isnan(slope) and math.isnan(r2)

    def test_rank_deficient_system_warns_like_polyfit(self):
        # ln n differs by about one ulp across the points.
        pts = [(2**60 - 8192, 1.0), (2**60 - 4096, 2.0), (2**60, 3.0)]
        with pytest.warns(np.exceptions.RankWarning):
            fit_loglog_slope(pts)
        assert _outcome(fit_loglog_slope, pts) == _outcome(_polyfit_slope, pts)


class TestFitRank:
    @pytest.mark.parametrize("step", [2**11, 2**12, 2**16, 2**17, 2**20])
    def test_deficient_exactly_when_the_fit_warns_or_fails(self, step):
        # Steps up to 2**16 below 2**60 leave ln n within a few ulps;
        # at 2**11 the logs coincide and the fit raises instead.
        ns = [2**60 - 2 * step, 2**60 - step, 2**60]
        result, caught = _outcome(
            fit_loglog_slope, [(n, math.sqrt(n)) for n in ns]
        )
        rank = _LogLogDesign(np.log(np.asarray(ns, dtype=float))).rank
        assert (rank < 2) == (bool(caught) or result == "BadParameter")
        assert (rank < 2) == (step <= 2**16)


def _window(rng: np.random.Generator, size: int) -> list[float]:
    """`size` distinct abscissas: integers up to 2**60, or a log-uniform
    spread of reals."""
    if rng.random() < 0.5:
        ns = set()
        while len(ns) < size:
            ns.add(int(rng.integers(1, 2**60)))
        return sorted(float(n) for n in ns)
    return np.sort(np.exp(rng.uniform(-50.0, 50.0, size))).tolist()


class TestBatchedFit:
    """One design fits several rows of ordinates, each bit for bit as
    :func:`fit_loglog_slope` fits it alone and as ``np.polyfit`` does,
    also past the 8-element blocks and the 128-element halving of
    numpy's pairwise sums."""

    @pytest.mark.parametrize(
        "size", [3, 5, 7, 8, 9, 16, 64, 127, 128, 129, 130, 257, 1100]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_single_fits(self, size, seed):
        rng = np.random.default_rng([seed, size])
        ns = _window(rng, size)
        design = _LogLogDesign(np.log(np.asarray(ns)))
        for count in range(1, 6):
            rows = [np.exp(rng.uniform(-300.0, 300.0, size)).tolist(),
                    [2.5 * n**0.3 * (60.0 + math.log(n)) for n in ns],
                    [float(rng.uniform(0.1, 10.0))] * size,  # constant
                    np.exp(rng.normal(0.0, 1.0, size)).tolist()]
            rows = [rows[int(k)] for k in rng.integers(0, 4, size=count)]
            got = design.fit(rows)
            assert len(got) == count
            for row, fit in zip(rows, got):
                pts = list(zip(ns, row))
                assert repr(fit) == repr(fit_loglog_slope(pts))
                assert repr(fit) == repr(_polyfit_slope(pts))

    def test_constant_rows(self):
        design = _LogLogDesign(np.log([16.0, 64.0, 256.0]))
        assert design.fit([[3.0] * 3, [1.0, 2.0, 4.0], [0.5] * 3]) == [
            (0.0, 1.0), fit_loglog_slope([(16, 1), (64, 2), (256, 4)]),
            (0.0, 1.0)]

    def test_nan_row_leaves_the_others(self):
        design = _LogLogDesign(np.log([1.0, 2.0, 4.0]))
        nan_fit, fit = design.fit([[1.0, math.nan, 3.0], [1.0, 2.0, 3.0]])
        assert math.isnan(nan_fit[0]) and math.isnan(nan_fit[1])
        assert fit == fit_loglog_slope([(1, 1), (2, 2), (4, 3)])

    def test_non_positive_ordinate(self):
        design = _LogLogDesign(np.log([1.0, 2.0, 4.0]))
        with pytest.raises(NonPositive):
            design.fit([[1.0, 2.0, 3.0], [1.0, 0.0, 3.0]])

    def test_deficient_design_warns_once_per_fitted_row(self):
        ns = [2**60 - 8192, 2**60 - 4096, 2**60]
        design = _LogLogDesign(np.log(np.asarray(ns, dtype=float)))
        assert design.rank < 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            design.fit([[1.0, 2.0, 3.0], [5.0] * 3, [3.0, 2.0, 1.0]])
        assert [w.category for w in caught] == [np.exceptions.RankWarning] * 2
