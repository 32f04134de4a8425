"""Tests for Orlicz functions, sequence norms, and fundamental sequences."""

from __future__ import annotations

import bisect
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osinv.errors import (
    BadParameter,
    DivergentTail,
    DomainError,
    Inconsistent,
    NonPositive,
    NotAdmissible,
    TooFewPoints,
)
from osinv import orlicz
from osinv.monotone_fn import evaluate_many, make_piecewise
from osinv.orlicz import (
    OrliczFn,
    from_fundamental_sequence,
    from_weight,
    fundamental_sequence,
    make_orlicz,
    power_orlicz,
    psi,
    quiet_sum,
    rescaled_norm,
    sequence_norm,
    smooth_from_raw,
)

OH_WEIGHT = make_piecewise(
    [1.0], [1.0], right_exponent=-2.0, direction="nonincreasing"
)


def modular(phi: OrliczFn, x, lam: float) -> float:
    return float(np.sum(phi.eval_many(np.abs(np.asarray(x, float)) / lam)))


class TestOrliczFn:
    def test_power_evaluation(self):
        p2 = power_orlicz(2.0)
        assert p2.eval(3.0) == 9.0
        assert p2.eval(0.0) == 0.0
        assert p2.eval(0.01) == pytest.approx(1e-4)  # left extrapolation
        assert p2.inverse(4.0) == pytest.approx(2.0)
        assert p2.inverse(0.0) == 0.0
        assert p2.inverse(1e-6) == pytest.approx(1e-3)
        assert p2.left_exponent == 2.0

    def test_eval_many_splits_regions(self):
        p3 = power_orlicz(3.0)
        ts = np.array([0.0, 1e-4, 0.5, 2.0, 100.0])
        assert p3.eval_many(ts) == pytest.approx(ts**3)

    def test_doubling_constants(self):
        assert power_orlicz(2.0).delta2_constant == pytest.approx(4.0)
        assert power_orlicz(1.0).delta2_constant == pytest.approx(2.0)
        mixed = make_orlicz(
            make_piecewise(
                [1.0, 4.0], [1.0, 16.0],
                right_exponent=3.0, direction="nondecreasing",
            )
        )
        assert mixed.delta2_constant == pytest.approx(8.0)

    def test_rejects_shallow_powers(self):
        with pytest.raises(NotAdmissible):
            power_orlicz(0.8)

    @pytest.mark.parametrize("body, want", [
        (make_piecewise([1.0], [1e308], right_exponent=2.0), 4.0),
        (make_piecewise([1.0, 2.0], [1.0, 1e300], right_exponent=3.0), 1e300),
        (make_piecewise([1.0, 1.5], [1e307, 1e308], right_exponent=3.0),
         2.0 ** (math.log(10.0) / math.log(1.5))),
        (make_piecewise([1e-3, 1.0], [1e-300, 1e-180], right_exponent=1.0),
         2.0**40),
    ])
    def test_doubling_constant_near_the_float_limits(self, body, want):
        # On the flanks the ratio is 2**exponent; only the knots and
        # half-knots between them are evaluated, and not past the range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = make_orlicz(body).delta2_constant
        assert got == pytest.approx(want, rel=1e-12)

    def test_infinite_doubling_constant_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAdmissible, match="doubling constant"):
                power_orlicz(2000.0)

    def test_rejects_sublinear_segment(self):
        body = make_piecewise(
            [1.0, 2.0], [1.0, 1.1], right_exponent=2.0,
            direction="nondecreasing",
        )
        with pytest.raises(NotAdmissible):
            make_orlicz(body)

    def test_rejects_decreasing_body(self):
        body = make_piecewise(
            [1.0], [1.0], right_exponent=-2.0, direction="nonincreasing"
        )
        with pytest.raises(NotAdmissible):
            make_orlicz(body)

    def test_domain_errors(self):
        p2 = power_orlicz(2.0)
        with pytest.raises(DomainError):
            p2.eval(-1.0)
        with pytest.raises(DomainError):
            p2.inverse(-0.5)
        with pytest.raises(DomainError):
            p2.eval_many([1.0, math.inf])


def _two_region_eval_many(phi: OrliczFn, ts) -> np.ndarray:
    """Reference: the left extension on its own mask with a scalar
    exponent, the body through ``evaluate_many`` on the rest."""
    arr = np.asarray(ts, dtype=float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr < 0.0)):
        raise DomainError("arguments must be finite reals >= 0")
    out = np.zeros_like(arr)
    t1, v1 = phi.body.knots[0], phi.body.values[0]
    small = (arr > 0.0) & (arr < t1)
    if np.any(small):
        out[small] = v1 * (arr[small] / t1) ** phi.left_exponent
    big = arr >= t1
    if np.any(big):
        out[big] = evaluate_many(phi.body, arr[big])
    return out


_EXACT_EXPONENTS = st.sampled_from([1.0, 2.0, 3.0, 4.0])


@st.composite
def orlicz_tables(draw) -> OrliczFn:
    """Random admissible tables, exponents in [1, 4], often exact integers."""
    m = draw(st.integers(min_value=1, max_value=40))
    exponent = st.one_of(_EXACT_EXPONENTS, st.floats(1.0, 4.0))
    log_t = draw(st.floats(-6.0, 3.0))
    knots = [math.exp(log_t)]
    values = [math.exp(draw(st.floats(-8.0, 8.0)))]
    for _ in range(m - 1):
        knots.append(knots[-1] * math.exp(draw(st.floats(0.01, 2.0))))
        values.append(values[-1] * (knots[-1] / knots[-2]) ** draw(exponent))
    body = make_piecewise(knots, values, right_exponent=draw(exponent),
                          direction="nondecreasing")
    return make_orlicz(body)


def _probe_points(phi: OrliczFn, extra) -> np.ndarray:
    """0, every knot and its neighbours 1 ulp away, points below the
    first knot and beyond the last, plus `extra`."""
    knots = np.asarray(phi.body.knots)
    return np.concatenate([
        [0.0, 5e-324, knots[0] / 3.0, knots[0] * 1e-9, knots[-1] * 7.0,
         knots[-1] * 1e6],
        knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf),
        np.asarray(extra, dtype=float),
    ])


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestEvalManyPieceTable:
    """``eval_many`` reads one piece table; it must give, to the bit,
    what evaluating the left extension and the body apart gives."""

    @given(
        orlicz_tables(),
        st.lists(st.floats(-30.0, 12.0), max_size=60),
    )
    @settings(deadline=None, max_examples=150)
    def test_bit_identical_on_random_tables(self, phi, log_ts):
        ts = _probe_points(phi, np.exp(log_ts))
        assert _same_bits(phi.eval_many(ts), _two_region_eval_many(phi, ts))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 1.5])
    def test_single_knot_powers(self, p):
        phi = power_orlicz(p)
        rng = np.random.default_rng(5)
        ts = _probe_points(phi, np.exp(rng.uniform(-40.0, 12.0, 20_000)))
        want = _two_region_eval_many(phi, ts)
        assert _same_bits(phi.eval_many(ts), want)
        # The same values in a 2-d layout, and as a 0-d array.
        grid = ts[:20_000].reshape(200, 100)
        assert _same_bits(phi.eval_many(grid),
                          _two_region_eval_many(phi, grid))
        assert _same_bits(phi.eval_many(np.float64(0.25)),
                          _two_region_eval_many(phi, np.float64(0.25)))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_zero_and_negative_zero_map_to_zero(self, p):
        out = power_orlicz(p).eval_many([0.0, -0.0])
        assert out.tobytes() == np.zeros(2).tobytes()

    def test_tabulated_functions(self):
        rng = np.random.default_rng(9)
        for phi in (psi(), from_weight(OH_WEIGHT)):
            ts = _probe_points(phi, np.exp(rng.uniform(-40.0, 12.0, 20_000)))
            assert _same_bits(phi.eval_many(ts),
                              _two_region_eval_many(phi, ts))

    def test_empty_input(self):
        assert power_orlicz(2.0).eval_many([]).shape == (0,)

    @pytest.mark.parametrize(
        "bad", [[math.nan], [1.0, math.inf], [-math.inf], [2.0, -1e-300],
                [[0.5, math.nan]]]
    )
    def test_domain_errors(self, bad):
        for phi in (power_orlicz(2.0), psi()):
            with pytest.raises(DomainError):
                phi.eval_many(bad)


class TestFromWeight:
    def test_quartic_region(self):
        phi = from_weight(OH_WEIGHT)
        for t in (1e-3, 0.05, 0.3, 1.0):
            assert phi.eval(t) == pytest.approx(t**4, rel=1e-9)

    def test_quadratic_region(self):
        # Above the clamp the tail integral is 2 - 1/t^2 at u = t^{-2}.
        phi = from_weight(OH_WEIGHT)
        for t in (2.0, 5.0, 30.0):
            assert phi.eval(t) == pytest.approx(2.0 * t * t - 1.0, rel=1e-3)

    def test_fast_weight_gives_high_power(self):
        w = make_piecewise(
            [1.0], [1.0], right_exponent=-4.0, direction="nonincreasing"
        )
        phi = from_weight(w)
        # h(u) = u^{-3}/3 for u >= 1, so phi(t) = t^8/3 below 1.
        assert phi.eval(0.5) == pytest.approx(0.5**8 / 3.0, rel=1e-9)

    def test_exponents_at_least_two(self):
        phi = from_weight(OH_WEIGHT)
        assert min(phi.body.segment_exponents) >= 2.0 - 1e-9
        assert phi.body.right_exponent == 2.0

    def test_divergent_weight_rejected(self):
        flat = make_piecewise(
            [1.0], [1.0], right_exponent=0.0, direction="nonincreasing"
        )
        with pytest.raises(DivergentTail):
            from_weight(flat)


class TestSequenceNorm:
    def test_euclidean(self):
        assert sequence_norm(power_orlicz(2.0), [3.0, 4.0]) == pytest.approx(
            5.0, rel=1e-9
        )

    def test_ell_one(self):
        assert sequence_norm(power_orlicz(1.0), [1.0, 1.0, 1.0]) == pytest.approx(
            3.0, rel=1e-9
        )

    def test_degenerate_sequences(self):
        p = power_orlicz(2.0)
        assert sequence_norm(p, []) == 0.0
        assert sequence_norm(p, [0.0, 0.0]) == 0.0
        assert sequence_norm(p, [0.0, 7.0]) == pytest.approx(7.0, rel=1e-9)

    def test_modular_equation_holds_at_norm(self):
        rng = np.random.default_rng(7)
        for phi in (power_orlicz(1.3), psi(), from_weight(OH_WEIGHT)):
            for _ in range(5):
                x = rng.uniform(0.1, 10.0, size=rng.integers(2, 15))
                lam = sequence_norm(phi, x)
                assert modular(phi, x, lam) == pytest.approx(1.0, abs=1e-8)

    def test_psi_ones_track_fundamental_growth(self):
        ph = psi()
        for n in (8, 64, 512, 4096):
            ratio = sequence_norm(ph, [1.0] * n) / math.sqrt(
                n * math.log(n + 1)
            )
            assert 0.5 <= ratio <= 2.0

    def test_monotone_in_entries(self):
        rng = np.random.default_rng(21)
        for phi in (psi(), power_orlicz(1.5)):
            for _ in range(10):
                y = rng.uniform(0.0, 5.0, size=10)
                x = y * rng.uniform(0.0, 1.0, size=10)
                assert sequence_norm(phi, x) <= sequence_norm(phi, y) * (
                    1.0 + 1e-9
                )

    def test_triangle_inequality_for_convex(self):
        rng = np.random.default_rng(3)
        for phi in (power_orlicz(1.5), power_orlicz(3.0),
                    smooth_from_raw(power_orlicz(2.0))):
            for _ in range(100):
                x = rng.uniform(-4.0, 4.0, size=8)
                y = rng.uniform(-4.0, 4.0, size=8)
                lhs = sequence_norm(phi, x + y)
                rhs = sequence_norm(phi, x) + sequence_norm(phi, y)
                assert lhs <= rhs * (1.0 + 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0),
            min_size=1,
            max_size=12,
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_homogeneity(self, xs, lam):
        phi = power_orlicz(1.5)
        base = sequence_norm(phi, xs)
        scaled = sequence_norm(phi, [lam * v for v in xs])
        assert scaled == pytest.approx(lam * base, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize(
        "p, x, want",
        [(2.0, [1e308, 1e308], math.sqrt(2.0) * 1e308),
         (2.0, [-1e308, 0.0, 1e308], math.sqrt(2.0) * 1e308),
         (1.0, [1e306] * 100, 1e308)],
        ids=["sum-overflows", "signed-with-zero", "bracket-overflows"],
    )
    def test_entries_near_the_float_maximum(self, p, x, want):
        # The bracket's sum or upper end overflows, the norm does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = sequence_norm(power_orlicz(p), x)
        assert value == pytest.approx(want, rel=1e-12)

    def test_bracket_overflowing_from_a_steep_phi(self):
        # phi(t) = 1e300 t: phi^{-1}(1/n) = 1e-300/n puts the bracket's
        # upper end beyond the float range, the norm 1e300 n is not.
        phi = make_orlicz(make_piecewise([1.0], [1e300], right_exponent=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = sequence_norm(phi, [1.0] * 20_000)
        assert value == pytest.approx(2e304, rel=1e-12)

    def test_bracket_underflowing_from_a_shallow_phi(self):
        # phi(t) = 1e-300 t: phi^{-1}(1) = 1e300 puts the bracket's lower
        # end below the float range, the norm 1e-300 * sum is not.
        phi = make_orlicz(make_piecewise([1.0], [1e-300], right_exponent=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = sequence_norm(phi, [1e-24] * 20_000)
        assert value == pytest.approx(2e-320, rel=1e-3)

    def test_norm_beyond_the_float_range_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sequence_norm(power_orlicz(1.0), [1e308, 1e308]) == math.inf

    @pytest.mark.parametrize(
        "x", [[5e-324, 1e-323], [2e-320, 1e-320], [-1e-310, 3e-311, 0.0]],
        ids=["least", "two", "signed-with-zero"],
    )
    def test_subnormal_entries(self, x):
        # The bracket's lower end is subnormal but not 0: a bisection
        # among subnormals would round its midpoints to a few bits.  The
        # l1 norm of subnormals is their exact sum, to the solver's 1e-12.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = sequence_norm(power_orlicz(1.0), x)
            want = sum(map(abs, x))
            assert value == pytest.approx(want, rel=1e-12, abs=0.0)
            value = sequence_norm(power_orlicz(2.0), x)
        want = math.ldexp(sequence_norm(power_orlicz(2.0),
                                        np.ldexp(x, 1000)), -1000)
        assert value == pytest.approx(want, rel=0.0, abs=5e-324)


def _per_step_sequence_norm(phi: OrliczFn, x) -> float:
    """Reference Luxemburg norm: the bisection with a full piece lookup
    at every step, through ``_two_region_eval_many`` (bitwise equal to
    ``eval_many``, see ``TestEvalManyPieceTable``)."""
    arr = np.abs(np.asarray(list(x), dtype=float))
    if arr.size and np.any(~np.isfinite(arr)):
        raise DomainError("sequence entries must be finite reals")
    arr = arr[arr > 0.0]
    if arr.size == 0:
        return 0.0
    n = arr.size
    lo = float(arr.max()) / phi.inverse(1.0)
    hi = quiet_sum(arr) / phi.inverse(1.0 / n)
    if lo < sys.float_info.min or not math.isfinite(hi):
        e = math.frexp(float(arr.max()))[1] - math.frexp(phi.inverse(1.0))[1]
        return rescaled_norm(_per_step_sequence_norm, phi, arr, e)
    if hi <= lo * (1.0 + 1e-12):
        return lo

    def modular(lam: float) -> float:
        return float(np.sum(_two_region_eval_many(phi, arr / lam)))

    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi <= lo * (1.0 + 1e-12):
            break
    return math.sqrt(lo) * math.sqrt(hi)


_NAMED_PHIS = (power_orlicz(1.0), power_orlicz(1.5), power_orlicz(2.0), psi())


@st.composite
def norm_sequences(draw) -> np.ndarray:
    """1 to 40 signed entries below a largest one anywhere from 1e-304
    to the float maximum, spread over up to 800 e-folds so that small
    entries sit in the head piece or underflow to 0 once divided."""
    n = draw(st.integers(min_value=1, max_value=40))
    top = draw(st.floats(-700.0, 709.7))
    spread = draw(st.sampled_from([0.0, 1.0, 8.0, 60.0, 800.0]))
    logs = draw(st.lists(st.floats(top - spread, top), min_size=n,
                         max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                          max_size=n))
    return np.array([s * math.exp(v) for s, v in zip(signs, logs)])


def _knot_drop_phi() -> OrliczFn:
    """Exponent 1, then 4 on ``ln t`` in [-0.1, 0.1], then 1 again, with
    ``phi(1) = 1/2``.

    The norm of ``[1, 1]`` is 1.  ``ln M`` is linear with slope -1 on
    either side of the steep piece, and the line through any point on
    one side reaches 0 at ``ln lam = -+0.3``, on the other side: plain
    Newton from ``lo`` (``ln lam ~ -0.39``) cycles between ``+-0.3``
    for ever, so only the bracket safeguard lets it settle.
    """
    knots = [math.exp(-0.5), math.exp(-0.1), math.exp(0.1)]
    values = [0.5 * math.exp(-0.8), 0.5 * math.exp(-0.4),
              0.5 * math.exp(0.4)]
    return make_orlicz(make_piecewise(knots, values, right_exponent=1.0))


#: A single exponent (3) over several pieces.
_CUBE_TABLE = make_orlicz(make_piecewise(
    [0.25, 0.5, 1.0, 2.0], [0.25**3, 0.5**3, 1.0, 8.0], right_exponent=3.0))

_ROOT_CASES = {
    "one": (power_orlicz(1.5), [3.0]),
    "one-beside-underflow": (psi(), [3.0, 1e-300]),
    "single-exponent": (_CUBE_TABLE, np.linspace(0.1, 3.0, 40)),
    "knot-drop": (_knot_drop_phi(), [1.0, 1.0]),
    "knot-drop-spread": (_knot_drop_phi(), [1.0, 0.9, 1.1, 0.3, -0.7]),
    "head": (psi(), [1.0] + [1e-9] * 60),
    "head-only": (_CUBE_TABLE, [1e-3, 2e-3, 5e-4]),
    "rescaled": (_knot_drop_phi(), [1e308, 3e307, 1e308]),
}


def _recorded_terms(monkeypatch) -> list:
    """Record every term vector the norm sums, with its abscissas."""
    seen = []
    power_terms = OrliczFn._power_terms

    def recording(self, flat, *pieces):
        out = power_terms(self, flat, *pieces)
        seen.append((self, flat.copy(), out.copy()))
        return out

    monkeypatch.setattr(OrliczFn, "_power_terms", recording)
    return seen


class TestSequenceNormBitwise:
    """``sequence_norm`` finds the root by Newton and replays the
    bisection, evaluating only the steps near that root; it must return,
    to the bit, what the bisection evaluating every step returns."""

    @given(st.one_of(st.sampled_from(_NAMED_PHIS), orlicz_tables()),
           norm_sequences())
    @settings(deadline=None, max_examples=300)
    def test_random_sequences(self, phi, x):
        want = _per_step_sequence_norm(phi, x)
        assert sequence_norm(phi, x) == want
        assert sequence_norm(phi, x.tolist()) == want

    @pytest.mark.parametrize("phi", _NAMED_PHIS, ids=["p1", "p1.5", "p2",
                                                      "psi"])
    @pytest.mark.parametrize("x", [
        [3.0],  # n = 1
        [1e-300, 2.5e-310, 5e-324, 1.0, 0.0],  # underflow beside the max
        [1.0] + [1e-7] * 50,  # most entries in the head piece
        [1e308, 1e308, -3e307],  # the rescaled path
        [2e-310, -1e-311, 3e-309],  # rescaled from a subnormal bracket
        np.linspace(0.5, 2.0, 128),
    ], ids=["one", "underflow", "head", "rescaled", "subnormal", "spread"])
    def test_named_cases(self, phi, x):
        assert sequence_norm(phi, x) == _per_step_sequence_norm(phi, x)

    def test_singular_values_of_summing_functions(self):
        from osinv import catalog
        from osinv.schatten import _summing_orlicz_fn

        rng = np.random.default_rng(67)
        phi = _summing_orlicz_fn(catalog("oh"), catalog("column_p", 3))
        for r in (8, 32, 128):
            s = np.linalg.svd(rng.normal(size=(r, 128)), compute_uv=False)
            assert sequence_norm(phi, s) == _per_step_sequence_norm(phi, s)

    @pytest.mark.parametrize("case", list(_ROOT_CASES))
    def test_root_cases(self, case):
        phi, x = _ROOT_CASES[case]
        assert sequence_norm(phi, x) == _per_step_sequence_norm(phi, x)

    @pytest.mark.parametrize("case", list(_ROOT_CASES))
    def test_without_a_root_every_step_is_evaluated(self, monkeypatch,
                                                    case):
        phi, x = _ROOT_CASES[case]
        want = _per_step_sequence_norm(phi, x)
        monkeypatch.setattr(orlicz, "_modular_root", lambda *args: None)
        assert sequence_norm(phi, x) == want

    @pytest.mark.parametrize("n", [2, 3, 10, 128])
    def test_every_modular_matches_the_lookup(self, monkeypatch, n):
        seen = _recorded_terms(monkeypatch)
        rng = np.random.default_rng(73)
        for phi in (psi(), from_weight(OH_WEIGHT), power_orlicz(2.0)):
            for _ in range(100):
                sequence_norm(phi, np.exp(rng.uniform(-3.0, 0.0, size=n)))
        assert len(seen) > 1000
        for phi, ts, terms in seen:
            assert _same_bits(terms, _two_region_eval_many(phi, ts))

    @pytest.mark.parametrize("n", [2, 3, 10, 128])
    def test_midpoint_off_the_bracket(self, monkeypatch, n):
        # A geometric midpoint biased low leaves [lo, hi] once the
        # bracket is narrow.  Far from the Newton root its side is the
        # root's, near it the modular is evaluated there: either way the
        # side must be the one the evaluated modular gives.
        seen = _recorded_terms(monkeypatch)
        sqrt = math.sqrt
        monkeypatch.setattr(math, "sqrt", lambda v: sqrt(v) * (1.0 - 1e-3))
        rng = np.random.default_rng(71)
        for phi in (psi(), from_weight(OH_WEIGHT)):
            for _ in range(10):
                x = np.exp(rng.uniform(-3.0, 0.0, size=n))
                assert (sequence_norm(phi, x)
                        == _per_step_sequence_norm(phi, x))
        for phi, ts, terms in seen:
            assert _same_bits(terms, _two_region_eval_many(phi, ts))


def _bracket(phi: OrliczFn, x) -> tuple[np.ndarray, float, float] | None:
    """The positive entries and bisection bracket of ``sequence_norm``,
    or None where it returns before bisecting."""
    arr = np.abs(np.asarray(x, dtype=float))
    arr = arr[arr > 0.0]
    if arr.size == 0:
        return None
    lo = float(arr.max()) / phi.inverse(1.0)
    hi = quiet_sum(arr) / phi.inverse(1.0 / arr.size)
    if lo == 0.0 or not math.isfinite(hi) or hi <= lo * (1.0 + 1e-12):
        return None
    return arr, lo, hi


def _mp_root(phi: OrliczFn, arr: np.ndarray, lam: float):
    """40-digit root of ``sum phi(arr_k/lam) = 1``, by Newton in
    ``ln lam`` from `lam`, with ``phi`` evaluated from its knots, values
    and exponents (the head piece with the left exponent)."""
    knots = phi.body.knots
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        xs = [mpmath.mpf(float(v)) for v in arr]
        for _ in range(50):
            terms, slopes = [], []
            for x in xs:
                t = x / lam
                j = bisect.bisect_right(knots, t)
                if j == 0:
                    v0, t0, e = phi.body.values[0], knots[0], phi.left_exponent
                else:
                    v0, t0 = phi.body.values[j - 1], knots[j - 1]
                    e = phi.body.exponents[j - 1]
                terms.append(v0 * (t / t0) ** e)
                slopes.append(e * terms[-1])
            m = mpmath.fsum(terms)
            step = mpmath.log(m) * m / mpmath.fsum(slopes)
            lam *= mpmath.exp(step)
            if abs(step) < mpmath.mpf(10) ** -36:
                return lam
    raise AssertionError("mpmath Newton did not settle")


def _maps_like_inputs(count: int) -> list[tuple[OrliczFn, np.ndarray]]:
    """Singular values of seeded real matrices, 8 to 128 wide, against
    summing functions of catalog pairs, as ``pi1_of_map`` sees them."""
    from osinv import catalog
    from osinv.schatten import _summing_orlicz_fn

    phis = [_summing_orlicz_fn(catalog(a, *pa), catalog(b, *pb))
            for (a, pa), (b, pb) in (
                (("oh", ()), ("column_p", (3,))),
                (("column_p", (2,)), ("column_p", (4,))),
                (("cr_p", (1.5,)), ("row_p", (3,))),
                (("row_p", (4 / 3,)), ("oh", ())),
            )]
    rng = np.random.default_rng(79)
    out = []
    for k in range(count):
        r = int(rng.choice((8, 16, 32, 64, 128)))
        x = rng.normal(size=(r, int(rng.integers(r, 129))))
        out.append((phis[k % len(phis)],
                    np.linalg.svd(x, compute_uv=False)))
    return out


def _battery_inputs(monkeypatch) -> list[tuple[OrliczFn, np.ndarray]]:
    """Every ``sequence_norm`` input of the ``osinv verify`` battery."""
    from osinv import verify

    seen = []

    def recording(phi, x):
        seen.append((phi, np.asarray(x, dtype=float)))
        return sequence_norm(phi, x)

    monkeypatch.setattr(verify, "sequence_norm", recording)
    verify._check_euclidean_norm()
    verify._check_bisection_vs_scan()
    verify._check_diag_decomposition()
    return seen


class TestModularRoot:
    """``_modular_root`` against 40-digit roots: the replay is bit-exact
    only if the root lies well inside ``_ROOT_BAND``."""

    @pytest.mark.parametrize("case", list(_ROOT_CASES))
    def test_named_roots_settle_near_the_true_root(self, monkeypatch, case):
        phi, x = _ROOT_CASES[case]
        calls = []
        modular_root = orlicz._modular_root

        def recording(phi, arr, lo, hi):
            root = modular_root(phi, arr, lo, hi)
            calls.append((arr, root))
            return root

        monkeypatch.setattr(orlicz, "_modular_root", recording)
        sequence_norm(phi, x)
        # n = 1 returns the bracket's lower end before any root is sought;
        # the rescaled case seeks it once, on the scaled entries.
        assert len(calls) == (case != "one")
        for arr, root in calls:
            assert root is not None
            want = _mp_root(phi, arr, root)
            assert abs(root - want) <= orlicz._ROOT_BAND / 100 * want

    def test_knot_drop_needs_the_safeguard(self):
        # The root is 1 (see _knot_drop_phi), and the bracket's midpoint
        # is what lands on it.
        root = orlicz._modular_root(_knot_drop_phi(),
                                    *_bracket(_knot_drop_phi(), [1.0, 1.0]))
        assert root == pytest.approx(1.0, rel=1e-15)

    def test_single_exponent_takes_one_step(self, monkeypatch):
        seen = _recorded_terms(monkeypatch)
        for phi in (_CUBE_TABLE, power_orlicz(1.5), power_orlicz(2.0)):
            for n in (2, 17, 64):
                x = np.exp(np.random.default_rng(n).uniform(-3, 1, size=n))
                seen.clear()
                assert orlicz._modular_root(phi, *_bracket(phi, x)) is not None
                # The step, then one that stops (rarely two, by rounding).
                assert len(seen) <= 3

    def test_few_evaluations_on_singular_values(self, monkeypatch):
        inputs = _maps_like_inputs(200)
        seen = _recorded_terms(monkeypatch)
        for phi, s in inputs:
            sequence_norm(phi, s)
        # A bisection that evaluates every step takes about 42.
        assert len(seen) / len(inputs) <= 8.0

    def test_within_the_band_on_battery_and_maps_inputs(self, monkeypatch):
        inputs = _battery_inputs(monkeypatch)
        assert len(inputs) == 175
        inputs += _maps_like_inputs(500)
        checked = 0
        for phi, x in inputs:
            bracket = _bracket(phi, x)
            if bracket is None:
                continue
            root = orlicz._modular_root(phi, *bracket)
            assert root is not None
            want = _mp_root(phi, bracket[0], root)
            assert abs(root - want) <= orlicz._ROOT_BAND / 100 * want
            checked += 1
        assert checked > 650


class TestFundamentalSequence:
    def test_pure_powers(self):
        p2 = power_orlicz(2.0)
        for n in (1, 4, 100):
            assert fundamental_sequence(p2, n) == pytest.approx(
                math.sqrt(n), rel=1e-12
            )
        p3 = power_orlicz(3.0)
        assert fundamental_sequence(p3, 8) == pytest.approx(2.0, rel=1e-12)

    def test_matches_norm_of_ones(self):
        for phi in (psi(), power_orlicz(1.7), from_weight(OH_WEIGHT)):
            for n in (1, 10, 100):
                assert fundamental_sequence(phi, n) == pytest.approx(
                    sequence_norm(phi, [1.0] * n), rel=1e-6
                )

    def test_rejects_bad_n(self):
        with pytest.raises(BadParameter):
            fundamental_sequence(power_orlicz(2.0), 0)
        with pytest.raises(BadParameter):
            fundamental_sequence(power_orlicz(2.0), math.nan)


class TestFromFundamentalSequence:
    def test_sqrt_data_reproduces_square(self):
        phi = from_fundamental_sequence(
            {4.0**k: 2.0**k for k in range(11)}
        )
        for t in (1e-4, 0.03, 1.0, 9.0):
            assert phi.eval(t) == pytest.approx(t * t, rel=1e-10)

    def test_linear_data_reproduces_identity(self):
        phi = from_fundamental_sequence({2.0**k: 2.0**k for k in range(12)})
        for t in (1e-3, 0.2, 1.0):
            assert phi.eval(t) == pytest.approx(t, rel=1e-10)

    def test_roundtrip_at_grid(self):
        data = {
            2.0**k: math.sqrt(2.0**k * math.log(2.0**k + 1))
            for k in range(21)
        }
        phi = from_fundamental_sequence(data)
        for n, v in data.items():
            assert fundamental_sequence(phi, n) == pytest.approx(v, rel=1e-3)

    def test_psi_like_data_stays_close_to_psi(self):
        data = {
            2.0**k: math.sqrt(2.0**k * math.log(2.0**k + 1))
            for k in range(21)
        }
        phi = from_fundamental_sequence(data)
        ref = psi()
        for t in np.geomspace(1e-6, 1.0, 40):
            ratio = phi.eval(t) / ref.eval(t)
            assert 0.25 <= ratio <= 4.0

    def test_noise_is_repaired_and_logged(self, caplog):
        data = {100.0: 10.0, 101.0: 10.0 * (1.0 - 1e-8), 110.0: 10.2}
        with caplog.at_level("INFO", logger="osinv.orlicz"):
            phi = from_fundamental_sequence(data)
        assert "repaired" in caplog.text
        assert fundamental_sequence(phi, 100) == pytest.approx(10.0, rel=1e-6)

    def test_decreasing_data_rejected(self):
        with pytest.raises(Inconsistent):
            from_fundamental_sequence({1.0: 2.0, 4.0: 1.0})

    def test_superlinear_data_rejected(self):
        with pytest.raises(Inconsistent):
            from_fundamental_sequence({1.0: 1.0, 4.0: 8.0})

    def test_constant_data_rejected(self):
        with pytest.raises(Inconsistent):
            from_fundamental_sequence({1.0: 1.0, 10.0: 1.0, 100.0: 1.0})

    def test_reciprocal_beyond_the_float_range_is_named(self):
        with pytest.raises(BadParameter, match=r"n=2\.0: phi_n = 1e-323"):
            from_fundamental_sequence({1: 5e-324, 2: 1e-323})

    def test_validation_errors(self):
        with pytest.raises(TooFewPoints):
            from_fundamental_sequence({4.0: 2.0})
        with pytest.raises(NonPositive):
            from_fundamental_sequence({1.0: 1.0, 4.0: -2.0})
        with pytest.raises(BadParameter):
            from_fundamental_sequence({0.5: 1.0, 4.0: 2.0})


class TestSmoothFromRaw:
    def test_pure_square_halves(self):
        phi = smooth_from_raw(power_orlicz(2.0))
        assert phi.eval(3.0) == pytest.approx(4.5, rel=1e-12)
        assert phi.eval(1e-6) == pytest.approx(5e-13, rel=1e-12)

    def test_identity_fixed(self):
        phi = smooth_from_raw(power_orlicz(1.0))
        assert phi.eval(7.0) == pytest.approx(7.0, rel=1e-12)

    def test_piecewise_integral_values(self):
        raw = make_piecewise(
            [1.0, 10.0], [1.0, 100.0],
            right_exponent=3.0, direction="nondecreasing",
        )
        phi = smooth_from_raw(raw)
        # int_0^t raw(s)/s ds: s below 10, then 0.1 s^2.
        assert phi.eval(10.0) == pytest.approx(50.0, rel=1e-12)
        assert phi.eval(20.0) == pytest.approx(
            50.0 + 0.1 * 7000.0 / 3.0, rel=1e-3
        )

    def test_sandwich_on_random_admissible(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            knots = np.geomspace(1e-3, 10.0, 5) * rng.uniform(0.5, 2.0)
            exps = rng.uniform(1.0, 4.0, size=4)
            vals = [rng.uniform(0.5, 2.0)]
            for (t0, t1), e in zip(zip(knots, knots[1:]), exps):
                vals.append(vals[-1] * (t1 / t0) ** e)
            raw = make_piecewise(
                knots.tolist(), vals,
                right_exponent=float(rng.uniform(1.0, 4.0)),
                direction="nondecreasing",
            )
            phi = smooth_from_raw(raw)
            raw_fn = make_orlicz(raw)
            for t in np.geomspace(1e-6, 100.0, 60):
                lo, hi = phi.eval(t), raw_fn.eval(t)
                assert lo <= hi * (1.0 + 1e-9)
                assert hi <= 4.0 * lo * (1.0 + 1e-9)

    def test_output_is_convex_on_grid(self):
        raw = make_piecewise(
            [1.0, 10.0], [1.0, 100.0],
            right_exponent=3.0, direction="nondecreasing",
        )
        phi = smooth_from_raw(raw)
        # Derivative raw(t)/t is nondecreasing, so chords steepen.
        exps = phi.body.segment_exponents
        assert min(exps) >= 1.0 - 1e-9

    def test_steep_left_piece_keeps_its_flank_in_range(self):
        # Left exponent log2(1e300) = 996.6: the smoothed value at t1/100
        # underflows, so the flank that pins the exponent must sit closer.
        raw = make_piecewise([1.0, 2.0], [1.0, 1e300], right_exponent=3.0)
        e = math.log2(1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = smooth_from_raw(raw)
        assert phi.left_exponent == pytest.approx(e, rel=1e-9)
        assert min(phi.body.values) >= sys.float_info.min
        # int_0^t s^(e-1) ds = t^e / e below 2, where raw(s) = s^e.
        assert phi.eval(1.0) == pytest.approx(1.0 / e, rel=1e-12)
        assert phi.eval(2.0) == pytest.approx(1e300 / e, rel=1e-9)
        assert phi.eval(0.5) == pytest.approx(0.5**e / e, rel=1e-9)

    def test_unchanged_flank_when_nothing_underflows(self):
        raw = make_piecewise([1.0, 10.0], [1.0, 100.0], right_exponent=3.0)
        assert smooth_from_raw(raw).body.knots[0] == 1.0 / 100.0

    def test_first_value_below_the_normal_range_is_named(self):
        raw = make_piecewise([1.0, 2.0], [1e-306, 1e-6], right_exponent=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAdmissible, match="first knot"):
                smooth_from_raw(raw)

    def test_rejects_sublinear_raw(self):
        body = make_piecewise(
            [1.0, 4.0], [1.0, 1.2], right_exponent=1.0,
            direction="nondecreasing",
        )
        with pytest.raises(NotAdmissible):
            smooth_from_raw(body)


class TestPsi:
    def test_value_at_one(self):
        assert psi().eval(1.0) == pytest.approx(math.log(2.0), rel=1e-6)

    def test_doubling_constant_finite_and_modest(self):
        assert 4.0 <= psi().delta2_constant <= 10.0

    def test_inverse_asymptote_near_zero(self):
        got = psi().inverse(1e-8)
        ref = math.sqrt(2e-8) / math.sqrt(math.log(1e8))
        assert 0.8 <= got / ref <= 1.2

    def test_fundamental_ratio_bounded(self):
        ph = psi()
        for k in (3, 5, 10, 15, 20):
            n = 2**k
            ratio = fundamental_sequence(ph, n) / math.sqrt(
                n * math.log(n + 1)
            )
            assert 0.5 <= ratio <= 2.0

    def test_cached_singleton(self):
        assert psi() is psi()
