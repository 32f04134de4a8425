"""Tests for the brute-force search and integration oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osinv.verify
from osinv import (
    canonical_weights,
    catalog,
    discrete_pair,
    dual,
    fit_loglog_slope,
    from_weight,
    half_line_pair,
    integral,
    make_orlicz,
    make_piecewise,
    pi1_fundamental,
    power_orlicz,
    psi,
    sequence_norm,
)
from osinv.errors import BadCutoff, BadParameter, DomainError
from osinv.orlicz import OrliczFn
from osinv.oracle import (
    aux_diag_norm,
    indicator_search,
    orlicz_norm_scan,
    riemann_integral,
)

OH = catalog("oh")
C3 = catalog("column_p", 3)
CR15 = catalog("cr_p", 1.5)
OH_W = canonical_weights(OH)
PHI_R_OH = from_weight(OH_W.ur_fn)


def corner_cells(corner: float, target: float, n: int, grid: int = 64) -> float:
    """Distance from `corner` to `target` in units of the corner-grid
    pitch (the log step of the search span at dimension `n`)."""
    pitch = math.log(max(16.0, 4.0 * n) / 0.25) / (grid - 1)
    return abs(math.log(corner / target)) / pitch


class TestAuxDiagNorm:
    def test_empty_and_zero_sequences(self) -> None:
        assert aux_diag_norm(OH_W, []) == 0.0
        assert aux_diag_norm(OH_W, [0.0, 0.0, 0.0]) == 0.0

    def test_single_entry_brackets_the_row_norm(self) -> None:
        value = aux_diag_norm(OH_W, [1.0])
        reference = sequence_norm(PHI_R_OH, [1.0])
        assert 0.125 <= value / reference <= 8.0

    def test_ones_track_the_row_fundamental_slope(self) -> None:
        ns = [8, 32, 128, 512, 2048]
        slope, r_squared = fit_loglog_slope(
            [(n, aux_diag_norm(OH_W, [1.0] * n)) for n in ns]
        )
        reference, _ = fit_loglog_slope(
            [(n, sequence_norm(PHI_R_OH, [1.0] * n)) for n in ns]
        )
        assert r_squared >= 0.99
        assert abs(slope - reference) <= 0.05

    def test_random_sequences_bracket_the_row_norm(self) -> None:
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.lognormal(0.0, 1.0, size=int(rng.integers(1, 33)))
            ratio = aux_diag_norm(OH_W, x) / sequence_norm(PHI_R_OH, x)
            assert 0.125 <= ratio <= 8.0

    def test_nested_refinement_never_increases(self) -> None:
        rng = np.random.default_rng(7)
        x = rng.lognormal(0.0, 1.0, size=12)
        coarse = aux_diag_norm(OH_W, x, tau_points=96)
        fine = aux_diag_norm(OH_W, x, tau_points=191)
        assert fine <= coarse * (1.0 + 1e-9)

    @pytest.mark.parametrize("bad", [[1.0, math.inf], [math.nan]])
    def test_rejects_nonfinite_entries(self, bad: list[float]) -> None:
        with pytest.raises(DomainError):
            aux_diag_norm(OH_W, bad)

    def test_rejects_empty_search_grid(self) -> None:
        with pytest.raises(BadParameter):
            aux_diag_norm(OH_W, [1.0], tau_points=0)

    def test_rejects_unnormalized_pair(self) -> None:
        plain = half_line_pair(OH_W.uc_fn, OH_W.ur_fn)
        with pytest.raises(BadParameter):
            aux_diag_norm(plain, [1.0])

    def test_rejects_discrete_pair(self) -> None:
        with pytest.raises(BadParameter):
            aux_diag_norm(discrete_pair([1.0], [1.0]), [1.0])


class TestIndicatorSearch:
    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_matches_the_quadrant_breakdown(self, n: int) -> None:
        """The search minimum lands within a factor 4 of the analytic
        mixed-quadrant value and its corner within one grid cell of the
        analytic breaking point.
        """
        report = pi1_fundamental(OH, OH, n)
        quadrant = (
            report.lambda1[0] + report.lambda2[0] + report.lambda3[0]
        )
        value, (s, t) = indicator_search(OH_W, OH_W, n)
        ratio = value / math.sqrt(quadrant)
        assert 0.25 <= ratio <= 4.0
        assert corner_cells(s, report.s_break, n) <= 1.0
        assert corner_cells(t, report.t_break, n) <= 1.0

    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_value_sits_in_the_hand_integrated_band(self, n: int) -> None:
        """For this weight (flat at 1, then inverse-square) the quadrant
        integral of ``min(col, row, n * col * row)`` splits at levels 1
        and ``sqrt(n)`` into ``4 + log n`` exactly, so the search value
        must land between ``sqrt(n * (4 + log n))`` and twice that.
        """
        value, _ = indicator_search(OH_W, OH_W, n)
        floor = math.sqrt(n * (4.0 + math.log(n)))
        assert floor * (1.0 - 1e-9) <= value <= 2.0 * floor

    def test_one_dimensional_value(self) -> None:
        value, _ = indicator_search(OH_W, OH_W, 1)
        assert 2.0 * (1.0 - 1e-9) <= value <= 8.0

    def test_nested_refinement_never_increases(self) -> None:
        coarse, _ = indicator_search(OH_W, OH_W, 256, grid=64)
        fine, _ = indicator_search(OH_W, OH_W, 256, grid=127)
        assert fine <= coarse * (1.0 + 1e-9)

    def test_asymmetric_pair_matches_its_quadrant(self) -> None:
        report = pi1_fundamental(C3, CR15, 256)
        quadrant = (
            report.lambda1[0] + report.lambda2[0] + report.lambda3[0]
        )
        value, (s, t) = indicator_search(
            canonical_weights(dual(C3)), canonical_weights(CR15), 256
        )
        assert 0.25 <= value / math.sqrt(quadrant) <= 4.0
        assert corner_cells(s, report.s_break, 256) <= 1.0
        assert corner_cells(t, report.t_break, 256) <= 1.0

    @pytest.mark.parametrize("bad", [0, -2, 2.5, True])
    def test_rejects_bad_dimensions(self, bad: object) -> None:
        with pytest.raises(BadParameter):
            indicator_search(OH_W, OH_W, bad)

    def test_rejects_degenerate_corner_grid(self) -> None:
        with pytest.raises(BadParameter):
            indicator_search(OH_W, OH_W, 4, grid=1)

    def test_rejects_discrete_pair(self) -> None:
        with pytest.raises(BadParameter):
            indicator_search(discrete_pair([1.0], [1.0]), OH_W, 4)


class TestRiemannIntegral:
    def test_inverse_square_over_the_half_line(self) -> None:
        value = riemann_integral(lambda u: u**-2.0, 1.0, math.inf, cutoff=1e9)
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_reciprocal_over_one_decade_of_e(self) -> None:
        value = riemann_integral(lambda u: 1.0 / u, 1.0, math.e, points=4096)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form_on_random_tables(self) -> None:
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            knots = np.cumsum(rng.uniform(0.3, 2.0, size=k))
            values = 5.0 * np.cumprod(rng.uniform(0.3, 0.95, size=k))
            f = make_piecewise(
                knots,
                values,
                right_exponent=-float(rng.uniform(1.5, 3.0)),
                direction="nonincreasing",
            )
            exact = integral(f, 0.3, 50.0)
            approx = riemann_integral(f, 0.3, 50.0, points=8192)
            assert approx == pytest.approx(exact, rel=1e-4)

    def test_steep_tail_needs_only_a_modest_cutoff(self) -> None:
        f = make_piecewise(
            [1.0, 4.0], [2.0, 1.0],
            right_exponent=-8.0, direction="nonincreasing",
        )
        exact = integral(f, 0.5, math.inf)
        approx = riemann_integral(f, 0.5, math.inf, points=8192, cutoff=1e4)
        assert approx == pytest.approx(exact, rel=1e-4)

    def test_infinite_limit_requires_a_cutoff(self) -> None:
        with pytest.raises(BadCutoff):
            riemann_integral(lambda u: u**-2.0, 1.0, math.inf)

    def test_rejects_cutoff_below_the_lower_limit(self) -> None:
        with pytest.raises(BadCutoff):
            riemann_integral(lambda u: u**-2.0, 1.0, math.inf, cutoff=0.5)

    def test_rejects_cutoff_with_a_visible_tail(self) -> None:
        with pytest.raises(BadCutoff):
            riemann_integral(lambda u: u**-2.0, 1.0, math.inf, cutoff=100.0)

    def test_rejects_non_integrable_decay(self) -> None:
        with pytest.raises(BadCutoff):
            riemann_integral(lambda u: 1.0 / u, 1.0, math.inf, cutoff=1e5)

    @pytest.mark.parametrize(
        "a, b, kwargs",
        [(0.0, 1.0, {}), (2.0, 1.0, {}), (1.0, 2.0, {"points": 1})],
    )
    def test_rejects_bad_limits_and_grids(
        self, a: float, b: float, kwargs: dict
    ) -> None:
        with pytest.raises(BadParameter):
            riemann_integral(lambda u: u, a, b, **kwargs)


def _full_grid_scan(phi, x) -> tuple[float, int]:
    """Reference: the modular on all 10,000 candidates at once, summed
    lam-major; returns the value and the index of the first crossing."""
    xs = np.abs(np.asarray(list(x), dtype=float))
    xs = xs[xs > 0.0]
    if xs.size == 0:
        return 0.0, -1
    lams = np.geomspace(float(xs.max()) / 1e3, 1e3 * float(xs.sum()), 10_000)
    ratios = (xs[None, :] / lams[:, None]).ravel()
    modular = phi.eval_many(ratios).reshape(lams.size, xs.size).sum(axis=1)
    under = modular <= 1.0
    if not under.any():
        return float(lams[-1]), lams.size
    k = int(np.argmax(under))
    if k == 0:
        return float(lams[0]), k
    m_lo, m_hi = float(modular[k - 1]), float(modular[k])
    if m_hi <= 0.0 or m_lo <= m_hi:
        return float(lams[k]), k
    frac = math.log(m_lo) / (math.log(m_lo) - math.log(m_hi))
    return float(lams[k - 1] * (lams[k] / lams[k - 1]) ** frac), k


def _first_not_over(phi, x) -> int:
    """Index of the first candidate whose largest term is at most
    1 + 1e-9 (the scan skips those before it), or 10,000 if none is."""
    xs = np.abs(np.asarray(x, dtype=float))
    xs = xs[xs > 0.0]
    lams = np.geomspace(float(xs.max()) / 1e3, 1e3 * float(xs.sum()), 10_000)
    over = phi.eval_many(xs.max() / lams) > 1.0 + 1e-9
    return lams.size if over.all() else int(np.argmin(over))


@st.composite
def _orlicz_tables(draw):
    """Random admissible tables, exponents in [1, 4], often integers."""
    m = draw(st.integers(min_value=1, max_value=30))
    exponent = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.0]),
                         st.floats(1.0, 4.0))
    knots = [math.exp(draw(st.floats(-6.0, 3.0)))]
    values = [math.exp(draw(st.floats(-8.0, 8.0)))]
    for _ in range(m - 1):
        knots.append(knots[-1] * math.exp(draw(st.floats(0.01, 2.0))))
        values.append(values[-1] * (knots[-1] / knots[-2]) ** draw(exponent))
    return make_orlicz(make_piecewise(knots, values,
                                      right_exponent=draw(exponent),
                                      direction="nondecreasing"))


def _scaled_power(value_at_one: float):
    """``phi(t) = value_at_one * t``: tiny values put the crossing at the
    first candidate, huge ones leave the modular above 1 throughout."""
    return make_orlicz(make_piecewise([1.0], [value_at_one],
                                      right_exponent=1.0))


class TestScanMatchesFullGrid:
    """The chunked scan stops at the first chunk holding a crossing; its
    result must be, to the bit, the full-grid scan's."""

    PHIS = (power_orlicz(1.5), power_orlicz(2.0), psi(), PHI_R_OH,
            power_orlicz(1.0))

    def test_seeded_sequences(self) -> None:
        rng = np.random.default_rng(2024)
        for i in range(300):
            phi = self.PHIS[i % len(self.PHIS)]
            x = rng.lognormal(0.0, float(rng.uniform(0.1, 3.0)),
                              size=int(rng.integers(1, 48)))
            want, _ = _full_grid_scan(phi, x)
            assert orlicz_norm_scan(phi, x) == want

    @pytest.mark.parametrize(
        "scale, x, k",
        [(1e-9, [1.0], 0), (1e-9, [3.0, 0.5], 0),
         (1e12, [1.0], 10_000), (1e12, [2.0, 5.0, 1.0], 10_000)],
        ids=["first-1", "first-2", "none-1", "none-3"],
    )
    def test_crossing_at_the_ends(self, scale, x, k) -> None:
        phi = _scaled_power(scale)
        want, k_ref = _full_grid_scan(phi, x)
        assert k_ref == k
        assert orlicz_norm_scan(phi, x) == want

    @pytest.mark.parametrize("i", range(5))
    def test_crossing_at_a_chunk_start(self, monkeypatch, i) -> None:
        # Chunks start at the last skipped candidate; chunks of exactly
        # k - start candidates put the crossing first in the second
        # chunk, so the cell's left modular comes from the first.  With
        # one candidate per chunk the first unskipped candidate starts a
        # chunk too.
        rng = np.random.default_rng(i)
        phi = self.PHIS[i]
        x = rng.lognormal(0.0, 1.5, size=int(rng.integers(2, 30)))
        want, k = _full_grid_scan(phi, x)
        assert 0 < k < 10_000
        start = max(_first_not_over(phi, x) - 1, 0)
        for step in (k - start, 1, 7, k - start - 1, k - start + 1):
            monkeypatch.setattr("osinv.oracle._SCAN_CHUNK", step * len(x))
            assert orlicz_norm_scan(phi, x) == want

    @pytest.mark.parametrize(
        "x", [[0.3], [1.0], [42.0], [1e9], [5.0, 1e-6, 2e-6]],
        ids=["one-0.3", "one-1", "one-42", "one-1e9", "dominated"],
    )
    def test_crossing_at_the_first_unskipped_candidate(self, x) -> None:
        # The crossing cell's left modular is the last skipped candidate.
        for phi in self.PHIS:
            want, k = _full_grid_scan(phi, x)
            assert 0 < k == _first_not_over(phi, x)
            assert orlicz_norm_scan(phi, x) == want

    @pytest.mark.parametrize("offset", [-5e-10, 0.0, 5e-10, 1e-9, 2e-9])
    @pytest.mark.parametrize("x", [[1.0], [1.0, 1e-4]], ids=["one", "two"])
    def test_largest_term_near_one(self, x, offset) -> None:
        # phi(t) = c t with c putting candidate 5000's largest term at
        # 1 + offset, inside and just beyond the skip bound's margin.
        lams = np.geomspace(max(x) / 1e3, 1e3 * sum(x), 10_000)
        phi = _scaled_power((1.0 + offset) * float(lams[5000]) / max(x))
        term = float(phi.eval_many(max(x) / lams[5000:5001])[0])
        assert term == pytest.approx(1.0 + offset, abs=1e-15)
        want, k = _full_grid_scan(phi, x)
        if offset == 5e-10:
            # Not skipped, yet its modular is above 1.
            assert (_first_not_over(phi, x), k) == (5000, 5001)
        assert orlicz_norm_scan(phi, x) == want

    def test_entries_spanning_many_decades(self) -> None:
        rng = np.random.default_rng(12)
        for phi in self.PHIS:
            for _ in range(8):
                size = int(rng.integers(2, 40))
                x = 10.0 ** rng.uniform(-7.0, 6.0, size=size)
                x[:2] = 1e-7, 1e6
                assert orlicz_norm_scan(phi, x) == _full_grid_scan(phi, x)[0]

    @settings(max_examples=80, deadline=None)
    @given(
        _orlicz_tables(),
        st.lists(st.floats(-9.0, 9.0), min_size=1, max_size=30),
        st.booleans(),
    )
    def test_random_tables(self, phi, log_x, negate) -> None:
        x = [(-1.0 if negate and i % 2 else 1.0) * 10.0**v
             for i, v in enumerate(log_x)]
        assert orlicz_norm_scan(phi, x) == _full_grid_scan(phi, x)[0]


class TestScanWork:
    def test_battery_scans_skip_most_evaluations(self, monkeypatch) -> None:
        # phi evaluations in the 100 scans of the verify battery's
        # bisection-vs-scan check; scanning in the same chunks from the
        # first candidate, with no skip, takes 10,197,956.
        count = 0
        inside = False
        eval_many = OrliczFn.eval_many
        scan = osinv.verify.orlicz_norm_scan

        def counting_eval_many(self, ts):
            nonlocal count
            if inside:
                count += np.asarray(ts).size
            return eval_many(self, ts)

        def counted_scan(phi, x):
            nonlocal inside
            inside = True
            try:
                return scan(phi, x)
            finally:
                inside = False

        monkeypatch.setattr(OrliczFn, "eval_many", counting_eval_many)
        monkeypatch.setattr(osinv.verify, "orlicz_norm_scan", counted_scan)
        passed, _ = osinv.verify._check_bisection_vs_scan()
        assert passed
        assert 0 < count <= 10_197_956 // 3


class TestOrliczNormScan:
    def test_euclidean_crossing_is_exact(self) -> None:
        value = orlicz_norm_scan(power_orlicz(2.0), [3.0, 4.0])
        assert value == pytest.approx(5.0, rel=1e-9)

    @pytest.mark.parametrize(
        "phi", [power_orlicz(1.5), psi(), PHI_R_OH], ids=["p15", "psi", "oh"]
    )
    def test_agrees_with_the_bisection_solver(self, phi) -> None:
        rng = np.random.default_rng(11)
        for _ in range(34):
            x = rng.lognormal(0.0, 1.5, size=int(rng.integers(1, 40)))
            scanned = orlicz_norm_scan(phi, x)
            solved = sequence_norm(phi, x)
            assert scanned == pytest.approx(solved, rel=1e-3)

    def test_dominant_entry_sets_the_norm(self) -> None:
        value = orlicz_norm_scan(psi(), [1e9, 1.0, 2.0])
        assert value == pytest.approx(1e9 / psi().inverse(1.0), rel=1e-5)

    def test_zero_sequences(self) -> None:
        assert orlicz_norm_scan(psi(), []) == 0.0
        assert orlicz_norm_scan(psi(), [0.0, 0.0]) == 0.0

    def test_rejects_nonfinite_entries(self) -> None:
        with pytest.raises(DomainError):
            orlicz_norm_scan(psi(), [1.0, math.inf])

    @pytest.mark.parametrize(
        "x", [[1e308, 1e308], [1e306, -1e306], [1e306, 0.0, 1e306]],
        ids=["sum-overflows", "grid-end-overflows", "with-zero"],
    )
    def test_entries_near_the_float_maximum(self, x) -> None:
        # The candidate range's upper end overflows, the norm does not.
        want = math.sqrt(2.0) * abs(x[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = orlicz_norm_scan(power_orlicz(2.0), x)
        assert value == pytest.approx(want, rel=1e-3)

    def test_norm_beyond_the_float_range_is_inf(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = orlicz_norm_scan(power_orlicz(1.0), [1e308, 1e308])
        assert value == math.inf
