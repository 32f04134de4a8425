"""Tests for the brute-force search and integration oracles."""

from __future__ import annotations

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osinv.oracle
import osinv.verify
from osinv import catalog, pi1_fundamental
from osinv.errors import BadParameter, DivergentTail, DomainError
from osinv.growth import TailIntegral
from osinv.monotone_fn import (
    crossing_below,
    evaluate_many,
    fit_loglog_slope,
    integral,
    make_piecewise,
)
from osinv.orlicz import (
    OrliczFn,
    from_weight,
    make_orlicz,
    power_orlicz,
    psi,
    rescaled_norm,
    sequence_norm,
)
from osinv.oracle import (
    _LATTICE_LO,
    _crossings,
    _lattice,
    _scan_grid,
    _tail_masses,
    aux_diag_norm,
    indicator_search,
    orlicz_norm_scan,
    riemann_integral,
)
from osinv.spaces import WeightPair, canonical_weights, dual

from test_growth import _mp_tail
from test_schatten import _knotted_space

OH = catalog("oh")
C3 = catalog("column_p", 3)
CR15 = catalog("cr_p", 1.5)
OH_W = canonical_weights(OH)
PHI_R_OH = from_weight(OH_W.ur_fn)


def _flat_to(exponent: float) -> "make_piecewise":
    """A density equal to 1 up to 1 and to ``t**exponent`` beyond."""
    return make_piecewise([1.0], [1.0], right_exponent=exponent,
                          direction="nonincreasing")


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
        # A density above 1 is not in reflected form; the pair is
        # refused where it is built, before any search runs.
        twice = make_piecewise(
            [1.0], [2.0], right_exponent=-2.0, direction="nonincreasing"
        )
        with pytest.raises(BadParameter):
            aux_diag_norm(WeightPair(OH_W.uc_fn, twice), [1.0])

    def test_rejects_discrete_pair(self) -> None:
        with pytest.raises(BadParameter):
            aux_diag_norm(WeightPair((1.0,), (1.0,)), [1.0])

    @pytest.mark.parametrize("x", [[1.0], []])
    @pytest.mark.parametrize("exponent", [-1.0, 0.0])
    def test_rejects_a_divergent_row_tail(self, exponent, x) -> None:
        with pytest.raises(DivergentTail):
            aux_diag_norm(WeightPair(OH_W.uc_fn, _flat_to(exponent)), x)

    @pytest.mark.parametrize(
        "x", [[1e160, 1.0], [1e-300, 1.0], [1e200, 1e-200], [5e-324, 1.0]]
    )
    def test_rejects_a_spread_whose_square_overflows(self, x) -> None:
        # The grid ends at (sum/min)**2, past the float range here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"below 1\.34e\+154"):
                aux_diag_norm(OH_W, x)

    @pytest.mark.parametrize("e", [1018, 700, -700, -1000])
    def test_scaling_by_a_power_of_two_is_exact(self, e) -> None:
        # At 2**1018 the 64 entries' sum and squares overflow; at
        # 2**-700 and below their squares underflow.
        x = np.random.default_rng(3).lognormal(0.0, 0.5, size=64)
        x /= x.max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert aux_diag_norm(OH_W, np.ldexp(x, e)) == math.ldexp(
                aux_diag_norm(OH_W, x), e)

    def test_bound_past_the_float_range_is_inf(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert aux_diag_norm(OH_W, [1e308, 1e308]) == math.inf

    def test_wide_spread_scores_without_warnings(self) -> None:
        # Slacks overflow to inf, which affords every grid tau.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = aux_diag_norm(OH_W, [1e100, 1.0])
        with np.errstate(over="ignore"):
            assert value == _ref_aux_diag_norm(OH_W, [1e100, 1.0])


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

    @pytest.mark.parametrize("bad", [0, -2, 2.5, True, np.int64(-1)])
    def test_rejects_bad_dimensions(self, bad: object) -> None:
        with pytest.raises(BadParameter, match=re.escape(f"got {bad!r}")):
            indicator_search(OH_W, OH_W, bad)

    @pytest.mark.parametrize("big", [2**60 + 1, 10**400],
                             ids=["2**60+1", "10**400"])
    def test_rejects_dimension_above_2_to_the_60(self, big: int) -> None:
        with pytest.raises(BadParameter, match=r"at most 2\*\*60"):
            indicator_search(OH_W, OH_W, big)

    def test_numpy_integer_dimension(self) -> None:
        assert (indicator_search(OH_W, OH_W, np.int64(16))
                == indicator_search(OH_W, OH_W, 16))

    def test_rejects_degenerate_corner_grid(self) -> None:
        with pytest.raises(BadParameter):
            indicator_search(OH_W, OH_W, 4, grid=1)

    def test_rejects_discrete_pair(self) -> None:
        with pytest.raises(BadParameter):
            indicator_search(WeightPair((1.0,), (1.0,)), OH_W, 4)

    @pytest.mark.parametrize("exponent", [-1.0, 0.0])
    @pytest.mark.parametrize("side", ["row", "column"])
    def test_rejects_a_divergent_tail(self, side, exponent) -> None:
        w = _flat_to(exponent)
        uE = WeightPair(w, OH_W.ur_fn) if side == "column" else OH_W
        vF = WeightPair(OH_W.uc_fn, w) if side == "row" else OH_W
        with pytest.raises(DivergentTail):
            indicator_search(uE, vF, 16)


def _one_at_a_time(fn, ts) -> np.ndarray:
    """`fn` of one-entry arrays, entry by entry."""
    return np.array([fn(np.array([float(t)]))[0] for t in ts])


def _ref_aux_diag_norm(p: WeightPair, x, tau_points: int = 96) -> float:
    """:func:`aux_diag_norm` scoring every budget, on unscaled entries,
    with one tail mass at a time: the reference for dropping the
    infeasible ones."""
    row_tail = _tail_masses(p.ur_fn)
    xs = np.abs(np.asarray(list(x), dtype=float))
    xs = xs[xs > 0.0]
    tau_hi = max(1e4, float(xs.sum() / xs.min()) ** 2)
    taus = np.concatenate(([0.0], np.geomspace(1e-4, tau_hi, tau_points)))
    h_vals = _one_at_a_time(row_tail, taus)
    budgets = np.unique(np.outer(xs, np.sqrt(1.0 + taus)).ravel())
    slack = (budgets[:, None] / xs[None, :]) ** 2 - 1.0
    idx = np.searchsorted(taus, slack * (1.0 + 1e-12), side="right") - 1
    feasible = np.all(idx >= 0, axis=1)
    sums = np.sum(xs[None, :] ** 2 * h_vals[np.maximum(idx, 0)], axis=1)
    values = budgets + np.sqrt(sums)
    return float(np.min(values[feasible]))


def _ref_indicator_search(uE: WeightPair, vF: WeightPair, n: int,
                          grid: int = 64) -> tuple[float, tuple[float, float]]:
    """:func:`indicator_search` with one crossing per lattice point and
    ``H`` evaluated afresh at every corner: at its clipped points, and at
    ``t*`` on its own."""
    col, row = uE.uc_fn, vF.ur_fn
    col_tail = _tail_masses(col)
    row_tail = _tail_masses(row)

    def crossing(y: float) -> float:
        return float(_crossings(row, np.array([y]))[0])

    def row_mass(t: float) -> float:
        return float(row_tail(np.array([t]))[0])

    edges, mids, widths = _lattice()
    col_mid = evaluate_many(col, mids)
    cross = np.array([crossing(float(y)) for y in col_mid])
    full_min = col_mid * cross + _one_at_a_time(row_tail, cross)
    below = np.concatenate(([0.0], np.cumsum(full_min * widths)))
    y0 = float(evaluate_many(col, np.array([_LATTICE_LO]))[0])
    t0 = crossing(y0)
    head = (y0 * t0 + row_mass(t0)) * _LATTICE_LO
    col_tails = col_tail(edges)
    nf = float(n)
    span = np.geomspace(0.25, max(16.0, 4.0 * nf), grid)
    corner_idx = np.unique(
        np.clip(np.searchsorted(edges, span), 0, edges.size - 1)
    )
    s_corners = edges[corner_idx]
    t_corners = s_corners
    values = np.empty((corner_idx.size, t_corners.size))
    for j, t_star in enumerate(t_corners):
        tj = float(t_star)
        row_tail_j = row_mass(tj)
        clipped = np.minimum(cross, tj)
        strip = col_mid * clipped + row_tail(clipped) - row_tail_j
        beyond = np.concatenate(
            (np.cumsum((strip * widths)[::-1])[::-1], [0.0])
        )
        a_sq = head + below[corner_idx] + beyond[corner_idx]
        a_sq += tj * col_tails[-1]
        b_sq = col_tails[corner_idx] * row_tail_j
        values[:, j] = np.sqrt(nf * a_sq + nf * nf * b_sq)
    flat = int(np.argmin(values))
    i, j = divmod(flat, t_corners.size)
    return float(values[i, j]), (float(s_corners[i]), float(t_corners[j]))


def _knotted_pairs(seed: int, m: int) -> list[WeightPair]:
    """Canonical pairs of a seeded many-knot table and of its dual."""
    space = _knotted_space(seed, m)
    return [canonical_weights(space), canonical_weights(dual(space))]


#: A row density with a flat run between 2 and 4, then a t**-2 tail.
FLAT_RUN_W = WeightPair(
    OH_W.uc_fn,
    make_piecewise([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, 0.5, 0.1],
                   right_exponent=-2.0, direction="nonincreasing"),
)

#: Catalog families at several p, seeded many-knot tables (m = 5 and 25)
#: with their duals, and a row density with a flat run.
PAIRS = {
    "oh": OH_W,
    **{f"{kind}-{p}": canonical_weights(catalog(kind, p))
       for kind in ("column_p", "row_p", "cr_p") for p in (1.25, 2.0, 3.5)},
    **{f"knotted-{m}-{side}": pair for m in (5, 25)
       for side, pair in zip(("space", "dual"), _knotted_pairs(m, m))},
    "flat-run": FLAT_RUN_W,
}


class TestAuxDiagNormMatchesReference:
    """Dropping budgets below the cut, scaling the entries, and taking
    the tail masses as one array leave every value's bits as they were."""

    @staticmethod
    def _check(pair: WeightPair, x, tau_points: int = 96) -> None:
        assert aux_diag_norm(pair, x, tau_points) == _ref_aux_diag_norm(
            pair, x, tau_points)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_random_sequences(self, name: str) -> None:
        rng = np.random.default_rng(11)
        for _ in range(6):
            x = rng.lognormal(0.0, 1.5, size=int(rng.integers(1, 40)))
            self._check(PAIRS[name], x)

    @pytest.mark.parametrize("tau_points", [1, 2, 96, 191])
    @pytest.mark.parametrize("name", ["oh", "cr_p-1.25", "knotted-25-dual",
                                      "flat-run"])
    def test_grid_sizes(self, name: str, tau_points: int) -> None:
        rng = np.random.default_rng(tau_points)
        for size in (1, 12, 33):
            self._check(PAIRS[name], rng.lognormal(0.0, 1.0, size=size),
                        tau_points)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("x", [
        [1.0], [3.7], [0.02], [1.0] * 2, [2.5] * 7, [1.0] * 64,
        # On so coarse a grid the optimum is the budget max|x_k| itself.
        [1e100, 1.0], [1e6, 1.0, 1e-3],
        # A budget exactly at the cut: x_2 * sqrt(1 + 0) == 1 - 1e-9.
        [1.0, 1.0 - 1e-9], [1.0, 1.0 - 1e-9, 0.5],
    ])
    def test_edge_sequences(self, name: str, x: list[float]) -> None:
        with np.errstate(over="ignore"):
            self._check(PAIRS[name], x)


class TestIndicatorSearchMatchesReference:
    """The vectorised crossings, and ``H`` reused at each crossing and
    corner, leave every value and corner's bits as they were."""

    @staticmethod
    def _check(uE: WeightPair, vF: WeightPair, n: int, grid: int = 64):
        assert indicator_search(uE, vF, n, grid) == _ref_indicator_search(
            uE, vF, n, grid)

    @pytest.mark.parametrize("grid", [2, 3, 64, 127])
    @pytest.mark.parametrize("n", [1, 16, 256, 4096, 2**40])
    def test_dimensions_and_grids(self, n: int, grid: int) -> None:
        self._check(OH_W, OH_W, n, grid)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_pairs(self, name: str) -> None:
        pair = PAIRS[name]
        for n, grid in ((16, 64), (4096, 3), (2**40, 127)):
            self._check(pair, pair, n, grid)

    @pytest.mark.parametrize("col, row", [
        ("column_p-1.25", "row_p-3.5"), ("knotted-5-space", "oh"),
        ("oh", "knotted-25-dual"), ("cr_p-2.0", "flat-run"),
    ])
    def test_mixed_pairs(self, col: str, row: str) -> None:
        for n in (1, 256):
            self._check(PAIRS[col], PAIRS[row], n)


def _densities() -> dict[str, "make_piecewise"]:
    """Both densities of every pair in :data:`PAIRS` and of a seeded
    200-knot table and its dual."""
    pairs = {**PAIRS, **dict(zip(("knotted-200-space", "knotted-200-dual"),
                                _knotted_pairs(200, 200)))}
    return {f"{name}-{side}": w for name, pair in pairs.items()
            for side, w in (("col", pair.uc_fn), ("row", pair.ur_fn))}


DENSITIES = _densities()

#: Chord exponents on either side of -1, where a ``const + coef (t/a)^q``
#: form cancels, and at -1 itself.
CHORDS = [-2.5, -1.0002, -1.0, -1.0 + 1e-9, -0.995, -0.9988, -0.5]


class TestTailMasses:
    """The oracle's own ``H`` against 40-digit mpmath and the library's
    :class:`TailIntegral`; the bounds sit above the worst values measured
    (3.5e-16 against mpmath, 1.4e-15 against ``eval``)."""

    @pytest.mark.parametrize("span", [math.e, 8.0, 1e3])
    @pytest.mark.parametrize("chord", CHORDS)
    def test_against_mpmath(self, chord: float, span: float) -> None:
        import mpmath

        w = make_piecewise([1.0, span], [1.0, span**chord],
                           right_exponent=-3.0, direction="nonincreasing")
        ts = [0.0, 0.5, 1.0, *np.geomspace(1.0, span, 9)[1:-1].tolist(),
              math.nextafter(span, 0.0), span, 2.0 * span, 50.0 * span]
        with mpmath.workdps(40):
            h = _mp_tail(mpmath, w)
            want = np.array([float(h(mpmath.mpf(t))) for t in ts])
        got = _tail_masses(w)(np.array(ts))
        assert np.max(np.abs(got - want) / want) <= 1e-15

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_against_tail_integral(self, name: str) -> None:
        w = DENSITIES[name]
        ts = np.concatenate(([0.0], np.geomspace(1e-6, 1e9, 401), w.knots))
        hh = TailIntegral.from_density(w)
        want = np.array([hh.eval(float(t)) for t in ts])
        got = _tail_masses(w)(ts)
        assert np.max(np.abs(got - want) / want) <= 4e-15
        # Elementwise: the same bits as one abscissa at a time.
        assert got.tobytes() == _one_at_a_time(_tail_masses(w), ts).tobytes()


class TestCrossings:
    """The oracle's own crossings against :func:`crossing_below`, within
    1e-15 relative (worst measured 4.1e-16), and 0 above the maximum."""

    @staticmethod
    def _check(w, ys: np.ndarray) -> None:
        want = np.array([crossing_below(w, float(y)) for y in ys])
        got = _crossings(w, ys)
        assert np.all((got == 0.0) == (want == 0.0))
        hit = want > 0.0
        assert np.max(np.abs(got[hit] - want[hit]) / want[hit],
                      initial=0.0) <= 1e-15
        one = _one_at_a_time(lambda y: _crossings(w, y), ys)
        assert got.tobytes() == one.tobytes()

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_against_crossing_below(self, name: str) -> None:
        w = DENSITIES[name]
        vals = np.asarray(w.values)
        # At every value and either side of it, between values, above the
        # maximum, past the last knot, and down to 1e-300.
        self._check(w, np.concatenate([
            vals, np.nextafter(vals, 0.0), np.nextafter(vals, np.inf),
            np.sqrt(vals[1:] * vals[:-1]), [2.0 * vals[0], vals[-1] / 3.0],
            np.geomspace(vals[0], 1e-300, 61),
        ]))

    def test_flat_run_and_levels_above_the_maximum(self) -> None:
        w = make_piecewise([1.0, 2.0, 4.0, 8.0], [4.0, 2.0, 2.0, 1.0],
                           right_exponent=-1.5, direction="nonincreasing")
        got = _crossings(w, np.array([5.0, 4.0, 2.0, 1.5, 1.0]))
        assert got.tolist() == [0.0, 1.0, 4.0, crossing_below(w, 1.5), 8.0]


class TestRiemannIntegral:
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

    @pytest.mark.parametrize(
        "a, b, kwargs",
        [(0.0, 1.0, {}), (2.0, 1.0, {}), (1.0, 2.0, {"points": 1}),
         (1.0, math.inf, {}), (1.0, math.nan, {})],
    )
    def test_rejects_bad_limits_and_grids(
        self, a: float, b: float, kwargs: dict
    ) -> None:
        with pytest.raises(BadParameter):
            riemann_integral(lambda u: u, a, b, **kwargs)


def _full_grid_modular(phi, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 10,000 candidates for the nonzero entries `xs`, and the
    modular on all of them at once, summed lam-major."""
    lams = np.geomspace(float(xs.max()) / 1e3, 1e3 * float(xs.sum()), 10_000)
    ratios = (xs[None, :] / lams[:, None]).ravel()
    return lams, phi.eval_many(ratios).reshape(lams.size, xs.size).sum(axis=1)


def _full_grid_scan(phi, x) -> tuple[float, int]:
    """Reference: a scan of the full grid; returns the value and the
    index of the first crossing."""
    xs = np.abs(np.asarray(list(x), dtype=float))
    xs = xs[xs > 0.0]
    if xs.size == 0:
        return 0.0, -1
    lams, modular = _full_grid_modular(phi, xs)
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
    """Index of the first candidate whose largest term alone is at most
    1 + 1e-9, or 10,000 if none is; the modular crosses 1 no earlier
    than the largest term does."""
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


def _scaled_power(value_at_one: float, exponent: float = 1.0):
    """``phi(t) = value_at_one * t**exponent``: tiny values put the
    crossing at the first candidate, huge ones leave the modular above 1
    throughout."""
    return make_orlicz(make_piecewise([1.0], [value_at_one],
                                      right_exponent=exponent))


def _crossing_at(k: int, x: list[float], exact: bool, exponent: float = 1.0):
    """A `_scaled_power` whose full-grid modular on `x` first reaches 1
    at candidate `k`: exactly 1 there if `exact`, else crossing at the
    cell's geometric midpoint.  k = 10,000 leaves every candidate over."""
    xs = np.asarray(x, dtype=float)
    lams = np.geomspace(xs.max() / 1e3, 1e3 * xs.sum(), 10_000)
    scale = np.sum(xs**exponent)
    if k == lams.size:
        return _scaled_power(2.0 * float(lams[-1] ** exponent / scale),
                             exponent)
    if not exact:
        cell = np.sqrt(lams[k - 1] * lams[k])
        return _scaled_power(float(cell**exponent / scale), exponent)
    c = float(lams[k] ** exponent / scale)
    for _ in range(64):  # step c an ulp at a time toward a modular of 1
        phi = _scaled_power(c, exponent)
        m = phi.eval_many(xs / lams[k]).sum()
        if m == 1.0:
            return phi
        c = math.nextafter(c, 0.0 if m > 1.0 else math.inf)
    raise AssertionError(f"no scale puts candidate {k}'s modular at 1")


def _probed(monkeypatch, phi, x) -> tuple[float, list[int]]:
    """The scan's value on `x`, and the candidates it probed in order."""
    probed = []

    def recording_grid(start, stop):
        candidate = _scan_grid(start, stop)

        def recorded(k: int):
            probed.append(k)
            return candidate(k)

        return recorded

    with monkeypatch.context() as patch:
        patch.setattr(osinv.oracle, "_scan_grid", recording_grid)
        value = orlicz_norm_scan(phi, x)
    return value, probed


class TestScanMatchesFullGrid:
    """The scan searches the grid for the first crossing, steered by
    secants; its result must be, to the bit, the full-grid scan's."""

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

    @pytest.mark.parametrize("k, exact", [
        *((k, exact) for k in (1, 2, 4999, 5000, 5001, 9998, 9999)
          for exact in (False, True)),
        (10_000, False),
    ])
    @pytest.mark.parametrize(
        "x", [[1.0], [2.0, 1.0, 0.5, 0.25]], ids=["one", "four"]
    )
    def test_crafted_crossings(self, x, k, exact) -> None:
        # The bisection's first probes (5000, 2500 or 7500, ...), its
        # ends next to the grid's ends, and a modular of exactly 1 at the
        # crossing, which counts as crossed.
        phi = _crossing_at(k, x, exact)
        want, k_ref = _full_grid_scan(phi, x)
        assert k_ref == k
        assert orlicz_norm_scan(phi, x) == want

    @pytest.mark.parametrize("i", range(5))
    def test_crossing_at_a_chunk_start(self, i) -> None:
        # Seeded sequences with the crossing inside the grid, once chosen
        # to start a chunk of an earlier, chunked scan.
        rng = np.random.default_rng(i)
        phi = self.PHIS[i]
        x = rng.lognormal(0.0, 1.5, size=int(rng.integers(2, 30)))
        want, k = _full_grid_scan(phi, x)
        assert 0 < k < 10_000
        assert orlicz_norm_scan(phi, x) == want

    @pytest.mark.parametrize("first", [1, 1023, 1024, 1025, 2048, 9216, 9999])
    @pytest.mark.parametrize(
        "x", [[1.0], [1.0, 1e-4], [2.0, 1.0, 0.5, 0.25]],
        ids=["one", "two", "four"],
    )
    def test_first_unskipped_at_a_bound_block_edge(self, first, x) -> None:
        # phi(t) = c t with c putting the largest term at candidate
        # `first` at 1 to rounding: the crossing is there or just after,
        # at candidates spread over the grid (once the edges of blocks of
        # an earlier scan's largest-term bound).
        lams = np.geomspace(max(x) / 1e3, 1e3 * sum(x), 10_000)
        phi = _scaled_power(float(lams[first]) / max(x))
        assert _first_not_over(phi, x) == first
        assert orlicz_norm_scan(phi, x) == _full_grid_scan(phi, x)[0]

    @pytest.mark.parametrize(
        "x", [[0.3], [1.0], [42.0], [1e9], [5.0, 1e-6, 2e-6]],
        ids=["one-0.3", "one-1", "one-42", "one-1e9", "dominated"],
    )
    def test_crossing_at_the_first_unskipped_candidate(self, x) -> None:
        # The crossing is where the largest term alone reaches 1.
        for phi in self.PHIS:
            want, k = _full_grid_scan(phi, x)
            assert 0 < k == _first_not_over(phi, x)
            assert orlicz_norm_scan(phi, x) == want

    @pytest.mark.parametrize("offset", [-5e-10, 0.0, 5e-10, 1e-9, 2e-9])
    @pytest.mark.parametrize("x", [[1.0], [1.0, 1e-4]], ids=["one", "two"])
    def test_largest_term_near_one(self, x, offset) -> None:
        # phi(t) = c t with c putting candidate 5000's largest term at
        # 1 + offset, the bisection's first probe.
        lams = np.geomspace(max(x) / 1e3, 1e3 * sum(x), 10_000)
        phi = _scaled_power((1.0 + offset) * float(lams[5000]) / max(x))
        term = float(phi.eval_many(max(x) / lams[5000:5001])[0])
        assert term == pytest.approx(1.0 + offset, abs=1e-15)
        want, k = _full_grid_scan(phi, x)
        if offset == 5e-10:
            # The largest term within 1e-9 of 1, its modular above 1.
            assert (_first_not_over(phi, x), k) == (5000, 5001)
        assert orlicz_norm_scan(phi, x) == want

    @pytest.mark.parametrize("exponent, k, step", [
        (1.0, 3000, 1), (1.0, 6789, 1),
        (2.0, 4321, 2), (2.0, 6789, 2), (2.0, 7000, 2),
    ])
    @pytest.mark.parametrize(
        "x", [[1.0], [2.0, 1.0, 0.5, 0.25]], ids=["one", "four"]
    )
    def test_modular_of_one_where_the_first_secant_lands(
        self, monkeypatch, x, exponent, k, step
    ) -> None:
        # ln M of a pure power is linear in the index, so the first
        # secant (the unit-slope step, for exponent 1) lands on k, whose
        # modular is exactly 1 and counts as crossed; from ln M = 0 the
        # next probe is the one below, which closes the bracket.
        phi = _crossing_at(k, x, True, exponent)
        want, k_ref = _full_grid_scan(phi, x)
        assert k_ref == k
        value, probed = _probed(monkeypatch, phi, x)
        assert probed[step:] == [k, k - 1]
        assert value == want

    def test_unit_slope_step_is_exact_for_the_identity(self, monkeypatch):
        # For phi(t) = t the unit-slope step from the middle candidate
        # lands next to the crossing, and one more probe closes it.
        rng = np.random.default_rng(7)
        phi = power_orlicz(1.0)
        for _ in range(60):
            x = rng.lognormal(0.0, 2.0, size=int(rng.integers(1, 40)))
            value, probed = _probed(monkeypatch, phi, x)
            assert value == _full_grid_scan(phi, x)[0]
            assert probed[0] == 5000 and len(probed) <= 3

    @pytest.mark.parametrize("c, extreme", [(1e-300, math.inf), (1e300, 0.0)])
    @pytest.mark.parametrize(
        "x", [[1.0], [3.0, 1.0, 0.1]], ids=["one", "three"]
    )
    def test_probes_whose_modular_is_zero_or_overflows(
        self, monkeypatch, x, c, extreme
    ) -> None:
        # phi(t) = c t**200 over- or underflows across the grid: the
        # unit-slope step reaches a candidate whose modular is inf or 0,
        # and the search bisects from there.
        phi = _scaled_power(c, 200.0)
        with np.errstate(over="ignore", under="ignore"):
            want, k = _full_grid_scan(phi, x)
            _, modular = _full_grid_modular(phi, np.asarray(x))
            value, probed = _probed(monkeypatch, phi, x)
        assert 0 < k < 10_000
        assert extreme in modular[probed]
        assert value == want

    @pytest.mark.parametrize("phi", PHIS, ids=["p15", "p2", "psi", "oh", "p1"])
    @pytest.mark.parametrize(
        "x", [[1e308, 1e308], [1e306, 0.0, -1e306], [5e-324, 1e-323],
              [-1e-321, 0.0]],
        ids=["upper-end-overflows", "upper-with-zero", "lower-end-underflows",
             "lower-with-zero"],
    )
    def test_both_rescaled_paths(self, phi, x) -> None:
        # A grid end out of the float range: the entries are scaled by a
        # power of two, then searched as any others.
        xs = np.abs(np.asarray(x))
        xs = xs[xs > 0.0]
        e = math.frexp(float(xs.max()))[1]
        with np.errstate(over="ignore"):
            want = rescaled_norm(lambda f, a: _full_grid_scan(f, a)[0],
                                 phi, xs, e)
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

    @settings(max_examples=80, deadline=None)
    @given(
        _orlicz_tables(),
        st.lists(st.floats(-9.0, 9.0), min_size=1, max_size=30),
    )
    def test_crossed_candidates_form_a_suffix(self, phi, log_x) -> None:
        # What the search rests on: past the first candidate whose
        # computed modular is at most 1, every one's is.
        _, modular = _full_grid_modular(phi, 10.0 ** np.array(log_x))
        under = modular <= 1.0
        k = int(np.argmax(under)) if under.any() else under.size
        assert under[k:].all()


def _grid_ends() -> list[tuple[float, float]]:
    """Seeded ``(start, stop)`` pairs: the scan's own ends for random
    sequences, spans barely over the least ``1e6``, a start just above
    the subnormal range and a stop near the float maximum."""
    rng = np.random.default_rng(4242)
    tiny, huge = sys.float_info.min, sys.float_info.max
    pairs = [(tiny, 1e-300), (float(np.nextafter(tiny, 1.0)), 1e6 * 3 * tiny),
             (1e-3, huge), (1e302, huge), (tiny, 1e308), (2.5e300, 1e308)]
    for _ in range(120):
        x = 10.0 ** rng.uniform(-300.0, 300.0) * rng.lognormal(
            0.0, float(rng.uniform(0.1, 5.0)), size=int(rng.integers(1, 48)))
        pairs.append((float(x.max()) / 1e3, 1e3 * float(x.sum())))
    for _ in range(80):
        start = 10.0 ** rng.uniform(-307.0, 301.0)
        stop = start * 1e6 * (1.0 + float(rng.choice([0.0, 1e-15, 1e-9])))
        pairs.append((start, float(np.nextafter(stop, math.inf))))
    return pairs


class TestScanGrid:
    """The scan computes only the candidates it probes; each must be,
    to the bit, the one ``np.geomspace`` puts in the full grid."""

    def test_candidates_are_geomspaces(self) -> None:
        pairs = _grid_ends()
        assert len(pairs) >= 200
        for start, stop in pairs:
            assert stop / start > 1e6
            candidate = _scan_grid(np.float64(start), np.float64(stop))
            got = np.fromiter(map(candidate, range(10_000)), float, 10_000)
            with np.errstate(over="ignore"):  # 10**log10(stop), then pinned
                want = np.geomspace(start, stop, 10_000)
            assert got.tobytes() == want.tobytes()

    def test_scan_never_builds_the_grid(self, monkeypatch) -> None:
        rng = np.random.default_rng(31)
        cases = [(phi, rng.lognormal(0.0, 2.0, size=int(rng.integers(1, 40))))
                 for phi in TestScanMatchesFullGrid.PHIS for _ in range(6)]
        cases += [(power_orlicz(2.0), [1e308, 1e308]),
                  (psi(), [5e-324, 1e-323])]
        want = [orlicz_norm_scan(phi, x) for phi, x in cases]

        def no_grid(*args, **kwargs):
            raise AssertionError("np.geomspace called")

        monkeypatch.setattr(np, "geomspace", no_grid)
        assert [orlicz_norm_scan(phi, x) for phi, x in cases] == want


class TestScanWork:
    def test_battery_scans_skip_most_evaluations(self, monkeypatch) -> None:
        # phi evaluations in the 100 scans of the verify battery's
        # bisection-vs-scan check.  Scanning in ascending chunks from the
        # first candidate takes 10,197,956; skipping the candidates whose
        # largest term exceeds 1, then doubling chunks, took 1,264,491;
        # bisecting the grid took 28,222 in 1,435 calls, and 26,253 in
        # 1,335 (at most 14 in one scan) once candidate 0 waited for the
        # search to reach it; the secant-steered search takes 10,464 in
        # 519, at most 8 in one scan.
        count = calls = 0
        per_scan = []
        inside = False
        eval_many = OrliczFn.eval_many
        scan = osinv.verify.orlicz_norm_scan

        def counting_eval_many(self, ts):
            nonlocal count, calls
            if inside:
                count += np.asarray(ts).size
                calls += 1
            return eval_many(self, ts)

        def counted_scan(phi, x):
            nonlocal inside
            inside = True
            before = calls
            try:
                return scan(phi, x)
            finally:
                inside = False
                per_scan.append(calls - before)

        monkeypatch.setattr(OrliczFn, "eval_many", counting_eval_many)
        monkeypatch.setattr(osinv.verify, "orlicz_norm_scan", counted_scan)
        passed, _ = osinv.verify._check_bisection_vs_scan()
        assert passed
        assert 0 < count <= 10_197_956 // 3
        assert count <= 1_300_000
        assert len(per_scan) == 100
        assert count <= 30_000 and max(per_scan) <= 15
        assert count <= 26_300 and calls <= 1_340 and max(per_scan) <= 14
        assert count <= 10_500 and calls <= 520 and max(per_scan) <= 8


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
        "x", [[1e308, 1e308], [1e306, -1e306], [1e306, 0.0, 1e306],
              [sys.float_info.max / 2e3] * 2],
        ids=["sum-overflows", "grid-end-overflows", "with-zero",
             "grid-end-at-the-maximum"],
    )
    def test_entries_near_the_float_maximum(self, x) -> None:
        # The candidate range's upper end overflows, the norm does not;
        # or it rounds to the largest float, where 10**log10(end) would.
        want = math.sqrt(2.0) * abs(x[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = orlicz_norm_scan(power_orlicz(2.0), x)
        assert value == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("phi", [power_orlicz(2.0), psi()],
                             ids=["p2", "psi"])
    @pytest.mark.parametrize(
        "x", [[5e-324], [5e-324, 1e-323], [-1e-321, 0.0]],
        ids=["least", "two", "with-zero"],
    )
    def test_subnormal_entries(self, phi, x) -> None:
        # The candidate range's lower end, max|x_k| / 1e3, underflows to
        # 0; subnormals are 5e-324 apart.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = orlicz_norm_scan(phi, x)
        assert value == pytest.approx(sequence_norm(phi, x), rel=1e-3,
                                      abs=1e-323)

    def test_norm_beyond_the_float_range_is_inf(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = orlicz_norm_scan(power_orlicz(1.0), [1e308, 1e308])
        assert value == math.inf
