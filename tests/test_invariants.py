"""Tests for the headline invariants.

The reference values are closed forms obtained by carrying out the
defining integrals by hand on the catalog structures, where every
integrand is an explicit power function:

* self pair of the square-root structure:
  ``pi1**2 = 8n + 2n ln n``, exactness ``2 n**(1/4)``,
* column structure at p = 3 against itself:
  ``pi1**2 = 12 n**(4/3) - 0.75 n**(2/3)``,
  exactness squared ``3 n**(1/3) + 1.5 n**(4/9)``,
* column pair (p, q) = (2, 4):
  ``pi1**2 = 12 n**(5/4) - (4/3) n**(3/4)``,
* column pair (4, 4/3): ``pi1**2 = (32/3) n + 2n ln n``,
* intersection families: exactness squared
  ``2 (1 + 1/(p'-1)) n**(1/p)``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osinv.invariants
from osinv import catalog, dual, from_fundamental, make_piecewise
from osinv.errors import BadParameter, Inconsistent, NotRegular, TooFewPoints
from osinv.growth import TailIntegral
from osinv.invariants import (
    InvariantReport,
    exactness,
    exactness_display,
    pi1_fundamental,
    projection,
    projection_display,
    sweep,
)

OH = catalog("oh")
C2 = catalog("column_p", 2)
C3 = catalog("column_p", 3)
C4 = catalog("column_p", 4)
C43 = catalog("column_p", 4 / 3)
CR15 = catalog("cr_p", 1.5)
CR3 = catalog("cr_p", 3)

DYADIC = [2**k for k in range(4, 21)]


def conjugate(p: float) -> float:
    return p / (p - 1.0)


class TestPi1Fundamental:
    @pytest.mark.parametrize("n", [1, 4, 64, 4096, 2**20])
    def test_square_root_self_pair_closed_form(self, n):
        rep = pi1_fundamental(OH, OH, n)
        assert rep.pi1**2 == pytest.approx(
            8.0 * n + 2.0 * n * math.log(n), rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 64, 4096, 2**20])
    def test_column3_self_pair_closed_form(self, n):
        rep = pi1_fundamental(C3, C3, n)
        want = 12.0 * n ** (4 / 3) - 0.75 * n ** (2 / 3)
        assert rep.pi1**2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 64, 4096, 2**20])
    def test_column_pair_2_4_closed_form(self, n):
        rep = pi1_fundamental(C2, C4, n)
        want = 12.0 * n**1.25 - (4.0 / 3.0) * n**0.75
        assert rep.pi1**2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 64, 4096, 2**20])
    def test_column_pair_4_43_closed_form(self, n):
        rep = pi1_fundamental(C4, C43, n)
        want = (32.0 / 3.0) * n + 2.0 * n * math.log(n)
        assert rep.pi1**2 == pytest.approx(want, rel=1e-12)

    def test_breaking_points(self):
        rep = pi1_fundamental(C2, C4, 256)
        # First mixed quadrant: a = sqrt(n) from the antidual of the
        # domain, b = n**(1/4) from the codomain.
        assert rep.s_break == pytest.approx(16.0, rel=1e-12)
        assert rep.t_break == pytest.approx(4.0, rel=1e-12)

    def test_report_breakdown_sums_to_pi1(self):
        rep = pi1_fundamental(C3, CR15, 512)
        total = 2.0 * rep.n + sum(
            sum(getattr(rep, name))
            for name in ("lambda1", "lambda2", "lambda3")
        )
        assert rep.pi1 == pytest.approx(math.sqrt(total), rel=1e-12)
        assert rep.ex is None
        assert rep.proj is None

    def test_log_ratio_bounded_for_diagonal_cases(self):
        for desc in (OH, CR15, CR3):
            vals = [
                pi1_fundamental(desc, desc, n).pi1 ** 2
                / (n * math.log(n + 1.0))
                for n in [2**k for k in range(6, 21)]
            ]
            assert max(vals) / min(vals) <= 4.0

    def test_dual_pair_swap_symmetry(self):
        for e, f in [(C2, C4), (C3, CR15), (OH, C43)]:
            a = pi1_fundamental(e, f, 777)
            b = pi1_fundamental(dual(f), dual(e), 777)
            assert b.pi1 == pytest.approx(a.pi1, rel=1e-12)
            # Quadrants swap and their axes exchange: lambda1 <-> lambda2.
            assert b.lambda1[0] == pytest.approx(a.lambda2[1], rel=1e-12)
            assert b.lambda2[0] == pytest.approx(a.lambda1[1], rel=1e-12)
            assert b.lambda3[0] == pytest.approx(a.lambda3[1], rel=1e-12)

    def test_lower_bound_holds(self):
        for n in (1, 7, 1000):
            assert pi1_fundamental(C4, C43, n).pi1 >= math.sqrt(n)

    def test_rejects_endpoint_space(self):
        with pytest.raises(NotRegular):
            pi1_fundamental(catalog("c"), OH, 4)
        with pytest.raises(NotRegular):
            pi1_fundamental(OH, catalog("c_cap_r"), 4)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(BadParameter):
            pi1_fundamental(OH, OH, bad)

    @given(p=st.floats(min_value=1.1, max_value=8.0))
    @settings(max_examples=25, deadline=None)
    def test_column_row_mirror(self, p):
        col = pi1_fundamental(
            catalog("column_p", p), catalog("column_p", p), 256
        )
        row = pi1_fundamental(
            catalog("row_p", p), catalog("row_p", p), 256
        )
        assert row.pi1 == pytest.approx(col.pi1, rel=1e-12)


class TestExactness:
    @pytest.mark.parametrize("n", [1, 16, 4096, 2**20])
    def test_square_root_structure_closed_form(self, n):
        assert exactness(OH, n) == pytest.approx(
            2.0 * n**0.25, rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 64, 4096, 2**20])
    def test_column3_closed_form(self, n):
        want = 3.0 * n ** (1 / 3) + 1.5 * n ** (4 / 9)
        assert exactness(C3, n) ** 2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 64, 2**20])
    def test_column4_closed_form(self, n):
        want = 4.0 * n**0.25 + (4.0 / 3.0) * n**0.375
        assert exactness(C4, n) ** 2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p,n", [(3.0, 64), (1.5, 4096), (3.0, 2**20)])
    def test_intersection_family_closed_form(self, p, n):
        want = 2.0 * (1.0 + 1.0 / (conjugate(p) - 1.0)) * n ** (1.0 / p)
        got = exactness(catalog("cr_p", p), n) ** 2
        assert got == pytest.approx(want, rel=1e-12)

    def test_conjugate_symmetry(self):
        for n in (4, 4096, 2**18):
            assert exactness(C4, n) == pytest.approx(
                exactness(C43, n), rel=1e-12
            )

    def test_row_mirror(self):
        for n in (4, 4096):
            assert exactness(catalog("row_p", 3), n) == pytest.approx(
                exactness(C3, n), rel=1e-12
            )

    def test_monotone_in_n(self):
        for desc in (OH, C3, CR15):
            vals = [exactness(desc, n) for n in DYADIC]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_at_least_one(self):
        assert exactness(OH, 1) >= 1.0
        assert exactness(C43, 1) >= 1.0

    def test_rejects_endpoint_space(self):
        with pytest.raises(NotRegular):
            exactness(catalog("r"), 16)

    @given(p=st.floats(min_value=1.1, max_value=8.0))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry_random_p(self, p):
        a = exactness(catalog("column_p", p), 512)
        b = exactness(catalog("column_p", conjugate(p)), 512)
        assert a == pytest.approx(b, rel=1e-10)


class TestExactnessDisplay:
    @pytest.mark.parametrize("n", [4, 64, 4096, 2**20])
    def test_square_root_structure_display(self, n):
        assert exactness_display(OH, n) == pytest.approx(
            math.sqrt(2.0) * n**0.25, rel=1e-12
        )

    def test_tracks_integral_within_bounded_ratio(self):
        for desc in (OH, C3, C4, C43, CR15, catalog("row_p", 3)):
            for n in (4, 64, 4096, 2**20):
                ratio = exactness_display(desc, n) / exactness(desc, n)
                assert 0.25 <= ratio <= 4.0


class TestProjection:
    @pytest.mark.parametrize("n", [4, 64, 4096, 2**20])
    def test_square_root_structure_closed_form(self, n):
        want = math.sqrt(n) / math.sqrt(8.0 + 2.0 * math.log(n))
        assert projection(OH, n) == pytest.approx(want, rel=1e-12)

    def test_matches_summing_norm_ratio(self):
        rep = pi1_fundamental(C3, C3, 777)
        assert projection(C3, 777) == pytest.approx(
            777 / rep.pi1, rel=1e-12
        )

    def test_dual_symmetry(self):
        for desc in (C3, C43, CR15, OH):
            for n in (4, 4096, 2**18):
                assert projection(desc, n) == pytest.approx(
                    projection(dual(desc), n), rel=1e-9
                )

    def test_log_ratio_bounded(self):
        vals = [
            projection(OH, n) * math.sqrt(math.log(n + 1.0)) / math.sqrt(n)
            for n in [2**k for k in range(6, 21)]
        ]
        assert max(vals) / min(vals) <= 4.0
        assert all(0.25 <= v <= 4.0 for v in vals)

    def test_rejects_endpoint_space(self):
        with pytest.raises(NotRegular):
            projection(catalog("c"), 16)


class TestProjectionDisplay:
    @pytest.mark.parametrize("n", [4, 4096, 2**20])
    def test_square_root_structure_display(self, n):
        want = math.sqrt(n) / (
            math.sqrt(2.0) + math.sqrt(2.0 * math.log(n))
        )
        assert projection_display(OH, n) == pytest.approx(want, rel=1e-12)

    def test_tracks_projection_within_bounded_ratio(self):
        for desc in (OH, C3, C43, CR15):
            for n in (4, 4096, 2**20):
                ratio = projection_display(desc, n) / projection(desc, n)
                assert 0.25 <= ratio <= 4.0


class TestInvariantReport:
    def _fields(self, **over):
        base = dict(
            n=4,
            pi1=4.0,
            lambda1=(1.0, 1.0),
            lambda2=(1.0, 1.0),
            lambda3=(1.0, 1.0),
            s_break=2.0,
            t_break=2.0,
        )
        base.update(over)
        return base

    def test_accepts_consistent_report(self):
        rep = InvariantReport(**self._fields(ex=2.0, proj=1.0))
        assert rep.proj == 1.0

    def test_rejects_pi1_below_root_n(self):
        with pytest.raises(Inconsistent):
            InvariantReport(**self._fields(pi1=1.5))

    def test_rejects_negative_lambda(self):
        with pytest.raises(Inconsistent):
            InvariantReport(**self._fields(lambda2=(-0.1, 1.0)))

    def test_rejects_exactness_below_one(self):
        with pytest.raises(Inconsistent):
            InvariantReport(**self._fields(ex=0.5))

    def test_rejects_inconsistent_projection(self):
        with pytest.raises(Inconsistent):
            InvariantReport(**self._fields(proj=2.0))

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(BadParameter):
            InvariantReport(**self._fields(n=0))


class TestSweep:
    def test_square_root_structure_slopes(self):
        res = sweep(OH, n_grid=DYADIC)
        slope, r2 = res.slopes["ex"]
        assert slope == pytest.approx(0.25, abs=0.01)
        assert r2 >= 0.99
        assert 0.5 <= res.slopes["pi1"][0] <= 0.6
        assert 0.4 <= res.slopes["proj"][0] <= 0.5

    def test_column4_exactness_slope(self):
        res = sweep(C4, n_grid=DYADIC)
        assert res.slopes["ex"][0] == pytest.approx(3.0 / 16.0, abs=0.03)

    def test_projection_slope_max_conjugate(self):
        res = sweep(C3, n_grid=DYADIC)
        assert res.slopes["proj"][0] == pytest.approx(1.0 / 3.0, abs=0.03)

    def test_pair_sweep_fits_only_pi1(self):
        res = sweep(C2, C4, n_grid=DYADIC)
        assert set(res.slopes) == {"pi1"}
        assert res.slopes["pi1"][0] == pytest.approx(0.625, abs=0.03)
        assert all(r.ex is None and r.proj is None for r in res.reports)

    def test_self_sweep_fills_everything(self):
        res = sweep(OH, n_grid=[16, 64, 256, 1024])
        for rep in res.reports:
            assert rep.ex is not None
            assert rep.proj == pytest.approx(rep.n / rep.pi1, rel=1e-12)

    def test_monotone_quantities(self):
        res = sweep(C3, n_grid=DYADIC)
        pi1s = [r.pi1 for r in res.reports]
        exs = [r.ex for r in res.reports]
        assert all(a <= b for a, b in zip(pi1s, pi1s[1:]))
        assert all(a <= b for a, b in zip(exs, exs[1:]))

    def test_reports_equal_pointwise_invariants(self):
        # A sweep shares one quadrant pair and one exactness setup across
        # its grid; each value must be the pointwise one, to the bit.
        rng = random.Random(11)

        def table(m: int):
            knots = [10.0 ** (6.0 * i / (m - 1)) for i in range(m)]
            values = [1.0]
            for t0, t1 in zip(knots, knots[1:]):
                values.append(values[-1] * (t1 / t0) ** rng.uniform(0.3, 0.7))
            return make_piecewise(knots, values,
                                  right_exponent=rng.uniform(0.3, 0.7))

        knotted = from_fundamental(table(40), table(40))
        grid = [1, 3, 16, 100, 4096, 2**20]
        for domain, codomain in [(knotted, None), (knotted, C3), (OH, knotted)]:
            res = sweep(domain, codomain, grid)
            for rep in res.reports:
                want = pi1_fundamental(domain, codomain or domain, rep.n)
                assert rep.pi1 == want.pi1
                assert (rep.lambda1, rep.lambda2, rep.lambda3) == (
                    want.lambda1, want.lambda2, want.lambda3)
                if codomain is None:
                    assert rep.ex == exactness(domain, rep.n)

    def test_self_sweep_builds_each_table_once(self, monkeypatch):
        # The exactness setup reads the antidual's fundamental functions
        # and the tail integrals off the two quadrants.
        calls = {"dual": 0, "tail": 0}
        counted_dual = osinv.invariants.dual
        from_density = TailIntegral.from_density.__func__

        def dual(desc):
            calls["dual"] += 1
            return counted_dual(desc)

        def counted_from_density(cls, w):
            calls["tail"] += 1
            return from_density(cls, w)

        monkeypatch.setattr(osinv.invariants, "dual", dual)
        monkeypatch.setattr(TailIntegral, "from_density",
                            classmethod(counted_from_density))
        sweep(CR15, n_grid=DYADIC)
        assert calls == {"dual": 1, "tail": 4}

    def test_sorts_and_dedupes_grid(self):
        res = sweep(OH, n_grid=[256, 16, 16, 64])
        assert [r.n for r in res.reports] == [16, 64, 256]

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            sweep(OH, n_grid=[])
        with pytest.raises(TooFewPoints):
            sweep(OH, n_grid=[16, 64])

    @pytest.mark.parametrize("pair", [False, True])
    def test_rejects_a_rank_deficient_fit_window(self, pair):
        top = 2**60
        grid = [16, 64, top - 8192, top - 4096, top]
        with pytest.raises(TooFewPoints, match="slope"):
            sweep(OH, OH if pair else None, n_grid=grid)

    def test_rejects_nonpositive_grid_point(self):
        with pytest.raises(BadParameter):
            sweep(OH, n_grid=[0, 16, 64])

    def test_works_on_derived_descriptor(self):
        desc = from_fundamental(
            make_piecewise(
                [1.0], [1.0], right_exponent=0.6,
                direction="nondecreasing",
            ),
            make_piecewise(
                [1.0], [1.0], right_exponent=0.4,
                direction="nondecreasing",
            ),
        )
        res = sweep(desc, n_grid=[16, 256, 4096, 65536])
        assert res.slopes["ex"][0] > 0.0
        assert all(r.pi1 >= math.sqrt(r.n) for r in res.reports)
