"""Tests for the structure descriptors and their catalog."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from osinv import (
    catalog,
    evaluate,
    from_fundamental,
    fundamental_from_weights,
)
from osinv import cli, spaces
from osinv.errors import (
    BadParameter,
    DirectionError,
    DivergentTail,
    NotRegular,
    ParseError,
)
from osinv.growth import DEFAULT_REG_WINDOW
from osinv.monotone_fn import make_piecewise
from osinv.spaces import (
    SpaceDescriptor,
    WeightPair,
    canonical_weights,
    check_space_regularity,
    descriptor_from_json,
    descriptor_to_json,
    dual,
)


def power(exponent: float, value: float = 1.0) -> "make_piecewise":
    """Table for ``value * n**exponent`` on ``[1, inf)``."""
    return make_piecewise(
        [1.0], [value], right_exponent=exponent, direction="nondecreasing"
    )


SQRT = power(0.5)


class TestCatalog:
    def test_column_p_exponents(self):
        d = catalog("column_p", 3)
        assert evaluate(d.phi_c, 8.0) == pytest.approx(4.0, rel=1e-12)
        assert evaluate(d.phi_r, 8.0) == pytest.approx(2.0, rel=1e-12)
        assert d.kind == "weighted"
        assert d.label == "C_3"
        assert d.p == 3.0
        assert d.family == "column_p"

    def test_row_p_mirrors_column_p(self):
        row = catalog("row_p", 3)
        col = catalog("column_p", 3)
        assert row.phi_c == col.phi_r
        assert row.phi_r == col.phi_c
        assert row.label == "R_3"

    def test_cr_p_equal_sides(self):
        d = catalog("cr_p", 1.5)
        assert evaluate(d.phi_c, 27.0) == pytest.approx(3.0, rel=1e-12)
        assert d.phi_c == d.phi_r
        assert d.label == "CR_1.5"

    def test_oh_is_square_root(self):
        d = catalog("oh")
        assert evaluate(d.phi_c, 16.0) == pytest.approx(4.0, rel=1e-12)
        assert d.phi_c == d.phi_r
        assert d.kind == "weighted"
        assert d.label == "OH"
        assert d.p is None

    def test_endpoint_families(self):
        c = catalog("c")
        assert c.kind == "column"
        assert evaluate(c.phi_c, 99.0) == pytest.approx(99.0)
        assert evaluate(c.phi_r, 99.0) == pytest.approx(1.0)
        r = catalog("r")
        assert r.kind == "row"
        assert r.phi_c == c.phi_r
        assert r.phi_r == c.phi_c
        both = catalog("c_cap_r")
        assert both.kind == "column_cap_row"
        assert both.phi_c == c.phi_c
        assert both.phi_r == r.phi_r
        assert both.label == "C_cap_R"

    def test_integer_p_accepted(self):
        d = catalog("column_p", 2)
        assert d.p == 2.0
        assert evaluate(d.phi_c, 16.0) == pytest.approx(4.0)

    def test_sides_multiply_to_n_for_conjugate_pair(self):
        d = catalog("column_p", 2.7)
        for n in (2.0, 10.0, 1e5):
            prod = evaluate(d.phi_c, n) * evaluate(d.phi_r, n)
            assert prod == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("bad_p", [1.0, 0.5, -2.0, math.inf])
    def test_rejects_p_outside_range(self, bad_p):
        with pytest.raises(BadParameter):
            catalog("column_p", bad_p)

    def test_rejects_missing_p(self):
        with pytest.raises(BadParameter):
            catalog("cr_p")

    def test_rejects_p_for_plain_family(self):
        with pytest.raises(BadParameter):
            catalog("oh", 2.0)

    def test_rejects_unknown_family(self):
        with pytest.raises(BadParameter):
            catalog("diagonal")


class TestSpaceDescriptor:
    def test_rejects_unknown_kind(self):
        with pytest.raises(BadParameter):
            SpaceDescriptor(kind="diag", phi_c=SQRT, phi_r=SQRT)

    def test_rejects_unnormalised_phi(self):
        with pytest.raises(BadParameter):
            SpaceDescriptor(
                kind="weighted", phi_c=power(0.5, value=2.0), phi_r=SQRT
            )

    def test_rejects_superlinear_phi(self):
        with pytest.raises(BadParameter):
            SpaceDescriptor(kind="column", phi_c=power(1.5), phi_r=SQRT)

    def test_rejects_nonincreasing_phi(self):
        falling = make_piecewise(
            [1.0], [1.0], right_exponent=-0.5, direction="nonincreasing"
        )
        with pytest.raises(BadParameter):
            SpaceDescriptor(kind="weighted", phi_c=falling, phi_r=SQRT)

    def test_weighted_kind_needs_regularity(self):
        with pytest.raises(NotRegular):
            SpaceDescriptor(kind="weighted", phi_c=power(1.0), phi_r=SQRT)

    @pytest.mark.parametrize("sides", [("phi_c",), ("phi_r",),
                                       ("phi_c", "phi_r")],
                             ids=["phi_c", "phi_r", "both"])
    def test_regularity_gate_names_the_failing_tables(self, sides):
        tables = {"phi_c": SQRT, "phi_r": SQRT}
        tables.update((side, power(1.0)) for side in sides)
        want = (
            "weighted structures need both fundamental functions to have "
            "exponents strictly inside (0, 1); "
            + " and ".join(f"{side} has exponents in [1, 1]"
                           for side in sides)
        )
        with pytest.raises(NotRegular) as info:
            SpaceDescriptor(kind="weighted", **tables)
        assert str(info.value) == want

    def test_rejects_unnormalised_weights(self):
        # Reflected-form densities are at most 1; this one starts at 2.
        w = make_piecewise(
            [1.0], [2.0], right_exponent=-2.0, direction="nonincreasing"
        )
        with pytest.raises(BadParameter):
            SpaceDescriptor(
                kind="weighted",
                phi_c=SQRT,
                phi_r=SQRT,
                weights=WeightPair(w, w),
            )


class TestFromFundamental:
    def test_oh_canonical_weights(self):
        d = from_fundamental(SQRT, SQRT)
        w = d.weights
        assert w is not None
        # min(1, t**-2): clamped at 1 below t = 1, inverse square beyond.
        assert evaluate(w.uc_fn, 0.5) == pytest.approx(1.0)
        assert evaluate(w.uc_fn, 2.0) == pytest.approx(0.25, rel=1e-12)
        assert evaluate(w.uc_fn, 10.0) == pytest.approx(0.01, rel=1e-12)
        assert evaluate(w.ur_fn, 10.0) == pytest.approx(0.01, rel=1e-12)

    def test_two_thirds_exponent_weight(self):
        d = from_fundamental(power(2.0 / 3.0), power(1.0 / 3.0))
        # 1/phi^{-1} with phi = n^{2/3} is t**-(3/2).
        assert evaluate(d.weights.uc_fn, 4.0) == pytest.approx(
            0.125, rel=1e-12
        )
        assert evaluate(d.weights.ur_fn, 8.0) == pytest.approx(
            8.0**-3.0, rel=1e-12
        )

    def test_rescales_input_to_one(self):
        d = from_fundamental(power(2.0 / 3.0, value=3.0), power(0.5, 0.2))
        assert evaluate(d.phi_c, 1.0) == pytest.approx(1.0)
        assert evaluate(d.phi_c, 8.0) == pytest.approx(4.0, rel=1e-12)
        assert evaluate(d.phi_r, 1.0) == pytest.approx(1.0)

    def test_descriptor_shape(self):
        d = from_fundamental(SQRT, SQRT, label="mine")
        assert d.kind == "weighted"
        assert d.family == "fundamental"
        assert d.label == "mine"
        assert from_fundamental(SQRT, SQRT).label == "fundamental"

    def test_rejects_linear_growth(self):
        with pytest.raises(NotRegular):
            from_fundamental(power(1.0), SQRT)

    def test_rejects_constant(self):
        with pytest.raises(NotRegular):
            from_fundamental(SQRT, power(0.0))

    def test_rejects_nonincreasing(self):
        falling = make_piecewise(
            [1.0], [1.0], right_exponent=-1.5, direction="nonincreasing"
        )
        with pytest.raises(DirectionError):
            from_fundamental(falling, SQRT)

    @given(
        ec=st.floats(min_value=0.05, max_value=0.95),
        er=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_weight_exponent_is_reciprocal(self, ec, er):
        d = from_fundamental(power(ec), power(er))
        assert d.weights.uc_fn.right_exponent == pytest.approx(
            -1.0 / ec, rel=1e-12
        )
        assert d.weights.ur_fn.right_exponent == pytest.approx(
            -1.0 / er, rel=1e-12
        )


class TestCanonicalWeights:
    def test_returns_attached_pair(self):
        d = from_fundamental(SQRT, SQRT)
        assert canonical_weights(d) is d.weights

    def test_derives_for_catalog_members(self):
        w = canonical_weights(catalog("oh"))
        assert evaluate(w.uc_fn, 2.0) == pytest.approx(0.25, rel=1e-12)
        w3 = canonical_weights(catalog("column_p", 3))
        assert evaluate(w3.uc_fn, 4.0) == pytest.approx(0.125, rel=1e-12)

    @pytest.mark.parametrize("family, p, shared", [
        ("oh", None, True), ("cr_p", 3.0, True), ("column_p", 3.0, False),
    ])
    def test_equal_sides_share_one_density(self, monkeypatch, family, p,
                                           shared):
        # phi_c == phi_r: the density is derived once, for both sides.
        calls = []
        derive = spaces.clamped_reciprocal_inverse
        monkeypatch.setattr(spaces, "clamped_reciprocal_inverse",
                            lambda f: calls.append(f) or derive(f))
        w = canonical_weights(catalog(family, p))
        assert (w.uc_fn is w.ur_fn) == shared
        assert len(calls) == (1 if shared else 2)
        assert w.ur_fn == derive(catalog(family, p).phi_r)

    @pytest.mark.parametrize("family", ["c", "r", "c_cap_r"])
    def test_endpoints_have_no_weights(self, family):
        with pytest.raises(NotRegular):
            canonical_weights(catalog(family))


class TestFundamentalFromWeights:
    def test_oh_growth_matches_square_root(self):
        g_c, g_r = fundamental_from_weights(canonical_weights(catalog("oh")))
        for s in (4.0, 100.0, 31623.0, 1e6):
            assert evaluate(g_c, s) == pytest.approx(
                math.sqrt(s), rel=1e-10
            )
            assert evaluate(g_r, s) == pytest.approx(
                math.sqrt(s), rel=1e-10
            )

    @pytest.mark.parametrize(
        "family,p", [("column_p", 3.0), ("cr_p", 1.5), ("oh", None)]
    )
    def test_roundtrip_within_bounded_ratio(self, family, p):
        d = catalog(family, p)
        g_c, g_r = fundamental_from_weights(canonical_weights(d))
        for s in (4.0, 64.0, 4096.0, 1e6):
            assert 0.25 <= evaluate(g_c, s) / evaluate(d.phi_c, s) <= 4.0
            assert 0.25 <= evaluate(g_r, s) / evaluate(d.phi_r, s) <= 4.0

    def test_roundtrip_through_descriptor(self):
        d = catalog("column_p", 3)
        g_c, g_r = fundamental_from_weights(canonical_weights(d))
        back = from_fundamental(g_c, g_r)
        for t in (2.0, 50.0, 1e4):
            ratio = evaluate(back.weights.uc_fn, t) / evaluate(
                canonical_weights(d).uc_fn, t
            )
            assert 0.25 <= ratio <= 4.0

    def test_rejects_unnormalised_pair(self):
        w = make_piecewise(
            [1.0], [2.0], right_exponent=-2.0, direction="nonincreasing"
        )
        with pytest.raises(BadParameter):
            fundamental_from_weights(WeightPair(w, w))

    def test_divergent_tail_propagates(self):
        slow = make_piecewise(
            [1.0], [1.0], right_exponent=-0.5, direction="nonincreasing"
        )
        fast = make_piecewise(
            [1.0], [1.0], right_exponent=-2.0, direction="nonincreasing"
        )
        with pytest.raises(DivergentTail):
            fundamental_from_weights(WeightPair(slow, fast))


class TestDual:
    def test_column_dualises_to_row(self):
        d = dual(catalog("column_p", 3))
        assert d.label == "R_3"
        assert d.family == "row_p"
        assert d.p == 3.0
        assert evaluate(d.phi_c, 8.0) == pytest.approx(2.0, rel=1e-12)
        assert evaluate(d.phi_r, 8.0) == pytest.approx(4.0, rel=1e-12)

    def test_catalog_involution_is_exact(self):
        for family, p in [
            ("column_p", 3.0),
            ("row_p", 1.25),
            ("cr_p", 1.5),
            ("oh", None),
            ("c", None),
            ("c_cap_r", None),
        ]:
            d = catalog(family, p)
            dd = dual(dual(d))
            assert dd.phi_c == d.phi_c
            assert dd.phi_r == d.phi_r
            assert dd.label == d.label

    def test_cr_dualises_to_conjugate_index(self):
        d = dual(catalog("cr_p", 1.5))
        assert d.label == "CR_3"
        assert d.p == pytest.approx(3.0)
        assert evaluate(d.phi_c, 8.0) == pytest.approx(4.0, rel=1e-12)

    def test_oh_is_self_dual(self):
        d = dual(catalog("oh"))
        assert d.phi_c == catalog("oh").phi_c
        assert d.label == "OH"

    def test_endpoints_swap(self):
        assert dual(catalog("c")).kind == "row"
        assert dual(catalog("c")).label == "R"
        assert dual(catalog("r")).label == "C"
        capped = dual(catalog("c_cap_r"))
        assert capped.kind == "column_cap_row"
        assert capped.family is None
        assert capped.label == "dual(C_cap_R)"
        assert evaluate(capped.phi_c, 50.0) == pytest.approx(1.0)
        assert dual(capped).label == "C_cap_R"

    def test_product_with_dual_is_n(self):
        growth = fundamental_from_weights(canonical_weights(catalog("oh")))
        cases = [
            catalog("column_p", 2.2),
            catalog("cr_p", 4.0),
            from_fundamental(*growth),
        ]
        for d in cases:
            dd = dual(d)
            for n in (2.0, 7.5, 1e5):
                prod = evaluate(d.phi_c, n) * evaluate(dd.phi_c, n)
                assert prod == pytest.approx(n, rel=1e-12)
                prod = evaluate(d.phi_r, n) * evaluate(dd.phi_r, n)
                assert prod == pytest.approx(n, rel=1e-12)

    def test_fundamental_involution_machine_precision(self):
        g_c, g_r = fundamental_from_weights(canonical_weights(catalog("oh")))
        d = from_fundamental(g_c, g_r)
        dd = dual(dual(d))
        for n in (1.0, 3.0, 123.0, 9.9e5):
            assert evaluate(dd.phi_c, n) == pytest.approx(
                evaluate(d.phi_c, n), rel=1e-12
            )

    def test_dual_preserves_regularity(self):
        assert check_space_regularity(dual(catalog("column_p", 3))).passed
        assert dual(from_fundamental(SQRT, SQRT)).kind == "weighted"

    @given(p=st.floats(min_value=1.05, max_value=40.0))
    def test_dual_pairs_p_families(self, p):
        d = catalog("column_p", p)
        dd = dual(dual(d))
        assert dd.phi_c == d.phi_c
        assert dd.p == d.p
        prod = evaluate(d.phi_c, 50.0) * evaluate(dual(d).phi_c, 50.0)
        assert prod == pytest.approx(50.0, rel=1e-12)


class TestCheckSpaceRegularity:
    def test_column_p_exponent_window(self):
        rep = check_space_regularity(catalog("column_p", 3))
        assert rep.alpha == pytest.approx(1.0 / 3.0)
        assert rep.beta == pytest.approx(2.0 / 3.0)
        assert rep.passed
        assert rep.window == DEFAULT_REG_WINDOW

    def test_oh_exponents_coincide(self):
        rep = check_space_regularity(catalog("oh"))
        assert rep.alpha == pytest.approx(0.5)
        assert rep.beta == pytest.approx(0.5)

    def test_endpoint_fails(self):
        assert not check_space_regularity(catalog("c")).passed
        assert not check_space_regularity(catalog("c_cap_r")).passed

    def test_custom_window(self):
        extreme = catalog("cr_p", 1.01)  # exponent ~0.0099
        assert not check_space_regularity(extreme).passed
        wide = check_space_regularity(extreme, (1e-9, 1.0 - 1e-9))
        assert wide.passed


class TestDescriptorJson:
    @pytest.mark.parametrize(
        "family,p",
        [
            ("column_p", 3.0),
            ("row_p", 1.5),
            ("cr_p", 2.5),
            ("oh", None),
            ("c", None),
            ("r", None),
            ("c_cap_r", None),
        ],
    )
    def test_catalog_roundtrip(self, family, p):
        d = catalog(family, p)
        wire = json.loads(json.dumps(descriptor_to_json(d)))
        back = descriptor_from_json(wire)
        assert back.phi_c == d.phi_c
        assert back.phi_r == d.phi_r
        assert back.kind == d.kind
        assert back.label == d.label
        assert back.p == d.p
        assert back.family == d.family

    def test_fundamental_roundtrip(self):
        d = from_fundamental(power(2.0 / 3.0), power(0.5), label="custom")
        wire = json.loads(json.dumps(descriptor_to_json(d)))
        assert wire["kind"] == "fundamental"
        back = descriptor_from_json(wire)
        assert back.phi_c == d.phi_c
        assert back.phi_r == d.phi_r
        assert back.label == "custom"
        assert back.weights is not None

    def test_label_override(self):
        d = descriptor_from_json({"kind": "oh", "label": "mine"})
        assert d.label == "mine"
        assert d.family == "oh"

    @pytest.mark.parametrize(
        "bad",
        [
            "not a dict",
            {"p": 3.0},
            {"kind": 5},
            {"kind": "zzz"},
            {"kind": "column_p"},
            {"kind": "column_p", "p": "three"},
            {"kind": "column_p", "p": 0.5},
            {"kind": "oh", "p": 2.0},
            {"kind": "oh", "label": 7},
            {"kind": "fundamental"},
            {"kind": "fundamental", "phi_c": [1, 2], "phi_r": {}},
            {
                "kind": "fundamental",
                "phi_c": {"knots": [1.0], "values": [1.0]},
                "phi_r": {
                    "knots": [1.0],
                    "values": [1.0],
                    "right_exponent": 0.5,
                },
            },
        ],
    )
    def test_malformed_input_raises_parse_error(self, bad):
        with pytest.raises(ParseError):
            descriptor_from_json(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "column_p", "p": True},
            {"kind": "cr_p", "p": False},
            {"kind": "fundamental",
             "phi_c": {"knots": [True], "values": [1.0],
                       "right_exponent": 0.5},
             "phi_r": {"knots": [1.0], "values": [1.0],
                       "right_exponent": 0.5}},
            {"kind": "fundamental",
             "phi_c": {"knots": [1.0, 4.0], "values": [True, 2.0],
                       "right_exponent": 0.5},
             "phi_r": {"knots": [1.0], "values": [1.0],
                       "right_exponent": 0.5}},
            {"kind": "fundamental",
             "phi_c": {"knots": [1.0], "values": [1.0],
                       "right_exponent": 0.5},
             "phi_r": {"knots": [1.0], "values": [1.0],
                       "right_exponent": False}},
        ],
    )
    def test_booleans_are_not_numbers(self, bad):
        with pytest.raises(ParseError, match="boolean"):
            descriptor_from_json(bad)

    @pytest.mark.parametrize("field", ["knots", "values", "right_exponent"])
    def test_table_entry_beyond_the_float_range(self, field):
        table = {"knots": [1.0, 4.0], "values": [1.0, 2.0],
                 "right_exponent": 0.5}
        table[field] = (10**400 if field == "right_exponent"
                        else [1.0, 10**400])
        wire = {"kind": "fundamental", "phi_c": {"knots": [1.0],
                "values": [1.0], "right_exponent": 0.5}, "phi_r": table}
        with pytest.raises(ParseError, match="'phi_r'.*float range"):
            descriptor_from_json(wire)

    @pytest.mark.parametrize("field", ["knots", "values"])
    def test_overflowing_ratio_of_neighbours(self, field):
        table = {"knots": [1.0, 4.0], "values": [1.0, 2.0],
                 "right_exponent": 0.5}
        table[field] = [1e-310, 1.0]
        wire = {"kind": "fundamental", "phi_c": {"knots": [1.0],
                "values": [1.0], "right_exponent": 0.5}, "phi_r": table}
        with pytest.raises(ParseError, match=(
            f"'phi_r' table: the ratio of {field} 1e-310 and 1.0 overflows"
        )):
            descriptor_from_json(wire)

    def test_widest_finite_ratio_still_parses(self):
        table = {"knots": [1e-300, 1.0], "values": [1e-300, 1.0],
                 "right_exponent": 0.5}
        wire = {"kind": "fundamental", "phi_c": table, "phi_r": table}
        desc = descriptor_from_json(wire)
        assert desc.phi_c.segment_exponents == (1.0,)

    def test_p_beyond_the_float_range(self):
        with pytest.raises(ParseError, match="'p'.*float range"):
            descriptor_from_json({"kind": "cr_p", "p": 10**400})

    def test_fundamental_tables_must_be_regular(self):
        wire = {
            "kind": "fundamental",
            "phi_c": {
                "knots": [1.0],
                "values": [1.0],
                "right_exponent": 1.0,
            },
            "phi_r": {
                "knots": [1.0],
                "values": [1.0],
                "right_exponent": 0.5,
            },
        }
        with pytest.raises(NotRegular):
            descriptor_from_json(wire)

    def test_degenerate_dual_has_no_json_form(self):
        with pytest.raises(NotRegular):
            descriptor_to_json(dual(catalog("c_cap_r")))


class TestFamilyTable:
    """``spaces._FAMILIES`` is the one list of catalog families: every
    entry builds, survives a JSON round trip, and has the antidual the
    table names, and anything else is not a family."""

    FAMILIES = list(spaces._FAMILIES)
    P = 3.0

    def _build(self, family: str) -> SpaceDescriptor:
        takes_p = callable(spaces._FAMILIES[family].exponents)
        return catalog(family, self.P if takes_p else None)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_builds_and_round_trips(self, family):
        d = self._build(family)
        assert (d.family, d.kind) == (family, spaces._FAMILIES[family].kind)
        wire = json.loads(json.dumps(descriptor_to_json(d)))
        assert descriptor_from_json(wire) == d

    @pytest.mark.parametrize("family", FAMILIES)
    def test_writes_p_only_for_a_parametric_family(self, family):
        wire = descriptor_to_json(self._build(family))
        if callable(spaces._FAMILIES[family].exponents):
            assert wire["p"] == self.P
        else:
            assert "p" not in wire

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dual_is_the_tables(self, family):
        d = dual(self._build(family))
        want = spaces._FAMILIES[family].dual
        if want is None:
            assert (d.family, d.p) == (None, None)
            return
        # cr_p is its own antidual at the conjugate index 3/2.
        p = {"column_p": 3.0, "row_p": 3.0, "cr_p": 1.5}.get(family)
        assert (d.family, d.p) == (want, p)
        assert d == catalog(want, p)

    @pytest.mark.parametrize("kind", [
        "oh ", "OH", "fundamental", "", 3, None, ("oh",), ["oh"],
        {"kind": "oh"},
    ])
    def test_anything_else_is_a_bad_parameter(self, kind):
        with pytest.raises(BadParameter, match="unknown catalog family"):
            catalog(kind)


class TestRegularityGateOncePerDescriptor:
    """The regularity gate runs once per descriptor: a ``table`` or
    ``fit`` request builds its space and the antidual (2 gates), a
    ``pi1`` request both spaces and the domain's antidual (3).  A weighted
    descriptor passed the gate when it was built, so ``canonical_weights``
    and ``descriptor_to_json`` do not run it again."""

    TABLE = {"knots": [1.0, 10.0, 100.0], "values": [1.0, 3.0, 8.0],
             "right_exponent": 0.4}
    SPACE = json.dumps({"kind": "fundamental", "phi_c": TABLE,
                        "phi_r": TABLE})

    @pytest.fixture
    def gates(self, monkeypatch):
        calls = []
        real = spaces._aggregate_regularity

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spaces, "_aggregate_regularity", counted)
        return calls

    @pytest.mark.parametrize("argv, expected", [
        (("table", "--space", SPACE), 2),
        (("table", "--space", SPACE, "--out", "json"), 2),
        (("fit", "--space", SPACE), 2),
        (("pi1", "--domain", SPACE, "--codomain", SPACE), 3),
    ])
    def test_cli_request(self, gates, capsys, argv, expected):
        assert cli.main([*argv, "--n", "16,256,4096"]) == 0
        capsys.readouterr()
        assert len(gates) == expected

    def test_checks_of_a_built_descriptor_gate_no_more(self, gates):
        desc = dual(from_fundamental(power(0.3), power(0.6)))
        assert desc.weights is None and len(gates) == 2
        canonical_weights(desc)
        descriptor_to_json(desc)
        assert len(gates) == 2

    def test_new_tables_are_gated_afresh(self, gates):
        desc = from_fundamental(power(0.3), power(0.6))
        with pytest.raises(NotRegular, match="strictly inside"):
            dataclasses.replace(desc, phi_c=power(1.0))
        assert len(gates) == 2
