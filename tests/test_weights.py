"""Tests for the construction checks of the canonical weight pair."""

from __future__ import annotations

import pytest

from osinv import WeightPair, make_piecewise
from osinv.errors import BadParameter, NonMonotone


def falling(exponent: float, knot: float = 1.0, value: float = 1.0):
    """Nonincreasing density: `value` up to `knot`, then a power decay."""
    return make_piecewise(
        [knot], [value], right_exponent=exponent, direction="nonincreasing"
    )


CONST_ONE = falling(0.0)


class TestWeightPairConstruction:
    def test_nonpositive_value_rejected(self):
        # A density table cannot hold a nonpositive value, so no pair
        # carries one.
        with pytest.raises(NonMonotone):
            WeightPair(falling(-2.0, value=0.0), CONST_ONE)
        with pytest.raises(NonMonotone):
            WeightPair(
                CONST_ONE,
                make_piecewise(
                    [1.0, 2.0], [1.0, -1.0], right_exponent=-2.0,
                    direction="nonincreasing",
                ),
            )

    def test_normalized_discrete_rejected(self):
        # Masses on the integers are not densities on the half line.
        with pytest.raises(BadParameter):
            WeightPair((1.0,), (1.0,))

    def test_missing_densities_rejected(self):
        with pytest.raises(BadParameter):
            WeightPair(CONST_ONE, None)
        with pytest.raises(TypeError):
            WeightPair(uc_fn=CONST_ONE)

    def test_rising_density_rejected(self):
        rising = make_piecewise(
            [1.0], [1.0], right_exponent=0.5, direction="nondecreasing"
        )
        with pytest.raises(BadParameter):
            WeightPair(CONST_ONE, rising)

    def test_density_above_one_rejected(self):
        with pytest.raises(BadParameter):
            WeightPair(falling(-2.0, value=1.5), CONST_ONE)
        # The canonical clamp is exactly 1 on its first stretch.
        pair = WeightPair(CONST_ONE, falling(-2.0))
        assert pair.uc_fn is CONST_ONE
