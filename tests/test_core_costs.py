"""Unit and property tests for the piecewise-linear convex cost function."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.costs import (
    CostError,
    FORTZ_THORUP,
    PiecewiseLinearCost,
)


class TestConstruction:
    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(CostError):
            PiecewiseLinearCost([0.5, 1.0], [1.0, 2.0])

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(CostError):
            PiecewiseLinearCost([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_slopes_non_decreasing(self):
        with pytest.raises(CostError):
            PiecewiseLinearCost([0.0, 1.0], [3.0, 2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(CostError):
            PiecewiseLinearCost([0.0, 1.0], [1.0])


class TestEvaluation:
    def test_zero_at_origin(self):
        assert FORTZ_THORUP(0.0) == 0.0

    def test_identity_slope_below_first_knee(self):
        assert FORTZ_THORUP(0.2) == pytest.approx(0.2)

    def test_known_value_at_one(self):
        # 1/3 * 1 + 1/3 * 3 + (0.9 - 2/3) * 10 + 0.1 * 70
        expected = 1 / 3 + 1.0 + (0.9 - 2 / 3) * 10 + 0.1 * 70
        assert FORTZ_THORUP(1.0) == pytest.approx(expected)

    def test_steep_above_capacity(self):
        assert FORTZ_THORUP(1.2) > FORTZ_THORUP(1.0) + 500 * 0.1

    def test_negative_utilization_rejected(self):
        with pytest.raises(CostError):
            FORTZ_THORUP(-0.1)


class TestConvexityProperties:
    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_non_negative(self, u):
        assert FORTZ_THORUP(u) >= 0.0

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_monotone(self, u1, u2):
        lo, hi = sorted((u1, u2))
        assert FORTZ_THORUP(lo) <= FORTZ_THORUP(hi) + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_convex(self, u1, u2, t):
        mid = t * u1 + (1 - t) * u2
        chord = t * FORTZ_THORUP(u1) + (1 - t) * FORTZ_THORUP(u2)
        assert FORTZ_THORUP(mid) <= chord + 1e-9

    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_continuity_no_jumps(self, u):
        eps = 1e-7
        assert abs(FORTZ_THORUP(u + eps) - FORTZ_THORUP(u)) < 1e-2


class TestBatchIsTheScalarEvaluation:
    """``batch`` is a kernel of the SB-DP search; ``__call__`` is its
    oracle.  Bitwise, not approximately: routes are compared with ``==``."""

    CUSTOM = PiecewiseLinearCost([0.0, 0.25, 1.5], [0.5, 2.0, 40.0])
    #: Nine segments: enough for numpy to sum one column pairwise.
    LONG = PiecewiseLinearCost(
        [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0, 1.3],
        [0.1, 0.3, 0.7, 1.1, 1.9, 3.3, 7.7, 13.1, 101.3],
    )

    @staticmethod
    def grid(cost):
        points = [0.0, 2.0, 1e-300, 0.123456789, 1.05, 1.999999, 7.5]
        for b in cost.breakpoints:
            points += [b, np.nextafter(b, np.inf)]
            if b > 0:
                points.append(np.nextafter(b, -np.inf))
        return np.array(points)

    @pytest.mark.parametrize("cost", [FORTZ_THORUP, CUSTOM, LONG])
    def test_bitwise_equal_on_the_breakpoint_grid(self, cost):
        grid = self.grid(cost)
        expected = np.array([cost(float(u)) for u in grid])
        assert cost.batch(grid).tobytes() == expected.tobytes()
        # One element at a time too (a lone column is where a pairwise
        # reduction would reorder the sum), and any shape.
        for u, want in zip(grid, expected):
            assert cost.batch(np.array([u])).tobytes() == want.tobytes()
        assert cost.batch(grid.reshape(-1, 1)).tobytes() == expected.tobytes()

    @given(st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=40))
    def test_bitwise_equal_on_random_utilizations(self, values):
        got = FORTZ_THORUP.batch(np.array(values, dtype=float))
        want = np.array([FORTZ_THORUP(u) for u in values], dtype=float)
        assert got.tobytes() == want.tobytes()

    def test_infinite_utilization_is_infinite_cost(self):
        assert FORTZ_THORUP.batch(np.array([np.inf]))[0] == FORTZ_THORUP(np.inf)
