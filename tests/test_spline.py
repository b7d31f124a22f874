import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sigspline.spline import (
    bin_indicator,
    softmax,
    spline_cdf,
    spline_density,
    spline_inverse,
    spline_log_density,
)

DELTA2 = np.array([0.25, 0.75])

logit_vectors = hnp.arrays(
    float,
    st.integers(2, 12),
    elements=st.floats(-8, 8, allow_nan=False, allow_infinity=False),
)


class TestSoftmax:
    def test_symmetric(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_exp_ratios(self):
        assert np.allclose(softmax([math.log(1), math.log(3)]), [0.25, 0.75], atol=1e-15)

    @given(z=logit_vectors, shift=st.floats(-50, 50, allow_nan=False))
    def test_shift_invariance(self, z, shift):
        assert np.allclose(softmax(z), softmax(z + shift), atol=1e-12)

    @given(z=logit_vectors)
    def test_positive_and_normalized(self, z):
        p = softmax(z)
        assert np.all(p > 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_extreme_magnitudes_are_safe(self):
        p = softmax([1e305, -1e305])
        assert np.all(np.isfinite(p)) and np.all(p > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])


class TestBinIndicator:
    @pytest.mark.parametrize("x,n,expected", [(0.0, 4, 1), (0.25, 4, 2), (1.0, 4, 4)])
    def test_half_open_bins(self, x, n, expected):
        assert bin_indicator(x, n) == expected

    def test_vectorized(self):
        assert np.array_equal(bin_indicator(np.array([0.0, 0.5, 0.99, 1.0]), 2), [1, 2, 2, 2])

    def test_domain(self):
        with pytest.raises(ValueError):
            bin_indicator(1.1, 4)


class TestSplineCdf:
    def test_bin_boundary(self):
        assert spline_cdf(0.5, DELTA2) == pytest.approx(0.25, abs=1e-15)

    def test_interior_point(self):
        assert spline_cdf(0.75, DELTA2) == pytest.approx(0.625, abs=1e-15)

    def test_endpoints_exact(self):
        assert spline_cdf(0.0, DELTA2) == 0.0
        assert spline_cdf(1.0, DELTA2) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            spline_cdf(-0.001, DELTA2)
        with pytest.raises(ValueError):
            spline_cdf(1.001, DELTA2)

    @given(z=logit_vectors)
    def test_strictly_increasing_on_grid(self, z):
        delta = softmax(z)
        grid = np.linspace(0.0, 1.0, 1001)
        values = spline_cdf(grid, delta)
        assert np.all(np.diff(values) > 0)


class TestSplineInverse:
    def test_inverts_worked_example(self):
        assert spline_inverse(0.625, DELTA2) == pytest.approx(0.75, abs=1e-15)

    def test_endpoints(self):
        assert spline_inverse(0.0, DELTA2) == 0.0
        assert spline_inverse(1.0, DELTA2) == 1.0

    def test_boundary_tie_goes_to_lower_bin(self):
        # u exactly at the cumulative boundary maps to the lower bin's right end
        assert spline_inverse(0.25, DELTA2) == pytest.approx(0.5, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            spline_inverse(1.5, DELTA2)

    # the 1e-12 round trip needs moderately conditioned increments: the
    # inverse slope 1/(N*delta_k) amplifies the ~1e-16 rounding of the CDF
    @given(
        z=hnp.arrays(
            float,
            st.integers(2, 12),
            elements=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=60)
    def test_round_trip_both_ways(self, z):
        delta = softmax(z)
        x = np.linspace(0.0, 1.0, 501)
        assert np.max(np.abs(spline_inverse(spline_cdf(x, delta), delta) - x)) <= 1e-12
        u = np.linspace(0.0, 1.0, 501)
        assert np.max(np.abs(spline_cdf(spline_inverse(u, delta), delta) - u)) <= 1e-12


class TestSplineDensity:
    def test_worked_example(self):
        assert spline_density(0.75, DELTA2) == pytest.approx(1.5, abs=1e-15)

    def test_uniform_increments(self):
        delta = np.full(8, 1.0 / 8)
        assert np.allclose(spline_density(np.linspace(0, 0.999, 50), delta), 1.0)

    def test_integrates_to_one(self, rng):
        delta = softmax(rng.standard_normal(16))
        assert np.sum(delta / delta.size * delta.size) == pytest.approx(1.0, abs=1e-15)

    def test_matches_cdf_slope_away_from_knots(self, rng):
        delta = softmax(rng.standard_normal(8))
        h = 1e-6
        for x in rng.uniform(0.02, 0.98, 40):
            if abs(x * 8 - round(x * 8)) < 16 * h:
                continue
            slope = (spline_cdf(x + h, delta) - spline_cdf(x - h, delta)) / (2 * h)
            assert slope == pytest.approx(spline_density(x, delta), abs=1e-8)

    def test_log_density_expansion(self, rng):
        delta = softmax(rng.standard_normal(8))
        for x in rng.random(20):
            k = bin_indicator(x, 8) - 1
            expected = np.log(8) + np.log(delta[k])
            assert spline_log_density(x, delta) == expected
            assert math.log(spline_density(x, delta)) == pytest.approx(expected, abs=1e-14)


LAW_FUNCTIONS = [spline_cdf, spline_inverse, spline_density, spline_log_density]


class TestNanRejected:
    """NaN fails every range check: as a point and inside the increments."""

    @pytest.mark.parametrize("x", [np.nan, np.array([0.5, np.nan])])
    def test_bin_indicator(self, x):
        with pytest.raises(ValueError, match="outside"):
            bin_indicator(x, 4)

    @pytest.mark.parametrize("fn", LAW_FUNCTIONS)
    def test_point(self, fn):
        with pytest.raises(ValueError, match="outside"):
            fn(np.nan, DELTA2)
        with pytest.raises(ValueError, match="outside"):
            fn(np.array([0.5, np.nan]), np.stack([DELTA2, DELTA2]))

    @pytest.mark.parametrize("fn", LAW_FUNCTIONS)
    def test_increment(self, fn):
        with pytest.raises(ValueError, match="strictly positive"):
            fn(0.5, np.array([0.25, np.nan]))
