import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspline.tensor_algebra import feature_count
from tests.reference import (
    index_to_word,
    inner_product,
    segment_signature,
    signature_of_sequence,
    signature_oracle,
    tensor_product,
    unit_tensor,
)

CORNER_PATH = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


class TestSegmentSignature:
    def test_unit_increment(self):
        sig = segment_signature([1.0, 0.0], 2)
        assert sig[()] == 1.0
        assert sig[(1,)] == 1.0
        assert sig[(2,)] == 0.0
        assert sig[(1, 1)] == 0.5
        assert sig[(1, 2)] == 0.0 and sig[(2, 1)] == 0.0 and sig[(2, 2)] == 0.0

    def test_zero_increment_gives_unit(self):
        sig = segment_signature([0.0, 0.0], 3)
        assert np.array_equal(sig.coeffs, unit_tensor(2, 3).coeffs)

    def test_word_formula(self):
        sig = segment_signature([0.3, -0.2], 3)
        assert sig[(1, 2, 2)] == pytest.approx(0.3 * (-0.2) * (-0.2) / 6, abs=1e-15)

    def test_factorials_in_denominator(self):
        sig = segment_signature([1.0], 5)
        for k in range(6):
            assert sig.coeffs[k] == pytest.approx(1.0 / math.factorial(k), rel=1e-15)


class TestSignatureOfSequence:
    def test_single_segment_matches_exponential(self, rng):
        x = rng.random((2, 3))
        got = signature_of_sequence(x, 3)
        want = segment_signature(x[1] - x[0], 3)
        assert np.allclose(got.coeffs, want.coeffs, atol=1e-15)

    def test_length_one_is_unit(self):
        sig = signature_of_sequence([[0.4, 0.2]], 2)
        assert np.array_equal(sig.coeffs, unit_tensor(2, 2).coeffs)

    def test_corner_path_coefficients(self):
        sig = signature_of_sequence(CORNER_PATH, 2)
        assert sig[(1, 2)] == pytest.approx(1.0, abs=1e-12)
        assert sig[(2, 1)] == pytest.approx(0.0, abs=1e-12)
        assert sig[(1, 1)] == pytest.approx(0.5, abs=1e-12)

    def test_level_one_is_total_increment(self, rng):
        x = rng.random((5, 3))
        sig = signature_of_sequence(x, 2)
        for c in range(3):
            assert sig[(c + 1,)] == x[-1, c] - x[0, c]

    def test_duplicated_point_is_invisible(self, rng):
        x = rng.random((4, 2))
        doubled = np.vstack([x[:2], x[1:2], x[2:]])
        a = signature_of_sequence(x, 3)
        b = signature_of_sequence(doubled, 3)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-14)

    def test_level_zero_truncation(self, rng):
        sig = signature_of_sequence(rng.random((3, 2)), 0)
        assert sig.coeffs.shape == (1,) and sig.coeffs[0] == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        e=st.integers(1, 3),
        level=st.integers(1, 4),
        split=st.integers(1, 4),
    )
    def test_chen_identity(self, seed, n, e, level, split):
        r = np.random.default_rng(seed)
        x = r.random((n, e))
        k = min(split, n - 1)
        whole = signature_of_sequence(x, level)
        left = signature_of_sequence(x[: k + 1], level)
        right = signature_of_sequence(x[k:], level)
        assert np.allclose(
            whole.coeffs, tensor_product(left, right).coeffs, atol=1e-10
        )

    def test_level_max_norms_decay(self):
        rng = np.random.default_rng(5)
        x = 0.4 * rng.random((5, 2))
        sig = signature_of_sequence(x, 5)
        maxima = [np.abs(sig.level_block(k)).max() for k in range(1, 6)]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))


class TestSignatureOracle:
    def test_straight_segment_level_one(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert signature_oracle(x, (1,), 1000) == pytest.approx(1.0, abs=1e-3)

    def test_corner_path_area_word(self):
        # Green's-theorem style value: channel 1 is at 1 while channel 2 rises
        assert signature_oracle(CORNER_PATH, (1, 2), 1000) == pytest.approx(1.0, abs=1e-2)

    def test_flat_channel_vanishes(self):
        x = np.array([[0.0, 0.3], [0.5, 0.3], [1.0, 0.3]])
        assert signature_oracle(x, (1, 2), 1000) == pytest.approx(0.0, abs=1e-3)
        assert signature_oracle(x, (2,), 1000) == pytest.approx(0.0, abs=1e-12)

    def test_empty_word(self, rng):
        assert signature_oracle(rng.random((3, 2)), (), 1000) == 1.0

    def test_rejects_coarse_grids(self, rng):
        with pytest.raises(ValueError):
            signature_oracle(rng.random((3, 2)), (1,), steps=50)

    def test_agrees_with_exact_signature(self, rng):
        for _ in range(3):
            x = rng.random((3, 2))
            sig = signature_of_sequence(x, 3)
            for idx in range(1, feature_count(2, 3)):
                word = index_to_word(idx, 2, 3)
                assert signature_oracle(x, word, 5000) == pytest.approx(
                    sig.coeffs[idx], abs=1e-3
                )


def test_universality_functional_pairing(rng):
    # a one-hot functional at a level-1 word reads off that channel's increment
    x = rng.random((4, 2))
    sig = signature_of_sequence(x, 2)
    w = np.zeros(feature_count(2, 2))
    w[1] = 1.0
    assert inner_product(w, sig) == pytest.approx(x[-1, 0] - x[0, 0], abs=1e-15)
