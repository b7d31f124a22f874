import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference import (
    basepoint,
    conditioning_embedding,
    mask,
    signature_of_sequence,
    time_augment,
)

X22 = np.array([[0.1, 0.2], [0.3, 0.4]])


class TestBasepoint:
    def test_prepends_zero(self):
        assert np.array_equal(basepoint([[0.5]]), [[0.0], [0.5]])

    def test_single_row(self):
        out = basepoint(np.array([[0.2, 0.7]]))
        assert out.shape == (2, 2) and np.array_equal(out[0], [0.0, 0.0])

    def test_not_idempotent(self):
        assert basepoint(basepoint(X22)).shape == (4, 2)


class TestTimeAugment:
    def test_two_rows(self):
        out = time_augment([[0.3], [0.9]])
        assert np.array_equal(out, [[0.0, 0.3], [1.0, 0.9]])

    def test_three_rows_stamps(self):
        out = time_augment(np.zeros((3, 2)))
        assert np.array_equal(out[:, 0], [0.0, 0.5, 1.0])

    def test_single_row_stamp_zero(self):
        assert np.array_equal(time_augment([[0.4]]), [[0.0, 0.4]])


class TestMask:
    def test_full_mask_copies_previous_row(self):
        assert np.array_equal(mask(X22, 1), [[0.1, 0.2], [0.1, 0.2]])

    def test_partial_mask(self):
        assert np.array_equal(mask(X22, 2), [[0.1, 0.2], [0.3, 0.2]])

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            mask(X22, 3)  # i = d+1 would be the identity; excluded
        with pytest.raises(ValueError):
            mask(X22, 0)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            mask([[0.1, 0.2]], 1)

    def test_only_last_row_changes(self, rng):
        x = rng.random((5, 3))
        out = mask(x, 2)
        assert np.array_equal(out[:-1], x[:-1])
        assert out[-1, 0] == x[-1, 0]
        assert np.array_equal(out[-1, 1:], x[-2, 1:])


class TestConditioningEmbedding:
    def test_worked_example_coordinate_two(self):
        out = conditioning_embedding(X22, 2)
        assert np.allclose(out, [[0, 0, 0], [0, 0.1, 0.2], [1, 0.3, 0.2]])

    def test_worked_example_coordinate_one(self):
        out = conditioning_embedding(X22, 1)
        assert np.allclose(out, [[0, 0, 0], [0, 0.1, 0.2], [1, 0.1, 0.2]])

    def test_time_channel_layout(self, rng):
        n = 5
        out = conditioning_embedding(rng.random((n, 2)), 1)
        assert np.allclose(out[:, 0], [0.0, *np.linspace(0, 1, n)])
        assert np.array_equal(out[0], np.zeros(3))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            conditioning_embedding([[0.1, 0.2]], 1)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), i=st.integers(1, 3))
    def test_information_hiding(self, seed, i):
        r = np.random.default_rng(seed)
        x = r.random((4, 3))
        y = x.copy()
        y[-1, i - 1 :] = r.random(3 - i + 1)  # junk in the hidden coordinates
        assert np.array_equal(conditioning_embedding(x, i), conditioning_embedding(y, i))

    def test_level_one_signature_reads_masked_values(self, rng):
        # total increment of data channel c is x[-1,c] below the mask, x[-2,c] at or above
        x = rng.random((4, 3))
        for i in range(1, 4):
            sig = signature_of_sequence(conditioning_embedding(x, i), 1)
            for c in range(1, 4):
                expected = x[-1, c - 1] if c < i else x[-2, c - 1]
                assert sig[(c + 1,)] == pytest.approx(expected, abs=1e-15)

    def test_copy_vs_drop_last_are_signature_equivalent(self, rng):
        # the i=1 mask copies the previous row; dropping that row instead gives
        # a different sequence with the same signature (duplicate-point invariance)
        x = rng.random((4, 2))
        copied, dropped = mask(x, 1), x[:-1]
        assert copied.shape != dropped.shape
        a = signature_of_sequence(copied, 3)
        b = signature_of_sequence(dropped, 3)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)
