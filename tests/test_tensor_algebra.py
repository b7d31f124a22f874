import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspline.tensor_algebra import feature_count
from tests.reference import (
    TruncatedTensor,
    index_to_word,
    inner_product,
    tensor_product,
    unit_tensor,
    word_to_index,
)


def random_tensor(e, level, rng):
    return TruncatedTensor(e, level, rng.standard_normal(feature_count(e, level)))


def brute_force_product(a, b):
    """Independent oracle: sum a[u]*b[v] over every factorization w = u.v."""
    e, level = a.alphabet_size, a.level
    coeffs = np.zeros_like(a.coeffs)
    for idx in range(coeffs.size):
        word = index_to_word(idx, e, level)
        coeffs[idx] = sum(a[word[:s]] * b[word[s:]] for s in range(len(word) + 1))
    return TruncatedTensor(e, level, coeffs)


class TestFeatureCount:
    @pytest.mark.parametrize("e,level,expected", [(2, 2, 7), (3, 4, 121), (3, 1, 4)])
    def test_known_values(self, e, level, expected):
        assert feature_count(e, level) == expected

    def test_matches_geometric_sum(self):
        for e in range(2, 5):
            for level in range(6):
                assert feature_count(e, level) == (e ** (level + 1) - 1) // (e - 1)

    def test_alphabet_one(self):
        assert feature_count(1, 5) == 6

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            feature_count(2, 200)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            feature_count(0, 1)
        with pytest.raises(ValueError):
            feature_count(2, -1)


class TestWordIndexing:
    def test_known_indices(self):
        assert word_to_index((), 2, 2) == 0
        assert word_to_index((1,), 2, 2) == 1
        assert word_to_index((2, 1), 2, 2) == 5

    def test_level_two_ordering(self):
        words = [index_to_word(i, 2, 2) for i in range(7)]
        assert words == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_round_trip_up_to_e4_l4(self):
        for e in range(1, 5):
            total = feature_count(e, 4)
            seen = set()
            for idx in range(total):
                word = index_to_word(idx, e, 4)
                assert word_to_index(word, e, 4) == idx
                seen.add(word)
            assert len(seen) == total

    def test_errors(self):
        with pytest.raises(ValueError):
            word_to_index((3,), 2, 2)
        with pytest.raises(ValueError):
            word_to_index((1, 1, 1), 2, 2)
        with pytest.raises(ValueError):
            index_to_word(7, 2, 2)


class TestTensorProduct:
    def test_unit_is_identity(self, rng):
        b = random_tensor(2, 3, rng)
        unit = unit_tensor(2, 3)
        assert np.array_equal(tensor_product(unit, b).coeffs, b.coeffs)
        assert np.array_equal(tensor_product(b, unit).coeffs, b.coeffs)

    def test_one_dimensional_exponentials_multiply(self):
        x, y = 0.7, -0.4
        a = TruncatedTensor(1, 2, [1.0, x, x**2 / 2])
        b = TruncatedTensor(1, 2, [1.0, y, y**2 / 2])
        expected = [1.0, x + y, (x + y) ** 2 / 2]
        assert np.allclose(tensor_product(a, b).coeffs, expected, atol=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            a, b = random_tensor(2, 3, rng), random_tensor(2, 3, rng)
            got = tensor_product(a, b)
            want = brute_force_product(a, b)
            assert np.allclose(got.coeffs, want.coeffs, atol=1e-12)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), e=st.integers(1, 3), level=st.integers(0, 3))
    def test_associativity(self, seed, e, level):
        r = np.random.default_rng(seed)
        a, b, c = (random_tensor(e, level, r) for _ in range(3))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)

    def test_empty_word_coefficient_multiplies(self, rng):
        a, b = random_tensor(2, 2, rng), random_tensor(2, 2, rng)
        assert tensor_product(a, b)[()] == a[()] * b[()]

    def test_mismatched_operands(self, rng):
        with pytest.raises(ValueError):
            tensor_product(random_tensor(2, 2, rng), random_tensor(3, 2, rng))
        with pytest.raises(ValueError):
            tensor_product(random_tensor(2, 2, rng), random_tensor(2, 3, rng))


class TestInnerProduct:
    def test_empty_word_selector_on_unit(self):
        t = unit_tensor(2, 2)
        w = np.zeros(7)
        w[0] = 1.0
        assert inner_product(w, t) == 1.0

    def test_zero_functional(self, rng):
        assert inner_product(np.zeros(7), random_tensor(2, 2, rng)) == 0.0

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            inner_product(np.zeros(6), random_tensor(2, 2, rng))
