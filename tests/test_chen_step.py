"""The fused Chen step agrees bit for bit with the ``tensor_product`` reference.

``extend`` fuses the empty-word terms of ``sig ⊗ exp(Δ)``, ``signatures``
seeds each fold with its first segment's exponential, and
``masked_increments`` takes every coordinate's last segment from one reveal
mask. Each is compared with its reference by value and by sign bit, so a
-0.0 where the reference has 0.0 fails.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigspline.model import chen_split, masked_increments
from sigspline.signature import extend, signatures
from sigspline.tensor_algebra import feature_count
from tests.reference import TruncatedTensor, mask, tensor_product, unit_tensor

sizes = dict(seed=st.integers(0, 2**32 - 1), e=st.integers(1, 5), level=st.integers(0, 4))


def expo(inc, level):
    """Tensor exponential by the recurrence extend documents: level k = (level k-1 ⊗ inc) / k."""
    levels = [np.ones(1)]
    for k in range(1, level + 1):
        levels.append(np.outer(levels[-1], inc).ravel() / k)
    return TruncatedTensor(len(inc), level, np.concatenate(levels))


def identical(a, b):
    """Equal values and equal sign bits."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def with_zeros(rng, shape):
    """Normal entries, about a third of them replaced by 0.0 or -0.0."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    return x


def increments(rng, rows, e):
    """Mixed-sign increments with zero and -0.0 entries; row 0 is zero, row 1 all -0.0."""
    inc = with_zeros(rng, (rows, e))
    inc[0], inc[1] = 0.0, -0.0
    return inc


def chen_fold(x, level):
    """Per-sample reference: the tensor_product fold of each nonzero segment's exponential."""
    sig = unit_tensor(x.shape[1], level)
    for inc in np.diff(x, axis=0):
        if np.any(inc):
            sig = tensor_product(sig, expo(inc, level))
    return sig.coeffs


@settings(max_examples=80, deadline=None)
@given(**sizes)
@example(seed=0, e=1, level=1)
@example(seed=3, e=2, level=3)
def test_extend_equals_the_tensor_product_with_the_exponential(seed, e, level):
    # arbitrary rows, not signatures: -0.0 and 0.0 entries at every level
    rng = np.random.default_rng(seed)
    sig = with_zeros(rng, (12, feature_count(e, level)))
    inc = increments(rng, 12, e)
    got = extend(sig, inc, level)
    for row, s, d in zip(got, sig, inc):
        want = tensor_product(TruncatedTensor(e, level, s), expo(d, level)).coeffs
        assert identical(row, want if np.any(d) else s)  # a zero increment is skipped


def test_extend_keeps_the_signed_zero_rule_of_the_reference():
    # 0.0 + (-2 * 0.0) + (-0.0) is 0.0 in the reference; without the leading 0.0 it is -0.0
    sig, inc = np.array([-2.0, -0.0, -0.0]), np.array([0.0, 1.0])
    got = extend(sig, inc, 1)
    assert identical(got, tensor_product(TruncatedTensor(2, 1, sig), expo(inc, 1)).coeffs)
    assert not np.signbit(got[1])


@settings(max_examples=60, deadline=None)
@given(**sizes, n=st.integers(1, 5))
def test_seeded_signatures_equal_the_tensor_product_fold(seed, e, level, n):
    rng = np.random.default_rng(seed)
    x = with_zeros(rng, (6, n, e))
    if n > 1:
        x[0, 1] = x[0, 0]  # a zero first segment
        x[1, 1] = -x[1, 0]  # a first segment through the origin
        x[2, :] = -0.0
    got = signatures(x, level)
    for row, path in zip(got, x):
        assert identical(row, chen_fold(path, level))
    if n == 1:
        assert identical(got, np.broadcast_to(unit_tensor(e, level).coeffs, got.shape))


@settings(max_examples=40, deadline=None)
@given(**sizes, d=st.integers(1, 4))
def test_a_broadcast_prefix_equals_its_explicit_copy(seed, e, level, d):
    rng = np.random.default_rng(seed)
    prefix = with_zeros(rng, (7, feature_count(e, level)))
    inc = np.stack([increments(rng, 7, e) for _ in range(d)])  # (d, 7, e), zero rows included
    want = extend(np.broadcast_to(prefix, (d, 7, prefix.shape[-1])).copy(), inc, level)
    assert identical(extend(prefix, inc, level), want)
    assert identical(extend(prefix[0], inc[:, :1], level), want[:, :1])


@pytest.mark.parametrize("sig_shape", [(2, 4), (2, 3, 3), (4, 2, 3, 4)])
def test_extend_rejects_a_prefix_that_does_not_broadcast(sig_shape):
    with pytest.raises(ValueError, match="do not fit"):
        extend(np.zeros(sig_shape), np.ones((2, 3, 3)), 1)  # lead (2, 3), K = 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), n=st.integers(2, 4))
def test_reveal_mask_increments_equal_masked_increment(seed, d, n):
    rng = np.random.default_rng(seed)
    path = with_zeros(rng, (3, 2, n, d))
    path[0, 0, -1] = path[0, 0, -2]  # a repeated last row
    _, ends = chen_split(path, 1)
    got = masked_increments(ends)
    assert got.shape == (d, 3, 2, 1 + d)
    for i in range(1, d + 1):
        masked = mask(ends, i + 1)  # after the time channel, data coordinate i is channel i + 1
        assert identical(got[i - 1], masked[..., 1, :] - masked[..., 0, :])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), n=st.integers(2, 4))
def test_one_coordinate_reveal_row_equals_its_row_of_all(seed, d, n):
    rng = np.random.default_rng(seed)
    _, ends = chen_split(with_zeros(rng, (3, 2, n, d)), 1)
    every = masked_increments(ends)
    for i in range(1, d + 1):
        assert identical(masked_increments(ends, i), every[i - 1])


@pytest.mark.parametrize("i", [0, 4, -1])
def test_reveal_row_outside_the_coordinates_is_rejected(i):
    with pytest.raises(ValueError, match="outside"):
        masked_increments(np.zeros((5, 2, 4)), i)  # d = 3
