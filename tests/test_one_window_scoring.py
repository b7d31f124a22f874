"""One-window scoring pays for one check.

``log_likelihood``, ``conditioning_signatures``, ``chen_split`` and ``extend``
are checked wrappers around unchecked cores. The per-shape tables they share
(word offsets, time stamps, the reveal mask) are cached and cannot be
written. Scores are read from the logits by log-sum-exp, so they stay
exact where a floored ``softmax`` would not, and every function returns an
empty result of the right shape for an empty stack.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspline import model as model_mod
from sigspline import signature
from sigspline.calibration import loss
from sigspline.model import (
    _reveal,
    _time_stamps,
    conditioning_path,
    conditioning_signatures,
    log_likelihood,
    sample_step,
    zero_model,
)
from sigspline.signature import extend, signatures
from sigspline.tensor_algebra import _level_offsets
from tests.conftest import random_model
from tests.reference import conditioning_embedding


def identical(a, b):
    """Equal values and equal sign bits."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_level_offsets_are_one_cached_tuple():
    offsets = _level_offsets(3, 3)
    assert offsets == (0, 1, 4, 13, 40)
    assert _level_offsets(3, 3) is offsets


@pytest.mark.parametrize("table", [lambda: _time_stamps(4), lambda: _reveal(3)])
def test_cached_tables_are_read_only(table):
    with pytest.raises(ValueError, match="read-only"):
        table()[0] = 0


@pytest.mark.parametrize("window", [None, 2])
def test_channels_are_checked_before_any_signature_work(rng, monkeypatch, window):
    def unreachable(*args, **kwargs):
        raise AssertionError("the Chen core ran")

    monkeypatch.setattr(signature, "_chen", unreachable)
    monkeypatch.setattr(model_mod, "_chen", unreachable)
    model = zero_model(2, 2, 4, window=window)
    with pytest.raises(ValueError, match="windows have 3 channels, model expects 2"):
        log_likelihood(model, rng.random((4, 3, 3)))
    with pytest.raises(AssertionError, match="Chen core"):  # the patch is on the scoring path
        log_likelihood(model, rng.random((4, 3, 2)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), level=st.integers(0, 3),
       n=st.integers(2, 5), window=st.sampled_from([None, 1, 2, 3]))
def test_conditioning_signatures_keep_the_sign_bits_of_the_masked_fold(seed, d, level, n,
                                                                       window):
    # mixed signs, 0.0 and -0.0 entries, a repeated last row and a row through the origin
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, n, d))
    x[rng.random(x.shape) < 0.2] = -0.0
    x[0, -1] = x[0, -2]
    x[1, 0] = 0.0
    sigs = conditioning_signatures(x, level, window)
    path = conditioning_path(x[:, :-1], x[:, -1], window)
    for i in range(1, d + 1):
        assert identical(sigs[i - 1], signatures(conditioning_embedding(path, i), level))


def test_a_one_segment_signature_seeds_no_negative_zero():
    # the seeded row is 0.0 + exp(Δ), as the reference adds exp(Δ) to a zero-filled block, so a
    # -0.0 increment gives 0.0. The property tests draw a one-segment path with a -0.0
    # increment only by chance, and a conditioning path always has more segments.
    got = signatures(np.array([[0.0, 0.0], [-0.0, 1.0]]), 2)
    assert identical(got, np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.5]))


def test_extreme_coefficients_score_exactly():
    # scaled by 1e306, both coordinates' softmax hits its floor, ln(tiny) each; log-sum-exp on
    # the logits gives the exact value, which the fit objective also reads
    rng = np.random.default_rng(7)
    model = random_model(rng, d=2, level=3, bins=16, window=2, scale=1e306)
    x = 0.4 + 0.2 * rng.random((3, 2))  # a window in the middle of the unit box
    got = log_likelihood(model, x)
    want = 2 * math.log(16) - loss(model, [x])
    assert got < -1e300  # the floor reads 2 ln 16 + 2 ln(tiny), about -1411.25
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("window", [None, 2])
def test_log_likelihood_of_an_empty_stack_is_empty(window):
    got = log_likelihood(zero_model(2, 3, 4, window=window), np.empty((0, 3, 2)))
    assert got.shape == (0,)


@pytest.mark.parametrize("window", [None, 2])
def test_conditioning_signatures_of_an_empty_stack_are_empty(window):
    assert conditioning_signatures(np.empty((0, 3, 2)), 3, window).shape == (2, 0, 40)
    assert conditioning_signatures(np.empty((0, 3, 2)), 3, window, 1).shape == (0, 40)


def test_extend_of_an_empty_stack_is_empty():
    assert extend(np.empty((0, 40)), np.empty((0, 3)), 3).shape == (0, 40)


@pytest.mark.parametrize("window", [None, 2])
def test_sample_step_of_an_empty_stack_is_empty(window):
    model = zero_model(2, 3, 4, window=window)
    assert sample_step(model, np.empty((0, 2, 2)), np.empty((0, 2))).shape == (0, 2)
