"""One design path for fit and scoring.

``conditioning_signatures`` is checked against each coordinate's full masked
fold; ``log_likelihood`` on window stacks against its one-window calls and
against the fit objective ``loss``; the batched spline functions against
row-by-row calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspline.calibration import build_design, loss
from sigspline.model import conditioning_path, conditioning_signatures, log_likelihood, zero_model
from sigspline.signature import signatures
from sigspline.spline import softmax, spline_cdf, spline_density, spline_log_density
from sigspline.tensor_algebra import feature_count
from tests.conftest import random_model
from tests.reference import conditioning_embedding
from tests.test_prefix_sharing import cases, stack_with_repeats


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_conditioning_signatures_equal_the_masked_path_folds(seed, d, level, n, window):
    x = stack_with_repeats(np.random.default_rng(seed), n, d)
    sigs = conditioning_signatures(x, level, window)
    path = conditioning_path(x[:, :-1], x[:, -1], window)
    assert sigs.shape == (d, len(x), feature_count(1 + d, level))
    for i in range(1, d + 1):
        assert np.array_equal(sigs[i - 1], signatures(conditioning_embedding(path, i), level))
        assert conditioning_signatures(x, level, window, i).tobytes() == sigs[i - 1].tobytes()


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_stacked_log_likelihood_equals_per_window_calls(seed, d, level, n, window):
    rng = np.random.default_rng(seed)
    model = random_model(rng, d, level, bins=6, window=window)
    x = np.stack([stack_with_repeats(rng, n, d)[:3] for _ in range(2)])  # (2, 3, n, d)
    got = log_likelihood(model, x)
    assert got.shape == (2, 3)
    for a in range(2):
        for b in range(3):
            one = log_likelihood(model, x[a, b])
            assert type(one) is float
            assert abs(got[a, b] - one) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_loss_is_the_mean_scored_negative_log_likelihood(seed, d, level, n, window):
    # loss drops the d ln N uniform-density constant that log_likelihood carries
    rng = np.random.default_rng(seed)
    model = random_model(rng, d, level, bins=6, window=window)
    x = stack_with_repeats(rng, n, d)
    want = np.mean(d * np.log(6) - log_likelihood(model, x))
    assert abs(loss(model, list(x)) - want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bins=st.integers(1, 9), rows=st.integers(1, 6))
def test_batched_spline_functions_equal_row_by_row_calls(seed, bins, rows):
    rng = np.random.default_rng(seed)
    deltas = softmax(rng.normal(size=(rows, bins)))
    x = rng.random(rows)
    x[0] = 1.0  # the closed right end belongs to bin N
    for fn in (spline_cdf, spline_density, spline_log_density):
        batched = fn(x, deltas)
        assert batched.shape == (rows,)
        for r in range(rows):
            assert batched[r] == fn(x[r], deltas[r])
        grid = fn(x[:, None], deltas[None])  # every point under every law
        assert all(grid[p, r] == fn(x[p], deltas[r]) for p in range(rows) for r in range(rows))


@pytest.mark.parametrize("window", [None, 1, 2])
def test_scoring_rejects_wrong_channels_and_short_windows(rng, window):
    model = zero_model(2, 1, 4, window=window)
    with pytest.raises(ValueError, match="channels"):
        log_likelihood(model, rng.random((4, 3, 3)))
    with pytest.raises(ValueError, match="at least 2 rows"):
        log_likelihood(model, rng.random((4, 1, 2)))
    with pytest.raises(ValueError, match="at least 2 rows"):
        log_likelihood(model, rng.random((1, 2)))


@pytest.mark.parametrize("coordinate", [0, 3, [1, 3]])
def test_design_rejects_coordinates_outside_the_channels(rng, coordinate):
    with pytest.raises(ValueError, match="outside"):
        build_design(list(rng.random((4, 3, 2))), coordinate, level=1, bins=4, window=2)
