"""Chen prefix sharing agrees with folding each coordinate's masked path.

The reference for every check is ``signatures(conditioning_embedding(path, i))``:
the full masked embedding of coordinate i, folded from its first segment.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspline.calibration import build_design
from sigspline.model import (
    chen_split,
    conditioning_path,
    log_likelihood,
    masked_increments,
    sample_step,
)
from sigspline.signature import extend, signatures
from sigspline.spline import bin_indicator, softmax, spline_inverse
from tests.conftest import random_model
from tests.reference import conditioning_embedding

cases = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    level=st.integers(0, 3),
    n=st.integers(2, 5),
    window=st.sampled_from([None, 1, 2]),
)


def stack_with_repeats(rng, n, d):
    """Five (n, d) sequences in [0, 1]; some rows repeat and one path starts at
    zero, so its basepoint segment is a zero increment that the fold skips."""
    x = rng.random((5, n, d))
    x[0, -1] = x[0, -2]
    x[1, 0] = 0.0
    x[2, :] = x[2, 0]
    return x


def reference_increments(model, path, i):
    """Coordinate i's bin increments from its own full masked-path fold."""
    sig = signatures(conditioning_embedding(path, i), model.level)
    return softmax(sig @ model.params[i - 1].T)


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_prefix_plus_extension_equals_the_masked_path_fold(seed, d, level, n, window):
    rng = np.random.default_rng(seed)
    x = stack_with_repeats(rng, n, d)
    path = conditioning_path(x[:, :-1], x[:, -1], window)
    prefix, ends = chen_split(path, level)
    for i in range(1, d + 1):
        got = extend(prefix, masked_increments(ends)[i - 1], level)
        assert np.array_equal(got, signatures(conditioning_embedding(path, i), level))


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_design_list_equals_one_coordinate_at_a_time(seed, d, level, n, window):
    rng = np.random.default_rng(seed)
    dataset = [rng.random((int(rng.integers(2, n + 3)), d)) for _ in range(6)]
    dataset[0][-1] = dataset[0][-2]
    designs = build_design(dataset, range(1, d + 1), level, bins=4, window=window)
    for i, (feats, cbins) in enumerate(designs, start=1):
        want_feats, want_cbins = build_design(dataset, i, level, bins=4, window=window)
        assert np.array_equal(feats, want_feats) and np.array_equal(cbins, want_cbins)


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_sample_step_equals_the_sequential_per_coordinate_draw(seed, d, level, n, window):
    rng = np.random.default_rng(seed)
    model = random_model(rng, d, level, bins=5, window=window)
    hist = stack_with_repeats(rng, n, d)
    u = rng.random((len(hist), d))
    drawn = np.empty((len(hist), d))
    for i in range(1, d + 1):
        candidate = hist[:, -1].copy()
        candidate[:, : i - 1] = drawn[:, : i - 1]
        delta = reference_increments(model, conditioning_path(hist, candidate, window), i)
        drawn[:, i - 1] = spline_inverse(u[:, i - 1], delta)
    assert np.array_equal(sample_step(model, hist, u), drawn)


@settings(max_examples=40, deadline=None)
@given(**cases)
def test_log_likelihood_equals_the_per_coordinate_sum(seed, d, level, n, window):
    rng = np.random.default_rng(seed)
    model = random_model(rng, d, level, bins=6, window=window)
    for x in stack_with_repeats(rng, n, d):
        path = conditioning_path(x[:-1], x[-1], window)
        want = d * np.log(6)
        for i in range(1, d + 1):
            delta = reference_increments(model, path, i)
            want += np.log(delta[bin_indicator(x[-1, i - 1], 6) - 1])
        assert abs(log_likelihood(model, x) - want) <= 1e-12
