"""The batched conditioning path agrees row by row with per-sample references.

``signatures`` is checked against the ``tensor_product`` fold of per-segment
exponentials, ``build_design`` against per-window signatures, ``extend_path``
against one history at a time, and the stacked spline calls against 1-d calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspline.calibration import build_design
from sigspline.model import extend_path
from sigspline.signature import signatures
from sigspline.spline import softmax, spline_inverse
from tests.conftest import random_model
from tests.reference import (
    conditioning_embedding,
    segment_signature,
    signature_of_sequence,
    tensor_product,
    unit_tensor,
)

shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    level=st.integers(0, 3),
    n=st.integers(2, 5),
)
windowed = dict(shapes, window=st.sampled_from([None, 1, 2]))


def chen_fold(x, level):
    """Per-sample reference: left-to-right Chen product of segment exponentials."""
    sig = unit_tensor(x.shape[1], level)
    for inc in np.diff(x, axis=0):
        if np.any(inc):
            sig = tensor_product(sig, segment_signature(inc, level))
    return sig.coeffs


@settings(max_examples=60, deadline=None)
@given(**shapes)
def test_signature_rows_equal_the_tensor_product_fold(seed, d, level, n):
    rng = np.random.default_rng(seed)
    stack = rng.random((3, 2, n, d + 1))
    stack[0, 0, 1] = stack[0, 0, 0]  # a zero increment is skipped, as in the fold
    got = signatures(stack, level)
    assert got.shape == (3, 2, len(chen_fold(stack[0, 0], level)))
    for idx in np.ndindex(3, 2):
        assert np.array_equal(got[idx], chen_fold(stack[idx], level))


@settings(max_examples=60, deadline=None)
@given(**windowed)
def test_design_rows_equal_per_window_signatures(seed, d, level, n, window):
    rng = np.random.default_rng(seed)
    # ragged: lengths 2..n+2, so windows truncate some sequences and not others
    dataset = [rng.random((int(rng.integers(2, n + 3)), d)) for _ in range(7)]
    for i in range(1, d + 1):
        feats, cbins = build_design(dataset, i, level, bins=4, window=window)
        for row, seq in zip(feats, dataset):
            w = seq if window is None else seq[-(window + 1) :]
            want = signature_of_sequence(conditioning_embedding(w, i), level).coeffs
            assert np.array_equal(row, want)
        assert np.array_equal(cbins, [min(int(s[-1, i - 1] * 4), 3) for s in dataset])


@settings(max_examples=40, deadline=None)
@given(**windowed)
def test_extend_path_on_a_stack_matches_one_history_at_a_time(seed, d, level, n, window):
    rng = np.random.default_rng(seed)
    model = random_model(rng, d, level, bins=5, window=window)
    histories = rng.random((4, n, d))
    batched = extend_path(model, histories, 3, np.random.default_rng(seed))
    gen = np.random.default_rng(seed)
    one_by_one = np.stack([extend_path(model, h, 3, gen) for h in histories])
    assert batched.shape == (4, n + 3, d)
    np.testing.assert_allclose(batched, one_by_one, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bins=st.integers(1, 20), rows=st.integers(1, 6))
def test_stacked_softmax_and_spline_inverse_equal_1d_calls(seed, bins, rows):
    rng = np.random.default_rng(seed)
    logits = 4 * rng.standard_normal((rows, bins))
    u = rng.random(rows)
    u[0] = 0.0 if seed % 2 else 1.0  # endpoints take their own branch
    deltas = softmax(logits)
    draws = spline_inverse(u, deltas)
    for r in range(rows):
        assert np.array_equal(deltas[r], softmax(logits[r]))
        assert draws[r] == spline_inverse(u[r], deltas[r])
