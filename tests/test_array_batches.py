"""A batch of same-shape arrays is one ndarray.

Sliding windows, fit datasets and the coefficient stack are checked against
the per-row forms they replace: stacked slices, the list of windows, and
one matrix per coordinate.
"""

from dataclasses import asdict

import numpy as np
import pytest

from sigspline import calibration
from sigspline.calibration import TrainConfig, build_design, fit, windows_from_series
from sigspline.model import (
    SigSplineModel,
    extend_path,
    from_unit,
    log_likelihood,
    model_to_dict,
    sample_from_series,
    sliding_windows,
    to_unit,
)
from sigspline.tensor_algebra import feature_count
from tests.conftest import random_model


@pytest.mark.parametrize("length", [1, 2, 5])
def test_sliding_windows_are_one_owned_array(rng, length):
    series = rng.random((5, 3))
    wins = sliding_windows(series, length)
    assert isinstance(wins, np.ndarray) and wins.shape == (6 - length, length, 3)
    assert np.array_equal(wins, np.stack([series[s : s + length] for s in range(6 - length)]))
    assert not np.shares_memory(wins, series)
    wins[0, 0, 0] = -1.0
    assert series[0, 0] != -1.0


def _reference_sample(model, series, batch, horizon, rng):
    """Histories picked by the index rule ``arr[picks[:, None] + np.arange(hist_len)]``."""
    arr = np.asarray(series, dtype=float)
    hist_len = model.window or 2
    picks = rng.choice(len(arr) - hist_len + 1, size=batch, replace=False)
    histories = to_unit(model, arr[picks[:, None] + np.arange(hist_len)])
    return from_unit(model, extend_path(model, histories, horizon, rng)[:, hist_len:])


@pytest.mark.parametrize("window", [None, 1, 3])
def test_sample_from_series_matches_the_index_rule(rng, window):
    model = random_model(rng, d=2, level=2, bins=6, window=window)
    model.scale_min, model.scale_max = np.array([-1.0, 0.5]), np.array([2.0, 3.0])
    series = rng.uniform(-1.5, 3.5, size=(40, 2))
    got = sample_from_series(model, series, 12, 3, np.random.default_rng(7))
    want = _reference_sample(model, series, 12, 3, np.random.default_rng(7))
    assert got.shape == (12, 3, 2)
    assert np.array_equal(got, want)


def test_sample_from_series_rejects_a_series_shorter_than_one_history(rng):
    model = random_model(rng, d=2, level=1, bins=4, window=3)
    with pytest.raises(ValueError, match="window length 3"):
        sample_from_series(model, rng.random((2, 2)), 1, 1, np.random.default_rng(0))


def _windows(rng):
    return windows_from_series(np.cumsum(rng.standard_normal((300, 2)), axis=0), 2)


def test_windows_from_series_rejects_a_window_below_one(rng):
    with pytest.raises(ValueError, match="window must be >= 1, got 0"):
        windows_from_series(rng.random((10, 2)), 0)


def test_build_design_on_an_array_equals_the_list(rng):
    windows = 0.02 + 0.96 * rng.random((300, 3, 2))
    got = build_design(windows, range(1, 3), level=2, bins=8, window=2)
    want = build_design(list(windows), range(1, 3), level=2, bins=8, window=2)
    for (feats, cbin), (want_feats, want_cbin) in zip(got, want, strict=True):
        assert np.array_equal(feats, want_feats) and np.array_equal(cbin, want_cbin)


@pytest.mark.parametrize("optimizer", ["gradient_descent", "newton"])
def test_fit_on_an_array_equals_the_list(rng, optimizer):
    windows = _windows(rng)
    assert isinstance(windows, np.ndarray) and windows.shape == (298, 3, 2)
    cfg = TrainConfig(level=2, bins=4, window=2, max_iters=6, optimizer=optimizer, rng_seed=3)
    model, report = fit(windows, cfg)
    want_model, want_report = fit(list(windows), cfg)
    assert np.array_equal(model.params, want_model.params)
    assert np.array_equal(model.scale_min, want_model.scale_min)
    assert np.array_equal(model.scale_max, want_model.scale_max)
    assert asdict(report) == asdict(want_report)


def test_fit_on_an_array_checks_it_without_a_per_window_call(rng, monkeypatch):
    windows, calls, as_sequence = _windows(rng), [], calibration.as_sequence

    def counting(x):
        calls.append(1)
        return as_sequence(x)

    monkeypatch.setattr(calibration, "as_sequence", counting)
    cfg = TrainConfig(level=1, bins=4, window=2, max_iters=2)
    fit(windows, cfg)
    assert calls == []
    fit(list(windows), cfg)  # the list path checks every sequence
    assert len(calls) >= len(windows)


class TestCoefficientStack:
    def test_a_list_is_stored_as_one_array(self, rng):
        k = feature_count(3, 2)
        mats = [rng.standard_normal((5, k)) for _ in range(2)]
        model = SigSplineModel(d=2, level=2, bins=5, params=mats)
        assert isinstance(model.params, np.ndarray) and model.params.shape == (2, 5, k)
        assert model.params.dtype == float
        assert np.array_equal(model.params, np.stack(mats))

    def test_wrong_shape_is_rejected(self, rng):
        with pytest.raises(ValueError, match="2x5x"):
            SigSplineModel(d=2, level=2, bins=5, params=np.zeros((2, 5, 3)))

    @pytest.mark.parametrize("coordinate", [1, 3])
    def test_non_finite_entry_names_its_coordinate(self, coordinate):
        params = np.zeros((3, 4, feature_count(4, 1)))
        params[coordinate - 1, 2, 1] = np.inf
        with pytest.raises(ValueError, match=f"coordinate {coordinate} .*non-finite"):
            SigSplineModel(d=3, level=1, bins=4, params=params)

    def test_copy_is_independent(self, rng):
        model = random_model(rng, d=2, level=1, bins=4)
        clone = model.copy()
        clone.params[1] += 1.0
        assert not np.shares_memory(clone.params, model.params)
        assert np.array_equal(clone.params[1], model.params[1] + 1.0)

    def test_in_place_update_of_one_coordinate_changes_the_model(self, rng):
        model = random_model(rng, d=2, level=1, bins=4, window=2)
        windows = 0.02 + 0.96 * rng.random((8, 3, 2))
        before, doc = log_likelihood(model, windows), model_to_dict(model)
        model.params[1] -= 0.5 * rng.standard_normal(model.params[1].shape)
        assert not np.array_equal(log_likelihood(model, windows), before)
        assert model_to_dict(model)["coefficients"] != doc["coefficients"]
