"""Every model carries one per-channel [0,1] map; an omitted map is the identity of [0,1]."""

import json

import numpy as np
import pytest

from sigspline.calibration import loss
from sigspline.cli import main as cli_main
from sigspline.dataio import write_series_csv
from sigspline.model import (
    CLAMP_EPS,
    SigSplineModel,
    from_unit,
    load_model,
    log_likelihood,
    model_to_dict,
    sample_from_series,
    save_model,
    sliding_windows,
    to_unit,
    zero_model,
)
from tests.conftest import random_model


def test_omitted_map_is_the_identity_and_passes_unit_data_bitwise(rng):
    m = zero_model(3, 1, 4)
    assert m.scale_min.shape == m.scale_max.shape == (3,)
    assert np.array_equal(m.scale_min, np.zeros(3)) and np.array_equal(m.scale_max, np.ones(3))
    unit = rng.random((6, 3))
    unit[0], unit[-1] = 0.0, 1.0
    assert to_unit(m, unit).tobytes() == unit.tobytes()
    assert from_unit(m, unit).tobytes() == unit.tobytes()


def test_saved_document_holds_both_lists(tmp_path, rng):
    m = random_model(rng, d=2, level=1, bins=4, window=2)
    path = tmp_path / "model.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    assert doc["scale_min"] == [0.0, 0.0] and doc["scale_max"] == [1.0, 1.0]
    loaded = load_model(path)
    assert loaded.scale_min.tobytes() == m.scale_min.tobytes()
    assert loaded.scale_max.tobytes() == m.scale_max.tobytes()


def test_null_lists_load_as_the_identity_map(tmp_path, rng):
    # a document written before every model carried its map holds null for both lists
    m = random_model(rng, d=2, level=2, bins=4, window=2)
    explicit, null = tmp_path / "explicit.json", tmp_path / "null.json"
    save_model(m, explicit)
    null.write_text(json.dumps(model_to_dict(m) | {"scale_min": None, "scale_max": None}))
    a, b = load_model(explicit), load_model(null)
    assert np.array_equal(b.scale_min, np.zeros(2)) and np.array_equal(b.scale_max, np.ones(2))
    series = 0.02 + 0.96 * rng.random((40, 2))
    windows = sliding_windows(series, 3)
    assert log_likelihood(a, windows).tobytes() == log_likelihood(b, windows).tobytes()
    draws = [sample_from_series(model, series, 8, 4, np.random.default_rng(5))
             for model in (a, b)]
    assert draws[0].tobytes() == draws[1].tobytes()


def test_identity_map_clamps_out_of_range_input(rng):
    m = random_model(rng, d=2, level=1, bins=4, window=2)
    unit = to_unit(m, np.array([[-0.5, 1.5], [0.25, 0.75], [2.0, -3.0]]))
    assert unit.tolist() == [[CLAMP_EPS, 1 - CLAMP_EPS], [0.25, 0.75], [1 - CLAMP_EPS, CLAMP_EPS]]
    # scoring and sampling condition on the clamped values, as under a fitted map
    raw = rng.uniform(-0.5, 1.5, (30, 2))
    clamped = to_unit(m, raw)
    windows = sliding_windows(raw, 3)
    assert loss(m, windows) == loss(m, sliding_windows(clamped, 3))
    draws = [sample_from_series(m, series, 6, 3, np.random.default_rng(1))
             for series in (raw, clamped)]
    assert draws[0].tobytes() == draws[1].tobytes()


@pytest.mark.parametrize("lo, hi, message", [
    ([0.0, 2.0, -1.0], [1.0, 2.0, 1.0], r"channel 2 spans \[2, 2\]; cannot rescale it to \[0,1\]"),
    ([3.0, 0.0, 0.0], [1.0, 1.0, 1.0], r"channel 1 spans \[3, 1\]; cannot rescale it to \[0,1\]"),
])
def test_empty_or_reversed_range_names_its_channel(lo, hi, message):
    with pytest.raises(ValueError, match=message):
        SigSplineModel(3, 1, 4, np.zeros((3, 4, 5)), scale_min=lo, scale_max=hi)


def test_map_must_be_given_whole():
    with pytest.raises(ValueError, match="set together"):
        SigSplineModel(1, 1, 4, np.zeros((1, 4, 3)), scale_min=np.zeros(1))


@pytest.mark.parametrize("key", ["scale_min", "scale_max"])
def test_map_must_have_one_entry_per_channel(key):
    lists = {"scale_min": [0.0, 0.0], "scale_max": [1.0, 1.0]}
    lists[key].append(lists[key][0])
    with pytest.raises(ValueError, match=f"^{key} has 3 entries; the model has d=2 channels$"):
        SigSplineModel(2, 1, 4, np.zeros((2, 4, 4)), **lists)


def test_fit_on_a_constant_channel_is_a_named_data_error(tmp_path, rng, capsys):
    series = rng.random((40, 2))
    series[:, 1] = 0.5
    path = tmp_path / "flat.csv"
    write_series_csv(path, series)
    code = cli_main(["fit", "--data", str(path), "--window", "2", "--output-model",
                     str(tmp_path / "model.json"), "--output-report", str(tmp_path / "r.json")])
    assert code == 2
    assert ("data error: channel 2 spans [0.5, 0.5]; cannot rescale it to [0,1]"
            in capsys.readouterr().err)
    assert not (tmp_path / "model.json").exists()
