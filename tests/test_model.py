import base64
import json

import numpy as np
import pytest

from sigspline.cli import main as cli_main
from sigspline.dataio import write_series_csv
from sigspline.model import (
    SigSplineModel,
    conditional_increments,
    extend_path,
    feature_map,
    from_unit,
    generate,
    load_model,
    log_likelihood,
    model_from_dict,
    model_to_dict,
    parameter_count,
    sample_step,
    save_model,
    sliding_windows,
    to_unit,
    zero_model,
)
from sigspline.spline import spline_cdf, spline_density, spline_inverse
from tests.conftest import random_model


@pytest.fixture
def history(rng):
    return 0.1 + 0.8 * rng.random((3, 2))


class TestParameterCount:
    @pytest.mark.parametrize("level,expected", [(1, 512), (2, 1664), (3, 5120), (4, 15488)])
    def test_two_dimensional_64_bins(self, level, expected):
        assert parameter_count(2, level, 64) == expected

    def test_matches_stored_arrays(self, rng):
        m = random_model(rng, d=3, level=2, bins=5)
        assert sum(u.size for u in m.params) == parameter_count(3, 2, 5)


class TestFeatureMap:
    def test_zero_parameters_give_zero_features(self, history):
        m = zero_model(2, 2, 4)
        x = np.vstack([history, history[-1]])
        assert np.array_equal(feature_map(x, 1, m.params[0], 2), np.zeros(4))

    def test_empty_word_row_reads_constant_one(self, history, rng):
        u = np.zeros((4, 13))
        u[2, 0] = 1.7  # only the empty-word column of row 3
        x = np.vstack([history, history[-1]])
        assert np.allclose(feature_map(x, 1, u, 2), [0, 0, 1.7, 0])

    def test_masked_coordinates_are_invisible(self, history, rng):
        m = random_model(rng, d=2, level=2, bins=4)
        x = np.vstack([history, [0.3, 0.9]])
        y = np.vstack([history, [0.3, 0.123]])
        assert np.array_equal(
            feature_map(x, 2, m.params[1], 2), feature_map(y, 2, m.params[1], 2)
        )

    @pytest.mark.parametrize("i", [0, 3])
    def test_coordinate_outside_range_rejected(self, history, rng, i):
        m = random_model(rng, d=2, level=2, bins=4)
        x = np.vstack([history, history[-1]])
        with pytest.raises(ValueError, match="outside"):
            feature_map(x, i, m.params[0], 2)


class TestConditionalIncrements:
    def test_zero_parameters_are_uniform(self, history):
        m = zero_model(2, 2, 8)
        delta = conditional_increments(history, [0.5, 0.5], 1, m)
        assert np.allclose(delta, 1.0 / 8)

    def test_positive_and_normalized(self, history, rng):
        m = random_model(rng, d=2, level=2, bins=8)
        delta = conditional_increments(history, [0.5, 0.5], 2, m)
        assert np.all(delta > 0) and delta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_partial_beyond_i_is_ignored(self, history, rng):
        m = random_model(rng, d=2, level=2, bins=4)
        a = conditional_increments(history, [0.5, 0.9], 1, m)
        b = conditional_increments(history, [0.1, 0.2], 1, m)
        assert np.array_equal(a, b)

    def test_window_limits_memory(self, rng):
        m = random_model(rng, d=2, level=2, bins=4, window=2)
        hist = 0.1 + 0.8 * rng.random((5, 2))
        other = hist.copy()
        other[:-2] = rng.random((3, 2))  # only rows beyond the window differ
        a = conditional_increments(hist, [0.5, 0.5], 1, m)
        b = conditional_increments(other, [0.5, 0.5], 1, m)
        assert np.array_equal(a, b)

    def test_full_history_sees_old_rows(self, rng):
        m = random_model(rng, d=2, level=2, bins=4, window=None)
        hist = 0.1 + 0.8 * rng.random((5, 2))
        other = hist.copy()
        other[0] = [0.9, 0.9]
        a = conditional_increments(hist, [0.5, 0.5], 1, m)
        b = conditional_increments(other, [0.5, 0.5], 1, m)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("i", [0, 3])
    def test_coordinate_outside_range_rejected(self, history, rng, i):
        m = random_model(rng, d=2, level=2, bins=4)
        with pytest.raises(ValueError, match="outside"):
            conditional_increments(history, [0.5, 0.5], i, m)


class TestLogLikelihood:
    def test_zero_parameters_uniform_density(self, rng):
        m = zero_model(3, 1, 16)
        x = rng.random((4, 3))
        assert log_likelihood(m, x) == pytest.approx(0.0, abs=1e-12)

    def test_piecewise_constant_in_the_bin(self, history, rng):
        m = random_model(rng, d=2, level=1, bins=4)
        x1 = np.vstack([history, [0.30, 0.60]])
        x2 = np.vstack([history, [0.30, 0.70]])  # same bins: [0.25,0.5) x [0.5,0.75)
        assert log_likelihood(m, x1) == log_likelihood(m, x2)

    def test_products_of_coordinate_densities(self, history, rng):
        m = random_model(rng, d=2, level=2, bins=8)
        target = np.array([0.37, 0.81])
        x = np.vstack([history, target])
        dens = 1.0
        for i in (1, 2):
            delta = conditional_increments(history, target, i, m)
            dens *= spline_density(target[i - 1], delta)
        assert np.exp(log_likelihood(m, x)) == pytest.approx(dens, rel=1e-12)

    def test_conditional_density_integrates_to_one(self, rng):
        m = random_model(rng, d=1, level=2, bins=4)
        hist = 0.2 + 0.6 * rng.random((3, 1))
        cells = 4000  # aligned with the 4 bins: midpoint rule is exact
        mids = (np.arange(cells) + 0.5) / cells
        total = 0.0
        for x in mids:
            total += np.exp(log_likelihood(m, np.vstack([hist, [[x]]])))
        assert total / cells == pytest.approx(1.0, abs=1e-10)

    def test_needs_two_rows(self, rng):
        with pytest.raises(ValueError):
            log_likelihood(zero_model(2, 1, 4), rng.random((1, 2)))


class TestSampling:
    def test_uniform_model_is_identity_on_u(self, history):
        m = zero_model(2, 2, 8)
        assert np.allclose(sample_step(m, history, [0.5, 0.5]), [0.5, 0.5])

    def test_endpoints(self, history, rng):
        m = random_model(rng, d=2, level=2, bins=4)
        assert np.array_equal(sample_step(m, history, [0.0, 0.0]), [0.0, 0.0])
        assert np.array_equal(sample_step(m, history, [1.0, 1.0]), [1.0, 1.0])

    def test_matches_inverse_of_conditional_cdf(self, history, rng):
        m = random_model(rng, d=2, level=2, bins=8)
        u = rng.random(2)
        drawn = sample_step(m, history, u)
        d1 = conditional_increments(history, drawn, 1, m)
        d2 = conditional_increments(history, drawn, 2, m)
        assert drawn[0] == spline_inverse(u[0], d1)
        assert drawn[1] == spline_inverse(u[1], d2)

    def test_empirical_cdf_matches_model_cdf(self, history, rng):
        # draws for a fixed conditional law, inverted in bulk (same math as
        # sample_step, which the test above ties to spline_inverse)
        m = random_model(rng, d=2, level=2, bins=8)
        delta = conditional_increments(history, [0.0, 0.0], 1, m)
        draws = np.sort(spline_inverse(rng.random(100_000), delta))
        model_cdf = spline_cdf(draws, delta)
        empirical_hi = np.arange(1, draws.size + 1) / draws.size
        empirical_lo = np.arange(0, draws.size) / draws.size
        ks = max(
            np.abs(empirical_hi - model_cdf).max(),
            np.abs(model_cdf - empirical_lo).max(),
        )
        assert ks <= 0.01

    def test_generate_deterministic_and_shaped(self, history, rng):
        m = random_model(rng, d=2, level=1, bins=4)
        a = generate(m, history, 4, rng_seed=11)
        b = generate(m, history, 4, rng_seed=11)
        assert a.shape == (history.shape[0] + 4, 2)
        assert np.array_equal(a, b)
        assert np.array_equal(a[: history.shape[0]], history)

    def test_generate_horizon_one_is_sample_step(self, history, rng):
        m = random_model(rng, d=2, level=1, bins=4)
        out = generate(m, history, 1, rng_seed=3)
        u = np.random.default_rng(3).random(2)
        assert np.array_equal(out[-1], sample_step(m, history, u))

    def test_extend_path_draws_sequentially(self, history, rng):
        m = random_model(rng, d=2, level=1, bins=4)
        gen = np.random.default_rng(9)
        path = extend_path(m, history, 2, gen)
        assert path.shape == (5, 2)


class TestScaling:
    def test_round_trip_in_range(self, rng):
        m = zero_model(2, 1, 4)
        m.scale_min, m.scale_max = np.array([-1.0, 0.0]), np.array([3.0, 10.0])
        raw = np.column_stack([rng.uniform(-1, 3, 20), rng.uniform(0, 10, 20)])
        assert np.allclose(from_unit(m, to_unit(m, raw)), raw, atol=1e-12)

    def test_out_of_range_clamps_inside(self):
        m = zero_model(1, 1, 4)
        m.scale_min, m.scale_max = np.array([0.0]), np.array([1.0])
        unit = to_unit(m, np.array([[-5.0], [0.5], [7.0]]))
        assert unit[0, 0] == 1e-6 and unit[2, 0] == 1 - 1e-6 and unit[1, 0] == 0.5

    def test_identity_without_state(self, rng):
        m = zero_model(2, 1, 4)
        raw = rng.random((5, 2))
        assert np.array_equal(to_unit(m, raw), raw)

    def test_range_whose_width_overflows_is_rejected(self):
        with pytest.raises(ValueError, match=r"channel 2 spans \[-1e\+308, 1e\+308\]; its width "
                                             "overflows float64"):
            SigSplineModel(2, 1, 4, np.zeros((2, 4, 4)), scale_min=np.array([0.0, -1e308]),
                           scale_max=np.array([1.0, 1e308]))


class TestPersistence:
    def test_round_trip_is_bitwise(self, tmp_path, rng):
        m = random_model(rng, d=2, level=2, bins=4, window=3)
        m.scale_min, m.scale_max = np.array([-1.3, 0.2]), np.array([2.71, 9.9])
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.d == m.d and loaded.level == m.level and loaded.bins == m.bins
        assert loaded.window == m.window
        assert all(np.array_equal(a, b) for a, b in zip(loaded.params, m.params))
        assert np.array_equal(loaded.scale_min, m.scale_min)
        assert np.array_equal(loaded.scale_max, m.scale_max)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "something-else"})

    def test_dict_round_trip(self, rng):
        m = random_model(rng, d=1, level=1, bins=3)
        again = model_from_dict(model_to_dict(m))
        assert np.array_equal(again.params[0], m.params[0])

    @pytest.mark.parametrize("d, level, bins", [(2, 3, 16), (8, 2, 64)])
    def test_extreme_coefficients_round_trip_bitwise(self, tmp_path, rng, d, level, bins):
        m = random_model(rng, d=d, level=level, bins=bins, window=3)
        specials = [-0.0, 0.0, 5e-324, -2.2e-308, 1e308, -1e308]
        m.params[0][0, : len(specials)] = specials
        m.params[-1][-1, -len(specials) :] = specials
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        for got, want in zip(loaded.params, m.params, strict=True):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_loaded_params_are_writable(self, tmp_path, rng):
        path = tmp_path / "model.json"
        save_model(random_model(rng, d=2, level=1, bins=4), path)
        params = load_model(path).params
        params[0][0, 0] = 1.0
        assert params[0][0, 0] == 1.0

    def test_coefficients_are_one_base64_little_endian_stack(self, rng):
        m = random_model(rng, d=2, level=2, bins=5)
        raw = base64.b64decode(model_to_dict(m)["coefficients"])
        stack = np.frombuffer(raw, dtype="<f8").reshape(2, 5, m.n_features)
        assert np.array_equal(stack, np.stack(m.params))

    def test_save_model_echoes_config_last(self, tmp_path, rng):
        m = random_model(rng, d=2, level=1, bins=4)
        path = tmp_path / "model.json"
        save_model(m, path, config={"bins": 4})
        want = model_to_dict(m) | {"config": {"bins": 4}}
        assert path.read_text() == json.dumps(want, indent=1) + "\n"

    def test_v1_document_asks_for_a_refit(self, rng):
        m = random_model(rng, d=2, level=1, bins=4)
        doc = model_to_dict(m) | {
            "format": "sigspline-model-v1",
            "coefficients": [u.tolist() for u in m.params],
        }
        with pytest.raises(ValueError, match="sigspline-model-v1.*refit"):
            model_from_dict(doc)

    def test_missing_key_is_a_value_error(self, rng):
        doc = model_to_dict(random_model(rng, d=2, level=1, bins=4))
        del doc["bins"]
        with pytest.raises(ValueError, match="bins"):
            model_from_dict(doc)

    def test_list_coefficients_are_a_value_error(self, rng):
        m = random_model(rng, d=2, level=1, bins=4)
        doc = model_to_dict(m) | {"coefficients": [u.tolist() for u in m.params]}
        with pytest.raises(ValueError, match="base64"):
            model_from_dict(doc)

    def test_truncated_payload_names_both_byte_counts(self, rng):
        doc = model_to_dict(random_model(rng, d=2, level=1, bins=4))  # 2 * 4 * 4 * 8 = 256 B
        doc["coefficients"] = base64.b64encode(base64.b64decode(doc["coefficients"])[:-8]).decode()
        with pytest.raises(ValueError, match="248 bytes, expected 256"):
            model_from_dict(doc)

    @pytest.mark.parametrize("payload", ["not base64!", "QUJD=", "ünïcode"])
    def test_invalid_base64_is_a_value_error(self, rng, payload):
        doc = model_to_dict(random_model(rng, d=2, level=1, bins=4))
        doc["coefficients"] = payload
        with pytest.raises(ValueError):
            model_from_dict(doc)

    @pytest.mark.parametrize("damage", ["truncate", "garble", "v1"])
    def test_sample_on_a_damaged_model_is_a_data_error(self, tmp_path, rng, capsys, damage):
        m = random_model(rng, d=2, level=1, bins=4, window=2)
        doc = model_to_dict(m)
        if damage == "truncate":
            doc["coefficients"] = doc["coefficients"][:-12]
        elif damage == "garble":
            doc["coefficients"] = "*" + doc["coefficients"][1:]
        else:
            doc |= {"format": "sigspline-model-v1",
                    "coefficients": [u.tolist() for u in m.params]}
        model_path, data_path = tmp_path / "model.json", tmp_path / "series.csv"
        model_path.write_text(json.dumps(doc))
        write_series_csv(data_path, rng.random((20, 2)))
        code = cli_main(["sample", "--model", str(model_path), "--data", str(data_path),
                         "--output", str(tmp_path / "samples.csv")])
        assert code == 2
        assert "data error" in capsys.readouterr().err


    @pytest.mark.parametrize("key, value", [
        (None, None),  # the whole document is a list
        ("d", [2]), ("d", True), ("level", "1"), ("bins", 4.0), ("bins", True),
        ("window", [2]), ("window", True), ("scale_min", {"low": 0.0}), ("scale_max", [True, True]),
    ])
    def test_sample_on_an_ill_typed_model_is_a_data_error(self, tmp_path, rng, capsys, key, value):
        m = random_model(rng, d=2, level=1, bins=4, window=2)
        m.scale_min, m.scale_max = np.zeros(2), np.ones(2)
        doc = model_to_dict(m)
        if key is None:
            doc = [doc]
        else:
            doc[key] = value
        model_path, data_path = tmp_path / "model.json", tmp_path / "series.csv"
        model_path.write_text(json.dumps(doc))
        write_series_csv(data_path, rng.random((20, 2)))
        code = cli_main(["sample", "--model", str(model_path), "--data", str(data_path),
                         "--output", str(tmp_path / "samples.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert ("JSON object" if key is None else f"model {key} must be") in err

    @pytest.mark.parametrize("key, value", [("level", 100), ("d", 2**70)], ids=["level", "d"])
    def test_sample_on_an_oversized_model_is_a_data_error(self, tmp_path, rng, capsys, key, value):
        # feature_count(1 + d, L) would pass 64 bits: the document is rejected before any use
        doc = model_to_dict(random_model(rng, d=2, level=1, bins=4, window=2)) | {key: value}
        model_path, data_path = tmp_path / "model.json", tmp_path / "series.csv"
        model_path.write_text(json.dumps(doc))
        write_series_csv(data_path, rng.random((20, 2)))
        code = cli_main(["sample", "--model", str(model_path), "--data", str(data_path),
                         "--output", str(tmp_path / "samples.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "too large" in err


class TestValidation:
    def test_wrong_parameter_shape(self):
        with pytest.raises(ValueError):
            SigSplineModel(d=2, level=1, bins=4, params=[np.zeros((4, 3))] * 2)

    def test_wrong_parameter_list_length(self):
        with pytest.raises(ValueError):
            SigSplineModel(d=2, level=1, bins=4, params=[np.zeros((4, 4))])

    def test_sliding_windows(self):
        x = np.arange(10.0).reshape(5, 2)
        wins = sliding_windows(x, 2)
        assert len(wins) == 4
        assert np.array_equal(wins[0], x[:2])
        with pytest.raises(ValueError):
            sliding_windows(x, 6)
