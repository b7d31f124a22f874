import json
import warnings

import numpy as np
import pytest

from sigspline.cli import main
from sigspline.dataio import read_series_csv, write_series_csv
from sigspline.model import save_model, zero_model


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def series_csv(tmp_path, rng):
    path = tmp_path / "series.csv"
    write_series_csv(path, 1.0 + rng.random((160, 2)))
    return path


def fit_small_model(tmp_path, series_csv, **overrides):
    model = tmp_path / "model.json"
    report = tmp_path / "report.json"
    args = {
        "level": 1, "bins": 8, "window": 2, "max_iters": 15, "n_seeds": 2,
    } | overrides
    flags = []
    for key, value in args.items():
        flags += [f"--{key.replace('_', '-')}", str(value)]
    code = run(
        "fit", "--data", series_csv, "--output-model", model,
        "--output-report", report, *flags,
    )
    assert code == 0
    return model, report


class TestSimulate:
    def test_default_shape(self, tmp_path):
        out = tmp_path / "var.csv"
        assert run("simulate", "--output", out) == 0
        data = read_series_csv(out)
        assert data.shape == (4096, 2)

    def test_seeded_runs_are_bit_identical(self, tmp_path):
        # same relative output name from two directories: identical bytes,
        # config echo included
        paths = []
        for sub in ("run1", "run2"):
            d = tmp_path / sub
            d.mkdir()
            assert run("simulate", "--seed", 7, "--n-lags", 128,
                       "--output", d / "out.csv") == 0
            paths.append((d / "out.csv").read_bytes())
        a, b = (p.replace(b"run1", b"").replace(b"run2", b"") for p in paths)
        assert a == b

    def test_nonlinear_map_emits_eight_channels(self, tmp_path):
        out = tmp_path / "obs.csv"
        assert run("simulate", "--map", "fixed_nonlinear", "--n-lags", 64, "--output", out) == 0
        assert read_series_csv(out).shape == (64, 8)

    def test_whiten_flag(self, tmp_path):
        out = tmp_path / "white.csv"
        assert run("simulate", "--whiten", "--n-lags", 512, "--output", out) == 0
        data = read_series_csv(out)
        assert np.abs(np.cov(data.T, ddof=1) - np.eye(2)).max() <= 1e-8

    def test_config_echo_header(self, tmp_path):
        out = tmp_path / "var.csv"
        run("simulate", "--n-lags", 32, "--output", out)
        first = out.read_text().splitlines()[0]
        assert first.startswith("# config:") and '"n_lags":32' in first

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_lags": 16, "seed": 3}))
        out = tmp_path / "var.csv"
        assert run("simulate", "--config", cfg, "--n-lags", 24, "--output", out) == 0
        assert read_series_csv(out).shape == (24, 2)


class TestFit:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_accepts_orders_one_to_four(self, tmp_path, series_csv, level):
        _, report = fit_small_model(
            tmp_path, series_csv, level=level, bins=4, max_iters=3, n_seeds=1
        )
        assert json.loads(report.read_text())["config"]["level"] == level

    @pytest.mark.parametrize("level,expected", [(1, 512), (2, 1664), (3, 5120), (4, 15488)])
    def test_parameter_count_in_report(self, tmp_path, series_csv, level, expected):
        _, report = fit_small_model(
            tmp_path, series_csv, level=level, bins=64, max_iters=1, n_seeds=1
        )
        assert json.loads(report.read_text())["summary"]["parameter_count"] == expected

    def test_rerun_is_bit_identical(self, tmp_path, series_csv):
        m1, r1 = fit_small_model(tmp_path, series_csv)
        m1_bytes, r1_bytes = m1.read_bytes(), r1.read_bytes()
        m2, r2 = fit_small_model(tmp_path, series_csv)
        assert m2.read_bytes() == m1_bytes
        assert r2.read_bytes() == r1_bytes

    def test_report_has_no_wall_clock(self, tmp_path, series_csv):
        _, report = fit_small_model(tmp_path, series_csv, max_iters=3, n_seeds=1)
        doc = json.loads(report.read_text())
        assert "wall_clock_seconds" not in json.dumps(doc)
        assert doc["per_seed"][0]["stopped_iteration"]

    def test_data_too_short_for_window(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_series_csv(path, np.random.default_rng(0).random((4, 2)))
        assert run("fit", "--data", path, "--window", 3) == 2


class TestSample:
    def test_default_horizon_four_and_envelope(self, tmp_path, series_csv):
        model, _ = fit_small_model(tmp_path, series_csv)
        out = tmp_path / "samples.csv"
        code = run("sample", "--model", model, "--data", series_csv,
                   "--batch", 8, "--output", out)
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith(("#", "seq"))]
        assert len(rows) == 8 * 4  # default horizon is 4
        values = np.array([[float(v) for v in r.split(",")[2:]] for r in rows])
        doc = json.loads(model.read_text())
        lo, hi = np.array(doc["scale_min"]), np.array(doc["scale_max"])
        assert np.all(values >= lo - 1e-12) and np.all(values <= hi + 1e-12)

    def test_seeded_and_reproducible(self, tmp_path, series_csv):
        model, _ = fit_small_model(tmp_path, series_csv)
        out = tmp_path / "samples.csv"
        run("sample", "--model", model, "--data", series_csv, "--batch", 4,
            "--seed", 9, "--output", out)
        first = out.read_bytes()
        run("sample", "--model", model, "--data", series_csv, "--batch", 4,
            "--seed", 9, "--output", out)
        assert out.read_bytes() == first


class TestEvaluate:
    def test_self_evaluation_zero_table(self, tmp_path, series_csv):
        out_json = tmp_path / "ev.json"
        out_table = tmp_path / "ev.txt"
        code = run("evaluate", "--data", series_csv, "--output-json", out_json,
                   "--output-table", out_table)
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert all(s["discrepancy_mean"] == 0.0 for s in doc["statistics"].values())
        assert not {"batch", "horizon", "seeds"} & set(doc["config"])  # sampling settings unused
        assert "0.0000" in out_table.read_text()

    def test_self_evaluation_neither_checks_nor_echoes_the_sampling_settings(self, tmp_path,
                                                                             series_csv, capsys):
        out_json, out_table = tmp_path / "ev.json", tmp_path / "ev.txt"
        code = run("evaluate", "--data", series_csv, "--horizon", 2, "--batch", 0, "--seeds", 0,
                   "--output-json", out_json, "--output-table", out_table)
        assert code == 0, capsys.readouterr().err
        doc = json.loads(out_json.read_text())
        assert all(s["discrepancy_mean"] == 0.0 for s in doc["statistics"].values())
        assert not {"batch", "horizon", "seeds"} & set(doc["config"])
        assert (doc["n_seeds"], doc["horizon"], doc["batch"]) == (1, 0, 0)
        assert '"horizon"' not in out_table.read_text().splitlines()[0]

    def test_model_evaluation_and_abs_acf_flag(self, tmp_path, series_csv):
        model, _ = fit_small_model(tmp_path, series_csv)
        out_json = tmp_path / "ev.json"
        code = run("evaluate", "--model", model, "--data", series_csv,
                   "--batch", 16, "--seeds", 2, "--abs-acf",
                   "--output-json", out_json, "--output-table", tmp_path / "ev.txt")
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert "abs_return_acf_lag1" in doc["statistics"]
        assert doc["kurtosis_convention"].startswith("raw")

    def test_without_abs_acf_flag(self, tmp_path, series_csv):
        out_json = tmp_path / "ev.json"
        run("evaluate", "--data", series_csv, "--output-json", out_json,
            "--output-table", tmp_path / "ev.txt")
        assert "abs_return_acf_lag1" not in json.loads(out_json.read_text())["statistics"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run("simulate", "--not-a-flag") == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert run("simulate", "--config", cfg) == 1

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run("fit", "--data", tmp_path / "absent.csv") == 2

    @pytest.mark.parametrize("command", ["fit", "sample", "evaluate"])
    def test_header_wider_than_rows_is_a_named_data_error(self, tmp_path, series_csv, capsys,
                                                          command):
        model, _ = fit_small_model(tmp_path, series_csv, max_iters=2, n_seeds=1)
        bad = tmp_path / "bad.csv"
        bad.write_text("t,ch1,ch2\n" + "".join(f"{t},{t / 10}\n" for t in range(40)))
        outputs = {"fit": ["--output-model", tmp_path / "m.json", "--output-report",
                           tmp_path / "r.json"],
                   "sample": ["--model", model, "--output", tmp_path / "s.csv"],
                   "evaluate": ["--output-json", tmp_path / "e.json", "--output-table",
                                tmp_path / "e.txt"]}
        capsys.readouterr()
        assert run(command, "--data", bad, *outputs[command]) == 2
        assert (f"data error: {bad}: header has 3 fields, rows have 2"
                in capsys.readouterr().err)

    def test_rows_that_disagree_are_a_named_data_error(self, tmp_path, capsys):
        bad = tmp_path / "ragged.csv"
        bad.write_text("t,ch1,ch2\n0,1,2\n1,2,3,4\n")
        assert run("evaluate", "--data", bad, "--output-json", tmp_path / "e.json",
                   "--output-table", tmp_path / "e.txt") == 2
        assert (f"data error: {bad}: line 3 has 4 fields, line 2 has 3"
                in capsys.readouterr().err)

    def test_a_field_that_is_not_a_number_is_a_named_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,ch1\n0,1\n1,x\n")
        assert run("evaluate", "--data", bad, "--output-json", tmp_path / "e.json",
                   "--output-table", tmp_path / "e.txt") == 2
        assert (f"data error: {bad}: line 3 field 2 is not a number: 'x'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("field", ["1_0", "\u0661"])  # float() takes both, np.loadtxt neither
    def test_a_field_that_only_float_parses_is_a_named_data_error(self, tmp_path, capsys, field):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,ch1\n0,1\n1,{field}\n", encoding="utf-8")
        assert run("evaluate", "--data", bad, "--output-json", tmp_path / "e.json",
                   "--output-table", tmp_path / "e.txt") == 2
        err = capsys.readouterr().err
        assert err == f"data error: {bad}: line 3 field 2 is not a number: {field!r}\n"

    def test_model_map_of_the_wrong_length_is_a_named_data_error(self, tmp_path, series_csv,
                                                                 capsys):
        model, _ = fit_small_model(tmp_path, series_csv, max_iters=2, n_seeds=1)
        doc = json.loads(model.read_text())
        doc["scale_min"].append(0.0)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("sample", "--model", model, "--data", series_csv, "--output",
                   tmp_path / "s.csv") == 2
        assert ("data error: scale_min has 3 entries; the model has d=2 channels"
                in capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()

    def test_missing_required_setting_is_usage_error(self):
        assert run("fit") == 1

    def test_indefinite_sigma_is_numerical_error(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"sigma": [[1.0, 2.0], [2.0, 1.0]], "n_lags": 8}))
        assert run("simulate", "--config", cfg, "--output", tmp_path / "x.csv") == 3

    def test_invalid_config_value_is_usage_error(self, tmp_path, series_csv):
        assert run("fit", "--data", series_csv, "--learning-rate", "-1") == 1

    @pytest.mark.parametrize("level", [40, 1000])
    def test_level_whose_feature_count_overflows_is_a_named_data_error(self, tmp_path, series_csv,
                                                                       capsys, level):
        # 3**40 words of length 40 over time + 2 channels exceed int64 before anything is allocated
        code = run("fit", "--data", series_csv, "--level", level, "--n-seeds", 1, "--output-model",
                   tmp_path / "model.json", "--output-report", tmp_path / "report.json")
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: level {level}: feature_count(3, {level}) exceeds 64-bit range" in err
        assert not (tmp_path / "model.json").exists()

    def test_range_whose_width_overflows_is_a_named_data_error(self, tmp_path, rng, capsys):
        path = tmp_path / "wide.csv"
        series = rng.random((40, 2))
        series[3, 1], series[7, 1] = 1e308, -1e308  # finite, but 2e308 is not
        write_series_csv(path, series)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("fit", "--data", path, "--window", 2, "--output-model",
                       tmp_path / "model.json", "--output-report", tmp_path / "report.json")
        assert code == 2
        assert ("data error: channel 2 spans [-1e+308, 1e+308]; its width overflows float64"
                in capsys.readouterr().err)


@pytest.mark.parametrize(
    "command,flags",
    [
        ("fit", ["--n-seeds", 0]),
        ("sample", ["--batch", 0]),
        ("sample", ["--horizon", 0]),
        ("evaluate", ["--batch", 0]),
        ("evaluate", ["--horizon", 1]),  # one-step samples have no returns
        ("evaluate", ["--horizon", 3]),  # the return ACF at lag 2 needs 3 returns
        ("evaluate", ["--seeds", 0]),
        ("simulate", ["--seed", -1]),
        ("fit", ["--seed", -1]),
        ("sample", ["--seed", -1]),
        ("evaluate", ["--seed", -1]),
    ],
)
def test_count_flags_below_minimum_are_usage_errors(tmp_path, series_csv, capsys, command, flags):
    model, _ = fit_small_model(tmp_path, series_csv, max_iters=2, n_seeds=1)
    outputs = {
        "simulate": ["--output", tmp_path / "v.csv"],
        "fit": ["--data", series_csv, "--output-model", tmp_path / "m.json",
                "--output-report", tmp_path / "r.json"],
        "sample": ["--model", model, "--data", series_csv, "--output", tmp_path / "s.csv"],
        "evaluate": ["--model", model, "--data", series_csv,
                     "--output-json", tmp_path / "e.json", "--output-table", tmp_path / "e.txt"],
    }
    capsys.readouterr()
    assert run(command, *outputs[command], *flags) == 1
    assert f"usage error: {flags[0][2:].replace('-', '_')} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "fit", "sample", "evaluate"])
def test_negative_seed_from_a_file_is_a_usage_error(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    assert run(command, "--config", config) == 1
    assert "usage error: seed must be an integer >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "fit", "sample", "evaluate"])
@pytest.mark.parametrize("text,kind", [("null", "NoneType"), ("3", "int"), ("[]", "list"),
                                       ('["n_lags"]', "list"), ('"abc"', "str")])
def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, monkeypatch, capsys, command,
                                                       text, kind):
    monkeypatch.chdir(tmp_path)  # nothing is written, but a missed check would write here
    config = tmp_path / "config.json"
    config.write_text(text)
    assert run(command, "--config", config) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: config file {config} must hold a JSON object, got {kind}\n"


@pytest.mark.parametrize(
    "flags,loaded",
    [
        (["--learning-rate", "nan"], {}),
        (["--learning-rate", "inf"], {}),
        (["--reg-kind", "l2", "--reg-lambda", "inf"], {}),
        (["--reg-kind", "l2", "--reg-lambda", "nan"], {}),
        ([], {"learning_rate": float("nan")}),
        ([], {"reg_kind": "l2", "reg_lambda": float("inf")}),
    ],
)
def test_non_finite_training_settings_are_usage_errors(tmp_path, capsys, flags, loaded):
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(loaded))  # writes Python's NaN and Infinity JSON extensions
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the data file does not exist: the settings are refused before it is read
        code = run("fit", "--config", config, "--data", tmp_path / "absent.csv", *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "must be" in err and "finite" in err


def test_running_out_of_memory_is_a_data_error(tmp_path, series_csv, capsys, monkeypatch):
    from sigspline import calibration

    def out_of_memory(*args, **kwargs):  # as numpy reports an allocation that fails
        raise MemoryError("Unable to allocate 9.69 GiB for an array with shape (1300000000,)")

    monkeypatch.setattr(calibration, "multi_seed_fit", out_of_memory)
    code = run("fit", "--data", series_csv, "--window", 2, "--output-model",
               tmp_path / "model.json", "--output-report", tmp_path / "report.json")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: out of memory (Unable to allocate 9.69 GiB")
    assert "bins" in err and "series length" in err and "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize(
    "command,loaded",
    [
        ("fit", {"level": 2.5}),
        ("fit", {"bins": "16"}),
        ("fit", {"bins": 16.0}),
        ("fit", {"reg_lambda": "x"}),
        ("fit", {"learning_rate": None}),
        ("fit", {"max_iters": 3.5}),
        ("fit", {"patience": 2.5}),
        ("fit", {"window": True}),
        ("fit", {"data": 3}),
        ("simulate", {"n_lags": 300.5}),
        ("simulate", {"seed": "abc"}),
        ("simulate", {"whiten": 1}),
        ("evaluate", {"model": ["model.json"]}),
    ],
)
def test_mistyped_config_values_are_usage_errors(tmp_path, monkeypatch, capsys, command, loaded):
    monkeypatch.chdir(tmp_path)  # nothing is written, but a missed check would write here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(loaded))
    assert run(command, "--config", cfg) == 1
    assert f"usage error: config key {next(iter(loaded))!r} must be" in capsys.readouterr().err


def _exit_case(tmp_path, case):
    """The argv of one user-reachable error, with the files it reads written to ``tmp_path``."""
    series = tmp_path / "series.csv"
    write_series_csv(series, 1.0 + np.random.default_rng(0).random((40, 2)))
    model8 = tmp_path / "model8.json"
    save_model(zero_model(8, 1, 4), model8)
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "w1.json").write_text(json.dumps({"w1": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]]}))
    nan_series = tmp_path / "nan.csv"
    nan_series.write_text("t,ch1,ch2\n" + "".join(f"{t},{t / 10},1\n" for t in range(8))
                          + "8,nan,1\n")
    evaluate_out = ["--output-json", tmp_path / "e.json", "--output-table", tmp_path / "e.txt"]
    fit_out = ["--output-model", tmp_path / "m.json", "--output-report", tmp_path / "r.json"]
    return {
        "missing config": ["fit", "--config", "nope.json"],
        "config not JSON": ["fit", "--config", tmp_path / "broken.json"],
        "max_iters 0": ["fit", "--data", series, "--max-iters", 0, *fit_out],
        "sample channels": ["sample", "--model", model8, "--data", series,
                            "--output", tmp_path / "s.csv"],
        "evaluate channels": ["evaluate", "--model", model8, "--data", series, *evaluate_out],
        "w1 shape": ["simulate", "--config", tmp_path / "w1.json", "--output", tmp_path / "v.csv"],
        "whiten one row": ["simulate", "--n-lags", 1, "--whiten", "--output", tmp_path / "v.csv"],
        "fit nan": ["fit", "--data", nan_series, "--window", 2, *fit_out],
        "evaluate nan": ["evaluate", "--data", nan_series, *evaluate_out],
    }[case]


@pytest.mark.parametrize("case,code,message", [
    ("missing config", 1, "usage error: config file not found: nope.json"),
    ("config not JSON", 1, "usage error: config file is not valid JSON: "),
    ("max_iters 0", 1, "usage error: max_iters and patience must be >= 1"),
    ("sample channels", 2, "data error: data has 2 channels, model expects 8"),
    ("evaluate channels", 2, "data error: data has 2 channels, model expects 8"),
    ("w1 shape", 2, "data error: w1 must be 2x2, got (2, 3)"),
    ("whiten one row", 2, "data error: whitening needs at least 2 rows"),
    ("fit nan", 2, "data error: sequence contains non-finite entries"),
    ("evaluate nan", 2, "data error: sequence contains non-finite entries"),
])
def test_user_errors_exit_with_their_code_and_message(tmp_path, monkeypatch, capsys, case, code,
                                                      message):
    monkeypatch.chdir(tmp_path)  # nothing is written, but a missed check would write here
    argv = _exit_case(tmp_path, case)
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err
    assert not {"e.json", "m.json", "s.csv", "v.csv"} & {p.name for p in tmp_path.iterdir()}
