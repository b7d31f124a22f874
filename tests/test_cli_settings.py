"""The CLI's settings tables: every flag, default, choice list and the fit's
TrainConfig come from one declaration per setting."""

import dataclasses
import json
import re

import numpy as np
import pytest

from sigspline import cli
from sigspline.calibration import TrainConfig
from sigspline.dataio import write_series_csv
from sigspline.model import load_model, save_model, zero_model
from sigspline.synthetic import benchmark_var_spec

# Every flag of every command, in config-key order: (argument, resolved value);
# an argument of None marks a switch.
FLAGS = {
    "simulate": {
        "--n-lags": ("7", 7),
        "--seed": ("3", 3),
        "--map": ("fixed_nonlinear", "fixed_nonlinear"),
        "--whiten": (None, True),
        "--output": ("o.csv", "o.csv"),
    },
    "fit": {
        "--data": ("d.csv", "d.csv"),
        "--level": ("3", 3),
        "--bins": ("5", 5),
        "--window": ("1", 1),
        "--learning-rate": ("0.5", 0.5),
        "--max-iters": ("9", 9),
        "--patience": ("2", 2),
        "--reg-kind": ("l2", "l2"),
        "--reg-lambda": ("1e-3", 1e-3),
        "--optimizer": ("newton", "newton"),
        "--train-fraction": ("0.5", 0.5),
        "--seed": ("4", 4),
        "--n-seeds": ("2", 2),
        "--output-model": ("m.json", "m.json"),
        "--output-report": ("r.json", "r.json"),
    },
    "sample": {
        "--model": ("m.json", "m.json"),
        "--data": ("d.csv", "d.csv"),
        "--batch": ("3", 3),
        "--horizon": ("2", 2),
        "--seed": ("1", 1),
        "--output": ("s.csv", "s.csv"),
    },
    "evaluate": {
        "--model": ("m.json", "m.json"),
        "--data": ("d.csv", "d.csv"),
        "--batch": ("3", 3),
        "--horizon": ("2", 2),
        "--seeds": ("3", 3),
        "--seed": ("1", 1),
        "--abs-acf": (None, True),
        "--output-json": ("j.json", "j.json"),
        "--output-table": ("t.txt", "t.txt"),
    },
}
FILE_ONLY = {"simulate": ["w1", "w2", "sigma"], "fit": [], "sample": [], "evaluate": []}


def key_of(flag):
    return flag[2:].replace("-", "_")


def resolve(argv):
    args = cli.build_parser().parse_args(argv)
    return cli._resolve_config(args.command, args)


def test_config_keys_are_the_flags_plus_the_file_only_keys():
    for command, flags in FLAGS.items():
        keys = [key for key in cli.DEFAULTS[command] if key not in FILE_ONLY[command]]
        assert keys == [key_of(flag) for flag in flags]
        assert set(FILE_ONLY[command]) <= set(cli.DEFAULTS[command])


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in FLAGS.items() for f in flags])
def test_each_flag_lands_in_its_key_with_its_type(command, flag):
    text, want = FLAGS[command][flag]
    config = resolve([command, flag] + ([] if text is None else [text]))
    key = key_of(flag)
    assert config[key] == want and type(config[key]) is type(want)
    assert want != cli.DEFAULTS[command][key]
    assert {k: v for k, v in config.items() if k != key} == {
        k: v for k, v in cli.DEFAULTS[command].items() if k != key}


def test_fit_flags_reach_the_train_config():
    argv = ["fit"] + [arg for flag, (text, _) in FLAGS["fit"].items() for arg in (flag, text)]
    train = dataclasses.asdict(cli._train_config(resolve(argv)))
    want = {key_of(flag): value for flag, (_, value) in FLAGS["fit"].items()}
    assert train == {name: want["seed" if name == "rng_seed" else name] for name in train}


def test_fit_defaults_are_train_config_defaults_except_window():
    train = TrainConfig()
    for field in dataclasses.fields(TrainConfig):
        key = "seed" if field.name == "rng_seed" else field.name
        want = 3 if key == "window" else getattr(train, field.name)
        assert cli.DEFAULTS["fit"][key] == want
        assert type(cli.DEFAULTS["fit"][key]) is type(want)
    assert cli._train_config(cli.DEFAULTS["fit"]) == TrainConfig(window=3)


def test_simulate_defaults_are_the_benchmark_spec():
    spec, defaults = benchmark_var_spec(), cli.DEFAULTS["simulate"]
    assert (defaults["n_lags"], defaults["seed"]) == (spec.n_lags, spec.rng_seed)
    for key in FILE_ONLY["simulate"]:
        assert defaults[key] == getattr(spec, key).tolist()


@pytest.mark.parametrize("command,key", [("simulate", "map"), ("fit", "reg_kind"),
                                         ("fit", "optimizer")])
def test_config_value_outside_its_choices_is_usage_error(tmp_path, monkeypatch, capsys,
                                                          command, key):
    monkeypatch.chdir(tmp_path)  # nothing is written, but a missed check would write here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "bogus"}))
    assert cli.main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: config key {key!r} must be {'|'.join(cli.CHOICES[key])}" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", FLAGS)
def test_help_lists_every_flag_with_its_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    options = " ".join(capsys.readouterr().out.split()).split("options:")[1]
    assert set(re.findall(r"--[a-z][a-z-]*", options)) == {"--help", "--config", *FLAGS[command]}
    for flag in FLAGS[command]:
        default = cli.DEFAULTS[command][key_of(flag)]
        if default is not None:
            shown = re.search(re.escape(flag) + r"(?![\w-])(?:(?!--)[^()])*\(default: ([^)]*)\)",
                              options)
            assert shown and shown.group(1) == str(default), flag


@pytest.mark.parametrize("via_config", [False, True])
def test_simulate_n_lags_below_one_is_usage_error(tmp_path, monkeypatch, capsys, via_config):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_lags": 0}))
    argv = ["--config", str(cfg)] if via_config else ["--n-lags", "0"]
    assert cli.main(["simulate", *argv]) == 1
    assert "usage error: n_lags must be an integer >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("literal,value", [("NaN", float("nan")), ("Infinity", float("inf"))])
def test_non_finite_model_scale_is_a_model_error(tmp_path, rng, capsys, literal, value):
    series = tmp_path / "series.csv"
    write_series_csv(series, 1.0 + rng.random((32, 2)))
    path = tmp_path / "model.json"
    fitted = zero_model(2, 1, 4, window=2)
    fitted.scale_min, fitted.scale_max = np.zeros(2), np.full(2, 2.0)
    save_model(fitted, path)
    doc = json.loads(path.read_text())
    doc["scale_max"][1] = value
    path.write_text(json.dumps(doc))
    assert f", {literal}]" in path.read_text()
    with pytest.raises(ValueError, match="scale_max .* must be finite"):
        load_model(path)
    code = cli.main(["sample", "--model", str(path), "--data", str(series), "--batch", "2",
                     "--output", str(tmp_path / "samples.csv")])
    assert code == 2
    assert f"data error: scale_min [0.0, 0.0] and scale_max [2.0, {value}] must be finite" \
        in capsys.readouterr().err
