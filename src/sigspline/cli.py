"""Command-line pipeline: simulate -> fit -> sample -> evaluate.

Each subcommand reads one JSON config (``--config``); flags override file
keys and unknown file keys are rejected. The fully resolved config is echoed
into every artifact the command writes. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import calibration, dataio, evaluation, model as model_mod, synthetic

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1 here
        raise UsageError(message)


_BENCHMARK_W1 = [[0.1, 0.0], [0.0, 0.2]]
_BENCHMARK_W2 = [[0.6, 0.0], [0.0, 0.3]]
_BENCHMARK_SIGMA = [[0.5, 0.0], [0.0, 0.5]]

DEFAULTS = {
    "simulate": {
        "n_lags": 4096,
        "seed": 0,
        "w1": _BENCHMARK_W1,
        "w2": _BENCHMARK_W2,
        "sigma": _BENCHMARK_SIGMA,
        "map": "identity",
        "whiten": False,
        "output": "var2.csv",
    },
    "fit": {
        "data": None,
        "level": 2,
        "bins": 64,
        "window": 3,
        "learning_rate": 0.1,
        "max_iters": 5000,
        "patience": 32,
        "reg_kind": "none",
        "reg_lambda": 0.0,
        "optimizer": "gradient_descent",
        "train_fraction": 0.8,
        "seed": 0,
        "n_seeds": 10,
        "output_model": "model.json",
        "output_report": "fit_report.json",
    },
    "sample": {
        "model": None,
        "data": None,
        "batch": 128,
        "horizon": 4,
        "seed": 0,
        "output": "samples.csv",
    },
    "evaluate": {
        "model": None,
        "data": None,
        "batch": 512,
        "horizon": 4,
        "seeds": 10,
        "seed": 0,
        "abs_acf": False,
        "output_json": "evaluation.json",
        "output_table": "evaluation.txt",
    },
}


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    config = dict(DEFAULTS[command])
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        unknown = set(loaded) - set(config)
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in loaded.items():  # a file value takes its default's type
            default = DEFAULTS[command][key]
            kinds = {type(None): (str,), float: (int, float)}.get(type(default), (type(default),))
            if not isinstance(value, kinds) or isinstance(value, bool) != isinstance(default, bool):
                names = " or ".join(kind.__name__ for kind in kinds)
                raise UsageError(f"config key {key!r} must be {names}, got {value!r}")
        config.update(loaded)
    for key in config:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            config[key] = value
    return config


def _echo(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _require(config: dict, key: str) -> str:
    if config[key] is None:
        raise UsageError(f"missing required setting {key!r} (config key or flag)")
    return config[key]


def _require_counts(config: dict, **minimums: int) -> None:
    for key, low in minimums.items():
        if not isinstance(config[key], int) or config[key] < low:
            raise UsageError(f"{key} must be an integer >= {low}, got {config[key]!r}")


def cmd_simulate(config: dict) -> None:
    spec = synthetic.VarSpec(
        w1=np.asarray(config["w1"], dtype=float),
        w2=np.asarray(config["w2"], dtype=float),
        sigma=np.asarray(config["sigma"], dtype=float),
        n_lags=config["n_lags"],
        rng_seed=config["seed"],
    )
    series = synthetic.observe(synthetic.simulate_var2(spec), config["map"])
    if config["whiten"]:
        series, _ = synthetic.pca_whiten(series)
    dataio.write_series_csv(config["output"], series, comment=f"config: {_echo(config)}")
    print(f"wrote {series.shape[0]} rows x {series.shape[1]} channels to {config['output']}")


def _train_config(config: dict, seed: int) -> calibration.TrainConfig:
    return calibration.TrainConfig(
        level=config["level"],
        bins=config["bins"],
        window=config["window"],
        learning_rate=config["learning_rate"],
        max_iters=config["max_iters"],
        patience=config["patience"],
        reg_kind=config["reg_kind"],
        reg_lambda=config["reg_lambda"],
        optimizer=config["optimizer"],
        train_fraction=config["train_fraction"],
        rng_seed=seed,
    )


def cmd_fit(config: dict) -> None:
    _require_counts(config, window=1, n_seeds=1)
    try:
        train_cfg = _train_config(config, config["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    series = dataio.read_series_csv(_require(config, "data"))
    dataset = calibration.windows_from_series(series, config["window"])
    start = time.perf_counter()
    result = calibration.multi_seed_fit(dataset, train_cfg, n_seeds=config["n_seeds"])
    elapsed = time.perf_counter() - start
    model_mod.save_model(result.best_model, config["output_model"], config)
    report = {
        "config": config,
        "summary": result.summary,
        "best_seed": result.reports[result.best_index].seed,
        "per_seed": [asdict(r) for r in result.reports],
    }
    with open(config["output_report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(
        f"fitted {result.summary['parameter_count']} parameters per seed; best seed "
        f"{report['best_seed']} test NLL {result.reports[result.best_index].final_test_nll:.4f}",
    )
    print(f"timing: {elapsed:.1f}s across {config['n_seeds']} seeds", file=sys.stderr)


def cmd_sample(config: dict) -> None:
    _require_counts(config, batch=1, horizon=1)
    fitted = model_mod.load_model(_require(config, "model"))
    series = dataio.read_series_csv(_require(config, "data"))
    rng = np.random.default_rng(config["seed"])
    samples = model_mod.sample_from_series(fitted, series, config["batch"], config["horizon"], rng)
    dataio.write_batch_csv(config["output"], samples, comment=f"config: {_echo(config)}")
    print(f"wrote {len(samples)} sequences of {config['horizon']} steps to {config['output']}")


def cmd_evaluate(config: dict) -> None:
    _require_counts(config, batch=1, horizon=2, seeds=1)  # one-step samples have no returns
    series = dataio.read_series_csv(_require(config, "data"))
    if config["model"] is None:
        report = evaluation.self_evaluation_report(series, include_abs_acf=config["abs_acf"])
    else:
        fitted = model_mod.load_model(config["model"])
        report = evaluation.evaluate(
            fitted,
            series,
            horizon=config["horizon"],
            batch=config["batch"],
            seeds=config["seeds"],
            base_seed=config["seed"],
            include_abs_acf=config["abs_acf"],
        )
    doc = {"config": config, **report.to_dict()}
    with open(config["output_json"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    table = f"# config: {_echo(config)}\n" + evaluation.format_table(report)
    with open(config["output_table"], "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its keys")


def build_parser() -> _Parser:
    parser = _Parser(prog="sigspline", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="simulate the VAR(2) benchmark series")
    _add_common(sim)
    sim.add_argument("--n-lags", dest="n_lags", type=int, help="steps to keep (default 4096)")
    sim.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sim.add_argument("--map", choices=["identity", "fixed_nonlinear"],
                     help="observation map (default identity)")
    sim.add_argument("--whiten", action="store_const", const=True, default=None,
                     help="PCA-whiten the output series")
    sim.add_argument("--output", help="output CSV path (default var2.csv)")

    fit = subs.add_parser("fit", help="calibrate a model on a series CSV")
    _add_common(fit)
    fit.add_argument("--data", help="input series CSV")
    fit.add_argument("--level", type=int, help="signature truncation order (default 2)")
    fit.add_argument("--bins", type=int, help="spline bins N (default 64)")
    fit.add_argument("--window", type=int, help="conditioning window r (default 3)")
    fit.add_argument("--learning-rate", dest="learning_rate", type=float,
                     help="gradient step size (default 0.1)")
    fit.add_argument("--max-iters", dest="max_iters", type=int,
                     help="iteration cap (default 5000)")
    fit.add_argument("--patience", type=int, help="early-stopping patience (default 32)")
    fit.add_argument("--reg-kind", dest="reg_kind", choices=["none", "l1", "l2"],
                     help="penalty kind (default none)")
    fit.add_argument("--reg-lambda", dest="reg_lambda", type=float,
                     help="penalty weight (default 0)")
    fit.add_argument("--optimizer", choices=["gradient_descent", "newton"],
                     help="optimizer (default gradient_descent)")
    fit.add_argument("--train-fraction", dest="train_fraction", type=float,
                     help="train split fraction (default 0.8)")
    fit.add_argument("--seed", type=int, help="base split seed (default 0)")
    fit.add_argument("--n-seeds", dest="n_seeds", type=int,
                     help="number of calibration seeds (default 10)")
    fit.add_argument("--output-model", dest="output_model", help="model JSON path")
    fit.add_argument("--output-report", dest="output_report", help="report JSON path")

    smp = subs.add_parser("sample", help="sample conditioned paths from a fitted model")
    _add_common(smp)
    smp.add_argument("--model", help="fitted model JSON")
    smp.add_argument("--data", help="series CSV providing conditioning histories")
    smp.add_argument("--batch", type=int, help="number of sequences (default 128)")
    smp.add_argument("--horizon", type=int, help="steps per sequence (default 4)")
    smp.add_argument("--seed", type=int, help="RNG seed (default 0)")
    smp.add_argument("--output", help="output CSV path (default samples.csv)")

    ev = subs.add_parser("evaluate", help="compare model samples against real data")
    _add_common(ev)
    ev.add_argument("--model", help="fitted model JSON; omit for self-evaluation")
    ev.add_argument("--data", help="real series CSV")
    ev.add_argument("--batch", type=int, help="sequences per seed (default 512)")
    ev.add_argument("--horizon", type=int, help="steps per sequence (default 4)")
    ev.add_argument("--seeds", type=int, help="evaluation seeds (default 10)")
    ev.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    ev.add_argument("--abs-acf", dest="abs_acf", action="store_const", const=True,
                    default=None, help="include absolute-return ACF statistics")
    ev.add_argument("--output-json", dest="output_json", help="JSON report path")
    ev.add_argument("--output-table", dest="output_table", help="text table path")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args.command, args)
        _COMMANDS[args.command](config)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (calibration.DivergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
