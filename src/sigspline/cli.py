"""Command-line pipeline: simulate -> fit -> sample -> evaluate.

Each subcommand's settings are declared once, in ``SETTINGS``, as
``setting -> (default, help[, minimum])``, a count with its minimum. The table
builds every flag (``--n-lags`` sets ``n_lags``; its type is the default's, a
bool is a switch, a setting in ``CHOICES`` takes the owning module's choice
list, and ``--help`` shows the default), ``DEFAULTS``, each count's check and,
for ``fit``, the ``TrainConfig``. Fit defaults come from ``TrainConfig()``
(except ``window``, 3 here), simulate defaults from
``synthetic.benchmark_var_spec()``; the VAR matrices are config-file keys only.

Each subcommand reads one JSON config (``--config``); flags override file
keys and unknown file keys are rejected. A file value must have its default's
type and pass the same choice check as the flag. The fully resolved config is
echoed into every artifact the command writes, but for self-evaluation
(``evaluate`` without a model), which draws no samples: it drops ``batch``,
``horizon`` and ``seeds`` unchecked. Exit codes: 0 success, 1 usage error, 2
data error (running out of memory included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, fields

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


_TRAIN = calibration.TrainConfig()
_VAR = synthetic.benchmark_var_spec()

# setting -> (default, help[, minimum]); a help of None makes the setting a config-file key only
SETTINGS = {
    "simulate": {
        "n_lags": (_VAR.n_lags, "steps to keep", 1),
        "seed": (_VAR.rng_seed, "RNG seed", 0),
        "w1": (_VAR.w1.tolist(), None),
        "w2": (_VAR.w2.tolist(), None),
        "sigma": (_VAR.sigma.tolist(), None),
        "map": ("identity", "observation map"),
        "whiten": (False, "PCA-whiten the output series"),
        "output": ("var2.csv", "output CSV path"),
    },
    "fit": {
        "data": (None, "input series CSV"),
        "level": (_TRAIN.level, "signature truncation order"),
        "bins": (_TRAIN.bins, "spline bins N"),
        "window": (3, "conditioning window r", 1),
        "learning_rate": (_TRAIN.learning_rate, "gradient step size"),
        "max_iters": (_TRAIN.max_iters, "iteration cap"),
        "patience": (_TRAIN.patience, "early-stopping patience"),
        "reg_kind": (_TRAIN.reg_kind, "penalty kind"),
        "reg_lambda": (_TRAIN.reg_lambda, "penalty weight"),
        "optimizer": (_TRAIN.optimizer, "optimizer"),
        "train_fraction": (_TRAIN.train_fraction, "train split fraction"),
        "seed": (_TRAIN.rng_seed, "base split seed", 0),
        "n_seeds": (10, "number of calibration seeds", 1),
        "output_model": ("model.json", "model JSON path"),
        "output_report": ("fit_report.json", "report JSON path"),
    },
    "sample": {
        "model": (None, "fitted model JSON"),
        "data": (None, "series CSV providing conditioning histories"),
        "batch": (128, "number of sequences", 1),
        "horizon": (4, "steps per sequence", 1),
        "seed": (0, "RNG seed", 0),
        "output": ("samples.csv", "output CSV path"),
    },
    "evaluate": {
        "model": (None, "fitted model JSON; omit for self-evaluation"),
        "data": (None, "real series CSV"),
        "batch": (512, "sequences per seed", 1),
        "horizon": (4, "steps per sequence", evaluation.MIN_HORIZON),
        "seeds": (10, "evaluation seeds", 1),
        "seed": (0, "base RNG seed", 0),
        "abs_acf": (False, "include absolute-return ACF statistics"),
        "output_json": ("evaluation.json", "JSON report path"),
        "output_table": ("evaluation.txt", "text table path"),
    },
}
CHOICES = {"map": synthetic.MAPS, "reg_kind": calibration.REG_KINDS,
           "optimizer": calibration.OPTIMIZERS}
DEFAULTS = {command: {key: row[0] for key, row in table.items()}
            for command, table in SETTINGS.items()}


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
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object, "
                             f"got {type(loaded).__name__}")
        unknown = set(loaded) - set(config)
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in loaded.items():  # a file value takes its default's type
            default = DEFAULTS[command][key]
            kinds = {type(None): (str,), float: (int, float)}.get(type(default), (type(default),))
            if not isinstance(value, kinds) or isinstance(value, bool) != isinstance(default, bool):
                names = " or ".join(kind.__name__ for kind in kinds)
                raise UsageError(f"config key {key!r} must be {names}, got {value!r}")
            if key in CHOICES and value not in CHOICES[key]:
                raise UsageError(f"config key {key!r} must be {'|'.join(CHOICES[key])}, "
                                 f"got {value!r}")
        config.update(loaded)
    for key in config:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _echo(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _require(config: dict, key: str) -> str:
    if config[key] is None:
        raise UsageError(f"missing required setting {key!r} (config key or flag)")
    return config[key]


def cmd_simulate(config: dict) -> None:
    """Simulate the VAR(2) benchmark series."""
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


def _train_config(config: dict) -> calibration.TrainConfig:
    names = {field.name for field in fields(calibration.TrainConfig)}
    return calibration.TrainConfig(
        rng_seed=config["seed"], **{key: value for key, value in config.items() if key in names})


def cmd_fit(config: dict) -> None:
    """Calibrate a model on a series CSV."""
    try:
        train_cfg = _train_config(config)
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
    """Sample conditioned paths from a fitted model."""
    fitted = model_mod.load_model(_require(config, "model"))
    series = dataio.read_series_csv(_require(config, "data"))
    rng = np.random.default_rng(config["seed"])
    samples = model_mod.sample_from_series(fitted, series, config["batch"], config["horizon"], rng)
    dataio.write_batch_csv(config["output"], samples, comment=f"config: {_echo(config)}")
    print(f"wrote {len(samples)} sequences of {config['horizon']} steps to {config['output']}")


def cmd_evaluate(config: dict) -> None:
    """Compare model samples against real data."""
    series = dataio.read_series_csv(_require(config, "data"))
    if config["model"] is None:
        report = evaluation.self_evaluation(series, include_abs_acf=config["abs_acf"])
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


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
}


@functools.cache  # every main() call parses with it; the tables never change
def build_parser() -> _Parser:
    parser = _Parser(prog="sigspline", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        sub = subs.add_parser(command, help=run.__doc__)
        sub.add_argument("--config", help="JSON config file; flags override its keys")
        for key, (default, text, *_) in SETTINGS[command].items():
            if text is None:
                continue
            flag = "--" + key.replace("_", "-")
            if default is not None:
                text = f"{text} (default: {default})"
            if isinstance(default, bool):
                sub.add_argument(flag, action="store_const", const=True, help=text)
            else:
                sub.add_argument(flag, type=str if default is None else type(default),
                                 choices=CHOICES.get(key), help=text)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args.command, args)
        if args.command == "evaluate" and config["model"] is None:
            for key in ("batch", "horizon", "seeds"):  # self-evaluation draws no samples
                del config[key]
        for key, (_, _, *low) in SETTINGS[args.command].items():  # counts, before any file read
            if low and key in config and config[key] < low[0]:  # _resolve_config made counts ints
                raise UsageError(f"{key} must be an integer >= {low[0]}, got {config[key]!r}")
        _COMMANDS[args.command](config)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (calibration.DivergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, OverflowError) as exc:  # a level too large for int64 features
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy's message names the allocation
        print(f"data error: out of memory ({exc}); lower the series length or a size setting "
              "(n_lags, level, bins, window, batch, horizon)", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
