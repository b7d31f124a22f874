#!/usr/bin/env python3
"""sigspline benchmark: the `simulate -> fit -> sample -> evaluate` user path.

Run from the repository root:

    python3 perfbench/run.py --workload fit_newton_d2 --seed 0 --seconds 35 --trace 0

The package is imported from ``src/`` of the same checkout and driven through
``sigspline.cli.main`` in-process with the checked-in ``configs/`` and flag
overrides; held-out scoring calls the public ``model.log_likelihood``. Each
run sets up its inputs several times (``setup_s`` is the median), then
repeats the workload's timed path until ``--seconds`` have passed (at least
``MIN_REPS`` times) and reports per-stage medians. Outputs are checked after
every repetition against invariants and, where the seed has one, against the
reference captured in ``reference.json``; a failed check counts as a failed
operation and clears ``correct`` without stopping the run.

``--trace 1`` instead runs one traced set-up and ``TRACE_PAIRS`` pairs of
(untraced, traced) repetitions, so every count repeats exactly between runs,
and prints the per-layer metrics described in ``perfbench/METRICS.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else the
run writes goes under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import os

# one BLAS thread gives a plain single-threaded baseline; must precede numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402  (sibling module)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
OUT_DIR = ROOT / ".perfbench_runs"
REFERENCE = HERE / "reference.json"

SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_REPS = 3
TRACE_PAIRS = 2
NLL_RTOL = 1e-7
LOGLIK_RTOL = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    simulate: tuple[str, ...]  # flags after --config configs/simulate_var2.json
    fit: tuple[str, ...]  # flags for `sigspline fit` (before data/output paths)
    fit_in_setup: bool  # True: the model is fitted during set-up, not timed
    batch: int  # histories drawn by `sample` and by each `evaluate` seed
    score_windows: int  # held-out windows scored per repetition


# Each coordinate converges in 9-15 Newton iterations depending on the seed;
# a cap of 8 makes every seed do the same work, at the converged NLL.
NEWTON_FIT = ("--config", str(CONFIGS / "fit_var2.json"), "--max-iters", "8", "--n-seeds", "1")

# Why each workload exists is recorded in BENCHMARK.json and perfbench/METRICS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit_newton_d2",
            simulate=("--n-lags", "1024"),
            fit=NEWTON_FIT,
            fit_in_setup=False,
            batch=128,
            score_windows=256,
        ),
        Workload(
            name="sample_score_d2",
            simulate=("--n-lags", "1024"),
            fit=NEWTON_FIT,
            fit_in_setup=True,
            batch=256,
            score_windows=1021,  # every window of the 1024-lag held-out series
        ),
        Workload(
            name="fit_gd_l1_d8",
            simulate=("--n-lags", "512", "--map", "fixed_nonlinear"),
            # at most 32 iterations: early stopping (patience 32) cannot fire
            fit=("--reg-kind", "l1", "--reg-lambda", "1e-4", "--max-iters", "32",
                 "--n-seeds", "1"),
            fit_in_setup=False,
            batch=48,
            score_windows=128,
        ),
    )
}


class StageFailed(Exception):
    """A CLI stage exited non-zero or raised; the repetition cannot go on."""


def _import_package():
    src = ROOT / "src"
    if not (src / "sigspline" / "__init__.py").is_file() or not CONFIGS.is_dir():
        sys.exit(f"error: run from a sigspline checkout; {src / 'sigspline'} or {CONFIGS} missing")
    sys.path.insert(0, str(src))
    import sigspline.cli  # noqa: F401  (loads every layer module)

    return sys.modules["sigspline"]


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# one benchmark run


class Bench:
    """Files, counters and stage timings of one workload run."""

    def __init__(self, pkg, workload: Workload, seed: int, reference: dict | None, tracer=None):
        self.pkg = pkg
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.work = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = reference
        self.horizon = json.loads((CONFIGS / "sample.json").read_text())["horizon"]
        self.fit_outputs: list[tuple] = []
        self.loglik_sums: list[float] = []

    def path(self, name: str) -> str:
        return str(self.work / name)

    # -- stages ---------------------------------------------------------

    def _stage_span(self, stage: str):
        return self.tracer.span(f"stage.{stage}") if self.tracer else contextlib.nullcontext()

    def _cli(self, stage: str, argv: list[str]) -> float:
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with self._stage_span(stage):
                    rc = self.pkg.cli.main(argv)
        except Exception:  # any crash inside the program is a failed operation
            rc = "exception:\n" + traceback.format_exc()
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.failures.append(f"{stage}: exit {rc} {err.getvalue().strip()[-400:]}")
            raise StageFailed(stage)
        return elapsed

    def simulate(self) -> None:
        base = ["simulate", "--config", str(CONFIGS / "simulate_var2.json"), *self.w.simulate]
        self._cli("simulate", [*base, "--seed", str(self.seed), "--output", self.path("series.csv")])
        self._cli("simulate", [*base, "--seed", str(self.seed + 1),
                               "--output", self.path("heldout.csv")])

    def fit(self) -> float:
        return self._cli("fit", [
            "fit", *self.w.fit, "--data", self.path("series.csv"), "--seed", str(self.seed),
            "--output-model", self.path("model.json"),
            "--output-report", self.path("fit_report.json"),
        ])

    def sample(self) -> float:
        return self._cli("sample", [
            "sample", "--config", str(CONFIGS / "sample.json"),
            "--model", self.path("model.json"), "--data", self.path("series.csv"),
            "--batch", str(self.w.batch), "--seed", str(self.seed),
            "--output", self.path("samples.csv"),
        ])

    def evaluate(self) -> float:
        return self._cli("evaluate", [
            "evaluate", "--config", str(CONFIGS / "evaluate.json"),
            "--model", self.path("model.json"), "--data", self.path("series.csv"),
            "--batch", str(self.w.batch), "--seeds", "1",
            "--seed", str(self.seed),
            "--output-json", self.path("evaluation.json"),
            "--output-table", self.path("evaluation.txt"),
        ])

    def score(self) -> tuple[float, int, float]:
        """Exact log-likelihood of held-out windows; returns (seconds, windows, sum)."""
        self.attempted += 1
        model_mod, dataio = self.pkg.model, self.pkg.dataio
        start = time.perf_counter()
        try:
            with self._stage_span("score"):
                fitted = model_mod.load_model(self.path("model.json"))
                series = dataio.read_series_csv(self.path("heldout.csv"))
                windows = model_mod.sliding_windows(series, fitted.window + 1)
                windows = windows[: self.w.score_windows]
                total = 0.0
                for window in windows:
                    total += model_mod.log_likelihood(fitted, model_mod.to_unit(fitted, window))
        except Exception:  # any crash inside the program is a failed operation
            self.failures.append("score: exception\n" + traceback.format_exc())
            raise StageFailed("score")
        return time.perf_counter() - start, len(windows), total

    # -- set-up and repetitions -----------------------------------------

    def setup(self) -> dict:
        start = time.perf_counter()
        self.simulate()
        times = {}
        if self.w.fit_in_setup:
            times["fit"] = self.fit()
            self._verify(self.check_fit)
        times["setup"] = time.perf_counter() - start
        return times

    def rep(self) -> dict:
        times = {}
        start = time.perf_counter()
        if not self.w.fit_in_setup:
            times["fit"] = self.fit()
        times["sample"] = self.sample()
        times["evaluate"] = self.evaluate()
        times["score"], times["windows"], loglik = self.score()
        times["wall"] = time.perf_counter() - start
        if not self.w.fit_in_setup:
            self._verify(self.check_fit)
        self._verify(self.check_samples)
        self._verify(self.check_evaluation)
        self._verify(self.check_loglik, loglik)
        return times

    # -- output checks --------------------------------------------------

    def _verify(self, check, *args) -> None:
        try:
            check(*args)
        except Exception:  # an unreadable output is a failed check, not a crash
            self.attempted += 1
            self.failures.append(f"check: {check.__name__} raised\n" + traceback.format_exc())

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check: {what}")

    def check_fit(self) -> None:
        with open(self.path("fit_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        best = report["per_seed"][report["best_seed"] - report["per_seed"][0]["seed"]]
        nll = float(best["final_test_nll"])
        stops = [r["stopped_iteration"] for r in report["per_seed"]]
        cfg = report["config"]
        d = len(best["stopped_iteration"])
        if self.tracer:
            self.tracer.count("calibration.iterations", sum(map(sum, stops)))
        self._check(math.isfinite(nll) and 0 < nll < d * math.log(cfg["bins"]),
                    f"held-out NLL {nll} not below the uniform model's {d * math.log(cfg['bins'])}")
        self._check(all(1 <= s <= cfg["max_iters"] for row in stops for s in row),
                    f"stopped iterations {stops} outside [1, {cfg['max_iters']}]")
        if self.fit_outputs:
            self._check(self.fit_outputs[0] == (nll, stops),
                        f"fit not deterministic: {(nll, stops)} vs {self.fit_outputs[0]}")
        self.fit_outputs.append((nll, stops))
        if self.reference is not None:
            ref = self.reference
            self._check(math.isclose(nll, ref["heldout_nll"], rel_tol=NLL_RTOL),
                        f"held-out NLL {nll!r} differs from reference {ref['heldout_nll']!r}")
            self._check(stops == ref["stopped_iterations"],
                        f"stopped iterations {stops} differ from reference "
                        f"{ref['stopped_iterations']}")

    def check_samples(self) -> None:
        series = _csv_values(self.path("series.csv"))
        samples = _csv_values(self.path("samples.csv"))
        values = samples[:, 2:]
        lo, hi = series[:, 1:].min(axis=0), series[:, 1:].max(axis=0)
        slack = 1e-9 * (hi - lo)
        rows = self.w.batch * self.horizon
        self._check(samples.shape[0] == rows,
                    f"samples CSV has {samples.shape[0]} rows, expected {rows}")
        self._check(bool(np.all(np.isfinite(values))), "samples contain non-finite values")
        self._check(bool(np.all(values >= lo - slack) and np.all(values <= hi + slack)),
                    "samples fall outside the series' raw range")

    def check_evaluation(self) -> None:
        with open(self.path("evaluation.json"), encoding="utf-8") as fh:
            stats = json.load(fh)["statistics"]
        self._check(bool(stats) and all(math.isfinite(s["discrepancy_mean"])
                                        for s in stats.values()),
                    "evaluation discrepancies missing or non-finite")

    def check_loglik(self, total: float) -> None:
        self._check(math.isfinite(total), f"summed log-likelihood {total} is not finite")
        if self.loglik_sums:
            self._check(total == self.loglik_sums[0],
                        f"scoring not deterministic: {total!r} vs {self.loglik_sums[0]!r}")
        self.loglik_sums.append(total)
        if self.reference is not None:
            ref = self.reference["loglik_sum"]
            self._check(math.isclose(total, ref, rel_tol=LOGLIK_RTOL),
                        f"summed log-likelihood {total!r} differs from reference {ref!r}")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _csv_values(path):
    """Numeric rows of a series or batch CSV, without comments and header."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if line.strip() and not line.startswith("#")]
    return np.loadtxt(rows[1:], delimiter=",", ndmin=2)


def _load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# end-to-end and traced runs


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        setups.append(bench.setup())
    reps = []
    start = time.perf_counter()
    # start another repetition only if it should end within the budget
    while len(reps) < MIN_REPS or (
        time.perf_counter() - start + _median(r["wall"] for r in reps) <= seconds
    ):
        reps.append(bench.rep())
    fit_times = [s["fit"] for s in setups] if bench.w.fit_in_setup else [r["fit"] for r in reps]
    steps = bench.w.batch * bench.horizon
    metrics = {
        "setup_s": (_median(s["setup"] for s in setups), "s"),
        "wall_s": (_median(r["wall"] for r in reps), "s"),
        "fit_s": (_median(fit_times), "s"),
        "sample_steps_per_s": (steps / _median(r["sample"] for r in reps), "1/s"),
        "evaluate_s": (_median(r["evaluate"] for r in reps), "s"),
        "loglik_windows_per_s": (reps[0]["windows"] / _median(r["score"] for r in reps), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "heldout_nll": (bench.fit_outputs[0][0], "nats"),
    }
    detail = {"setup_repeats": len(setups), "repetitions": len(reps), "setups": setups,
              "reps": reps}
    return metrics, detail


def traced(bench: Bench, tracer) -> tuple[dict, dict]:
    with tracer.installed():
        tracer.start_run("setup")
        bench.setup()
    walls = {"untraced": [], "traced": []}
    for i in range(TRACE_PAIRS):
        walls["untraced"].append(bench.rep()["wall"])
        with tracer.installed():
            tracer.start_run(f"rep-{i}")
            walls["traced"].append(bench.rep()["wall"])
    groups = tracer.group_stats()
    counters = tracer.counters

    def calls(group):
        return (groups[group]["calls"], "count")

    def self_s(group):
        return (groups[group]["self_s"], "s")

    def percentile_us(group, q):
        durations = groups[group]["entry_durations"]
        return (float(np.percentile(durations, q)) * 1e6 if durations.size else 0.0, "us")

    sig = groups["signature"]
    optimize = (groups["calibration.multi_seed_fit"]["entry_durations"].sum()
                - tracer.nested_duration("calibration.build_design", "calibration.multi_seed_fit"))
    iterations = counters.get("calibration.iterations", 0)
    metrics = {
        "signature.calls": calls("signature"),
        "signature.self_s": self_s("signature"),
        "signature.us_per_call": (
            sig["entry_durations"].sum() / sig["calls"] * 1e6 if sig["calls"] else 0.0, "us"),
        "tensor_algebra.tensor_product.calls": calls("tensor_algebra.tensor_product"),
        "tensor_algebra.tensor_product.self_s": self_s("tensor_algebra.tensor_product"),
        "augmentations.embed.calls": calls("augmentations.embed"),
        "augmentations.embed.self_s": self_s("augmentations.embed"),
        "calibration.design.calls": calls("calibration.design"),
        "calibration.design.rows": (counters.get("calibration.design.rows", 0), "count"),
        "calibration.design.self_s": self_s("calibration.design"),
        "calibration.optimize_s": (float(optimize), "s"),
        "calibration.iterations": (iterations, "count"),
        "calibration.s_per_iteration": (optimize / iterations if iterations else 0.0, "s"),
        "model.sample_step.calls": calls("model.sample_step"),
        "model.sample_step.self_s": self_s("model.sample_step"),
        "model.sample_step.us_p50": percentile_us("model.sample_step", 50),
        "model.sample_step.us_p99": percentile_us("model.sample_step", 99),
        "model.conditional_increments.calls": calls("model.conditional_increments"),
        "model.conditional_increments.self_s": self_s("model.conditional_increments"),
        "model.log_likelihood.calls": calls("model.log_likelihood"),
        "model.log_likelihood.us_p50": percentile_us("model.log_likelihood", 50),
        "model.log_likelihood.us_p99": percentile_us("model.log_likelihood", 99),
        "spline.spline_inverse.calls": calls("spline.spline_inverse"),
        "spline.spline_inverse.self_s": self_s("spline.spline_inverse"),
        "spline.softmax.calls": calls("spline.softmax"),
        "spline.softmax.self_s": self_s("spline.softmax"),
        "evaluation.statistics.calls": calls("evaluation.statistics"),
        "evaluation.statistics.self_s": self_s("evaluation.statistics"),
        "evaluation.evaluate.self_s": self_s("evaluation.evaluate"),
        "dataio.read.s": self_s("dataio.read"),
        "dataio.read.bytes": (counters.get("dataio.read.bytes", 0), "B"),
        "dataio.write.s": self_s("dataio.write"),
        "dataio.write.bytes": (counters.get("dataio.write.bytes", 0), "B"),
        "synthetic.simulate.s": self_s("synthetic.simulate"),
        "trace.overhead_s": (_median(walls["traced"]) - _median(walls["untraced"]), "s"),
    }
    detail = {"trace_pairs": TRACE_PAIRS, "walls": walls, "spans": len(tracer.spans)}
    return metrics, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: drives the simulate, split and sample seeds")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the timed repetitions run (end-to-end mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = _import_package()
    workload = WORKLOADS[args.workload]
    env = environment()
    tracer = Tracer() if args.trace else None
    reference = _load_reference().get(workload.name, {}).get(str(args.seed))
    bench = Bench(pkg, workload, args.seed, reference, tracer)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if tracer:
            metrics, detail = traced(bench, tracer)
        else:
            metrics, detail = end_to_end(bench, args.seconds)
    except StageFailed as exc:
        print(f"stage {exc} failed; no metrics:\n" + "\n".join(bench.failures), file=sys.stderr)
        return 1
    finally:
        bench.close()

    failed = len(bench.failures)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "reference_checked": bench.reference is not None,
        "failures": bench.failures, "detail": detail, "metrics": values,
    }
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(OUT_DIR / f"spans-{tag}.json",
                     {"workload": workload.name, "seed": args.seed, "environment": env})

    print(f"# environment: {json.dumps(env)}")
    print(f"# reference values for seed {args.seed}: "
          + ("checked" if bench.reference is not None else "none stored; invariants only"))
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"{'failure_rate':40s} {failed / bench.attempted:16.6f} fraction "
          f"({failed}/{bench.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
