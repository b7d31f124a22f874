#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<pr>.json``.

Measures a checkout with its own ``perfbench/run.py`` and tests, run as
subprocesses with one BLAS thread:

* every workload in its ``BENCHMARK.json``: ``RUNS`` end-to-end runs of its
  ``run_seconds`` each, reduced to the median, quartiles and IQR of each
  metric across runs, plus ``TRACE_RUNS`` ``--trace 1`` runs whose per-layer
  metrics are reduced the same way;
* the tier-1 suite (the command in ROADMAP.md), timed as a whole;
* the ``configs/`` pipeline, ``simulate -> fit -> sample -> evaluate``, each
  stage timed as one ``python -m sigspline`` process;
* the environment line that ``perfbench/run.py`` prints;
* ``src_lines``: the line count of each ``src/sigspline/*.py`` and their
  total, counted as ``wc -l`` counts them;
* ``kernel``: per-call medians of the signature kernel at the protocol sizes,
  ``signature.extend`` on M = 1 and M = 1024 rows, one-window
  ``model.log_likelihood``, perfbench's score loop (``to_unit`` and
  ``log_likelihood`` one window at a time over every window of a seed-1
  benchmark series at sample_score_d2's shape) and the same windows scored in one
  stacked call, both per window, one ``model.sample_step`` over a batch of
  histories at sample_score_d2's shape (the sampler alone, without the CSV
  and model file IO that perfbench's ``sample_steps_per_s`` includes),
  ``model.extend_path`` per step for a ``window=None`` model at horizons 25,
  100 and 400, one ``model.save_model`` and
  ``model.load_model`` of a model file at the workloads' fit shapes, the fit's
  featurize pass (``calibration._prepare``) plus one coordinate's design at the
  fit_newton_d2 and fit_gd_l1_d8 shapes, and one
  Newton step's ``calibration._hessian_from_design`` (one-shot, and with a
  warm workspace as the fit calls it) and ``np.linalg.solve`` at the
  row-space shapes of the fit_newton_d2 and ``configs/`` fits, timed in a
  subprocess that imports the measured checkout's ``src/``. Each entry also
  records its minor page faults per call. Two ``machine.*`` entries, a fixed
  float64 GEMM and a fixed pure-Python loop, probe the machine, so that the
  records of two runs on different machines can be normalized before they are compared;
* ``kernel_vs_parent``, with ``--parent REV``: :func:`compare_kernels` extracts
  REV's ``src/`` with ``git archive`` into a temporary directory and times its
  kernel block and the checkout's in alternating subprocesses, KERNEL_PAIRS
  pairs, recording both sides' medians and quartiles per entry and in how
  many pairs the change read lower ("better in k of n").

The result is written to ``BENCH_<pr>.json`` at the root of the measured
checkout; pipeline artifacts stay in its ``.bench_runs/``. To compare a change
with its parent:

    python3 scripts/record_bench.py --pr N --parent HEAD   # an uncommitted change against HEAD

The end-to-end workload runs of the two commits are still made one checkout
at a time (``--repo`` measures another checkout). The ``kernel`` block imports
private names of ``sigspline.calibration``; a revision that lacks one cannot be
compared by this script.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "# environment: "
RUNS = 5  # fixed, like the run length, so that every BENCH file compares with every other
TRACE_RUNS = 3  # one traced run is too noisy for a per-layer comparison
KERNEL_REPEATS = 15  # timed repeats per kernel; the record keeps their median and quartiles
KERNEL_REPEAT_S = 0.02  # target length of one repeat; sets the calls per repeat
EXTEND_SIZES = ((3, 3), (9, 2))  # (alphabet e = 1 + d, level L): d=2/L=3 and d=8/L=2
EXTEND_ROWS = (1, 1024)
LOGLIK_SIZES = ((2, 3, 16, 2), (8, 2, 64, 3))  # (d, level, bins, window), as the workloads fit
SAMPLE_STEP_SIZE = (2, 3, 16, 2, 256)  # (d, level, bins, window, batch) of sample_score_d2
SCORE_SIZE = (1024, 3, 16, 2)  # (n_lags, level, bins, window) of sample_score_d2's scored series
SCORE_FIT_ITERS = 8  # Newton iterations of the scored model's fit; scoring cost does not need more
EXTEND_PATH_SIZE = (2, 3, 16, 64)  # (d, level, bins, batch) of a window=None model's stream
EXTEND_PATH_HORIZONS = (25, 100, 400)
EXTEND_PATH_REPEATS = 3  # one horizon-400 call refolding the history at every step takes ~17 s
KERNEL_PAIRS = 5  # parent/change pairs of a kernel comparison
NEWTON_LAGS = (1024, 4096)  # VAR(2) series of fit_newton_d2 and configs/: d=2, L=3, N=16, window 2
FEATURIZE_SIZES = (  # (n_lags, map, level, bins, window) of fit_newton_d2 and fit_gd_l1_d8
    (1024, "identity", 3, 16, 2),
    (512, "fixed_nonlinear", 2, 64, 3),
)
PROBE_GEMM_N = 256  # the machine probe: an n x n float64 matrix product ...
PROBE_LOOP = 100_000  # ... and a pure-Python loop of this many iterations
PIPELINE = (  # (stage, config file); the configs read and write paths relative to the cwd
    ("simulate", "simulate_var2.json"),
    ("fit", "fit_var2.json"),
    ("sample", "sample.json"),
    ("evaluate", "evaluate.json"),
)


def _env(repo: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    return env


def _run(cmd: list[str], cwd: Path, env: dict, check: bool = True):
    """Run cmd to completion; returns (stdout, wall seconds, exit code)."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if check and proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return proc.stdout, wall, proc.returncode


def _source(repo: Path) -> dict:
    """The measured commit, and whether the program or the benchmark differ from it."""
    git = ["git", "-C", str(repo)]
    commit = _run([*git, "rev-parse", "HEAD"], repo, os.environ)[0].strip()
    status = _run([*git, "status", "--porcelain", "--", "src", "perfbench"], repo, os.environ)[0]
    return {"commit": commit, "modified": bool(status.strip())}


def _bench_run(repo: Path, command: list[str], workload: str, seconds: float, trace: int):
    out = _run([*command, "--workload", workload, "--seconds", str(seconds),
                "--trace", str(trace)], repo, _env(repo))[0]
    lines = out.splitlines()
    environment = next(json.loads(line[len(ENV_PREFIX):]) for line in lines
                       if line.startswith(ENV_PREFIX))
    return json.loads(lines[-1]), environment


def _spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1),
            "runs": values}


def _reduce(results: list[dict]) -> dict:
    return {
        name: {"unit": value["unit"], **_spread([r["metrics"][name]["value"] for r in results])}
        for name, value in results[0]["metrics"].items()
    }


def record_workload(repo: Path, command: list[str], workload: str, seconds: float):
    runs = [_bench_run(repo, command, workload, seconds, trace=0) for _ in range(RUNS)]
    traced = [_bench_run(repo, command, workload, seconds, trace=1)[0] for _ in range(TRACE_RUNS)]
    results, environment = [result for result, _ in runs], runs[-1][1]
    return {
        "correct": all(r["correct"] for r in results + traced),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": _reduce(results),
        "per_layer": _reduce(traced),
    }, environment


def record_tier1(repo: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    out, wall, code = _run(cmd, repo, _env(repo), check=False)  # a failing suite is recorded
    return {"wall_s": wall, "exit_code": code, "summary": out.strip().splitlines()[-1]}


def record_pipeline(repo: Path) -> dict:
    work = repo / ".bench_runs" / "configs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    times = {}
    for stage, config in PIPELINE:
        cmd = [sys.executable, "-m", "sigspline", stage, "--config", str(repo / "configs" / config)]
        times[f"{stage}_s"] = _run(cmd, work, _env(repo))[1]
    return times


def record_src_lines(repo: Path) -> dict:
    files = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((repo / "src" / "sigspline").glob("*.py"))}
    return {"total": sum(files.values()), "files": files}


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _per_call_us(fn, repeats: int = KERNEL_REPEATS, steps: int = 1) -> dict:
    """Median and quartiles over ``repeats`` repeats of the time of one call divided by its
    ``steps``, in us, and the minor page faults per call over all repeats. A warm-up call that
    takes longer than a repeat sets the calls per repeat itself; a quicker one is timed again."""
    start = time.perf_counter()
    fn()  # warm-up
    once = time.perf_counter() - start
    if once < KERNEL_REPEAT_S:
        start = time.perf_counter()
        fn()
        once = time.perf_counter() - start
    number = max(1, int(KERNEL_REPEAT_S / max(once, 1e-9)))
    times, faults = [], _minor_faults()
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / (number * steps) * 1e6)
    faults = (_minor_faults() - faults) / (repeats * number)
    return {**_spread(times), "calls_per_repeat": number, "minflt_per_call": faults}


def _python_loop() -> int:
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return total


def _random_model(d: int, level: int, bins: int, window):
    from sigspline.model import SigSplineModel
    from sigspline.tensor_algebra import feature_count

    rng = np.random.default_rng(0)
    params = rng.normal(size=(d, bins, feature_count(1 + d, level)))
    return SigSplineModel(d, level, bins, params, window)


@lru_cache
def _newton_design(n_lags: int) -> np.ndarray:
    """Coordinate 1's training design in its row-space basis, as Newton sees it, for the
    configs/ VAR(2) series of ``n_lags`` lags fitted at d=2, L=3, N=16, window 2."""
    from sigspline import calibration, synthetic

    series = synthetic.simulate_var2(synthetic.benchmark_var_spec(n_lags, 0))
    cfg = calibration.TrainConfig(level=3, bins=16, window=2)
    feats = calibration._prepare(calibration.windows_from_series(series, 2), cfg)[1](1)[0]
    train, _ = calibration._split_indices(len(feats), cfg.train_fraction,
                                          np.random.default_rng(0))
    return feats[train] @ calibration._row_space_basis(feats)


@lru_cache
def _scored_model_and_windows():
    """The configs-shaped model fitted by Newton for at most SCORE_FIT_ITERS iterations on the
    seed-0 benchmark series, and every raw window of the seed-1 series, which is what
    perfbench's sample_score_d2 scores."""
    from sigspline import calibration, synthetic
    from sigspline.model import sliding_windows

    n_lags, level, bins, window = SCORE_SIZE
    fit_series, heldout = (synthetic.simulate_var2(synthetic.benchmark_var_spec(n_lags, seed))
                           for seed in (0, 1))
    cfg = calibration.TrainConfig(level=level, bins=bins, window=window, optimizer="newton",
                                  reg_kind="l2", reg_lambda=1e-6,
                                  max_iters=SCORE_FIT_ITERS)
    model = calibration.fit(calibration.windows_from_series(fit_series, window), cfg)[0]
    return model, sliding_windows(heldout, window + 1)


def kernel_entries(tmp: Path) -> list:
    """(family, make) of every kernel entry. make() does the entry's set-up and returns its
    name, its timed call and the keywords of its timing, so that a measurement of some families
    sets up only those. Model files are written under ``tmp``."""
    from sigspline import calibration, synthetic
    from sigspline.model import (
        extend_path, load_model, log_likelihood, sample_step, save_model, to_unit,
    )
    from sigspline.signature import extend
    from sigspline.tensor_algebra import feature_count

    def gemm():
        a, b = np.random.default_rng(0).standard_normal((2, PROBE_GEMM_N, PROBE_GEMM_N))
        return f"machine.gemm/n{PROBE_GEMM_N}_float64", lambda: a @ b, {}

    def python_loop():
        return f"machine.python_loop/n{PROBE_LOOP}", _python_loop, {}

    def extend_rows(e, level, rows):
        rng = np.random.default_rng(0)
        sig, inc = rng.normal(size=(rows, feature_count(e, level))), rng.normal(size=(rows, e))
        return f"signature.extend/e{e}_L{level}_M{rows}", lambda: extend(sig, inc, level), {}

    def one_window(d, level, bins, window):
        model = _random_model(d, level, bins, window)
        x = np.random.default_rng(0).random((window + 1, d))
        name = f"model.log_likelihood/d{d}_L{level}_window{window}"
        return name, lambda: log_likelihood(model, x), {}

    def model_file(d, level, bins, window, load):
        model, path = _random_model(d, level, bins, window), tmp / f"model_d{d}.json"
        save_model(model, path)
        call = (lambda: load_model(path)) if load else (lambda: save_model(model, path))
        return f"model.{'load' if load else 'save'}_model/d{d}_L{level}_N{bins}", call, {}

    def score(stacked):
        # perfbench's score stage without its file IO: to_unit, then log_likelihood; the time
        # is per window
        model, windows = _scored_model_and_windows()
        name = (f"model.log_likelihood/{'stacked' if stacked else 'score_loop'}_d{model.d}"
                f"_L{model.level}_N{model.bins}_window{model.window}_M{len(windows)}")
        if stacked:
            return name, lambda: log_likelihood(model, to_unit(model, windows)), {
                "steps": len(windows)}

        def call():
            return sum(log_likelihood(model, to_unit(model, w)) for w in windows)
        return name, call, {"steps": len(windows)}

    def sampler(d, level, bins, window, batch):
        rng = np.random.default_rng(0)
        model, history = _random_model(d, level, bins, window), rng.random((batch, window, d))
        u = rng.random((batch, d))
        name = f"model.sample_step/d{d}_L{level}_N{bins}_window{window}_B{batch}"
        return name, lambda: sample_step(model, history, u), {}

    def stream(d, level, bins, batch, horizon):
        # the time is per step
        model = _random_model(d, level, bins, None)
        history = np.random.default_rng(0).random((batch, 2, d))
        name = f"model.extend_path/d{d}_L{level}_N{bins}_windowNone_B{batch}_horizon{horizon}"
        return name, lambda: extend_path(model, history, horizon, np.random.default_rng(1)), {
            "repeats": EXTEND_PATH_REPEATS, "steps": horizon}

    def featurize(n_lags, map_kind, level, bins, window):
        latent = synthetic.simulate_var2(synthetic.benchmark_var_spec(n_lags, 0))
        windows = calibration.windows_from_series(synthetic.observe(latent, map_kind), window)
        cfg = calibration.TrainConfig(level=level, bins=bins, window=window)
        name = (f"calibration._prepare+design/d{windows.shape[2]}_L{level}_N{bins}"
                f"_window{window}_M{len(windows)}")
        return name, lambda: calibration._prepare(windows, cfg)[1](1), {}

    def newton(n_lags, kind):
        design = _newton_design(n_lags)
        rng = np.random.default_rng(0)
        u = 0.3 * rng.standard_normal((16, design.shape[1]))
        shape = f"M{design.shape[0]}_N16_r{design.shape[1]}"
        if kind == "solve":
            hess = calibration._hessian_from_design(u, design) + 2e-6 * np.eye(u.size)
            rhs = rng.standard_normal(len(hess))
            return f"numpy.linalg.solve/{shape}", lambda: np.linalg.solve(hess, rhs), {}
        if kind == "warm":
            work = calibration._HessianWork(16, *design.shape)  # warmed by the first call
            return (f"calibration._hessian_from_design/{shape}_warm_workspace",
                    lambda: calibration._hessian_from_design(u, design, work), {})
        return (f"calibration._hessian_from_design/{shape}",
                lambda: calibration._hessian_from_design(u, design), {})

    entries = [("machine.gemm", gemm), ("machine.python_loop", python_loop)]
    entries += [("signature.extend", partial(extend_rows, e, level, rows))
                for e, level in EXTEND_SIZES for rows in EXTEND_ROWS]
    for size in LOGLIK_SIZES:
        entries += [("model.log_likelihood", partial(one_window, *size)),
                    ("model.save_model", partial(model_file, *size, False)),
                    ("model.load_model", partial(model_file, *size, True))]
    entries += [("model.log_likelihood", partial(score, False)),
                ("model.log_likelihood", partial(score, True)),
                ("model.sample_step", partial(sampler, *SAMPLE_STEP_SIZE))]
    entries += [("model.extend_path", partial(stream, *EXTEND_PATH_SIZE, horizon))
                for horizon in EXTEND_PATH_HORIZONS]
    entries += [("calibration._prepare+design", partial(featurize, *size))
                for size in FEATURIZE_SIZES]
    for n_lags in NEWTON_LAGS:
        entries += [("calibration._hessian_from_design", partial(newton, n_lags, "cold")),
                    ("calibration._hessian_from_design", partial(newton, n_lags, "warm")),
                    ("numpy.linalg.solve", partial(newton, n_lags, "solve"))]
    return entries


def measure_kernels(only=None) -> dict:
    """Per-call times of the machine probe, the signature kernel, scoring, the sampler, the model
    file IO, the fit's featurize pass and one Newton step's Hessian and solve of whichever
    ``sigspline`` is on ``sys.path``; ``only``, if given, lists the families (name prefixes)
    to measure."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for family, make in kernel_entries(Path(tmp)):
            if only is None or family.startswith(tuple(only)):
                name, call, timing = make()
                out[name] = _per_call_us(call, **timing)
    return out


def record_kernels(repo: Path, only=None) -> dict:
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import record_bench; "
            "print(json.dumps(record_bench.measure_kernels(json.loads(sys.argv[2]))))")
    out = _run([sys.executable, "-c", code, str(Path(__file__).resolve().parent),
                json.dumps(only)], repo, _env(repo))[0]
    return {"unit": "us", **json.loads(out.splitlines()[-1])}


def compare_kernels(rev: str, repo: Path = ROOT, pairs: int = KERNEL_PAIRS, only=None) -> dict:
    """The ``kernel`` block of ``rev`` against that of the ``repo`` checkout, each measured by
    this script in its own subprocess, ``pairs`` times, the two sides alternating which runs
    first. ``rev``'s ``src/`` is extracted with ``git archive`` into a temporary directory.
    Per entry: each side's median, quartiles and per-run medians, and in how many of the pairs
    the change's run read lower ("better in k of n")."""
    git = ["git", "-C", str(repo)]
    commit = _run([*git, "rev-parse", "--verify", f"{rev}^{{commit}}"], repo, os.environ)[0]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run([*git, "archive", "--format=tar", commit.strip(), "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": repo}
        for pair in range(pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                runs[side].append(record_kernels(trees[side], only))
    entries = {}
    for name in runs["parent"][0]:
        if name == "unit":
            continue
        parent, change = ([run[name]["median"] for run in runs[side]] for side in runs)
        entries[name] = {"parent": _spread(parent), "change": _spread(change),
                         "better": sum(c < p for p, c in zip(parent, change)), "of": pairs}
    return {"unit": "us", "parent": {"rev": rev, "commit": commit.strip()},
            "source": _source(repo), "pairs": pairs, "entries": entries}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--parent", metavar="REV",
                        help="also compare the kernel block with this revision's (compare_kernels)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = args.repo.resolve()
    spec = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    record = {"pr": args.pr, "source": _source(repo), "seconds_per_run": seconds,
              "runs": RUNS, "trace_runs": TRACE_RUNS, "src_lines": record_src_lines(repo),
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"measuring {workload}", file=sys.stderr)
        record["workloads"][workload], record["environment"] = record_workload(
            repo, spec["command"], workload, seconds)
    print("timing the kernel block", file=sys.stderr)
    record["kernel"] = record_kernels(repo)
    if args.parent:
        print(f"comparing the kernel block with {args.parent}, {KERNEL_PAIRS} alternating pairs",
              file=sys.stderr)
        record["kernel_vs_parent"] = compare = compare_kernels(args.parent, repo)
        for name, entry in compare["entries"].items():
            print(f"{name}: parent {entry['parent']['median']:.1f} us, change "
                  f"{entry['change']['median']:.1f} us, better in {entry['better']} of "
                  f"{entry['of']}", file=sys.stderr)
    print("timing the tier-1 suite", file=sys.stderr)
    record["tier1"] = record_tier1(repo)
    print("timing the configs/ pipeline", file=sys.stderr)
    record["configs_pipeline"] = record_pipeline(repo)
    out = repo / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
