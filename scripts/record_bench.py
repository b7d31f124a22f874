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
  ``model.log_likelihood``, one ``model.sample_step`` over a batch of
  histories at sample_score_d2's shape (the sampler alone, without the CSV
  and model file IO that perfbench's ``sample_steps_per_s`` includes), one
  ``model.save_model`` and
  ``model.load_model`` of a model file at the workloads' fit shapes, and one
  Newton step's ``calibration._hessian_from_design`` (one-shot, and with a
  warm workspace as the fit calls it) and ``np.linalg.solve`` at the
  row-space shapes of the fit_newton_d2 and ``configs/`` fits, timed in a
  subprocess that imports the measured checkout's ``src/``. Each entry also
  records its minor page faults per call. Two ``machine.*`` entries, a fixed
  float64 GEMM and a fixed pure-Python loop, probe the machine, so that the
  records of two sessions can be normalized before they are compared.

The result is written to ``BENCH_<pr>.json`` at the root of the measured
checkout; pipeline artifacts stay in its ``.bench_runs/``. To compare two
commits, run this script on each checkout, one after the other:

    python3 scripts/record_bench.py --pr 6
    python3 scripts/record_bench.py --pr 5 --repo ../parent-checkout

The ``kernel`` block imports private names of ``sigspline.calibration``; a
checkout that lacks one is measured with its own copy of this script.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
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
NEWTON_LAGS = (1024, 4096)  # VAR(2) series of fit_newton_d2 and configs/: d=2, L=3, N=16, window 2
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


def _per_call_us(fn) -> dict:
    """Median and quartiles over KERNEL_REPEATS repeats of the time of one call, in us, and the
    minor page faults per call over all repeats."""
    fn()  # warm-up
    start = time.perf_counter()
    fn()
    number = max(1, int(KERNEL_REPEAT_S / max(time.perf_counter() - start, 1e-9)))
    times, faults = [], _minor_faults()
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number * 1e6)
    faults = (_minor_faults() - faults) / (KERNEL_REPEATS * number)
    return {**_spread(times), "calls_per_repeat": number, "minflt_per_call": faults}


def _python_loop() -> int:
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return total


def _newton_design(n_lags: int) -> np.ndarray:
    """Coordinate 1's training design in its row-space basis, as Newton sees it, for the
    configs/ VAR(2) series of ``n_lags`` lags fitted at d=2, L=3, N=16, window 2."""
    from sigspline import calibration, synthetic

    series = synthetic.simulate_var2(synthetic.benchmark_var_spec(n_lags, 0))
    cfg = calibration.TrainConfig(level=3, bins=16, window=2)
    feats = calibration._prepare(calibration.windows_from_series(series, 2), cfg)[1][0][0]
    train, _ = calibration._split_indices(len(feats), cfg.train_fraction,
                                          np.random.default_rng(0))
    return feats[train] @ calibration._row_space_basis(feats)


def measure_kernels() -> dict:
    """Per-call times of the machine probe, the signature kernel, the model file IO and one
    Newton step's Hessian and solve of whichever ``sigspline`` is on ``sys.path``."""
    from sigspline.calibration import _hessian_from_design, _HessianWork
    from sigspline.model import SigSplineModel, load_model, log_likelihood, sample_step, save_model
    from sigspline.signature import extend
    from sigspline.tensor_algebra import feature_count

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, PROBE_GEMM_N, PROBE_GEMM_N))
    out = {f"machine.gemm/n{PROBE_GEMM_N}_float64": _per_call_us(lambda: a @ b),
           f"machine.python_loop/n{PROBE_LOOP}": _per_call_us(_python_loop)}
    for e, level in EXTEND_SIZES:
        for rows in EXTEND_ROWS:
            sig = rng.normal(size=(rows, feature_count(e, level)))
            inc = rng.normal(size=(rows, e))
            out[f"signature.extend/e{e}_L{level}_M{rows}"] = _per_call_us(
                lambda: extend(sig, inc, level))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        for d, level, bins, window in LOGLIK_SIZES:
            k = feature_count(1 + d, level)
            model = SigSplineModel(d, level, bins,
                                   [rng.normal(size=(bins, k)) for _ in range(d)], window)
            x = rng.random((window + 1, d))
            out[f"model.log_likelihood/d{d}_L{level}_window{window}"] = _per_call_us(
                lambda: log_likelihood(model, x))
            shape = f"d{d}_L{level}_N{bins}"
            out[f"model.save_model/{shape}"] = _per_call_us(lambda: save_model(model, path))
            out[f"model.load_model/{shape}"] = _per_call_us(lambda: load_model(path))
    d, level, bins, window, batch = SAMPLE_STEP_SIZE
    model = SigSplineModel(d, level, bins,
                           [rng.normal(size=(bins, feature_count(1 + d, level))) for _ in range(d)],
                           window)
    history, u = rng.random((batch, window, d)), rng.random((batch, d))
    out[f"model.sample_step/d{d}_L{level}_N{bins}_window{window}_B{batch}"] = _per_call_us(
        lambda: sample_step(model, history, u))
    for n_lags in NEWTON_LAGS:
        design = _newton_design(n_lags)
        u = 0.3 * rng.standard_normal((16, design.shape[1]))
        hess = _hessian_from_design(u, design) + 2e-6 * np.eye(16 * design.shape[1])
        rhs = rng.standard_normal(len(hess))
        shape = f"M{design.shape[0]}_N16_r{design.shape[1]}"
        out[f"calibration._hessian_from_design/{shape}"] = _per_call_us(
            lambda: _hessian_from_design(u, design))
        work = _HessianWork(16, *design.shape)  # warmed by the first call, as in a fit
        out[f"calibration._hessian_from_design/{shape}_warm_workspace"] = _per_call_us(
            lambda: _hessian_from_design(u, design, work))
        out[f"numpy.linalg.solve/{shape}"] = _per_call_us(lambda: np.linalg.solve(hess, rhs))
    return out


def record_kernels(repo: Path) -> dict:
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import record_bench; "
            "print(json.dumps(record_bench.measure_kernels()))")
    out = _run([sys.executable, "-c", code, str(Path(__file__).resolve().parent)], repo,
               _env(repo))[0]
    return {"unit": "us", **json.loads(out.splitlines()[-1])}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
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
    print("timing the signature kernel, model IO and Newton step", file=sys.stderr)
    record["kernel"] = record_kernels(repo)
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
