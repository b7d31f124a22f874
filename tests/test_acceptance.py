"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The universality-trend
criterion fits 30 models on the 4096-step benchmark series and is the slow
one (a few minutes single-threaded).
"""

import math

import numpy as np

from sigspline.calibration import (
    TrainConfig,
    fit,
    gradient,
    hessian,
    multi_seed_fit,
    regularized_loss,
    windows_from_series,
)
from sigspline.cli import main as cli_main
from sigspline.evaluation import (
    acf,
    cross_correlation,
    dataset_statistics,
    evaluate,
    kurtosis,
    self_evaluation,
    skewness,
)
from sigspline.model import conditional_increments, log_likelihood, parameter_count
from sigspline.spline import softmax, spline_cdf, spline_inverse
from sigspline.synthetic import benchmark_var_spec, simulate_var2
from sigspline.tensor_algebra import feature_count
from tests.conftest import random_model, random_unit_sequences
from tests.reference import index_to_word, signature_of_sequence, signature_oracle, tensor_product
from tests.test_calibration import finite_difference_gradient, finite_difference_hessian


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {state}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_signature_correctness():
    rng = np.random.default_rng(101)
    words = [index_to_word(i, 2, 3) for i in range(feature_count(2, 3))]
    worst_oracle = 0.0
    worst_chen = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        x = rng.random((n, 2))
        sig = signature_of_sequence(x, 3)
        for idx, word in enumerate(words):
            err = abs(sig.coeffs[idx] - signature_oracle(x, word, 5000))
            worst_oracle = max(worst_oracle, err)
        split = int(rng.integers(1, n))
        chen = tensor_product(
            signature_of_sequence(x[: split + 1], 3),
            signature_of_sequence(x[split:], 3),
        )
        worst_chen = max(worst_chen, float(np.abs(chen.coeffs - sig.coeffs).max()))
    ok = worst_oracle <= 1e-3 and worst_chen <= 1e-10
    _verdict(1, "signature-correctness", ok,
             f"max oracle err {worst_oracle:.2e}, max Chen err {worst_chen:.2e}")


def test_criterion_2_parameter_count():
    got = [parameter_count(2, level, 64) for level in (1, 2, 3, 4)]
    _verdict(2, "parameter-count", got == [512, 1664, 5120, 15488], f"got {got}")


def test_criterion_3_convexity():
    rng = np.random.default_rng(303)
    worst_gap = -np.inf
    for _ in range(200):
        d = int(rng.integers(1, 3))
        level = int(rng.integers(0, 3))
        bins = int(rng.integers(2, 5))
        data = random_unit_sequences(rng, 5, 3, d)
        a = random_model(rng, d, level, bins, scale=1.2)
        b = random_model(rng, d, level, bins, scale=1.2)
        mid = a.copy()
        for u, v, w in zip(mid.params, a.params, b.params):
            u[:] = 0.5 * (v + w)
        kind = ("none", "l1", "l2")[int(rng.integers(0, 3))]
        lam = float(rng.random())
        gap = regularized_loss(mid, data, lam, kind) - 0.5 * (
            regularized_loss(a, data, lam, kind) + regularized_loss(b, data, lam, kind)
        )
        worst_gap = max(worst_gap, gap)

    min_eig = np.inf
    for _ in range(20):
        d, level = [(2, 1), (1, 2), (2, 2), (1, 3)][int(rng.integers(0, 4))]
        model = random_model(rng, d, level, bins=4)
        data = random_unit_sequences(rng, 6, 3, d)
        i = int(rng.integers(1, d + 1))
        eigs = np.linalg.eigvalsh(hessian(model, data, i))
        min_eig = min(min_eig, float(eigs.min()))
    ok = worst_gap <= 1e-10 and min_eig >= -1e-8
    _verdict(3, "convexity", ok, f"max midpoint gap {worst_gap:.2e}, min eig {min_eig:.2e}")


def test_criterion_4_analytic_derivatives():
    rng = np.random.default_rng(404)
    worst_grad = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        model = random_model(rng, d, level=1, bins=3)
        data = random_unit_sequences(rng, 6, 3, d)
        analytic = gradient(model, data)
        numeric = finite_difference_gradient(model, data)
        for a, n in zip(analytic, numeric):
            rel = np.linalg.norm(a - n) / max(np.linalg.norm(a), 1e-9)
            worst_grad = max(worst_grad, rel)

    worst_hess = 0.0
    for _ in range(3):
        model = random_model(rng, d=1, level=1, bins=2)  # 2 x 3 parameters
        data = random_unit_sequences(rng, 6, 3, 1)
        analytic = hessian(model, data, 1)
        numeric = finite_difference_hessian(model, data, 1)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-9)
        worst_hess = max(worst_hess, rel)
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-4
    _verdict(4, "analytic-derivatives", ok,
             f"grad rel err {worst_grad:.2e}, hess rel err {worst_hess:.2e}")


def test_criterion_5_spline_flow_correctness():
    rng = np.random.default_rng(505)
    worst_rt = 0.0
    for _ in range(10):
        delta = softmax(rng.standard_normal(16))
        x = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        worst_rt = max(worst_rt, np.abs(spline_inverse(spline_cdf(x, delta), delta) - x).max())
        u = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        worst_rt = max(worst_rt, np.abs(spline_cdf(spline_inverse(u, delta), delta) - u).max())

    model = random_model(rng, d=1, level=2, bins=4)
    hist = 0.2 + 0.6 * rng.random((3, 1))
    cells = 4000
    mids = (np.arange(cells) + 0.5) / cells
    integral = float(
        np.mean([math.exp(log_likelihood(model, np.vstack([hist, [[m]]]))) for m in mids])
    )

    delta = conditional_increments(hist, [0.0], 1, model)
    draws = np.sort(spline_inverse(rng.random(100_000), delta))
    cdf = spline_cdf(draws, delta)
    n = draws.size
    ks = max(
        np.abs(np.arange(1, n + 1) / n - cdf).max(),
        np.abs(cdf - np.arange(0, n) / n).max(),
    )
    ok = worst_rt <= 1e-12 and abs(integral - 1.0) <= 1e-10 and ks <= 0.01
    _verdict(5, "spline-flow", ok,
             f"round trip {worst_rt:.2e}, integral err {abs(integral - 1):.2e}, KS {ks:.4f}")


def test_criterion_6_uniform_recovery():
    rng = np.random.default_rng(606)
    draws = rng.random((4096, 2))
    dataset = [draws[j : j + 2] for j in range(4095)]
    cfg = TrainConfig(
        level=1, bins=16, optimizer="newton", reg_kind="l2", reg_lambda=1e-6,
        max_iters=25, rng_seed=0,
    )
    model, _ = fit(dataset, cfg)
    worst = 0.0
    for _ in range(20):
        hist = rng.random((1, 2))
        for i in (1, 2):
            delta = conditional_increments(hist, hist[0], i, model)
            worst = max(worst, float(np.abs(delta - 1.0 / 16).max()))
    _verdict(6, "uniform-recovery", worst <= 0.05, f"sup deviation {worst:.4f}")


def test_criterion_7_universality_trend():
    series = simulate_var2(benchmark_var_spec(n_lags=4096, rng_seed=0))
    dataset = windows_from_series(series, 2)
    levels = (1, 2, 3)
    results = {}
    for level in levels:
        cfg = TrainConfig(
            level=level, bins=16, window=2, optimizer="newton",
            reg_kind="l2", reg_lambda=1e-6, max_iters=40, patience=32,
            train_fraction=0.8, rng_seed=0,
        )
        results[level] = multi_seed_fit(dataset, cfg, n_seeds=10)

    means = {lv: results[lv].summary["test_nll_mean"] for lv in levels}
    errs = {lv: results[lv].summary["test_nll_std"] / math.sqrt(10) for lv in levels}
    trend_ok = all(
        means[b] <= means[a] + math.sqrt(errs[a] ** 2 + errs[b] ** 2)
        for a, b in ((1, 2), (2, 3))
    )

    acf2 = {}
    for level in (1, 3):
        discs = []
        for s, model in enumerate(results[level].models):
            report = evaluate(model, series, horizon=4, batch=512, seeds=1, base_seed=s)
            discs.append(report.statistics["level_acf_lag2"]["discrepancy_mean"])
        acf2[level] = float(np.mean(discs))
    acf_ok = acf2[3] <= acf2[1]

    detail = (
        "nll " + "/".join(f"{means[lv]:.4f}" for lv in levels)
        + f", acf2 disc L1 {acf2[1]:.3f} vs L3 {acf2[3]:.3f}"
    )
    _verdict(7, "universality-trend", trend_ok and acf_ok, detail)


def test_criterion_8_evaluation_harness():
    rng = np.random.default_rng(808)
    data = rng.random((500, 2))
    zero = all(v == 0.0 for v in self_evaluation(data, include_abs_acf=True).discrepancies().values())

    alternating = np.tile([1.0, -1.0], 50)
    unit_cases = (
        abs(acf(alternating, [1])[0] + 1.0) <= 1e-12
        and acf(rng.random(100), [0])[0] == 1.0
        and skewness(np.array([-1.0, 1.0])) == 0.0
        and kurtosis(np.array([-1.0, 1.0])) == 1.0
        and abs(kurtosis(np.random.default_rng(1).standard_normal(100_000)) - 3.0) <= 0.1
    )
    base = rng.standard_normal(2000)
    dup = cross_correlation(np.column_stack([base, base]))[0, 1]
    indep = cross_correlation(np.random.default_rng(2).standard_normal((4096, 2)))[0, 1]
    corr_cases = abs(dup - 1.0) <= 1e-12 and abs(indep) <= 0.05

    keys = set(dataset_statistics(data))
    expected = {
        f"{p}_{s}" for p in ("level", "return")
        for s in ("acf_lag1", "acf_lag2", "skewness", "kurtosis", "cross_correlation")
    }
    ok = zero and unit_cases and corr_cases and keys == expected
    _verdict(8, "evaluation-harness", ok)


def test_criterion_9_end_to_end_reproducibility(tmp_path, monkeypatch):
    def pipeline(workdir):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(["simulate", "--n-lags", "256", "--seed", "3",
                         "--output", "series.csv"]) == 0
        assert cli_main(["fit", "--data", "series.csv", "--level", "1", "--bins", "8",
                         "--window", "2", "--max-iters", "40", "--n-seeds", "2",
                         "--output-model", "model.json",
                         "--output-report", "report.json"]) == 0
        assert cli_main(["sample", "--model", "model.json", "--data", "series.csv",
                         "--batch", "32", "--seed", "5", "--output", "samples.csv"]) == 0
        assert cli_main(["evaluate", "--model", "model.json", "--data", "series.csv",
                         "--batch", "64", "--seeds", "2",
                         "--output-json", "evaluation.json",
                         "--output-table", "evaluation.txt"]) == 0
        names = ["series.csv", "model.json", "report.json", "samples.csv",
                 "evaluation.json", "evaluation.txt"]
        return {name: (workdir / name).read_bytes() for name in names}

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    differing = [n for n in first if first[n] != second[n]]
    _verdict(9, "end-to-end-reproducibility", not differing,
             f"differing artifacts: {differing}" if differing else "6 artifacts identical")
