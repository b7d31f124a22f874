import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from sigspline.calibration import (
    DivergenceError,
    TrainConfig,
    _designs,
    _fit_coordinate,
    _penalty,
    _penalty_grad,
    _prepare,
    _row_space_basis,
    _split_indices,
    build_design,
    fit,
    gradient,
    hessian,
    loss,
    multi_seed_fit,
    regularized_loss,
    windows_from_series,
)
from sigspline.model import SigSplineModel, conditional_increments, zero_model
from sigspline.spline import softmax
from sigspline.synthetic import benchmark_var_spec, simulate_var2
from sigspline.tensor_algebra import feature_count
from tests.conftest import random_model, random_unit_sequences


def finite_difference_gradient(model, dataset, h=1e-5):
    """Central-difference oracle for the analytic gradient."""
    grads = []
    for i in range(model.d):
        u = model.params[i]
        g = np.zeros_like(u)
        for idx in np.ndindex(*u.shape):
            orig = u[idx]
            u[idx] = orig + h
            up = loss(model, dataset)
            u[idx] = orig - h
            down = loss(model, dataset)
            u[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def finite_difference_hessian(model, dataset, i, h=1e-5):
    """Central differences of the analytic gradient, row per flat parameter."""
    u = model.params[i - 1]
    out = np.zeros((u.size, u.size))
    for a in range(u.size):
        idx = np.unravel_index(a, u.shape)
        orig = u[idx]
        u[idx] = orig + h
        plus = gradient(model, dataset)[i - 1].ravel()
        u[idx] = orig - h
        minus = gradient(model, dataset)[i - 1].ravel()
        u[idx] = orig
        out[a] = (plus - minus) / (2 * h)
    return out


def newton_to_optimum(model, dataset, reg_lambda, iters=50, tol=1e-9):
    """Drive the L2-regularized objective to its minimizer with full Newton
    steps built from the public gradient/hessian; returns (model, grad norms)."""
    m = model.copy()
    norms = []
    for _ in range(iters):
        grads = gradient(m, dataset)
        total = 0.0
        for i in range(1, m.d + 1):
            g = grads[i - 1] + 2.0 * reg_lambda * m.params[i - 1]
            total += float((g**2).sum())
            hess = hessian(m, dataset, i)
            hess[np.diag_indices_from(hess)] += 2.0 * reg_lambda
            step = np.linalg.solve(hess, g.ravel())
            m.params[i - 1] -= step.reshape(m.params[i - 1].shape)
        norms.append(math.sqrt(total))
        if norms[-1] < tol:
            break
    return m, norms


class TestLoss:
    def test_zero_parameters_give_log_bins(self, rng):
        data = random_unit_sequences(rng, 5, 3, 2)
        assert loss(zero_model(2, 1, 16), data) == pytest.approx(2 * math.log(16), abs=1e-12)

    def test_single_sample_known_increments(self):
        # empty-word column only: increments (0.25, 0.75) whatever the history
        params = [np.array([[0.0, 0.0, 0.0], [math.log(3), 0.0, 0.0]])]
        model = SigSplineModel(d=1, level=1, bins=2, params=params)
        data = [np.array([[0.1], [0.6]])]  # observation 0.6 lands in bin 2
        assert loss(model, data) == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_gradient_step_decreases_loss(self, rng):
        data = random_unit_sequences(rng, 12, 3, 2)
        model = random_model(rng, d=2, level=1, bins=4)
        before = loss(model, data)
        for u, g in zip(model.params, gradient(model, data)):
            u -= 0.05 * g
        assert loss(model, data) < before

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            loss(zero_model(1, 1, 2), [])


class TestGradient:
    def test_trivial_instance(self):
        # one sample, level 0 (single constant feature), two bins, zero params
        model = zero_model(1, 0, 2)
        data = [np.array([[0.3], [0.4]])]  # target 0.4 -> bin 1
        (g,) = gradient(model, data)
        assert np.allclose(g, [[-0.5], [0.5]], atol=1e-15)

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            d = int(rng.integers(1, 3))
            model = random_model(rng, d=d, level=1, bins=3)
            data = random_unit_sequences(rng, 6, 3, d)
            analytic = gradient(model, data)
            numeric = finite_difference_gradient(model, data)
            for a, n in zip(analytic, numeric):
                assert np.linalg.norm(a - n) <= 1e-6 * max(np.linalg.norm(a), 1e-3)

    def test_small_at_newton_optimum(self, rng):
        model = random_model(rng, d=1, level=1, bins=3, scale=0.1)
        data = random_unit_sequences(rng, 20, 3, 1)
        opt, _ = newton_to_optimum(model, data, reg_lambda=0.05)
        g = gradient(opt, data)[0] + 2 * 0.05 * opt.params[0]
        assert np.linalg.norm(g) <= 1e-6


class TestHessian:
    def test_trivial_instance(self):
        model = zero_model(1, 0, 2)
        data = [np.array([[0.3], [0.4]])]
        h = hessian(model, data, 1)
        assert np.allclose(h, 0.25 * np.array([[1, -1], [-1, 1]]), atol=1e-15)

    def test_symmetric_and_psd(self, rng):
        for _ in range(5):
            model = random_model(rng, d=1, level=1, bins=4)
            data = random_unit_sequences(rng, 8, 3, 1)
            h = hessian(model, data, 1)
            assert np.allclose(h, h.T, atol=1e-12)
            assert np.linalg.eigvalsh(h).min() >= -1e-8

    def test_matches_finite_differences(self, rng):
        model = random_model(rng, d=1, level=1, bins=2)  # 2 x 3 parameters
        data = random_unit_sequences(rng, 6, 3, 1)
        analytic = hessian(model, data, 1)
        numeric = finite_difference_hessian(model, data, 1)
        assert np.linalg.norm(analytic - numeric) <= 1e-4 * max(np.linalg.norm(analytic), 1e-3)

    def test_matches_kronecker_definition_across_chunks(self, rng):
        # 1100 windows cross two 512-row chunk boundaries and leave a short last chunk
        model = random_model(rng, d=2, level=1, bins=4)  # N = 4 bins, K = 4 features
        data = random_unit_sequences(rng, 1100, 3, 2)
        feats, _ = build_design(data, 2, level=1, bins=4)
        expected = np.zeros((16, 16))
        for y in feats:
            p = softmax(model.params[1] @ y)
            expected += np.kron(np.diag(p) - np.outer(p, p), np.outer(y, y))
        expected /= len(feats)
        h = hessian(model, data, 2)
        assert np.linalg.norm(h - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_size_guard(self, rng):
        model = zero_model(2, 4, 128)  # 128 * 121 > 10^4
        with pytest.raises(ValueError):
            hessian(model, random_unit_sequences(rng, 3, 3, 2), 1)

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_coordinate_outside_the_model_is_rejected(self, i, rng):
        model = random_model(rng, d=2, level=1, bins=3)
        with pytest.raises(ValueError, match=f"coordinate {i} outside \\[1..2\\]"):
            hessian(model, random_unit_sequences(rng, 3, 3, 2), i)


class TestRegularizedLoss:
    def test_lambda_zero_reduces_to_loss(self, rng):
        model = random_model(rng, d=2, level=1, bins=3)
        data = random_unit_sequences(rng, 5, 3, 2)
        assert regularized_loss(model, data, 0.0, "l2") == loss(model, data)

    def test_penalties_vanish_at_zero(self, rng):
        data = random_unit_sequences(rng, 5, 3, 2)
        base = loss(zero_model(2, 1, 4), data)
        for kind in ("none", "l1", "l2"):
            assert regularized_loss(zero_model(2, 1, 4), data, 3.0, kind) == base

    @pytest.mark.parametrize("kind", ["none", "l1", "l2"])
    def test_midpoint_convexity(self, kind, rng):
        for _ in range(20):
            d = int(rng.integers(1, 3))
            data = random_unit_sequences(rng, 6, 3, d)
            a = random_model(rng, d=d, level=1, bins=3, scale=1.5)
            b = random_model(rng, d=d, level=1, bins=3, scale=1.5)
            mid = a.copy()
            for u, v, w in zip(mid.params, a.params, b.params):
                u[:] = 0.5 * (v + w)
            lam = 0.3
            half = 0.5 * (
                regularized_loss(a, data, lam, kind) + regularized_loss(b, data, lam, kind)
            )
            assert regularized_loss(mid, data, lam, kind) <= half + 1e-10


class TestFit:
    def test_uniform_data_recovers_uniform_increments(self, rng):
        draws = rng.random((2000, 2))
        dataset = [draws[j : j + 2] for j in range(len(draws) - 1)]
        cfg = TrainConfig(level=1, bins=8, learning_rate=0.25, max_iters=200, rng_seed=4)
        model, _ = fit(dataset, cfg)
        for _ in range(10):
            hist = rng.random((1, 2))
            for i in (1, 2):
                delta = conditional_increments(hist, hist[0], i, model)
                assert np.abs(delta - 1.0 / 8).max() <= 0.05

    def test_deterministic_across_runs(self, rng):
        data = random_unit_sequences(rng, 40, 3, 2)
        cfg = TrainConfig(level=1, bins=4, max_iters=60, rng_seed=9)
        m1, r1 = fit(data, cfg)
        m2, r2 = fit(data, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(m1.params, m2.params))
        assert r1.train_nll == r2.train_nll and r1.test_nll == r2.test_nll

    def test_report_shape(self, rng):
        data = random_unit_sequences(rng, 30, 3, 2)
        cfg = TrainConfig(level=1, bins=4, max_iters=50, rng_seed=2)
        model, report = fit(data, cfg)
        assert len(report.train_nll) == 2 and len(report.test_nll) == 2
        assert all(len(t) >= 1 for t in report.train_nll)
        assert all(s <= cfg.max_iters for s in report.stopped_iteration)
        assert report.n_train + report.n_test == 30
        assert model.scale_min is not None and model.window is None

    def test_early_stopping_restores_best(self, rng):
        data = random_unit_sequences(rng, 40, 3, 1)
        cfg = TrainConfig(level=1, bins=4, max_iters=400, patience=5, rng_seed=7)
        _, report = fit(data, cfg)
        for trace, stop in zip(report.test_nll, report.stopped_iteration):
            assert report.final_test_nll <= sum(min(t) for t in report.test_nll) + 1e-12
            assert stop <= 400

    def test_newton_optimizer_runs(self, rng):
        data = random_unit_sequences(rng, 30, 3, 1)
        cfg = TrainConfig(
            level=1, bins=3, optimizer="newton", reg_kind="l2", reg_lambda=0.01,
            max_iters=30, rng_seed=5,
        )
        model, report = fit(data, cfg)
        assert report.final_train_nll <= math.log(3) + 1e-9  # no worse than uniform

    def test_persistent_divergence_raises(self):
        # features this large overflow the logits no matter how often the
        # step is halved, so the 5-restart guard must give up with an error
        feats = np.full((10, 2), 1e300)
        feats[:, 0] = 1.0
        cbin = np.zeros(10, dtype=int)
        cfg = TrainConfig(level=1, bins=4, learning_rate=0.1, max_iters=50, rng_seed=1)
        with pytest.raises(DivergenceError, match="iteration"):
            _fit_coordinate(feats, cbin, np.arange(8), np.arange(8, 10), cfg)

    def test_huge_learning_rate_recovers_by_halving(self, rng):
        data = random_unit_sequences(rng, 20, 3, 1)
        cfg = TrainConfig(level=1, bins=4, learning_rate=1e308, max_iters=60, rng_seed=1)
        _, report = fit(data, cfg)
        assert np.isfinite(report.final_test_nll)

    def test_newton_refuses_an_oversized_hessian(self, rng):
        # d=2, L=4, N=128: 128 * 121 = 15488 unknowns, a 1.9 GB dense Hessian
        data = random_unit_sequences(rng, 8, 3, 2)
        cfg = TrainConfig(level=4, bins=128, optimizer="newton", max_iters=3)
        with pytest.raises(ValueError, match="15488.*gradient_descent"):
            fit(data, cfg)

    def test_window_truncates_conditioning(self, rng):
        data = random_unit_sequences(rng, 25, 5, 2)
        cfg = TrainConfig(level=1, bins=4, window=2, max_iters=20, rng_seed=3)
        model, _ = fit(data, cfg)
        assert model.window == 2

    def test_l2_path_is_monotone_in_lambda(self, rng):
        data = random_unit_sequences(rng, 25, 3, 1)
        start = random_model(rng, d=1, level=1, bins=3, scale=0.2)
        norms = []
        for lam in (0.01, 0.02, 0.04):
            opt, _ = newton_to_optimum(start, data, reg_lambda=lam)
            norms.append(math.sqrt(sum(float((u**2).sum()) for u in opt.params)))
        assert norms[1] <= norms[0] + 1e-9
        assert norms[2] <= norms[1] + 1e-9

    def test_coordinates_fit_independently(self, rng):
        data = random_unit_sequences(rng, 30, 3, 2)
        cfg = TrainConfig(level=1, bins=4, max_iters=40, rng_seed=6)
        model, _ = fit(data, cfg)
        _, design = _prepare(data, cfg)
        split_rng = np.random.default_rng(cfg.rng_seed)
        train_idx, test_idx = _split_indices(len(data), cfg.train_fraction, split_rng)
        for i in (1, 2):
            feats, cbin = design(i)
            u, _, _, _ = _fit_coordinate(feats, cbin, train_idx, test_idx, cfg)
            assert np.array_equal(u, model.params[i - 1])


class TestOptimizerSanity:
    def test_newton_gradient_norm_within_fifty_iterations(self, rng):
        model = zero_model(1, 1, 4)
        data = random_unit_sequences(rng, 50, 3, 1)
        _, norms = newton_to_optimum(model, data, reg_lambda=0.02, iters=50, tol=1e-8)
        assert len(norms) <= 50 and norms[-1] < 1e-8


class TestMultiSeedFit:
    def test_single_seed_reduces_to_fit(self, rng):
        data = random_unit_sequences(rng, 30, 3, 1)
        cfg = TrainConfig(level=1, bins=4, max_iters=40, rng_seed=12)
        result = multi_seed_fit(data, cfg, n_seeds=1)
        direct, _ = fit(data, cfg)
        assert np.array_equal(result.models[0].params[0], direct.params[0])
        assert result.summary["test_nll_std"] == 0.0

    def test_mean_lies_between_extremes(self, rng):
        data = random_unit_sequences(rng, 40, 3, 1)
        cfg = TrainConfig(level=1, bins=4, max_iters=40, rng_seed=0)
        result = multi_seed_fit(data, cfg, n_seeds=4)
        finals = [r.final_test_nll for r in result.reports]
        assert min(finals) <= result.summary["test_nll_mean"] <= max(finals)
        assert result.best_index == int(np.argmin(finals))

    def test_default_seed_count_is_ten(self):
        assert inspect.signature(multi_seed_fit).parameters["n_seeds"].default == 10

    def test_seeds_are_distinct(self, rng):
        data = random_unit_sequences(rng, 30, 3, 1)
        cfg = TrainConfig(level=1, bins=4, max_iters=30, rng_seed=100)
        result = multi_seed_fit(data, cfg, n_seeds=3)
        assert [r.seed for r in result.reports] == [100, 101, 102]

    def test_newton_seeds_share_each_coordinates_basis_and_workspace(self, rng, monkeypatch):
        # a seed changes only the split: one row-space SVD and one Hessian workspace per
        # coordinate serve all 3 seeds, and every seed's fit is bitwise its one-seed fit
        from sigspline import calibration

        data = random_unit_sequences(rng, 60, 3, 2)
        cfg = TrainConfig(level=2, bins=4, window=2, optimizer="newton", reg_kind="l2",
                          reg_lambda=1e-6, max_iters=6, rng_seed=3)
        alone = [fit(data, replace(cfg, rng_seed=cfg.rng_seed + s)) for s in range(3)]
        real_basis, bases, works = calibration._row_space_basis, [], []

        def counting_basis(feats):
            bases.append(feats.shape)
            return real_basis(feats)

        class CountingWork(calibration._HessianWork):
            def __init__(self, *shape):
                works.append(shape)
                super().__init__(*shape)

        monkeypatch.setattr(calibration, "_row_space_basis", counting_basis)
        monkeypatch.setattr(calibration, "_HessianWork", CountingWork)
        result = multi_seed_fit(data, cfg, n_seeds=3)
        assert len(bases) == 2 and len(works) == 2
        assert all(n_train == result.reports[0].n_train for _, n_train, _ in works)
        for (model, report), got_model, got_report in zip(alone, result.models, result.reports):
            assert got_model.params.tobytes() == model.params.tobytes()
            assert got_report == report
            assert min(got_report.stopped_iteration) > 2  # several steps on one workspace

    def test_a_list_dataset_is_read_and_checked_once(self, rng, monkeypatch):
        # the rescale range and the designs come from one pass: one as_sequence call per sequence
        from sigspline import calibration

        calls, as_sequence = [], calibration.as_sequence

        def counting(x):
            calls.append(1)
            return as_sequence(x)

        monkeypatch.setattr(calibration, "as_sequence", counting)
        data = random_unit_sequences(rng, 20, 3, 2) + random_unit_sequences(rng, 20, 4, 2)
        multi_seed_fit(data, TrainConfig(level=2, bins=4, window=2, max_iters=3), n_seeds=2)
        assert len(calls) == 40

    def test_fit_holds_a_few_designs_not_all_of_them(self):
        # 1024 lags of the d=8 map at L=3: one (M, K) design is 1021 x 820 float64 = 6.7 MB; the
        # fit keeps the window prefixes and one coordinate's design with its train/test rows
        import tracemalloc

        from sigspline import synthetic

        latent = synthetic.simulate_var2(synthetic.benchmark_var_spec(1024, 0))
        windows = windows_from_series(synthetic.observe(latent, "fixed_nonlinear"), 3)
        cfg = TrainConfig(level=3, bins=16, window=3, max_iters=2)
        design = 8 * len(windows) * feature_count(9, 3)
        tracemalloc.start()
        try:
            fit(windows, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * design

    def test_oversized_newton_fit_is_refused_before_any_featurizing(self, rng, monkeypatch):
        # d=2, L=4, N=128: the guard knows N and K before a single design row is built
        from sigspline import calibration

        def unreachable(*args, **kwargs):
            raise AssertionError("featurizer reached")

        monkeypatch.setattr(calibration, "_featurize", unreachable)
        data = random_unit_sequences(rng, 8, 3, 2)
        cfg = TrainConfig(level=4, bins=128, optimizer="newton", max_iters=3)
        with pytest.raises(ValueError, match="15488.*gradient_descent"):
            multi_seed_fit(data, cfg, n_seeds=2)
        with pytest.raises(AssertionError, match="featurizer reached"):  # no Hessian, no guard
            fit(data, replace(cfg, optimizer="gradient_descent"))


class TestTrainConfig:
    def test_default_patience_is_32(self):
        assert TrainConfig().patience == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(reg_lambda=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(train_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(reg_kind="l3")
        with pytest.raises(ValueError):
            TrainConfig(optimizer="newton", reg_kind="l1")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rates_and_weights_rejected(self, value):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainConfig(learning_rate=value)
        with pytest.raises(ValueError, match="reg_lambda must be finite and >= 0"):
            TrainConfig(reg_kind="l2", reg_lambda=value)


def test_loss_matches_log_likelihood_up_to_constant(rng):
    # loss drops the d*ln(N) uniform-density constant that log_likelihood carries
    from sigspline.model import log_likelihood

    model = random_model(rng, d=2, level=1, bins=4)
    data = random_unit_sequences(rng, 3, 3, 2)
    expected = float(np.mean([2 * math.log(4) - log_likelihood(model, x) for x in data]))
    assert loss(model, data) == pytest.approx(expected, abs=1e-12)


def test_design_uses_masked_signatures(rng):
    data = random_unit_sequences(rng, 4, 3, 2)
    feats, cbin = build_design(data, 1, level=1, bins=4)
    assert feats.shape == (4, 4) and np.all(feats[:, 0] == 1.0)
    assert cbin.min() >= 0 and cbin.max() < 4


def test_one_coordinate_design_extends_one_masked_row_per_window(rng, monkeypatch):
    from sigspline import calibration

    rows, extend = [], calibration.extend

    def counting(sig, increments, level):
        rows.append(np.prod(np.shape(increments)[:-1]))
        return extend(sig, increments, level)

    monkeypatch.setattr(calibration, "extend", counting)
    data = random_unit_sequences(rng, 7, 4, 3)
    build_design(data, 2, level=2, bins=4, window=2)
    assert sum(rows) == 7
    rows.clear()
    build_design(data, range(1, 4), level=2, bins=4, window=2)
    assert sum(rows) == 3 * 7


def test_fit_designs_are_its_models_designs(rng):
    # raw data off [0,1]: the fit rescales through to_unit, whose clamp never fires on it
    data = [3.0 * x - 1.0 for x in random_unit_sequences(rng, 30, 4, 2)]
    cfg = TrainConfig(level=2, bins=4, window=2, max_iters=5)
    scaled, design = _prepare(data, cfg)
    model, _ = fit(data, cfg)
    lo, hi = np.min(data, axis=(0, 1)), np.max(data, axis=(0, 1))
    assert model.scale_min.tobytes() == lo.tobytes() and model.scale_max.tobytes() == hi.tobytes()
    assert np.array_equal(scaled.params, np.zeros_like(model.params))
    unit = [(x - lo) / (hi - lo) for x in data]  # the rescale written out
    for i in (1, 2):
        feats, cbin = design(i)
        for want_feats, want_cbin in (_designs(model, data)(i), build_design(unit, i, 2, 4, 2)):
            assert feats.tobytes() == want_feats.tobytes()
            assert cbin.tobytes() == want_cbin.tobytes()




def test_newton_divergence_recovery_halves_the_newton_step(rng, monkeypatch):
    # the objective reads as overflowed beyond a radius that the first full
    # Newton step crosses and the halved step does not; recovery must retry
    # that step halved and must not record the restored iterate again
    from sigspline import calibration

    feats, cbin = build_design(random_unit_sequences(rng, 30, 3, 1), 1, level=1, bins=3)
    train, test = np.arange(24), np.arange(24, 30)
    cfg = TrainConfig(level=1, bins=3, optimizer="newton", reg_kind="l2", reg_lambda=0.01,
                      max_iters=2)
    real_nll = calibration._nll_and_grad
    radius, visited = np.inf, []  # visited: iterates whose training objective is evaluated

    def nll_and_grad(u, f, c, want_grad=True):
        if want_grad:
            visited.append(u.copy())
        nll, grad = real_nll(u, f, c, want_grad)
        return (nll if np.linalg.norm(u) < radius else np.inf), grad

    monkeypatch.setattr(calibration, "_nll_and_grad", nll_and_grad)
    newton = newton_state(feats, cfg.bins, len(train))
    _fit_coordinate(feats, cbin, train, test, cfg, newton)
    full_step = visited[1]
    radius = 0.75 * np.linalg.norm(full_step)
    visited.clear()
    _, train_trace, test_trace, stop = _fit_coordinate(feats, cbin, train, test, cfg, newton)
    assert not np.any(visited[0]) and np.array_equal(visited[1], full_step)
    assert np.array_equal(visited[2], 0.5 * full_step)  # not the identical step again
    assert stop == 2 and len(test_trace) == 2
    assert train_trace == [real_nll(u, feats[train], cbin[train], False)[0]
                           for u in (visited[0], visited[2])]


def test_gradient_descent_backtracks_instead_of_raising_the_objective(rng):
    # at lr 5 most full gradient steps on this data raise the training NLL
    # (15 and 18 of 29 without backtracking); the line search must refuse them
    data = random_unit_sequences(rng, 40, 3, 2)
    _, report = fit(data, TrainConfig(level=2, bins=4, learning_rate=5.0, max_iters=30))
    assert report.stopped_iteration == [30, 30]
    for trace in report.train_nll:
        assert np.all(np.diff(trace) <= 0.0)


@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_penalty_gradient_matches_finite_differences(kind, rng):
    # entries of magnitude 0.5..1.5 keep each central difference off the l1 kink at 0
    u = rng.choice([-1.0, 1.0], size=(3, 5)) * (0.5 + rng.random((3, 5)))
    lam, h, numeric = 0.3, 1e-6, np.zeros_like(u)
    for idx in np.ndindex(*u.shape):
        step = np.zeros_like(u)
        step[idx] = h
        numeric[idx] = (_penalty(u + step, kind, lam) - _penalty(u - step, kind, lam)) / (2 * h)
    np.testing.assert_allclose(_penalty_grad(u, kind, lam), numeric, rtol=1e-6, atol=1e-9)


def test_l1_subgradient_is_zero_at_zero_entries(rng):
    u = rng.standard_normal((3, 5))
    u[:, ::2] = 0.0
    grad = _penalty_grad(u, "l1", 0.3)
    assert np.all(grad[:, ::2] == 0.0) and np.all(np.abs(grad[:, 1::2]) == 0.3)


def test_l1_gradient_descent_fit_is_deterministic_and_never_worse_than_zero(rng):
    # the line search accepts a step only if it keeps the training objective, NLL plus
    # penalty, at or below the current one, which starts at the zero model's d * ln N
    data = np.array(random_unit_sequences(rng, 30, 3, 2))
    cfg = TrainConfig(level=1, bins=4, reg_kind="l1", reg_lambda=0.01, max_iters=6, rng_seed=3)
    (model, report), (again, again_report) = fit(data, cfg), fit(data, cfg)
    assert np.array_equal(model.params, again.params) and report == again_report
    assert np.any(model.params != 0.0)
    train, _ = _split_indices(len(data), cfg.train_fraction, np.random.default_rng(cfg.rng_seed))
    assert regularized_loss(model, data[train], cfg.reg_lambda, "l1") <= 2 * math.log(4) + 1e-12


def test_line_search_exhausted_on_finite_trials_stops_at_the_best_iterate(rng):
    # at lr 100 every trial within MAX_RESTARTS halvings raises the objective
    # or overflows, and not every one overflows: the fit stops early, without
    # raising, and keeps its best validation iterate
    data = random_unit_sequences(rng, 40, 3, 2)
    cfg = TrainConfig(level=2, bins=4, learning_rate=100.0, max_iters=30)
    model, report = fit(data, cfg)
    assert all(stop < cfg.max_iters for stop in report.stopped_iteration)
    assert report.final_test_nll == sum(min(trace) for trace in report.test_nll)
    assert all(np.isfinite(u).all() for u in model.params)


def test_newton_builds_no_hessian_after_its_last_iterate(rng, monkeypatch):
    # max_iters iterates are max_iters - 1 steps: one Hessian build and solve each
    from sigspline import calibration

    real_hessian, calls = calibration._hessian_from_design, []

    def counting_hessian(u, feats, work):
        calls.append(len(u))
        return real_hessian(u, feats, work)

    monkeypatch.setattr(calibration, "_hessian_from_design", counting_hessian)
    data = random_unit_sequences(rng, 60, 3, 2)
    cfg = TrainConfig(level=2, bins=8, optimizer="newton", reg_kind="l2", reg_lambda=1e-6,
                      max_iters=8)
    _, report = fit(data, cfg)
    assert report.stopped_iteration == [8, 8]
    assert len(calls) == 2 * 7


def test_newton_takes_the_least_squares_step_when_the_solve_fails(monkeypatch):
    # the regularized Hessian is definite, so the least-squares step is the solve's step; on VAR
    # data the best held-out iterate is not the zero start, so the parameters are compared too
    data = windows_from_series(simulate_var2(benchmark_var_spec(300, 0)), 2)
    cfg = TrainConfig(level=2, bins=8, optimizer="newton", reg_kind="l2", reg_lambda=1e-6,
                      max_iters=8)
    model, report = fit(data, cfg)
    real_lstsq, fallbacks = np.linalg.lstsq, []

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    def counting_lstsq(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    fallen_back, fallback_report = fit(data, cfg)
    assert np.abs(model.params).max() > 1.0
    assert len(fallbacks) == sum(stop - 1 for stop in report.stopped_iteration) > 0
    assert fallback_report.stopped_iteration == report.stopped_iteration
    for traces in ("train_nll", "test_nll"):
        for want, got in zip(getattr(report, traces), getattr(fallback_report, traces)):
            assert np.abs(np.subtract(got, want)).max() <= 1e-10
    assert np.abs(fallen_back.params - model.params).max() <= 1e-9


def newton_state(feats, bins, n_train):
    """A coordinate's Newton state as multi_seed_fit makes it: the row-space basis of its
    design and one Hessian workspace for n_train rows."""
    from sigspline import calibration

    basis = _row_space_basis(feats)
    return basis, calibration._HessianWork(bins, n_train, basis.shape[1])


def first_newton_step(feats, cbin, train, test, cfg):
    """The step that _fit_coordinate takes from zero: minus its second iterate
    (the full step, rate 1); cfg.max_iters must be at least 2."""
    from sigspline import calibration

    real_nll, visited = calibration._nll_and_grad, []

    def nll_and_grad(u, f, c, want_grad=True):
        if want_grad:
            visited.append(u.copy())
        return real_nll(u, f, c, want_grad)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibration, "_nll_and_grad", nll_and_grad)
        _fit_coordinate(feats, cbin, train, test, cfg, newton_state(feats, cfg.bins, len(train)))
    return -visited[1]


def test_designs_have_their_structural_rank(rng):
    # the time channel makes S(1) = 1, so by the shuffle identity the levels
    # below L are combinations of level L: rank <= e^L with e = 1 + d
    data = random_unit_sequences(rng, 60, 3, 2)
    for level, ranks in ((1, (3, 3)), (2, (9, 9)), (3, (23, 26))):
        for i, rank in zip((1, 2), ranks):
            feats, _ = build_design(data, i, level, 4, window=2)
            basis = _row_space_basis(feats)
            assert basis.shape == (feature_count(3, level), rank) and rank <= 3**level
            assert np.abs(basis.T @ basis - np.eye(rank)).max() <= 1e-12
            assert np.abs(feats - feats @ basis @ basis.T).max() <= 1e-12 * np.abs(feats).max()


@pytest.mark.parametrize("level", [2, 3])
def test_row_space_newton_step_equals_the_full_solve(level, rng):
    data = random_unit_sequences(rng, 60, 3, 2)
    train, test = np.arange(48), np.arange(48, 60)
    lam = 0.01
    cfg = TrainConfig(level=level, bins=4, window=2, optimizer="newton", reg_kind="l2",
                      reg_lambda=lam, max_iters=2)
    model, seen = zero_model(2, level, 4, window=2), [data[j] for j in train]
    for i in (1, 2):
        feats, cbin = build_design(data, i, level, 4, window=2)
        hess = hessian(model, seen, i) + 2.0 * lam * np.eye(4 * feats.shape[1])
        full = np.linalg.solve(hess, gradient(model, seen)[i - 1].ravel()).reshape(4, -1)
        step = first_newton_step(feats, cbin, train, test, cfg)
        assert np.abs(step - full).max() <= 1e-10


def test_unregularized_newton_takes_the_minimum_norm_step(rng):
    # the Hessian is singular along every all-bins shift and every direction
    # outside the design's row space; the step is the least-squares one
    data = random_unit_sequences(rng, 60, 3, 2)
    train, test = np.arange(48), np.arange(48, 60)
    cfg = TrainConfig(level=2, bins=4, window=2, optimizer="newton", max_iters=2)
    model, seen = zero_model(2, 2, 4, window=2), [data[j] for j in train]
    for i in (1, 2):
        feats, cbin = build_design(data, i, 2, 4, window=2)
        grad = gradient(model, seen)[i - 1].ravel()
        full = np.linalg.lstsq(hessian(model, seen, i), grad, rcond=None)[0].reshape(4, -1)
        step = first_newton_step(feats, cbin, train, test, cfg)
        assert np.abs(step - full).max() <= 1e-9


def kronecker_hessian(model, data, i):
    """sum_j (diag p_j - p_j p_j^T) kron y_j y_j^T / M, one sample at a time."""
    feats, _ = build_design(data, i, model.level, model.bins, model.window)
    size = model.bins * feats.shape[1]
    expected = np.zeros((size, size))
    for y in feats:
        p = softmax(model.params[i - 1] @ y)
        expected += np.kron(np.diag(p) - np.outer(p, p), np.outer(y, y))
    return expected / len(feats)


@pytest.mark.parametrize("d, level, bins", [
    (2, 1, 1),  # N = 1: a single bin has no curvature
    (2, 0, 5),  # K = 1: level 0 keeps only the empty word
    (1, 1, 6),  # N = 6 > K = 3
    (2, 2, 3),  # N = 3 < K = 13
])
def test_pair_hessian_matches_the_kronecker_definition(d, level, bins, rng):
    model = random_model(rng, d=d, level=level, bins=bins)
    data = random_unit_sequences(rng, 40, 3, d)
    h, expected = hessian(model, data, d), kronecker_hessian(model, data, d)
    assert np.abs(h - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("n_seq", [7, 8, 9, 10, 11])
def test_pair_hessian_covers_every_row_of_a_short_last_chunk(n_seq, rng, monkeypatch):
    from sigspline import calibration

    # a budget of 5 rows of N*K = 21 elements gives 105 // (6 + 28) = 3 design rows per chunk
    monkeypatch.setattr(calibration, "HESSIAN_CHUNK_ROWS", 5)
    model = random_model(rng, d=1, level=2, bins=3)  # N = 3, K = 7
    data = random_unit_sequences(rng, n_seq, 3, 1)
    h, expected = hessian(model, data, 1), kronecker_hessian(model, data, 1)
    assert np.abs(h - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(h, h.T)


def test_pair_hessian_memory_stays_within_the_dense_result_and_one_chunk(rng):
    import tracemalloc

    from sigspline.calibration import HESSIAN_CHUNK_ROWS

    # K(K+1)/2 = 7381 feature pairs per row against N*K = 968 Hessian columns
    model = random_model(rng, d=2, level=4, bins=8)
    data = random_unit_sequences(rng, 400, 3, 2)
    size = 8 * feature_count(3, 4)
    tracemalloc.start()
    try:
        h = hessian(model, data, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.shape == (size, size)
    assert peak <= 8 * (size * size + HESSIAN_CHUNK_ROWS * size)


@pytest.mark.parametrize("d, level, bins", [(2, 1, 1), (2, 0, 5), (1, 1, 6), (2, 2, 3)])
def test_reused_workspace_gives_the_one_shot_hessian_bitwise(d, level, bins, rng):
    from sigspline.calibration import _HessianWork, _hessian_from_design

    feats, _ = build_design(random_unit_sequences(rng, 40, 3, d), d, level, bins)
    work = _HessianWork(bins, *feats.shape)
    for _ in range(2):  # the second call overwrites the first call's result in place
        u = random_model(rng, d=d, level=level, bins=bins).params[d - 1]
        h = _hessian_from_design(u, feats, work)
        assert h is work.result
        assert h.tobytes() == _hessian_from_design(u, feats).tobytes()


@pytest.mark.parametrize("n_seq", [7, 8, 9])
def test_reused_workspace_covers_a_short_last_chunk_bitwise(n_seq, rng, monkeypatch):
    from sigspline import calibration

    monkeypatch.setattr(calibration, "HESSIAN_CHUNK_ROWS", 5)  # 3 design rows per chunk
    feats, _ = build_design(random_unit_sequences(rng, n_seq, 3, 1), 1, 2, 3)
    work = calibration._HessianWork(3, *feats.shape)
    for _ in range(2):
        u = random_model(rng, d=1, level=2, bins=3).params[0]
        h = calibration._hessian_from_design(u, feats, work)
        assert h is work.result
        assert h.tobytes() == calibration._hessian_from_design(u, feats).tobytes()
        assert np.array_equal(h, h.T)


def test_warm_workspace_allocates_less_than_one_chunk(rng, monkeypatch):
    import tracemalloc

    from sigspline import calibration

    # a budget of 64 rows of N*K = 320 elements gives 20480 // (36 + 820) = 23 design rows per
    # chunk; the chunk buffers, the pair Gram (29520) and the result (320^2) each exceed it
    monkeypatch.setattr(calibration, "HESSIAN_CHUNK_ROWS", 64)
    feats, _ = build_design(random_unit_sequences(rng, 400, 3, 2), 1, 3, 8)
    u = random_model(rng, d=2, level=3, bins=8).params[0]  # N = 8, K = 40
    work = calibration._HessianWork(8, *feats.shape)
    first = calibration._hessian_from_design(u, feats, work).copy()
    tracemalloc.start()
    try:
        second = calibration._hessian_from_design(u, feats, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert work.rows == 23 and np.array_equal(first, second)
    assert peak < 8 * 64 * 8 * feats.shape[1]
