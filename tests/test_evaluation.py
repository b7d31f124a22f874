import numpy as np
import pytest

from sigspline.evaluation import (
    abs_return_acf,
    acf,
    compare_statistics,
    cross_correlation,
    dataset_statistics,
    evaluate,
    format_table,
    kurtosis,
    self_evaluation,
    skewness,
)
from sigspline.model import zero_model
from tests.conftest import random_model

EXPECTED_KEYS = {
    "level_acf_lag1",
    "level_acf_lag2",
    "level_skewness",
    "level_kurtosis",
    "level_cross_correlation",
    "return_acf_lag1",
    "return_acf_lag2",
    "return_skewness",
    "return_kurtosis",
    "return_cross_correlation",
}


def brute_force_acf(x, lag):
    """Direct-formula oracle for the lag-l autocorrelation convention."""
    mean = x.mean()
    num = sum((x[t] - mean) * (x[t + lag] - mean) for t in range(len(x) - lag)) / (
        len(x) - lag
    )
    den = sum((v - mean) ** 2 for v in x) / len(x)
    return num / den


def brute_force_pooled(chunks, lag):
    """Pooled-mean oracle: lag pairs stay inside one sequence, the mean and the
    lag-0 normalizer run over every value of every sequence."""
    values = [v for chunk in chunks for v in chunk]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    pairs = [(c[t] - mean) * (c[t + lag] - mean) for c in chunks for t in range(len(c) - lag)]
    return sum(pairs) / len(pairs) / var


def brute_force_moment(chunks, power):
    values = [v for chunk in chunks for v in chunk]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return sum((v - mean) ** power for v in values) / len(values) / var ** (power / 2)


class TestAcf:
    def test_alternating_series_is_minus_one(self):
        x = np.tile([1.0, -1.0], 50)
        assert acf(x, [1])[0] == pytest.approx(-1.0, abs=1e-12)

    def test_lag_zero_is_exactly_one(self, rng):
        assert acf(rng.random(100), [0])[0] == 1.0

    def test_iid_uniform_lag_one_near_zero(self):
        x = np.random.default_rng(2).random(10_000)
        assert abs(acf(x, [1])[0]) <= 0.03

    def test_matches_brute_force(self, rng):
        x = rng.standard_normal(40)
        for lag in (1, 2, 3):
            assert acf(x, [lag])[0] == pytest.approx(brute_force_acf(x, lag), abs=1e-12)

    def test_two_dimensional_input(self, rng):
        x = rng.random((50, 3))
        out = acf(x, [1, 2])
        assert out.shape == (2, 3)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            acf(np.ones(10), [1])


class TestMoments:
    def test_symmetric_two_point_sample(self):
        assert skewness(np.array([-1.0, 1.0])) == 0.0
        assert kurtosis(np.array([-1.0, 1.0])) == 1.0

    def test_normal_sample_kurtosis_three(self):
        x = np.random.default_rng(3).standard_normal(100_000)
        assert kurtosis(x) == pytest.approx(3.0, abs=0.1)

    def test_exponential_sample_skewness_two(self):
        x = np.random.default_rng(4).exponential(size=100_000)
        assert skewness(x) == pytest.approx(2.0, abs=0.1)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            skewness(np.zeros(5))
        with pytest.raises(ValueError):
            kurtosis(np.zeros(5))


class TestCrossCorrelation:
    def test_independent_channels(self):
        x = np.random.default_rng(5).standard_normal((4096, 2))
        corr = cross_correlation(x)
        assert abs(corr[0, 1]) <= 0.05

    def test_duplicated_channel(self, rng):
        base = rng.standard_normal(100)
        corr = cross_correlation(np.column_stack([base, base]))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_unit_diagonal_and_symmetry(self, rng):
        corr = cross_correlation(rng.random((200, 3)))
        assert np.all(np.diag(corr) == 1.0)
        assert np.allclose(corr, corr.T)
        assert np.all(np.abs(corr) <= 1.0 + 1e-12)

    def test_one_channel_is_exactly_one(self, rng):
        x = rng.random((50, 1))
        assert cross_correlation(x).tolist() == [[1.0]]
        stats = dataset_statistics(x)
        assert stats["level_cross_correlation"].tolist() == [[1.0]]
        assert stats["return_cross_correlation"].tolist() == [[1.0]]


class TestAbsReturnAcf:
    def test_constant_increments_rejected(self):
        x = np.arange(20.0).reshape(-1, 1)
        with pytest.raises(ValueError, match="constant"):
            abs_return_acf(x, [1])

    def test_iid_returns_uncorrelated(self):
        steps = np.random.default_rng(6).standard_normal(5000)
        x = np.cumsum(steps).reshape(-1, 1)
        assert abs(abs_return_acf(x, [1])[0, 0]) <= 0.05

    def test_clustered_magnitudes_detected(self):
        # increments of magnitude 2 for 4 steps then 1 for 4 steps, alternating
        # signs: |returns| has lag-1 autocorrelation 0.5 in the long run
        magnitudes = np.tile([2.0] * 4 + [1.0] * 4, 100)
        signs = np.tile([1.0, -1.0], 400)
        x = np.concatenate([[0.0], np.cumsum(magnitudes * signs)]).reshape(-1, 1)
        got = abs_return_acf(x, [1])[0, 0]
        assert got == pytest.approx(brute_force_acf(magnitudes, 1), abs=1e-12)
        assert got > 0.2


class TestDatasetStatistics:
    def test_statistic_set(self, rng):
        stats = dataset_statistics(rng.random((100, 2)))
        assert set(stats) == EXPECTED_KEYS

    def test_abs_acf_keys_optional(self, rng):
        stats = dataset_statistics(rng.random((100, 2)), include_abs_acf=True)
        assert set(stats) == EXPECTED_KEYS | {"abs_return_acf_lag1", "abs_return_acf_lag2"}

    def test_single_sequence_matches_direct_ops(self, rng):
        x = rng.random((200, 2))
        stats = dataset_statistics(x)
        assert np.allclose(stats["level_acf_lag1"], acf(x, [1])[0], atol=1e-12)
        assert stats["level_skewness"][0] == pytest.approx(skewness(x[:, 0]), abs=1e-12)
        assert np.allclose(stats["return_cross_correlation"], cross_correlation(np.diff(x, axis=0)))

    def test_batch_pools_sequences(self, rng):
        seqs = [rng.random((4, 2)) for _ in range(500)]
        stats = dataset_statistics(seqs)
        # iid uniform batch: lag-1 level ACF near zero, kurtosis near 9/5
        assert np.abs(stats["level_acf_lag1"]).max() <= 0.05
        assert np.allclose(stats["level_kurtosis"], 1.8, atol=0.1)

    def test_ragged_batch_matches_brute_force_pooling(self, rng):
        seqs = [rng.standard_normal((n, 2)) for n in (1, 2, 3, 7)]
        stats = dataset_statistics(seqs, lags=(1, 2), include_abs_acf=True)
        for c in range(2):
            levels = [s[:, c].tolist() for s in seqs]
            returns = [np.diff(s[:, c]).tolist() for s in seqs if len(s) > 1]
            sources = {
                "level": levels,
                "return": returns,
                "abs_return": [[abs(v) for v in r] for r in returns],
            }
            for name, chunks in sources.items():
                for lag in (1, 2):
                    got = stats[f"{name}_acf_lag{lag}"][c]
                    assert got == pytest.approx(brute_force_pooled(chunks, lag), abs=1e-12)
                if name == "abs_return":
                    continue
                got = stats[f"{name}_skewness"][c]
                assert got == pytest.approx(brute_force_moment(chunks, 3), abs=1e-12)
                got = stats[f"{name}_kurtosis"][c]
                assert got == pytest.approx(brute_force_moment(chunks, 4), abs=1e-12)

    def test_stacked_batch_equals_its_list(self, rng):
        batch = rng.random((5, 4, 2))
        got = dataset_statistics(batch, include_abs_acf=True)
        want = dataset_statistics(list(batch), include_abs_acf=True)
        assert list(got) == list(want)
        assert all(np.array_equal(got[name], want[name]) for name in want)

    def test_lag_longer_than_every_sequence_rejected(self, rng):
        with pytest.raises(ValueError, match="no sequence is longer than lag 2"):
            dataset_statistics([rng.random((2, 2)) for _ in range(3)], lags=(2,))


class TestComparisons:
    def test_self_evaluation_is_identically_zero(self, rng):
        report = self_evaluation(rng.random((300, 2)), include_abs_acf=True)
        assert all(v == 0.0 for v in report.discrepancies().values())

    def test_discrepancy_is_componentwise_l1(self, rng):
        a = dataset_statistics(rng.random((100, 2)))
        b = dataset_statistics(rng.random((100, 2)))
        report = compare_statistics(a, b)
        lag1 = np.abs(a["level_acf_lag1"] - b["level_acf_lag1"]).sum()
        assert report.discrepancies()["level_acf_lag1"] == pytest.approx(lag1, abs=1e-15)

    def test_mismatched_keys_rejected(self, rng):
        a = dataset_statistics(rng.random((50, 2)))
        b = dataset_statistics(rng.random((50, 2)), include_abs_acf=True)
        with pytest.raises(ValueError):
            compare_statistics(a, b)

    def test_seed_aggregation_by_hand(self):
        real = {"acf": np.array([1.0, 2.0]), "corr": np.array([[0.5]])}
        g1 = {"acf": np.array([1.5, 1.0]), "corr": np.array([[0.5]])}  # l1: 1.5, 0.0
        g2 = {"acf": np.array([0.0, 2.0]), "corr": np.array([[1.5]])}  # l1: 1.0, 1.0
        report = compare_statistics(real, g1, g2, horizon=5, batch=7)
        assert (report.n_seeds, report.horizon, report.batch) == (2, 5, 7)
        acf_row, corr_row = report.statistics["acf"], report.statistics["corr"]
        assert acf_row["real"] is real["acf"]
        assert np.array_equal(acf_row["generated_mean"], [0.75, 1.5])
        assert np.array_equal(corr_row["generated_mean"], [[1.0]])
        assert acf_row["per_seed_discrepancy"] == [1.5, 1.0]
        assert corr_row["per_seed_discrepancy"] == [0.0, 1.0]
        assert report.discrepancies() == {"acf": 1.25, "corr": 0.5}
        assert acf_row["discrepancy_std"] == pytest.approx(np.sqrt(0.125), abs=1e-15)
        assert corr_row["discrepancy_std"] == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_one_generated_set_has_zero_spread(self):
        real, generated = {"acf": np.array([1.0, 2.0])}, {"acf": np.array([1.5, 1.0])}
        report = compare_statistics(real, generated)
        assert report.n_seeds == 1
        assert report.statistics["acf"]["per_seed_discrepancy"] == [1.5]
        assert report.statistics["acf"]["discrepancy_std"] == 0.0
        with pytest.raises(ValueError, match="one or more generated"):
            compare_statistics(real)


class TestEvaluate:
    def test_uniform_model_on_uniform_data(self):
        rng = np.random.default_rng(11)
        real = rng.random((2000, 2))
        model = zero_model(2, 1, 8, window=2)
        report = evaluate(model, real, horizon=4, batch=512, seeds=3, base_seed=1)
        assert report.statistics["level_skewness"]["discrepancy_mean"] <= 0.1
        assert report.statistics["level_kurtosis"]["discrepancy_mean"] <= 0.3

    def test_deterministic(self, rng):
        real = rng.random((300, 2))
        model = random_model(rng, d=2, level=1, bins=4, window=2, scale=0.2)
        a = evaluate(model, real, horizon=4, batch=32, seeds=2, base_seed=5)
        b = evaluate(model, real, horizon=4, batch=32, seeds=2, base_seed=5)
        assert a.to_dict() == b.to_dict()

    def test_batch_larger_than_histories_rejected(self, rng):
        model = zero_model(2, 1, 4, window=2)
        with pytest.raises(ValueError, match="histories"):
            evaluate(model, rng.random((20, 2)), batch=100, seeds=1)

    def test_horizon_below_the_minimum_is_refused_before_sampling(self, rng, monkeypatch):
        # the return ACF at the largest default lag, 2, needs 3 returns: 4 sampled rows
        from sigspline import evaluation

        def unreachable(*args, **kwargs):
            raise AssertionError("sampled")

        assert evaluation.MIN_HORIZON == max(evaluation.DEFAULT_LAGS) + 2 == 4
        monkeypatch.setattr(evaluation, "sample_from_series", unreachable)
        model = zero_model(2, 1, 4, window=2)
        for horizon in (1, 2, 3):
            with pytest.raises(ValueError, match="horizon >= 4"):
                evaluate(model, rng.random((50, 2)), horizon=horizon, batch=8, seeds=1)

    def test_report_serializes(self, rng):
        import json

        real = rng.random((200, 2))
        model = zero_model(2, 1, 4, window=2)
        report = evaluate(model, real, horizon=4, batch=16, seeds=2)
        doc = report.to_dict()
        assert json.dumps(doc)
        assert doc["n_seeds"] == 2
        assert set(doc["statistics"]) == EXPECTED_KEYS

    def test_self_evaluation_report_shape(self, rng):
        report = self_evaluation(rng.random((100, 2)))
        assert all(v["discrepancy_mean"] == 0.0 for v in report.statistics.values())
        table = format_table(report)
        assert "level_acf_lag1" in table and "kurtosis" in table

    def test_format_table_flags_best(self, rng):
        real = rng.random((200, 2))
        a = evaluate(zero_model(2, 1, 4, window=2), real, horizon=4, batch=16, seeds=2)
        b = evaluate(random_model(rng, 2, 1, 4, window=2), real, horizon=4, batch=16, seeds=2)
        table = format_table({"uniform": a, "random": b})
        assert "*" in table and "uniform" in table and "random" in table
