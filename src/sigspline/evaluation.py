"""Test-metric harness: statistics of real vs generated data.

For both the level and the first-difference (return) process the harness
compares autocorrelation at lags 1 and 2, skewness, kurtosis, and the
cross-correlation matrix; absolute-return autocorrelation (a volatility
clustering probe) is optional. :func:`compare_statistics` builds the one report,
:class:`EvaluationReport`: per statistic, the l1 norm of the componentwise
difference from each generated set (one per seed), aggregated mean +/- std.

A generated batch is treated as independent realizations sharing a pooled
mean: the lag-l autocovariance averages pair products over sum_s (n_s - l)
while the lag-0 normalizer averages over sum_s n_s. With a single sequence
this is exactly the estimator :func:`acf` uses, so comparing a dataset
against itself gives identically zero discrepancies.

Kurtosis is reported raw (fourth standardized moment, normal = 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SigSplineModel, sample_from_series
from .signature import as_paths, as_sequence

KURTOSIS_CONVENTION = "raw fourth standardized moment (normal = 3)"

DEFAULT_LAGS = (1, 2)
MIN_HORIZON = max(DEFAULT_LAGS) + 2  # rows whose returns reach the largest lag


def _pooled_acf(values: np.ndarray, ids: np.ndarray, lags) -> np.ndarray:
    """Autocorrelation (len(lags), c) of each column of stacked (T, c) values. Row t belongs to
    sequence ``ids[t]``, each sequence's rows contiguous; the mean and lag-0 autocovariance pool
    all T rows, and a lag pair counts only when both its ends are in one sequence."""
    centered = values - values.mean(axis=0)
    var = (centered**2).mean(axis=0)
    if not var.all():
        raise ValueError("autocorrelation undefined for a constant series")
    out = np.ones((len(lags), values.shape[1]))
    for row, lag in zip(out, lags):
        if lag == 0:
            continue
        same = ids[lag:] == ids[:-lag]
        if not same.any():
            raise ValueError(f"no sequence is longer than lag {lag}")
        row[:] = (centered[:-lag] * centered[lag:])[same].sum(axis=0) / same.sum() / var
    return out


def acf(x, lags) -> np.ndarray:
    """Sample autocorrelation at the given lags.

    1-d input gives shape (len(lags),); an (n, d) array gives
    (len(lags), d). The lag-l autocovariance averages over n-l pair products
    and is normalized by the n-term lag-0 autocovariance, so a perfectly
    alternating series scores exactly -1 at lag 1.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a 1-d or 2-d array, got shape {arr.shape}")
    out = _pooled_acf(arr.reshape(len(arr), -1), np.zeros(len(arr), dtype=int), lags)
    return out[:, 0] if arr.ndim == 1 else out


def _standardized_moment(x, power: int, name: str) -> float:
    arr = np.asarray(x, dtype=float).ravel()
    centered = arr - arr.mean()
    var = float((centered**2).mean())
    if var == 0.0:
        raise ValueError(f"{name} undefined for a constant series")
    return float((centered**power).mean() / var ** (power / 2))


def skewness(x) -> float:
    """Third standardized moment."""
    return _standardized_moment(x, 3, "skewness")


def kurtosis(x) -> float:
    """Fourth standardized moment, non-excess (normal = 3)."""
    return _standardized_moment(x, 4, "kurtosis")


def cross_correlation(x) -> np.ndarray:
    """Sample Pearson correlation matrix with an exactly unit diagonal."""
    arr = as_sequence(x)
    if arr.shape[1] == 1:
        return np.ones((1, 1))
    corr = np.corrcoef(arr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def dataset_statistics(data, lags=DEFAULT_LAGS, include_abs_acf: bool = False) -> dict:
    """Named statistics of one (n, d) sequence, a (B, n, d) batch or a list of sequences.

    Levels and returns each contribute per-channel ACF at the given lags,
    skewness, kurtosis, and the cross-correlation matrix.
    """
    if isinstance(data, np.ndarray) and data.ndim in (2, 3):  # validated as one stack
        batch = as_paths(data).reshape(-1, *data.shape[-2:])
        levels, lengths = batch.reshape(-1, batch.shape[-1]), [batch.shape[1]] * len(batch)
    else:
        seqs = [as_sequence(s) for s in data]
        if any(s.shape[1] != seqs[0].shape[1] for s in seqs):
            raise ValueError("sequences disagree on channel count")
        levels, lengths = np.concatenate(seqs), [len(s) for s in seqs]
    ids = np.repeat(np.arange(len(lengths)), lengths)
    within = ids[1:] == ids[:-1]  # row pairs inside one sequence give its returns
    if not within.any():
        raise ValueError("no sequence has at least 2 rows; returns are undefined")
    returns, return_ids = np.diff(levels, axis=0)[within], ids[1:][within]
    stats: dict[str, np.ndarray] = {}
    for name, values, seq in (("level", levels, ids), ("return", returns, return_ids)):
        for lag, row in zip(lags, _pooled_acf(values, seq, lags)):
            stats[f"{name}_acf_lag{lag}"] = row
        stats[f"{name}_skewness"] = np.array([skewness(col) for col in values.T])
        stats[f"{name}_kurtosis"] = np.array([kurtosis(col) for col in values.T])
    stats["level_cross_correlation"] = cross_correlation(levels)
    stats["return_cross_correlation"] = cross_correlation(returns)
    if include_abs_acf:
        for lag, row in zip(lags, _pooled_acf(np.abs(returns), return_ids, lags)):
            stats[f"abs_return_acf_lag{lag}"] = row
    return stats


@dataclass
class EvaluationReport:
    """What :func:`compare_statistics` returns; horizon and batch are 0 for a self-evaluation."""

    statistics: dict[str, dict]
    n_seeds: int
    horizon: int
    batch: int

    def discrepancies(self) -> dict[str, float]:
        return {name: vals["discrepancy_mean"] for name, vals in self.statistics.items()}

    def to_dict(self) -> dict:
        return {
            "kurtosis_convention": KURTOSIS_CONVENTION,
            "n_seeds": self.n_seeds,
            "horizon": self.horizon,
            "batch": self.batch,
            "statistics": {
                name: {key: np.asarray(value).tolist() for key, value in vals.items()}
                for name, vals in self.statistics.items()
            },
        }


def compare_statistics(real: dict, *generated: dict, horizon=0, batch=0) -> EvaluationReport:
    """Each statistic's l1 discrepancy from every generated set (one per seed), seed-aggregated."""
    if not generated or any(real.keys() != g.keys() for g in generated):
        raise ValueError("need one or more generated statistic sets with the real set's names")
    statistics = {}
    for name in real:
        r, gens = np.asarray(real[name]), [np.asarray(g[name]) for g in generated]
        discs = [float(np.abs(r - g).sum()) for g in gens]
        statistics[name] = {
            "real": real[name],
            "generated_mean": np.mean(gens, axis=0),
            "discrepancy_mean": float(np.mean(discs)),
            "discrepancy_std": float(np.std(discs, ddof=1)) if len(discs) > 1 else 0.0,
            "per_seed_discrepancy": discs,
        }
    return EvaluationReport(statistics, len(generated), horizon, batch)


def self_evaluation(data, lags=DEFAULT_LAGS, include_abs_acf: bool = False) -> EvaluationReport:
    """Compare a dataset against itself; every discrepancy is exactly zero."""
    stats = dataset_statistics(data, lags, include_abs_acf)
    return compare_statistics(stats, stats)


def evaluate(
    model: SigSplineModel,
    real_data,
    horizon: int = 4,
    batch: int = 512,
    seeds: int = 10,
    base_seed: int = 0,
    include_abs_acf: bool = False,
) -> EvaluationReport:
    """Sample ``batch`` length-``horizon`` paths per seed and compare statistics.

    Each seed samples through :func:`~sigspline.model.sample_from_series`;
    deterministic given (model, data, seeds, base_seed).
    """
    if seeds < 1 or horizon < MIN_HORIZON:  # checked before any sampling
        raise ValueError(f"need seeds >= 1 and horizon >= {MIN_HORIZON}, got {seeds}, {horizon}")
    real = as_sequence(real_data)
    real_stats = dataset_statistics(real, include_abs_acf=include_abs_acf)
    per_seed = []
    for s in range(seeds):
        rng = np.random.default_rng([base_seed, s])
        generated = sample_from_series(model, real, batch, horizon, rng)
        per_seed.append(dataset_statistics(generated, include_abs_acf=include_abs_acf))
    return compare_statistics(real_stats, *per_seed, horizon=horizon, batch=batch)


def format_table(reports: dict[str, EvaluationReport] | EvaluationReport) -> str:
    """Aligned text table; with several reports the lowest mean discrepancy
    per statistic is flagged with '*'."""
    if isinstance(reports, EvaluationReport):
        reports = {"model": reports}
    names = list(next(iter(reports.values())).statistics)
    cols = list(reports)
    width = max(len(n) for n in names) + 2
    head = "statistic".ljust(width) + "".join(c.rjust(24) for c in cols)
    lines = [f"# kurtosis: {KURTOSIS_CONVENTION}", head]
    for name in names:
        row = name.ljust(width)
        means = {c: reports[c].statistics[name]["discrepancy_mean"] for c in cols}
        best = min(means.values())
        for c in cols:
            entry = reports[c].statistics[name]
            flag = "*" if len(cols) > 1 and means[c] == best else " "
            row += f"{entry['discrepancy_mean']:.4f}±{entry['discrepancy_std']:.4f}{flag}".rjust(24)
        lines.append(row)
    return "\n".join(lines) + "\n"
