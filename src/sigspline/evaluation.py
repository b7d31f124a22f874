"""Test-metric harness: statistics of real vs generated data.

For both the level and the first-difference (return) process the harness
compares autocorrelation at lags 1 and 2, skewness, kurtosis, and the
cross-correlation matrix; absolute-return autocorrelation (a volatility
clustering probe) is optional. The discrepancy per statistic is the l1 norm
of the componentwise difference, aggregated mean +/- std across seeds.

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
from .signature import as_sequence

KURTOSIS_CONVENTION = "raw fourth standardized moment (normal = 3)"

DEFAULT_LAGS = (1, 2)


def _pooled_acf(chunks: list[np.ndarray], lag: int) -> float:
    values = np.concatenate(chunks)
    mean = values.mean()
    var = float(((values - mean) ** 2).mean())
    if var == 0.0:
        raise ValueError("autocorrelation undefined for a constant series")
    if lag == 0:
        return 1.0
    num = 0.0
    count = 0
    for chunk in chunks:
        if chunk.size > lag:
            centered = chunk - mean
            num += float(centered[: chunk.size - lag] @ centered[lag:])
            count += chunk.size - lag
    if count == 0:
        raise ValueError(f"no sequence is longer than lag {lag}")
    return num / count / var


def _per_channel(x) -> list[np.ndarray]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return [arr]
    if arr.ndim == 2:
        return [arr[:, c] for c in range(arr.shape[1])]
    raise ValueError(f"expected a 1-d or 2-d array, got shape {arr.shape}")


def acf(x, lags) -> np.ndarray:
    """Sample autocorrelation at the given lags.

    1-d input gives shape (len(lags),); an (n, d) array gives
    (len(lags), d). The lag-l autocovariance averages over n-l pair products
    and is normalized by the n-term lag-0 autocovariance, so a perfectly
    alternating series scores exactly -1 at lag 1.
    """
    channels = _per_channel(x)
    out = np.array([[_pooled_acf([ch], lag) for ch in channels] for lag in lags])
    return out[:, 0] if np.asarray(x).ndim == 1 else out


def skewness(x) -> float:
    """Third standardized moment."""
    arr = np.asarray(x, dtype=float).ravel()
    centered = arr - arr.mean()
    var = float((centered**2).mean())
    if var == 0.0:
        raise ValueError("skewness undefined for a constant series")
    return float((centered**3).mean() / var**1.5)


def kurtosis(x) -> float:
    """Fourth standardized moment, non-excess (normal = 3)."""
    arr = np.asarray(x, dtype=float).ravel()
    centered = arr - arr.mean()
    var = float((centered**2).mean())
    if var == 0.0:
        raise ValueError("kurtosis undefined for a constant series")
    return float((centered**4).mean() / var**2)


def cross_correlation(x) -> np.ndarray:
    """Sample Pearson correlation matrix with an exactly unit diagonal."""
    arr = as_sequence(x)
    if arr.shape[1] == 1:
        return np.ones((1, 1))
    corr = np.corrcoef(arr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def abs_return_acf(x, lags) -> np.ndarray:
    """:func:`acf` of the absolute first differences, per channel."""
    arr = np.asarray(x, dtype=float)
    return acf(np.abs(np.diff(arr, axis=0)), lags)


def _moments(chunks: list[np.ndarray]) -> tuple[float, float]:
    values = np.concatenate(chunks)
    return skewness(values), kurtosis(values)


def dataset_statistics(data, lags=DEFAULT_LAGS, include_abs_acf: bool = False) -> dict:
    """Named statistics of one sequence or a batch of sequences.

    Levels and returns each contribute per-channel ACF at the given lags,
    skewness, kurtosis, and the cross-correlation matrix.
    """
    seqs = [as_sequence(data)] if isinstance(data, np.ndarray) and data.ndim == 2 else [
        as_sequence(s) for s in data
    ]
    d = seqs[0].shape[1]
    if any(s.shape[1] != d for s in seqs):
        raise ValueError("sequences disagree on channel count")
    levels = [[s[:, c] for s in seqs] for c in range(d)]
    returns = [[np.diff(s[:, c]) for s in seqs if s.shape[0] > 1] for c in range(d)]
    if not returns[0]:
        raise ValueError("no sequence has at least 2 rows; returns are undefined")
    stats: dict[str, np.ndarray] = {}
    for name, chunks in (("level", levels), ("return", returns)):
        for lag in lags:
            stats[f"{name}_acf_lag{lag}"] = np.array(
                [_pooled_acf(chunks[c], lag) for c in range(d)]
            )
        moments = [_moments(chunks[c]) for c in range(d)]
        stats[f"{name}_skewness"] = np.array([m[0] for m in moments])
        stats[f"{name}_kurtosis"] = np.array([m[1] for m in moments])
    stats["level_cross_correlation"] = cross_correlation(np.vstack(seqs))
    rows = [np.diff(s, axis=0) for s in seqs if s.shape[0] > 1]
    stats["return_cross_correlation"] = cross_correlation(np.vstack(rows))
    if include_abs_acf:
        abs_chunks = [[np.abs(r) for r in returns[c]] for c in range(d)]
        for lag in lags:
            stats[f"abs_return_acf_lag{lag}"] = np.array(
                [_pooled_acf(abs_chunks[c], lag) for c in range(d)]
            )
    return stats


@dataclass
class MetricEntry:
    real: np.ndarray
    generated: np.ndarray
    discrepancy: float


@dataclass
class MetricReport:
    """Per-statistic (real, generated, l1 discrepancy) triples."""

    entries: dict[str, MetricEntry]

    def discrepancies(self) -> dict[str, float]:
        return {name: e.discrepancy for name, e in self.entries.items()}


def compare_statistics(real: dict, generated: dict) -> MetricReport:
    if real.keys() != generated.keys():
        raise ValueError("statistic sets differ between the two datasets")
    entries = {}
    for name in real:
        r, g = np.asarray(real[name]), np.asarray(generated[name])
        entries[name] = MetricEntry(r, g, float(np.abs(r - g).sum()))
    return MetricReport(entries)


def self_evaluation(data, lags=DEFAULT_LAGS, include_abs_acf: bool = False) -> MetricReport:
    """Compare a dataset against itself; every discrepancy is exactly zero."""
    stats = dataset_statistics(data, lags, include_abs_acf)
    return compare_statistics(stats, stats)


def self_evaluation_report(data, include_abs_acf: bool = False) -> "EvaluationReport":
    """:func:`self_evaluation` packaged in the aggregated report shape."""
    stats = dataset_statistics(data, DEFAULT_LAGS, include_abs_acf)
    return _aggregate(stats, [compare_statistics(stats, stats)], horizon=0, batch=0)


@dataclass
class EvaluationReport:
    """Seed-aggregated comparison of model samples against real data."""

    statistics: dict[str, dict]
    per_seed: list[MetricReport]
    n_seeds: int
    horizon: int
    batch: int
    kurtosis_convention: str = KURTOSIS_CONVENTION

    def to_dict(self) -> dict:
        return {
            "kurtosis_convention": self.kurtosis_convention,
            "n_seeds": self.n_seeds,
            "horizon": self.horizon,
            "batch": self.batch,
            "statistics": {
                name: {key: np.asarray(value).tolist() for key, value in vals.items()}
                for name, vals in self.statistics.items()
            },
        }


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
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    real = as_sequence(real_data)
    real_stats = dataset_statistics(real, include_abs_acf=include_abs_acf)
    per_seed = []
    for s in range(seeds):
        rng = np.random.default_rng([base_seed, s])
        generated = sample_from_series(model, real, batch, horizon, rng)
        gen_stats = dataset_statistics(generated, include_abs_acf=include_abs_acf)
        per_seed.append(compare_statistics(real_stats, gen_stats))
    return _aggregate(real_stats, per_seed, horizon, batch)


def _aggregate(real_stats: dict, per_seed: list[MetricReport], horizon: int, batch: int):
    """Seed mean and spread of each statistic's discrepancy, in an :class:`EvaluationReport`."""
    statistics = {}
    for name in real_stats:
        discs = [r.entries[name].discrepancy for r in per_seed]
        statistics[name] = {
            "real": real_stats[name],
            "generated_mean": np.mean([r.entries[name].generated for r in per_seed], axis=0),
            "discrepancy_mean": float(np.mean(discs)),
            "discrepancy_std": float(np.std(discs, ddof=1)) if len(per_seed) > 1 else 0.0,
            "per_seed_discrepancy": [float(v) for v in discs],
        }
    return EvaluationReport(statistics, per_seed, len(per_seed), horizon, batch)


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
