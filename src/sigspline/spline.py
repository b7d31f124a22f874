"""Piecewise-linear CDF on [0,1] parametrised by positive bin increments.

The unit interval is split into N equal bins with knots at k/N. A vector of
positive increments delta (summing to 1, typically a softmax output) defines
the strictly increasing CDF that rises by delta[k] across bin k, linearly
within each bin. The induced density is piecewise constant, N * delta[k] on
bin k, and the CDF inverts in closed form, which is what makes
inverse-transform sampling exact.

Bins are half-open [(k-1)/N, k/N) with 1-based index k; x = 1 belongs to bin
N. In the inverse, a u lying exactly on a cumulative boundary resolves to the
lower bin's right endpoint.
"""

from __future__ import annotations

import numpy as np


def softmax(z) -> np.ndarray:
    """Positive rows summing to 1 along the last axis; computed with max-subtraction."""
    z = np.asarray(z, dtype=float)
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ValueError(f"expected (..., N) logits, got shape {z.shape}")
    shifted = np.exp(_finite_logits(z) - z.max(axis=-1, keepdims=True))
    # floor at the smallest normal double so increments stay strictly
    # positive and their logs finite
    shifted = np.maximum(shifted, np.finfo(float).tiny)
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _finite_logits(z: np.ndarray) -> np.ndarray:
    if not np.isfinite(z).all():
        raise ValueError("softmax input contains non-finite entries")
    return z


def _bin_nll(z: np.ndarray, k: np.ndarray):
    """-ln delta[k] of each row of (rows, N) logits at its 0-based bin k, read from the logits
    by log-sum-exp, max z + ln sum exp(z - max z) - z[k], so it stays exact where ``softmax``
    floors an increment. Also returns exp(z - max z) and its row sums, from which the fit's
    gradient forms the increments."""
    peak = z.max(axis=1, keepdims=True)
    expd = np.exp(z - peak)
    norm = expd.sum(axis=1)
    return peak[:, 0] + np.log(norm) - z[np.arange(len(k)), k], expd, norm


def _check_delta(delta) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.ndim < 1 or delta.shape[-1] < 1:
        raise ValueError(f"increments must be (..., N) laws with N >= 1, got shape {delta.shape}")
    if not (delta > 0).all():  # written so that NaN fails it
        raise ValueError("increments must be strictly positive")
    return delta


def _check_unit(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not ((x >= 0) & (x <= 1)).all():  # written so that NaN fails it
        raise ValueError(f"{name} outside [0, 1]")
    return x


def bin_indicator(x, n_bins: int):
    """1-based index of the half-open bin containing x; x = 1 maps to bin N."""
    x = _check_unit(x, "x")
    k = np.minimum(np.floor(x * n_bins).astype(int) + 1, n_bins)
    return int(k) if np.isscalar(k) or k.ndim == 0 else k


def _at(table: np.ndarray, k) -> np.ndarray:
    """table[..., k] per law: (..., m) tables read at (...) indices, broadcast together."""
    return table[(*np.indices(table.shape[:-1], sparse=True), k)]


def spline_cdf(x, delta):
    """Evaluate the piecewise-linear CDF at x in [0, 1] per (..., N) law."""
    delta = _check_delta(delta)
    x = _check_unit(x, "x")
    n = delta.shape[-1]
    k = bin_indicator(x, n) - 1
    cum = np.concatenate((np.zeros_like(delta[..., :1]), np.cumsum(delta, axis=-1)), axis=-1)
    out = np.clip(_at(cum, k) + (x - k / n) * _at(delta, k) * n, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def spline_inverse(u, delta):
    """Exact inverse of :func:`spline_cdf` per (..., N) law; boundary ties go to the lower bin."""
    delta = _check_delta(delta)
    u = _check_unit(u, "u")
    n = delta.shape[-1]
    bounds = np.concatenate((np.zeros_like(delta[..., :1]), np.cumsum(delta, axis=-1)), axis=-1)
    bounds[..., -1] = 1.0
    # bounds below u, i.e. searchsorted(bounds, u, side="left") per row
    k = np.clip(np.sum(bounds < u[..., None], axis=-1) - 1, 0, n - 1)
    interior = np.clip(k / n + (u - _at(bounds[..., :-1], k)) / (n * _at(delta, k)), 0.0, 1.0)
    out = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, interior))
    return float(out) if out.ndim == 0 else out


def spline_density(x, delta):
    """Piecewise-constant density N * delta[bin(x)] per (..., N) law."""
    delta = _check_delta(delta)
    n = delta.shape[-1]
    out = n * _at(delta, bin_indicator(x, n) - 1)
    return float(out) if out.ndim == 0 else out


def spline_log_density(x, delta):
    """ln N + ln delta[bin(x)] per (..., N) law — the expansion the likelihood terms use."""
    delta = _check_delta(delta)
    n = delta.shape[-1]
    out = np.log(n) + np.log(_at(delta, bin_indicator(x, n) - 1))
    return float(out) if out.ndim == 0 else out
