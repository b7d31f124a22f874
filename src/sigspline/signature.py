"""Truncated signatures of piecewise-linearly embedded sequences.

A sequence (x_1, ..., x_n) in R^e is embedded as the continuous path that is
linear between the knots X((i-1)/(n-1)) = x_i; its signature collects the
iterated integrals indexed by words over the e channels. For a linear segment
the signature is the tensor exponential of the increment, and the signature of
the whole sequence is the left-to-right Chen product over segments.

:func:`signatures` folds (..., n, e) stacks by :func:`extend`. ``tests/reference.py`` holds the
per-sample ``tensor_product`` that both are checked against, and a numerical ``signature_oracle``.
"""

from __future__ import annotations

import numpy as np

from .tensor_algebra import _level_offsets, feature_count

CHUNK_ROWS = 128  # sequences folded at once; bounds the fold's temporaries


def as_paths(x) -> np.ndarray:
    """Coerce to a (..., n, e) float array with n, e >= 1 and finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] < 1 or arr.shape[-1] < 1:
        raise ValueError(f"sequences must be non-empty (..., n, e) arrays, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence contains non-finite entries")
    return arr


def as_sequence(x) -> np.ndarray:
    """Coerce to an (n, e) float array with n >= 1 and finite entries."""
    if np.ndim(x) != 2:
        raise ValueError(f"sequence must be a non-empty 2-d array, got shape {np.shape(x)}")
    return as_paths(x)


def signatures(x, level: int) -> np.ndarray:
    """Truncated signatures of a stack of sequences, (..., n, e) -> (..., K).

    Each row starts from its first segment's exponential, exactly what
    extending the identity gives, and folds the rest left to right with
    :func:`extend`, so it equals the per-sample ``tensor_product`` fold bit for bit.
    """
    return _fold(as_paths(x), level)


def _fold(arr: np.ndarray, level: int) -> np.ndarray:
    """:func:`signatures` of a (..., n, e) float array that :func:`as_paths` already accepted."""
    paths = arr.reshape(-1, *arr.shape[-2:])
    out = np.zeros((len(paths), feature_count(arr.shape[-1], level)))
    out[:, 0] = 1.0
    for start in range(0, len(paths), CHUNK_ROWS):
        chunk, sig = paths[start : start + CHUNK_ROWS], out[start : start + CHUNK_ROWS]
        incs = np.diff(chunk, axis=1).transpose(1, 0, 2)
        if len(incs):  # identity ⊗ exp(Δ) is 0.0 + exp(Δ); a zero Δ gives the identity row
            np.concatenate(_exponential(incs[0], level), axis=-1, out=sig)
            sig += 0.0
        for inc in incs[1:]:
            sig[:] = extend(sig, inc, level)
    return out.reshape(*arr.shape[:-2], out.shape[1])


def _exponential(inc: np.ndarray, level: int) -> list[np.ndarray]:
    """Levels 0..L of the tensor exponentials of (..., e) increments: the word w of
    length k is prod_j inc[w_j] / k!, formed as (level k-1 ⊗ inc) / k, so level 1
    is ``inc`` itself."""
    lead = inc.shape[:-1]
    levels = [np.ones((*lead, 1)), inc]
    for k in range(2, level + 1):
        levels.append((levels[-1][..., :, None] * inc[..., None, :]).reshape(*lead, -1) / k)
    return levels[: level + 1]


def extend(sig, increments, level: int) -> np.ndarray:
    """Chen's identity for one segment: (..., K) signatures ⊗ exp((..., e) increments).

    The signatures broadcast against the increments' leading axes, so one
    (B, K) prefix extends a (d, B, e) stack. Level k of the product is
    sum_{j=0..k} sig_j ⊗ exp_{k-j}, added with j = 0 first as ``tensor_product``
    adds it. The j = 0 terms of every level are one product, ``0.0 + sig_0 * exp``:
    ``0.0 +`` turns -0.0 into 0.0, as adding to the reference's zero-filled
    block does. The j = k term is sig_k * 1.0 = sig_k, added last, so only the
    middle terms loop. A zero increment leaves its row unchanged, as the
    per-sample fold skips it.
    """
    sig, inc = np.asarray(sig, dtype=float), np.asarray(increments, dtype=float)
    offsets, lead, rows = _level_offsets(inc.shape[-1], level), inc.shape[:-1], sig.shape[:-1]
    broadcasts = len(rows) <= len(lead) and all(r in (1, t) for r, t in zip(rows[::-1], lead[::-1]))
    if sig.shape[-1:] != (offsets[-1],) or not broadcasts:
        raise ValueError(f"signatures of shape {sig.shape} do not fit increments {inc.shape}")
    expo = _exponential(inc, level)
    prod = sig[..., :1] * np.concatenate(expo, axis=-1)
    prod += 0.0
    for k in range(2, level + 1):
        block = prod[..., offsets[k] : offsets[k + 1]]
        for j in range(1, k):
            left = sig[..., offsets[j] : offsets[j + 1], None]
            block += (left * expo[k - j][..., None, :]).reshape(*lead, -1)
    prod[..., 1:] += sig[..., 1:]
    moved = inc.any(axis=-1)
    if not moved.all():
        np.copyto(prod, sig, where=~moved[..., None])
    return prod
