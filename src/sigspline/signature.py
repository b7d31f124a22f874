"""Truncated signatures of piecewise-linearly embedded sequences.

A sequence (x_1, ..., x_n) in R^e is embedded as the continuous path that is
linear between the knots X((i-1)/(n-1)) = x_i; its signature collects the
iterated integrals indexed by words over the e channels. For a linear segment
the signature is the tensor exponential of the increment, and the signature of
the whole sequence is the left-to-right Chen product over segments.

:func:`signatures` folds (..., n, e) stacks by the Chen step of :func:`extend`.
``tests/reference.py`` holds the per-sample ``tensor_product`` that both are checked against,
and a numerical ``signature_oracle``. Each public function is a checked wrapper: it checks its
input once and calls an unchecked core (``_fold``, ``_chain``, ``_chen``), which the model's
callers that already checked their input call directly. The word offsets are cached per (e, L)
by ``_level_offsets``.
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
    if not np.isfinite(arr).all():
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
    """:func:`signatures` of a (..., n, e) float array that :func:`as_paths` already accepted,
    folded CHUNK_ROWS sequences at a time, each segment's exponential formed as it is folded."""
    paths = arr.reshape(-1, *arr.shape[-2:])
    out = np.zeros((len(paths), feature_count(arr.shape[-1], level)))
    out[:, 0] = 1.0
    if paths.shape[1] > 1:
        for start in range(0, len(paths), CHUNK_ROWS):
            incs = np.diff(paths[start : start + CHUNK_ROWS], axis=1).transpose(1, 0, 2)
            _chain(incs, level, out=out[start : start + CHUNK_ROWS])
    return out.reshape(*arr.shape[:-2], out.shape[1])


def _chain(incs: np.ndarray, level: int, expo=None, out=None) -> np.ndarray:
    """Signatures (..., K) of (s, ..., e) segment-major increments, s >= 1, folded left to right.

    The first segment seeds each row: identity ⊗ exp(Δ) is ``0.0 + exp(Δ)``, whose ``0.0 +``
    turns -0.0 into the 0.0 of ``tensor_product``'s zero-filled block, and a zero Δ gives the
    identity row. :func:`_chen` folds the rest. ``expo`` holds all s flat exponentials
    (s, ..., K) when the caller formed them in one call; without it each is formed as its
    segment is folded. Unchecked.
    """
    sig = np.add(_exponential(incs[0], level) if expo is None else expo[0], 0.0, out=out)
    for s in range(1, len(incs)):
        sig[...] = _chen(sig, incs[s], level, None if expo is None else expo[s])
    return sig


def _exponential(inc: np.ndarray, level: int) -> np.ndarray:
    """Flat tensor exponentials (..., K) of (..., e) increments, levels 0..L side by side: the
    word w of length k is prod_j inc[w_j] / k!, formed as (level k-1 ⊗ inc) / k, so level 1
    is ``inc`` itself."""
    lead, e = inc.shape[:-1], inc.shape[-1]
    levels = [np.ones((*lead, 1)), inc]
    for k in range(2, level + 1):
        levels.append((levels[-1][..., :, None] * inc[..., None, :]).reshape(*lead, e**k) / k)
    return np.concatenate(levels[: level + 1], axis=-1)


def extend(sig, increments, level: int) -> np.ndarray:
    """Chen's identity for one segment: (..., K) signatures ⊗ exp((..., e) increments).

    The signatures broadcast against the increments' leading axes, so one
    (B, K) prefix extends a (d, B, e) stack. This checked wrapper checks the
    shapes once and calls the unchecked core :func:`_chen`.
    """
    sig, inc = np.asarray(sig, dtype=float), np.asarray(increments, dtype=float)
    lead, rows = inc.shape[:-1], sig.shape[:-1]
    broadcasts = len(rows) <= len(lead) and all(r in (1, t) for r, t in zip(rows[::-1], lead[::-1]))
    if sig.shape[-1:] != (feature_count(inc.shape[-1], level),) or not broadcasts:
        raise ValueError(f"signatures of shape {sig.shape} do not fit increments {inc.shape}")
    return _chen(sig, inc, level)


def _chen(sig: np.ndarray, inc: np.ndarray, level: int, expo=None) -> np.ndarray:
    """:func:`extend`, unchecked; ``expo`` is the increments' flat :func:`_exponential`, formed
    here when not given, so that one call can serve several segments.

    Level k of the product is sum_{j=0..k} sig_j ⊗ exp_{k-j}, added with j = 0
    first as ``tensor_product`` adds it. The j = 0 terms of every level are one
    product, ``0.0 + sig_0 * exp``: ``0.0 +`` turns -0.0 into 0.0, as adding to
    the reference's zero-filled block does. The j = k term is sig_k * 1.0 = sig_k,
    added last, so only the middle terms loop. A zero increment leaves its row
    unchanged, as the per-sample fold skips it. Each block is reshaped to its
    explicit width, so an empty stack gives an empty result.
    """
    offsets, lead = _level_offsets(inc.shape[-1], level), inc.shape[:-1]
    if expo is None:
        expo = _exponential(inc, level)
    prod = sig[..., :1] * expo
    prod += 0.0
    for k in range(2, level + 1):
        block = prod[..., offsets[k] : offsets[k + 1]]
        for j in range(1, k):
            left = sig[..., offsets[j] : offsets[j + 1], None]
            right = expo[..., None, offsets[k - j] : offsets[k - j + 1]]
            block += (left * right).reshape(*lead, offsets[k + 1] - offsets[k])
    prod[..., 1:] += sig[..., 1:]
    moved = inc.any(axis=-1)
    if not moved.all():
        np.copyto(prod, sig, where=~moved[..., None])
    return prod
