"""Sequence augmentations applied before signature computation.

Three transforms, composed per conditioned coordinate:

* ``basepoint`` prepends the zero vector, so the signature sees the start
  value (removes translation invariance).
* ``time_augment`` adjoins a monotone time channel as channel 1 (removes
  reparametrisation invariance). Data channels shift to positions 2..d+1.
* ``mask`` overwrites the last row's coordinates >= i with the previous
  row's values, hiding them from the coordinate-i conditional.

``conditioning_embedding(x, i)`` is the full composition used by the model:
time augmentation, then masking of the data coordinates >= i (the time stamp
is never masked), then basepoint.

Each transform acts on the last two axes, so it takes (..., n, d) stacks too.
"""

from __future__ import annotations

import numpy as np

from .signature import as_paths


def basepoint(x) -> np.ndarray:
    """Prepend a zero row. Not idempotent: applying twice adds two rows."""
    arr = as_paths(x)
    return np.concatenate([np.zeros_like(arr[..., :1, :]), arr], axis=-2)


def time_augment(x) -> np.ndarray:
    """Prepend a time channel with stamps (i-1)/(n-1); a single row gets 0."""
    arr = as_paths(x)
    stamps = np.linspace(0.0, 1.0, arr.shape[-2])
    return np.concatenate([np.broadcast_to(stamps[:, None], (*arr.shape[:-1], 1)), arr], axis=-1)


def mask(x, i: int) -> np.ndarray:
    """Hide the last row's coordinates >= i behind the previous row.

    Coordinates are 1-based; i = 1 replaces the whole last row with a copy of
    the second-to-last. Requires at least two rows.
    """
    arr = as_paths(x)
    n, d = arr.shape[-2:]
    if n < 2:
        raise ValueError(f"mask needs at least 2 rows, got {n}")
    if not 1 <= i <= d:
        raise ValueError(f"coordinate {i} outside [1..{d}]")
    out = arr.copy()
    out[..., -1, i - 1 :] = arr[..., -2, i - 1 :]
    return out


def conditioning_embedding(x, i: int) -> np.ndarray:
    """Time-augment, mask data coordinates >= i, and prepend the basepoint.

    ``x`` is an (..., n, d) stack of sequences with n >= 2 whose last row is
    the candidate next observation; ``i`` indexes the original data
    coordinates (1-based). Output is (..., n+1, 1+d) with a zero first row and
    time channel (0, 0, 1/(n-1), ..., 1).
    """
    arr = as_paths(x)  # mask() rejects fewer than 2 rows
    if not 1 <= i <= arr.shape[-1]:
        raise ValueError(f"coordinate {i} outside [1..{arr.shape[-1]}]")
    # in the time-augmented frame data coordinate i sits at position i+1,
    # so masking there leaves the final time stamp intact
    return basepoint(mask(time_augment(arr), i + 1))
