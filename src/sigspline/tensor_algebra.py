"""The word layout of truncated signatures over a finite alphabet, and its word count.

A truncated signature is a dense flat vector indexed by words (multi-indices)
over the letters ``1..e``, ordered by level and then lexicographically within
each level::

    index 0                 -> empty word
    indices 1 .. e          -> words of length 1: (1), (2), ..., (e)
    indices e+1 .. e+e^2    -> words of length 2: (1,1), (1,2), ...

This flat layout keeps linear functionals on signatures plain dot products.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


def _level_offsets(alphabet_size: int, level: int) -> list[int]:
    """offsets[k] = index of the first length-k word; offsets[L+1] = feature_count(e, L)."""
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be >= 1, got {alphabet_size}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    offsets = [0]
    for k in range(level + 1):
        offsets.append(offsets[-1] + alphabet_size**k)
        if offsets[-1] > _INT64_MAX:
            raise OverflowError(
                f"level {level}: feature_count({alphabet_size}, {level}) exceeds 64-bit range"
            )
    return offsets


def feature_count(alphabet_size: int, level: int) -> int:
    """Number of words of length <= level, i.e. sum_{k=0}^{L} e^k."""
    return _level_offsets(alphabet_size, level)[-1]
