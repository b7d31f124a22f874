"""Truncated tensor algebra over a finite alphabet.

Elements are stored as dense flat vectors indexed by words (multi-indices)
over the letters ``1..e``, ordered by level and then lexicographically within
each level::

    index 0                 -> empty word
    indices 1 .. e          -> words of length 1: (1), (2), ..., (e)
    indices e+1 .. e+e^2    -> words of length 2: (1,1), (1,2), ...

This flat layout keeps linear functionals on signatures plain dot products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max

Word = tuple[int, ...]


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


def word_to_index(word: Word, alphabet_size: int, level: int) -> int:
    """Flat index of a word in the (level, lexicographic) ordering."""
    k = len(word)
    if k > level:
        raise ValueError(f"word {word} longer than truncation level {level}")
    rank = 0
    for letter in word:
        if not 1 <= letter <= alphabet_size:
            raise ValueError(
                f"letter {letter} outside alphabet [1..{alphabet_size}]"
            )
        rank = rank * alphabet_size + (letter - 1)
    return feature_count(alphabet_size, k - 1) + rank if k else 0


def index_to_word(index: int, alphabet_size: int, level: int) -> Word:
    """Inverse of :func:`word_to_index`."""
    offsets = _level_offsets(alphabet_size, level)
    if not 0 <= index < offsets[-1]:
        raise ValueError(f"index {index} outside [0, {offsets[-1]})")
    k = next(k for k in range(level + 1) if index < offsets[k + 1])  # the word's length
    rank = index - offsets[k]
    letters = []
    for _ in range(k):
        rank, digit = divmod(rank, alphabet_size)
        letters.append(digit + 1)
    return tuple(reversed(letters))


@dataclass(frozen=True, eq=False)
class TruncatedTensor:
    """Dense element of the level-L truncated tensor algebra over R^e."""

    alphabet_size: int
    level: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = feature_count(self.alphabet_size, self.level)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"coeffs must have shape ({expected},) for e={self.alphabet_size}, "
                f"L={self.level}, got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def __getitem__(self, word: Word) -> float:
        return float(
            self.coeffs[word_to_index(tuple(word), self.alphabet_size, self.level)]
        )

    def level_block(self, k: int) -> np.ndarray:
        """View of the length-k coefficients (size e^k)."""
        offsets = _level_offsets(self.alphabet_size, self.level)
        return self.coeffs[offsets[k] : offsets[k + 1]]


def unit_tensor(alphabet_size: int, level: int) -> TruncatedTensor:
    """Multiplicative unit: 1 at the empty word, 0 elsewhere."""
    coeffs = np.zeros(feature_count(alphabet_size, level))
    coeffs[0] = 1.0
    return TruncatedTensor(alphabet_size, level, coeffs)


def tensor_product(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Concatenation (Chen) product, truncated at the common level.

    c[w] = sum over all splittings w = u.v of a[u] * b[v]; terms whose total
    length exceeds the truncation level are dropped.
    """
    if a.alphabet_size != b.alphabet_size or a.level != b.level:
        raise ValueError(
            f"operands disagree: e={a.alphabet_size}/{b.alphabet_size}, "
            f"L={a.level}/{b.level}"
        )
    e, L = a.alphabet_size, a.level
    out = np.zeros_like(a.coeffs)
    offsets = _level_offsets(e, L)
    for k in range(L + 1):
        block = out[offsets[k] : offsets[k + 1]]
        for j in range(k + 1):
            left = a.coeffs[offsets[j] : offsets[j + 1]]
            right = b.coeffs[offsets[k - j] : offsets[k - j + 1]]
            # rank(u.v) = rank(u) * e^{|v|} + rank(v): outer-ravel matches it
            block += np.outer(left, right).ravel()
    return TruncatedTensor(e, L, out)


def inner_product(weights: np.ndarray, t: TruncatedTensor) -> float:
    """Pairing of a flat linear functional with a tensor."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != t.coeffs.shape:
        raise ValueError(
            f"length mismatch: weights {weights.shape} vs coeffs {t.coeffs.shape}"
        )
    return float(weights @ t.coeffs)
