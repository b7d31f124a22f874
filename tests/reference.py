"""Per-sample reference implementations that the package's batched code is checked against.

* The truncated tensor algebra over the alphabet ``1..e``, one element at a
  time: ``TruncatedTensor`` holds the flat coefficient vector of
  ``sigspline.tensor_algebra``'s word layout, ``tensor_product`` is the
  Chen product by levels, and ``word_to_index`` / ``index_to_word`` name the
  coordinates. ``sigspline.signature.extend`` must equal ``tensor_product``
  with a segment's exponential bit for bit.
* ``segment_signature`` and ``signature_of_sequence`` wrap
  ``sigspline.signature.signatures`` in a ``TruncatedTensor``, so that a
  coefficient can be read by its word.
* ``signature_oracle`` evaluates single coefficients by direct numerical
  integration on a uniform grid. It shares no code with the exponential/Chen
  path and exists so the exact computation can be cross-checked.
* The explicit conditioning embedding, composed per conditioned coordinate:
  ``time_augment`` adjoins a monotone time channel as channel 1 (data channels
  shift to positions 2..d+1), ``mask`` overwrites the last row's coordinates
  >= i with the previous row's values, and ``basepoint`` prepends the zero
  vector. ``conditioning_embedding(x, i)`` composes them; the model builds the
  same paths with ``sigspline.model.chen_split`` and ``masked_increments``.
  Each transform acts on the last two axes, so it takes (..., n, d) stacks too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sigspline.signature import as_paths, as_sequence, signatures
from sigspline.tensor_algebra import _level_offsets, feature_count

Word = tuple[int, ...]


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


def segment_signature(increment, level: int) -> TruncatedTensor:
    """Tensor exponential of one linear segment.

    The coefficient at a word w of length k is prod_j increment[w_j] / k!.
    """
    inc = np.asarray(increment, dtype=float)
    if inc.ndim != 1 or inc.size < 1:
        raise ValueError(f"increment must be a 1-d vector, got shape {inc.shape}")
    return TruncatedTensor(inc.size, level, signatures(np.stack([np.zeros_like(inc), inc]), level))


def signature_of_sequence(x, level: int) -> TruncatedTensor:
    """Truncated signature of the piecewise-linear embedding of ``x``."""
    arr = as_sequence(x)
    return TruncatedTensor(arr.shape[1], level, signatures(arr, level))


def signature_oracle(x, word: Word, steps: int = 1000) -> float:
    """Numerical iterated integral of ``x`` at one word.

    Integrates recursively on a uniform grid of ``steps`` intervals with the
    trapezoid rule: I_0 = 1 and I_j(t) = int_0^t I_{j-1}(s) dX_{s, w_j}.
    Converges to the exact coefficient as steps grows.
    """
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    arr = as_sequence(x)
    word = tuple(word)
    if not word:
        return 1.0
    n, e = arr.shape
    for letter in word:
        if not 1 <= letter <= e:
            raise ValueError(f"letter {letter} outside alphabet [1..{e}]")
    ts = np.linspace(0.0, 1.0, steps + 1)
    knots = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.0])
    grid = np.column_stack([np.interp(ts, knots, arr[:, c]) for c in range(e)])
    integral = np.ones(steps + 1)
    for letter in word:
        dx = np.diff(grid[:, letter - 1])
        increments = 0.5 * (integral[:-1] + integral[1:]) * dx
        integral = np.concatenate(([0.0], np.cumsum(increments)))
    return float(integral[-1])


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
