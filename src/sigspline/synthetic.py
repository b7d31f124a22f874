"""Controlled-experiment data: a VAR(2) process, a fixed observation map,
and PCA whitening.

The benchmark latent process is

    y_{t+1} = W1 y_t + W2 y_{t-1} + S z_{t+1},    z ~ N(0, I), S S^T = Sigma,

simulated from y_0 = y_1 = 0 with the first 100 steps discarded. Innovations
come from numpy's PCG64 generator (``default_rng(seed).standard_normal``), so
a seed pins the sequence exactly. S is the Cholesky factor when Sigma is
positive definite and the symmetric eigendecomposition square root when it is
merely positive semidefinite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .signature import as_sequence

# Fixed 2 -> 8 observation map: out = tanh(A y + b). The leading identity
# rows make A rank 2, hence the map injective.
_OBSERVE_A = np.array(
    [
        [1.0, 0.0],
        [0.0, 1.0],
        [0.7, 0.7],
        [0.9, -0.4],
        [-0.5, 1.1],
        [0.3, -0.8],
        [1.2, 0.5],
        [-0.6, -0.9],
    ]
)
_OBSERVE_B = np.array([0.0, 0.1, -0.2, 0.3, -0.1, 0.2, -0.3, 0.1])
MAPS = ("identity", "fixed_nonlinear")


def companion_spectral_radius(w1: np.ndarray, w2: np.ndarray) -> float:
    """Largest eigenvalue modulus of the stacked one-lag companion form."""
    d = w1.shape[0]
    top = np.hstack([w1, w2])
    bottom = np.hstack([np.eye(d), np.zeros((d, d))])
    return float(np.abs(np.linalg.eigvals(np.vstack([top, bottom]))).max())


@dataclass
class VarSpec:
    """Two-lag vector autoregression with Gaussian innovations."""

    w1: np.ndarray
    w2: np.ndarray
    sigma: np.ndarray
    n_lags: int = 4096
    rng_seed: int = 0
    burn_in: int = field(default=100, repr=False)

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        d = self.w1.shape[0]
        for name, m in (("w1", self.w1), ("w2", self.w2), ("sigma", self.sigma)):
            if m.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}, got {m.shape}")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        if self.n_lags < 1:
            raise ValueError(f"n_lags must be >= 1, got {self.n_lags}")
        radius = companion_spectral_radius(self.w1, self.w2)
        if radius >= 1.0:
            warnings.warn(
                f"companion spectral radius {radius:.3f} >= 1: process is not stationary",
                stacklevel=2,
            )

    @property
    def d(self) -> int:
        return self.w1.shape[0]


def benchmark_var_spec(n_lags: int = 4096, rng_seed: int = 0) -> VarSpec:
    """The benchmark configuration: diagonal lags (0.1, 0.2) / (0.6, 0.3),
    innovation covariance 0.5 I."""
    return VarSpec(
        w1=np.diag([0.1, 0.2]),
        w2=np.diag([0.6, 0.3]),
        sigma=np.diag([0.5, 0.5]),
        n_lags=n_lags,
        rng_seed=rng_seed,
    )


def _psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        eigval, eigvec = np.linalg.eigh(sigma)
        floor = -1e-10 * max(1.0, float(eigval.max(initial=0.0)))
        if eigval.min() < floor:
            raise np.linalg.LinAlgError(
                f"sigma is not positive semidefinite (min eigenvalue {eigval.min():.3e})"
            ) from None
        return eigvec @ np.diag(np.sqrt(np.clip(eigval, 0.0, None)))


def simulate_var2(spec: VarSpec) -> np.ndarray:
    """Draw spec.n_lags steps of the VAR(2); deterministic given spec.rng_seed."""
    root = _psd_sqrt(spec.sigma)
    rng = np.random.default_rng(spec.rng_seed)
    prev2 = np.zeros(spec.d)
    prev1 = np.zeros(spec.d)
    out = np.empty((spec.burn_in + spec.n_lags, spec.d))
    for t in range(out.shape[0]):
        step = spec.w1 @ prev1 + spec.w2 @ prev2 + root @ rng.standard_normal(spec.d)
        out[t] = step
        prev2, prev1 = prev1, step
    return out[spec.burn_in :]


def observe(latent, map_kind: str) -> np.ndarray:
    """Apply the observation map: 'identity' or the fixed 2->8 'fixed_nonlinear'."""
    arr = as_sequence(latent)
    if map_kind not in MAPS:
        raise ValueError(f"map_kind must be {'|'.join(MAPS)}, got {map_kind!r}")
    if map_kind == "identity":
        return arr.copy()
    if arr.shape[1] != _OBSERVE_A.shape[1]:
        raise ValueError(
            f"fixed_nonlinear map expects {_OBSERVE_A.shape[1]} channels, got {arr.shape[1]}"
        )
    return np.tanh(arr @ _OBSERVE_A.T + _OBSERVE_B)


@dataclass
class WhitenState:
    """Inverse data for :func:`pca_whiten`: x = z diag(sqrt(lam)) V^T + mean."""

    mean: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray


def pca_whiten(x) -> tuple[np.ndarray, WhitenState]:
    """Rotate onto covariance eigenvectors and scale to unit variance.

    The output has zero mean and identity sample covariance (ddof=1). Raises
    if the covariance is rank deficient, naming the degenerate direction.
    """
    arr = as_sequence(x)
    if arr.shape[0] < 2:
        raise ValueError("whitening needs at least 2 rows")
    mean = arr.mean(axis=0)
    centered = arr - mean
    cov = centered.T @ centered / (arr.shape[0] - 1)
    eigval, eigvec = np.linalg.eigh(cov)
    order = np.argsort(eigval)[::-1]
    eigval, eigvec = eigval[order], eigvec[:, order]
    tol = 1e-12 * max(1.0, float(eigval[0]))
    if eigval[-1] <= tol:
        direction = np.array2string(eigvec[:, -1], precision=4)
        raise ValueError(f"covariance is rank deficient along direction {direction}")
    whitened = centered @ eigvec / np.sqrt(eigval)
    return whitened, WhitenState(mean, eigvec, eigval)


def unwhiten(z, state: WhitenState) -> np.ndarray:
    """Exact inverse of :func:`pca_whiten`."""
    arr = as_sequence(z)
    return arr * np.sqrt(state.eigvals) @ state.eigvecs.T + state.mean
