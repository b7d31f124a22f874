"""The signature spline flow: conditional densities and sampling.

Each data coordinate i gets an N x K matrix of linear functionals on the
truncated signature of the conditioning path. The path fed to the signature
is the history with the candidate next observation appended, time-augmented,
started at a zero basepoint, and with the candidate's coordinates >= i hidden
(``chen_split``, ``masked_increments``). Softmax of the N functional values gives
the bin increments of a piecewise-linear conditional CDF; chaining the d conditionals triangularly
yields the joint density and an exact inverse-transform sampler.

Functions take (..., n, d) stacks; ``sample_from_series`` serves ``sample`` and ``evaluate``.
Conditioning signatures, but ``sample_step``'s and the fit's, come from ``conditioning_signatures``.
A batch of windows is one array: ``sliding_windows`` cuts a series into an
(M, length, d) stack, and ``SigSplineModel.params`` is one (d, bins, K) array.

Model-facing sequences live in [0,1]^d. Every model carries a per-channel
min/max affine map onto [0,1], fitted on training data or, when none is given,
the identity map of [0,1]; ``to_unit`` / ``from_unit`` convert raw data, and
out-of-range raw values are clamped just inside (0,1).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .signature import _fold, as_paths, as_sequence, extend
from .spline import softmax, spline_inverse, spline_log_density
from .tensor_algebra import feature_count

CLAMP_EPS = 1e-6

MODEL_FORMAT = "sigspline-model-v2"
_DOCUMENT_KEYS = ("d", "level", "bins", "window", "scale_min", "scale_max", "coefficients")


def parameter_count(d: int, level: int, bins: int) -> int:
    """Total parameters: d coordinate matrices of shape bins x f(1+d, level)."""
    return d * bins * feature_count(1 + d, level)


@dataclass
class SigSplineModel:
    """Coordinate-wise spline-CDF parameters plus preprocessing state.

    params is one (d, bins, K) float array, K = feature_count(1+d, level);
    params[i-1] is coordinate i's writable bins x K matrix. window limits
    conditioning to the last ``window`` observations (None = full history).
    scale_min/scale_max hold the per-channel affine map of raw data onto [0,1]; given
    together or not at all, they default to the identity map (zeros, ones) and are
    (d,) arrays after construction.
    """

    d: int
    level: int
    bins: int
    params: np.ndarray = field(repr=False)
    window: int | None = None
    scale_min: np.ndarray | None = None
    scale_max: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1 or self.level < 0 or self.bins < 1:
            raise ValueError(f"invalid hyperparameters d={self.d}, L={self.level}, N={self.bins}")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be >= 1 or None, got {self.window}")
        k = feature_count(1 + self.d, self.level)
        params = np.asarray(self.params, dtype=float)
        if params.shape != (self.d, self.bins, k):
            raise ValueError(f"parameters must be {self.d}x{self.bins}x{k}, got {params.shape}")
        bad = np.flatnonzero(~np.isfinite(params).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"coordinate {bad[0] + 1} parameters contain non-finite entries")
        self.params = params
        if (self.scale_min is None) != (self.scale_max is None):
            raise ValueError("scale_min and scale_max must be set together")
        if self.scale_min is None:
            self.scale_min, self.scale_max = np.zeros(self.d), np.ones(self.d)
        for key in ("scale_min", "scale_max"):
            v = np.asarray(getattr(self, key), dtype=float)
            if v.size != self.d:
                raise ValueError(f"{key} has {v.size} entries; the model has d={self.d} channels")
            setattr(self, key, v.reshape(self.d))
        if not np.isfinite([self.scale_min, self.scale_max]).all():
            raise ValueError(f"scale_min {self.scale_min.tolist()} and scale_max "
                             f"{self.scale_max.tolist()} must be finite")
        with np.errstate(over="ignore"):
            width = self.scale_max - self.scale_min
        bad = np.flatnonzero((width <= 0.0) | np.isinf(width))  # empty, reversed or too wide
        if bad.size:
            c, lo, hi = bad[0], self.scale_min, self.scale_max
            why = "its width overflows float64" if width[c] > 0.0 else "cannot rescale it to [0,1]"
            raise ValueError(f"channel {c + 1} spans [{lo[c]:g}, {hi[c]:g}]; {why}")

    @property
    def n_features(self) -> int:
        return feature_count(1 + self.d, self.level)

    def copy(self) -> "SigSplineModel":
        return replace(self, params=self.params.copy())


def zero_model(d: int, level: int, bins: int, window: int | None = None) -> SigSplineModel:
    """Model with all-zero functionals: every conditional is uniform."""
    return SigSplineModel(d, level, bins, np.zeros((d, bins, feature_count(1 + d, level))), window)


def to_unit(model: SigSplineModel, x) -> np.ndarray:
    """Map raw data onto [0,1]^d with the model's per-channel affine state.

    Values outside [scale_min, scale_max] land at CLAMP_EPS / 1 - CLAMP_EPS.
    """
    arr = as_paths(x)
    if arr.shape[-1] != model.d:
        raise ValueError(f"data has {arr.shape[-1]} channels, model expects {model.d}")
    z = (arr - model.scale_min) / (model.scale_max - model.scale_min)
    return np.where(z < 0.0, CLAMP_EPS, np.where(z > 1.0, 1.0 - CLAMP_EPS, z))


def from_unit(model: SigSplineModel, x) -> np.ndarray:
    """Inverse of :func:`to_unit` on in-range values."""
    return model.scale_min + as_paths(x) * (model.scale_max - model.scale_min)


def conditioning_path(history, candidate, window: int | None) -> np.ndarray:
    """The last ``window`` rows of (..., n, d) ``history`` (all if None), then ``candidate``."""
    if window is not None:
        history = history[..., -window:, :]
    return np.concatenate([history, candidate[..., None, :]], axis=-2)


def chen_split(path, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix signature (..., K) and last two embedded rows (..., 2, 1+d) of (..., n, d) paths.

    The d masked embeddings of a path share all but their last segment, so by Chen's identity
    coordinate i's signature is ``extend(prefix, masked_increments(ends, i), level)``: one fold
    per path. The embedding (zero basepoint row, then time stamps (j-1)/(n-1) as channel 1
    beside the data) is written into one array and folded unchecked.
    """
    arr = as_paths(path)
    n, d = arr.shape[-2:]
    if n < 2:
        raise ValueError(f"a conditioning path needs at least 2 rows, got {n}")
    emb = np.zeros((*arr.shape[:-2], n + 1, 1 + d))
    emb[..., 1:, 0] = np.linspace(0.0, 1.0, n)
    emb[..., 1:, 1:] = arr
    return _fold(emb[..., :-1, :], level), emb[..., -2:, :]


def masked_increments(ends, i: int | None = None) -> np.ndarray:
    """Every coordinate's last segment, (..., 2, 1+d) -> (d, ..., 1+d), or coordinate i's alone,
    (..., 1+d): row i - 1 ends coordinate i's masked embedding. One lower-triangular reveal
    mask keeps the time channel and x_<i; a hidden channel's increment is 0.0, the previous row
    minus itself."""
    last = ends[..., 1, :] - ends[..., 0, :]
    d = last.shape[-1] - 1
    if i is not None and not 1 <= i <= d:
        raise ValueError(f"coordinate {i} outside [1..{d}]")
    reveal = np.tri(d, d + 1, dtype=bool)[slice(None) if i is None else i - 1]
    return np.where(reveal.reshape(*reveal.shape[:-1], *(1,) * (last.ndim - 1), d + 1), last, 0.0)


def conditioning_signatures(x, level: int, window: int | None, i: int | None = None) -> np.ndarray:
    """The d conditioning signatures (d, ..., K) of the last rows of (..., n, d) windows, or
    coordinate i's alone (..., K): row i - 1 is the signature of coordinate i's masked embedding
    of the window's ``conditioning_path``, from one prefix fold extended by the masked last
    segments of ``masked_increments(ends, i)``."""
    arr = as_paths(x)
    prefix, ends = chen_split(conditioning_path(arr[..., :-1, :], arr[..., -1, :], window), level)
    return extend(prefix, masked_increments(ends, i), level)


def _conditioning_paths(model: SigSplineModel, history) -> np.ndarray:
    """The model's :func:`conditioning_path` of each (..., n, d) history; the candidate is
    the last history row, whose coordinates are masked until a caller writes them."""
    hist = as_paths(history)
    if hist.shape[-1] != model.d:
        raise ValueError(f"history has {hist.shape[-1]} channels, model expects {model.d}")
    return conditioning_path(hist, hist[..., -1, :], model.window)


def conditional_increments(history, next_partial, i: int, model: SigSplineModel) -> np.ndarray:
    """Bin increments of coordinate i's conditional CDF, (..., n, d) -> (..., N).

    ``next_partial`` supplies the candidate observation's coordinates < i;
    the rest of the candidate row is filled from the last history row and is
    masked away regardless.
    """
    if not 1 <= i <= model.d:
        raise ValueError(f"coordinate {i} outside [1..{model.d}]")
    path = _conditioning_paths(model, history)
    path[..., -1, : i - 1] = np.asarray(next_partial, dtype=float)[..., : i - 1]
    return softmax(conditioning_signatures(path, model.level, None, i) @ model.params[i - 1].T)


def log_likelihood(model: SigSplineModel, x) -> float | np.ndarray:
    """Log-density d ln N + sum_i ln delta_i[bin(x_i)] of each window's last row given the rest:
    (..., n, d) windows -> (...) values, and a float for one (n, d) window."""
    sigs = conditioning_signatures(x, model.level, model.window)
    if len(sigs) != model.d:
        raise ValueError(f"windows have {len(sigs)} channels, model expects {model.d}")
    delta = softmax(np.stack([sig @ u.T for sig, u in zip(sigs, model.params)], axis=-2))
    out = spline_log_density(np.asarray(x, dtype=float)[..., -1, :], delta).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def sample_step(model: SigSplineModel, history, u) -> np.ndarray:
    """One inverse-transform draw per history: x_i = F_i^{-1}(u_i | history, x_{<i})."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (model.d,):
        raise ValueError(f"u must have {model.d} entries per history, got shape {u.shape}")
    prefix, ends = chen_split(_conditioning_paths(model, history), model.level)  # one fold per step
    drawn = np.empty((*prefix.shape[:-1], model.d))
    for i in range(1, model.d + 1):
        sig = extend(prefix, masked_increments(ends, i), model.level)
        drawn[..., i - 1] = spline_inverse(u[..., i - 1], softmax(sig @ model.params[i - 1].T))
        ends[..., -1, i] = drawn[..., i - 1]  # reveal x_i in the candidate row, after time
    return drawn


def extend_path(model: SigSplineModel, history, horizon: int, rng) -> np.ndarray:
    """Append ``horizon`` sampled rows to each history, with uniforms drawn as
    rng.random((..., horizon, d)): the stream of per-history, per-step calls."""
    path = as_paths(history)
    u = rng.random((*path.shape[:-2], horizon, model.d))
    for t in range(horizon):
        nxt = sample_step(model, path, u[..., t, :])
        path = np.concatenate([path, nxt[..., None, :]], axis=-2)
    return path


def sample_from_series(model: SigSplineModel, series, batch: int, horizon: int, rng) -> np.ndarray:
    """Sample ``horizon`` raw-unit steps after each of ``batch`` histories: (batch, horizon, d).

    Histories span the model's window (2 rows if None) and are picked from the
    series' sliding windows without replacement; ``rng`` then gives the uniforms.
    """
    windows = sliding_windows(series, model.window or 2)
    if windows.shape[2] != model.d:
        raise ValueError(f"data has {windows.shape[2]} channels, model expects {model.d}")
    if not 1 <= batch <= len(windows) or horizon < 1:
        raise ValueError(f"need 1 <= batch <= {len(windows)} available histories and horizon >= 1, "
                         f"got batch {batch}, horizon {horizon}")
    histories = to_unit(model, windows[rng.choice(len(windows), size=batch, replace=False)])
    return from_unit(model, extend_path(model, histories, horizon, rng)[:, windows.shape[1]:])


def sliding_windows(x, length: int) -> np.ndarray:
    """All contiguous windows of ``length`` rows of an (n, d) series, oldest first: an owned
    (n - length + 1, length, d) array."""
    arr = as_sequence(x)
    if length < 1 or length > arr.shape[0]:
        raise ValueError(f"window length {length} invalid for {arr.shape[0]} rows")
    return arr[np.arange(arr.shape[0] - length + 1)[:, None] + np.arange(length)]


def model_to_dict(model: SigSplineModel) -> dict:
    """The model document; ``coefficients`` is base64 of the little-endian float64
    (d, bins, K) stack in C order, so the round trip is bit-exact."""
    return {
        "format": MODEL_FORMAT,
        "d": model.d,
        "level": model.level,
        "bins": model.bins,
        "window": model.window,
        "scale_min": model.scale_min.tolist(),
        "scale_max": model.scale_max.tolist(),
        "coefficients": base64.b64encode(np.asarray(model.params, "<f8").tobytes()).decode("ascii"),
    }


def model_from_dict(doc: dict) -> SigSplineModel:
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(
            f"model document format {doc.get('format')!r} is not {MODEL_FORMAT!r}; "
            "refit the model to write the current format"
        )
    missing = [key for key in _DOCUMENT_KEYS if key not in doc]
    if missing:
        raise ValueError(f"model document lacks {missing}")
    for key in ("d", "level", "bins", "window"):
        # type(...) is int also rejects a bool, which JSON would otherwise pass as 0 or 1
        if type(doc[key]) is not int and not (key == "window" and doc[key] is None):
            kind = "an integer or null" if key == "window" else "an integer"
            raise ValueError(f"model {key} must be {kind}, got {doc[key]!r}")
    for key in ("scale_min", "scale_max"):
        value = doc[key]
        if value is not None and not (isinstance(value, list)
                                      and all(type(v) in (int, float) for v in value)):
            raise ValueError(f"model {key} must be a list of numbers or null, got {value!r}")
    if not isinstance(doc["coefficients"], str):
        raise ValueError("model coefficients must be a base64 string")
    d, level, bins = doc["d"], doc["level"], doc["bins"]
    try:
        k = feature_count(1 + d, level)
    except OverflowError as exc:  # a well-typed but huge d or level
        raise ValueError(f"model d={d}, L={level} is too large: {exc}") from None
    raw = base64.b64decode(doc["coefficients"], validate=True)
    if len(raw) != 8 * d * bins * k:
        raise ValueError(
            f"coefficients hold {len(raw)} bytes, expected {8 * d * bins * k} for d={d}, "
            f"L={level}, N={bins}"
        )
    return SigSplineModel(
        d=d,
        level=level,
        bins=bins,
        params=np.frombuffer(raw, dtype="<f8").reshape(d, bins, k).astype(float),  # owned, writable
        window=doc["window"],
        scale_min=doc["scale_min"],  # null, as older files hold, is the identity map
        scale_max=doc["scale_max"],
    )


def save_model(model: SigSplineModel, path, config: dict | None = None) -> None:
    """Write the model document, with the resolved ``config`` echoed when given."""
    doc = model_to_dict(model)
    if config is not None:
        doc["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> SigSplineModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
