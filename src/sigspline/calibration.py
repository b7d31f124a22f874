"""Maximum-likelihood calibration of the signature spline flow.

The Monte Carlo objective is the mean negative log bin-probability over a
dataset of sequences. It separates over coordinates, and per coordinate it is
a softmax regression on the (parameter-independent) signature features of the
masked conditioning paths: convex, with closed-form gradient

    (p - c) outer y      per sample,

p the softmax probabilities, c the one-hot bin indicator, y the feature
vector, and Hessian (diag(p) - p p^T) kron (y y^T), positive semidefinite.
Its entries are symmetric in the bin pair (a, b) and in the feature pair (k, l),
so it is assembled from one GEMM over unique pairs only: weights
p_a (delta_ab - p_b) for a <= b against feature products y_k y_l for k <= l,
N(N+1)/2 * K(K+1)/2 multiply-adds per sample (about half of a syrk on p kron y),
then one gather expands the pairs to the dense, exactly symmetric matrix. Each
chunk of rows is sized so that its weights and products together hold at most
HESSIAN_CHUNK_ROWS * N * K elements (at least one row). A coordinate's Newton
steps build their Hessians in one workspace (_HessianWork): the chunk buffers,
the pair Gram and the dense result, whose memory also takes each chunk's GEMM
output until the gather. It holds the result, the Gram, one chunk and one bin row
of the result (1/N of it), and after the first step no call allocates any of them.
Each coordinate's design is built as it is fitted; every optimizer iteration is a pure
linear-algebra pass. Fitting is full-batch gradient descent (or Newton for
small problems), with early stopping on a held-out split. The designs are
rank-deficient (the time channel makes S(1) = 1, and the shuffle identity ties
the lower levels to level L), so Newton builds its Hessian and solves in an
orthonormal basis Q of the design's row space, Y = (Y Q) Q^T, and maps the
step back; iterates, objective and stopping stay in full coordinates. A seed
changes only the split, so multi_seed_fit (fit is its one-seed case) fits
coordinates outer, seeds inner: a coordinate's basis and workspace serve every seed.
One loop serves both optimizers; only the step direction differs. Each step is
accepted by backtracking by halves on the regularized training objective
(damped Newton, Boyd & Vandenberghe 2004, 9.5): the first of the rates lr, lr/2,
..., lr/2**MAX_RESTARTS (lr = 1 for Newton) whose objective does not rise and
whose training and validation NLL are finite. Without one the fit stops at its
best validation iterate, or raises DivergenceError if every trial was non-finite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .model import (
    SigSplineModel, chen_split, conditioning_path, masked_increments, parameter_count,
    sliding_windows, to_unit,
)
from .signature import CHUNK_ROWS, as_paths, as_sequence, extend
from .spline import bin_indicator
from .tensor_algebra import feature_count

HESSIAN_SIZE_LIMIT = 10_000
HESSIAN_CHUNK_ROWS = 512  # a Hessian row chunk's weights and products fit in this many N*K rows
ROW_SPACE_RTOL = 1e-12  # kept singular values, relative to the largest; designs show ~11-order gaps
MAX_RESTARTS = 5  # halvings of one step before its line search gives up
REG_KINDS = ("none", "l1", "l2")
OPTIMIZERS = ("gradient_descent", "newton")


class DivergenceError(RuntimeError):
    """Raised when the objective stays non-finite after repeated step halving."""


@dataclass
class TrainConfig:
    """Hyperparameters for one calibration run.

    level/bins/window describe the model being fitted; the remaining fields
    drive the optimizer. The learning rate, iteration cap, and split fraction
    are practical defaults, not protocol constants.
    """

    level: int = 2
    bins: int = 64
    window: int | None = None
    learning_rate: float = 0.1
    max_iters: int = 5000
    patience: int = 32
    reg_kind: str = "none"
    reg_lambda: float = 0.0
    optimizer: str = "gradient_descent"
    train_fraction: float = 0.8
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:  # NaN fails every comparison
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.reg_lambda < np.inf:
            raise ValueError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")
        if not 0 < self.train_fraction < 1:
            raise ValueError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if self.max_iters < 1 or self.patience < 1:
            raise ValueError("max_iters and patience must be >= 1")
        if self.reg_kind not in REG_KINDS:
            raise ValueError(f"reg_kind must be {'|'.join(REG_KINDS)}, got {self.reg_kind!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be {'|'.join(OPTIMIZERS)}, got {self.optimizer!r}")
        if self.optimizer == "newton" and self.reg_kind == "l1":
            raise ValueError("newton is not available with the non-smooth l1 penalty")
        if self.level < 0 or self.bins < 1:
            raise ValueError(f"invalid level={self.level} or bins={self.bins}")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be >= 1 or None, got {self.window}")


@dataclass
class FitReport:
    """Traces and outcome of one fit; ``dataclasses.asdict`` serializes it."""

    seed: int
    n_train: int
    n_test: int
    train_nll: list[list[float]]
    test_nll: list[list[float]]
    stopped_iteration: list[int]
    final_train_nll: float
    final_test_nll: float
    config: dict


@dataclass
class MultiSeedResult:
    reports: list[FitReport]
    models: list[SigSplineModel]
    summary: dict
    best_index: int

    @property
    def best_model(self) -> SigSplineModel:
        return self.models[self.best_index]


# ---------------------------------------------------------------------------
# designs: parameter-independent features per (sample, coordinate)


def _stacks(dataset) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions, (m, n, d) stack) pairs of equal-length sequences covering a dataset, checked
    by ``as_paths``: an (M, n, d) array is one stack, a list of (n_j, d) sequences is grouped by
    length, shortest first."""
    if isinstance(dataset, np.ndarray) and dataset.ndim == 3:
        groups = [(np.arange(len(dataset)), dataset)] if len(dataset) else []
    else:
        arrs = [as_sequence(seq) for seq in dataset]
        for j, arr in enumerate(arrs):
            if arr.shape[1] != arrs[0].shape[1]:
                raise ValueError(f"sequence {j} has {arr.shape[1]} channels, expected "
                                 f"{arrs[0].shape[1]}")
        lengths = np.array([len(arr) for arr in arrs])
        rows = [np.flatnonzero(lengths == n) for n in np.unique(lengths)]
        groups = [(at, np.stack([arrs[j] for j in at])) for at in rows]
    if not groups:
        raise ValueError("empty dataset")
    return [(at, as_paths(stack)) for at, stack in groups]


def _featurize(stacks, level: int, bins: int, window: int | None):
    """Coordinate i -> its design of ``_stacks`` pairs (rows as in ``conditioning_signatures``),
    extended CHUNK_ROWS rows at a time from one ``chen_split`` fold of each window's prefix."""
    first, shortest = stacks[0]
    if shortest.shape[1] < 2:
        raise ValueError(f"sequence {first[0]} has fewer than 2 rows")
    m, d = sum(len(at) for at, _ in stacks), shortest.shape[2]
    prefix, ends = np.empty((m, feature_count(1 + d, level))), np.empty((m, 2, 1 + d))
    last_bins = np.empty((m, d), dtype=int)
    for at, x in stacks:
        last_bins[at] = bin_indicator(x[:, -1], bins) - 1
        prefix[at], ends[at] = chen_split(conditioning_path(x[:, :-1], x[:, -1], window), level)

    def design(i: int):
        feats = np.empty_like(prefix)  # filled by chunks, whose temporaries stay in cache
        for start in range(0, m, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            feats[rows] = extend(prefix[rows], masked_increments(ends[rows], i), level)
        return feats, last_bins[:, i - 1]
    return design


def build_design(dataset, i, level: int, bins: int, window: int | None = None):
    """Feature matrix Y (M x K) and 0-based bin indices for coordinate i, or a list of them if
    ``i`` is a sequence, of an (M, n, d) array or a list of (n_j, d) sequences."""
    design = _featurize(_stacks(dataset), level, bins, window)
    return [design(c) for c in i] if np.ndim(i) else design(i)


def _designs(model: SigSplineModel, dataset):
    unit = [(at, to_unit(model, stack)) for at, stack in _stacks(dataset)]
    return _featurize(unit, model.level, model.bins, model.window)


# ---------------------------------------------------------------------------
# objective, gradient, Hessian


def _nll_and_grad(u: np.ndarray, feats: np.ndarray, cbin: np.ndarray, want_grad: bool = True):
    # overflow to inf/nan is expected during divergent steps; the fitting
    # loop's line search rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        logits = feats @ u.T
        peak = logits.max(axis=1, keepdims=True)
        expd = np.exp(logits - peak)
        norm = expd.sum(axis=1)
        idx = np.arange(len(cbin))
        nll = float(np.mean(peak[:, 0] + np.log(norm) - logits[idx, cbin]))
        if not want_grad:
            return nll, None
        probs = expd / norm[:, None]
        probs[idx, cbin] -= 1.0
        return nll, probs.T @ feats / len(cbin)


def _penalty(u: np.ndarray, kind: str, lam: float) -> float:
    if kind == "l1":
        return lam * float(np.abs(u).sum())
    if kind == "l2":
        return lam * float((u * u).sum())
    return 0.0


def _penalty_grad(u: np.ndarray, kind: str, lam: float) -> np.ndarray:
    if kind == "l1":
        return lam * np.sign(u)  # subgradient, sign(0) = 0
    if kind == "l2":
        return 2.0 * lam * u
    return np.zeros_like(u)


def loss(model: SigSplineModel, dataset) -> float:
    """Mean negative log bin-probability, summed over coordinates."""
    design = _designs(model, dataset)
    return sum(_nll_and_grad(u, *design(i), False)[0] for i, u in enumerate(model.params, 1))


def gradient(model: SigSplineModel, dataset) -> list[np.ndarray]:
    """Analytic gradient of :func:`loss`, one bins x K array per coordinate."""
    design = _designs(model, dataset)
    return [_nll_and_grad(u, *design(i))[1] for i, u in enumerate(model.params, 1)]


def regularized_loss(model: SigSplineModel, dataset, reg_lambda: float, reg_kind: str) -> float:
    """:func:`loss` plus lambda * (l1 norm or squared l2 norm) of all parameters."""
    if reg_kind not in REG_KINDS:
        raise ValueError(f"reg_kind must be {'|'.join(REG_KINDS)}, got {reg_kind!r}")
    return loss(model, dataset) + sum(_penalty(u, reg_kind, reg_lambda) for u in model.params)


def _check_hessian_size(n_bins: int, n_feat: int) -> None:
    # the guard is on the full N*K problem, checked before anything is allocated
    size = n_bins * n_feat
    if size > HESSIAN_SIZE_LIMIT:
        raise ValueError(f"Hessian of size {size}^2 exceeds the {HESSIAN_SIZE_LIMIT} guard; "
                         "use gradient_descent")


def _row_space_basis(feats: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q (K x r) of the design's row space, r its numerical rank."""
    _, sing, vt = np.linalg.svd(feats, full_matrices=False)
    return vt[: np.count_nonzero(sing > ROW_SPACE_RTOL * sing[0])].T


def _pair_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each a's block of pairs (a, a), (a, a+1), ..., (a, n-1) starts among the pairs a <= b
    of range(n) in that order (n + 1 offsets), and the (n, n) map from (a, b) to the pair."""
    first, second = np.triu_indices(n)
    number = np.empty((n, n), dtype=np.intp)
    number[first, second] = number[second, first] = np.arange(first.size)
    return np.append(np.diagonal(number), first.size), number


class _HessianWork:
    """Buffers for the Hessians of one (M, K) design with N bins, reused by every call that is
    given them: one chunk's transposed features, logits, pair weights and pair products (flat,
    viewed at each chunk's row count), the pair Gram, and the dense result with one bin row of
    its expansion, allocated by the first call. Each call overwrites the result."""

    def __init__(self, n_bins: int, n_rows: int, n_feat: int):
        self.bin_at = _pair_blocks(n_bins)[0]
        self.feat_at, self.feat_pair = _pair_blocks(n_feat)
        n_pairs = (int(self.bin_at[-1]), int(self.feat_at[-1]))
        self.rows = max(1, HESSIAN_CHUNK_ROWS * n_bins * n_feat // sum(n_pairs))
        self.sizes = (n_feat, n_bins, *n_pairs)
        self.chunk = [np.empty(size * min(self.rows, n_rows)) for size in self.sizes]
        self.gram = np.empty(n_pairs)
        self.result = self.row = self.product = None


def _accumulate_gram(u: np.ndarray, feats: np.ndarray, work: _HessianWork) -> None:
    # entry ((a,k),(b,l)) = sum_j p_ja (delta_ab - p_jb) y_jk y_jl / M depends only on the
    # unordered pairs {a,b} and {k,l}, so only pairs a <= b, k <= l are computed
    bin_at, feat_at = work.bin_at, work.feat_at
    work.gram.fill(0.0)
    for start in range(0, feats.shape[0], work.rows):
        chunk = feats[start : start + work.rows]
        ft, probs, weights, products = (buf[: size * len(chunk)].reshape(size, len(chunk))
                                        for buf, size in zip(work.chunk, work.sizes))
        np.copyto(ft, chunk.T)
        np.matmul(u, ft, out=probs)
        probs -= probs.max(axis=0)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=0)
        for a in range(len(u)):  # block a: p_a (delta_ab - p_b), b = a..N-1
            block = weights[bin_at[a] : bin_at[a + 1]]
            np.negative(probs[a:], out=block)
            block[0] += 1.0
            block *= probs[a]
        for k in range(len(ft)):  # block k: y_k y_l, l = k..K-1
            np.multiply(ft[k:], ft[k], out=products[feat_at[k] : feat_at[k + 1]])
        work.gram += np.matmul(weights, products.T, out=work.product)
    work.gram /= feats.shape[0]


def _expand_gram(work: _HessianWork) -> np.ndarray:
    # block (a, b) of the result is Gram row {a, b} through the (K, K) feature pair map
    n_bins, n_feat = len(work.bin_at) - 1, len(work.feat_pair)
    if work.result is None:
        work.result = np.empty((n_bins * n_feat, n_bins * n_feat))
        work.row = np.empty((n_bins, n_feat, n_feat))
        # later Gram products go to the result's memory, which is free until this expansion
        work.product = work.result.reshape(-1)[: work.gram.size].reshape(work.gram.shape)
    result = work.result.reshape(n_bins, n_feat, n_bins, n_feat)
    for a in range(n_bins):
        row = work.row[: n_bins - a]
        np.take(work.gram[work.bin_at[a] : work.bin_at[a + 1]], work.feat_pair, axis=1, out=row,
                mode="clip")  # mode="raise" would buffer the output
        result[a, :, a:] = row.transpose(1, 0, 2)
        result[a:, :, a] = row
    return work.result


def _hessian_from_design(u: np.ndarray, feats: np.ndarray,
                         work: _HessianWork | None = None) -> np.ndarray:
    """The dense (N*K)^2 Hessian, written into ``work.result``. Without ``work``, a workspace is
    built for this call and its chunk buffers are dropped before the result is allocated."""
    one_shot = work is None
    if one_shot:
        work = _HessianWork(len(u), *feats.shape)
    _accumulate_gram(u, feats, work)
    if one_shot:
        work.chunk = None
    return _expand_gram(work)


def hessian(model: SigSplineModel, dataset, i: int) -> np.ndarray:
    """Sample-averaged Hessian of coordinate i's objective.

    Row/column order follows params[i-1].ravel(): bin-major, feature-minor.
    """
    if not 1 <= i <= model.d:
        raise ValueError(f"coordinate {i} outside [1..{model.d}]")
    _check_hessian_size(model.bins, model.n_features)
    feats, _ = _designs(model, dataset)(i)
    return _hessian_from_design(model.params[i - 1], feats)


# ---------------------------------------------------------------------------
# fitting


def _split_indices(n: int, fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    perm = rng.permutation(n)
    n_train = int(round(fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _fit_coordinate(feats, cbin, train_idx, test_idx, cfg: TrainConfig, newton=None):
    """Optimize one coordinate's matrix with the module's line search; returns (best params,
    traces, stop). Newton takes ``newton`` = (row-space basis, _HessianWork) from its caller.
    A step is taken only if the gradient norm is at least 1e-13."""
    ftr, ctr, fte, cte = feats[train_idx], cbin[train_idx], feats[test_idx], cbin[test_idx]
    if cfg.optimizer == "newton":  # Newton's Hessian and solve live in the design's row space
        basis, work = newton
        ftr_basis, first_rate = ftr @ basis, 1.0

        def direction(u, grad):
            hess = _hessian_from_design(u @ basis, ftr_basis, work)
            if cfg.reg_kind == "l2":
                hess[np.diag_indices_from(hess)] += 2.0 * cfg.reg_lambda
            rhs = (grad @ basis).ravel()
            try:
                flat = np.linalg.solve(hess, rhs)
            except np.linalg.LinAlgError:
                flat = np.linalg.lstsq(hess, rhs, rcond=None)[0]
            step = flat.reshape(len(u), -1) @ basis.T
            return step - step.mean(axis=0)  # min norm; a shift common to every bin changes nothing
    else:
        direction, first_rate = (lambda u, grad: grad), cfg.learning_rate
    u = np.zeros((cfg.bins, feats.shape[1]))
    train_nll, grad = _nll_and_grad(u, ftr, ctr)
    test_nll, objective = _nll_and_grad(u, fte, cte, want_grad=False)[0], train_nll  # 0 penalty
    best_test, best_u, streak, train_trace, test_trace = np.inf, u, 0, [], []
    while True:
        streak = streak + 1 if test_trace and test_nll > test_trace[-1] else 0
        if test_nll < best_test:
            best_test, best_u = test_nll, u
        train_trace.append(train_nll)
        test_trace.append(test_nll)
        step_grad = grad + _penalty_grad(u, cfg.reg_kind, cfg.reg_lambda)
        with np.errstate(over="ignore"):
            stationary = np.linalg.norm(step_grad) < 1e-13
        if len(train_trace) == cfg.max_iters or streak >= cfg.patience or stationary:
            break
        step, rate, all_non_finite = direction(u, step_grad), first_rate, True
        for _ in range(MAX_RESTARTS + 1):
            new_u = u - rate * step
            new_nll, new_grad = _nll_and_grad(new_u, ftr, ctr)
            new_obj = new_nll + _penalty(new_u, cfg.reg_kind, cfg.reg_lambda)
            if new_obj <= objective:  # False for nan; the current objective is finite
                new_test = _nll_and_grad(new_u, fte, cte, want_grad=False)[0]
                if np.isfinite(new_test):
                    break
            else:
                all_non_finite &= not np.isfinite(new_obj)
            rate /= 2.0
        else:
            if all_non_finite:
                raise DivergenceError(f"objective non-finite at iteration {len(train_trace)} "
                                      f"after {MAX_RESTARTS} step halvings")
            break
        u, train_nll, grad, test_nll, objective = new_u, new_nll, new_grad, new_test, new_obj
    return best_u, train_trace, test_trace, len(train_trace)


def _prepare(dataset, cfg: TrainConfig):
    """Check Newton's Hessian size, then return the zero-coefficient model that carries (and
    checks) the dataset's per-channel [0,1] map, and the designs of its ``to_unit`` map."""
    stacks = _stacks(dataset)
    lo = np.min([stack.min(axis=(0, 1)) for _, stack in stacks], axis=0)
    hi = np.max([stack.max(axis=(0, 1)) for _, stack in stacks], axis=0)
    d, k = len(lo), feature_count(1 + len(lo), cfg.level)
    if cfg.optimizer == "newton":
        _check_hessian_size(cfg.bins, k)
    scaled = SigSplineModel(d, cfg.level, cfg.bins, np.zeros((d, cfg.bins, k)), cfg.window, lo, hi)
    unit = [(at, to_unit(scaled, stack)) for at, stack in stacks]
    return scaled, _featurize(unit, cfg.level, cfg.bins, cfg.window)


def fit(dataset, config: TrainConfig):
    """Calibrate a model on raw sequences: the one-seed :func:`multi_seed_fit`'s (model, report).

    Each coordinate is fitted independently from zero initialization, with
    early stopping once the held-out NLL worsens ``patience`` times in a row;
    the best held-out iterate is kept. Deterministic given config.rng_seed.
    """
    result = multi_seed_fit(dataset, config, n_seeds=1)
    return result.models[0], result.reports[0]


def multi_seed_fit(dataset, config: TrainConfig, n_seeds: int = 10) -> MultiSeedResult:
    """Calibrate with seeds rng_seed..rng_seed+n_seeds-1, which vary only the train/test split.

    Coordinates are outer, seeds inner: a coordinate's design, row-space basis and Newton
    workspace, built as it starts, serve every seed. Summary: mean/std of final train/test NLL.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    scaled, design = _prepare(dataset, config)
    configs = [replace(config, rng_seed=config.rng_seed + s) for s in range(n_seeds)]
    splits = [_split_indices(len(dataset), cfg.train_fraction,
                             np.random.default_rng(cfg.rng_seed)) for cfg in configs]
    per_coordinate = []
    for feats, cbin in map(design, range(1, scaled.d + 1)):
        newton = None
        if config.optimizer == "newton":  # every seed has the same number of training rows
            basis = _row_space_basis(feats)
            newton = basis, _HessianWork(config.bins, len(splits[0][0]), basis.shape[1])
        per_coordinate.append([_fit_coordinate(feats, cbin, *split, cfg, newton)
                               for cfg, split in zip(configs, splits)])
        del feats, newton  # at most one design and one workspace are alive
    reports, models = [], []
    for cfg, (train_idx, test_idx), fits in zip(configs, splits, zip(*per_coordinate)):
        params, train_traces, test_traces, stops = map(list, zip(*fits))
        best = [int(np.argmin(te)) for te in test_traces]  # the first best validation iterate
        final_train, final_test = (sum(trace[b] for trace, b in zip(traces, best))
                                   for traces in (train_traces, test_traces))
        models.append(replace(scaled, params=params))
        reports.append(FitReport(
            seed=cfg.rng_seed, n_train=len(train_idx), n_test=len(test_idx),
            train_nll=train_traces, test_nll=test_traces, stopped_iteration=stops,
            final_train_nll=final_train, final_test_nll=final_test, config=asdict(cfg)))
    test = np.array([r.final_test_nll for r in reports])
    train = np.array([r.final_train_nll for r in reports])
    summary = {
        "n_seeds": n_seeds,
        "test_nll_mean": float(test.mean()),
        "test_nll_std": float(test.std(ddof=1)) if n_seeds > 1 else 0.0,
        "train_nll_mean": float(train.mean()),
        "train_nll_std": float(train.std(ddof=1)) if n_seeds > 1 else 0.0,
        "parameter_count": parameter_count(scaled.d, config.level, config.bins),
    }
    return MultiSeedResult(reports, models, summary, int(np.argmin(test)))


def windows_from_series(series, window: int) -> np.ndarray:
    """The (M, window+1, d) training windows of one long series."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    arr = as_sequence(series)
    if arr.shape[0] < window + 2:
        raise ValueError(
            f"series of {arr.shape[0]} rows too short for window {window} (needs >= {window + 2})"
        )
    return sliding_windows(arr, window + 1)
