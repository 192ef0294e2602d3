"""Slow-path oracles: the plain algorithms that fast paths must match bitwise.

``ista`` is the exception: the logreg solver is a different algorithm, and
must reach an objective no worse than ISTA's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from imbalance_bench import fit_with_params, pr_auc
from imbalance_bench.classifiers import _simplicity_key
from imbalance_bench.classifiers.tree import TreeNode, _exact_cost, _leaf, _precedes
from imbalance_bench.datasets import Dataset, feature_matrix, imbalance_ratio, stratified_kfold
from imbalance_bench.errors import EmptyGrid, MinorityTooSmall, MultiplierOutOfRange, TooFewElements
from imbalance_bench.evaluation import (
    _INFEASIBLE,
    DEFAULT_MULTIPLIER_GRID,
    CVReport,
    _clamped,
    _effective_grid,
    _tune,
)
from imbalance_bench.resampling import (
    DEFAULT_SMOTE_K,
    Method,
    ResamplingSpec,
    SmoteRecord,
    _check_multiplier,
    _round_half_even,
    resample,
)
from imbalance_bench.rng import derive_seed, substream, uniform_closed


def full_search(spec, pairs):
    """select_hyperparams without its early exit or shared fits: every candidate, simplest first, one fit each."""
    table = []
    best_params, best_q = None, -1.0
    for params in sorted(spec.grid, key=lambda p: _simplicity_key(spec.family, p)):
        total = 0.0
        for train, val in pairs:
            total += pr_auc(fit_with_params(spec.family, params, train).score(val.features), val.labels)
        mean_q = total / len(pairs)
        table.append((dict(params), mean_q))
        if mean_q > best_q:
            best_params, best_q = dict(params), mean_q
    return best_params, tuple(table)


def fraction_cost(n_left, k_left, n_right, k_right):
    """n_L * gini_L + n_R * gini_R as a Fraction."""
    return Fraction(n_left * n_left - k_left * k_left - (n_left - k_left) ** 2, n_left) + Fraction(
        n_right * n_right - k_right * k_right - (n_right - k_right) ** 2, n_right
    )


def brute_force_best_split(X, y, min_leaf):
    """Exhaustive exact-Gini split search with the declared tie order."""
    n, d = X.shape
    best = None
    for j in range(d):
        values = sorted(set(X[:, j]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            left = X[:, j] <= t
            nl, nr = int(left.sum()), int((~left).sum())
            if nl < min_leaf or nr < min_leaf:
                continue
            kl, kr = int(y[left].sum()), int(y[~left].sum())
            key = (fraction_cost(nl, kl, nr, kr), j, t)
            if best is None or key < best:
                best = key
    return None if best is None else (best[1], best[2])


def masked_sigmoid(z):
    """The two-branch sigmoid with boolean gather and scatter."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _smooth_loss_and_gradient(w, b, X, y):
    z = X @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    residual = masked_sigmoid(z) - y
    grad_w = X.T @ residual / len(y)
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def _objective(loss, w, lam):
    return loss + lam * float(np.abs(w).sum())


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def l1_logreg_objective(X, y, w, b, lam):
    loss, _, _ = _smooth_loss_and_gradient(w, b, X, y)
    return _objective(loss, w, lam)


def l1_logreg_kkt_residual(X, y, w, b, lam):
    """Norm of the smallest subgradient of the L1 objective at (w, b), coordinate by coordinate."""
    _, grad_w, grad_b = _smooth_loss_and_gradient(w, b, X, y)
    parts = [grad_b]
    for g, wj in zip(grad_w.tolist(), w.tolist()):
        parts.append(g + math.copysign(lam, wj) if wj != 0.0 else max(abs(g) - lam, 0.0))
    return math.sqrt(sum(p * p for p in parts))


def ista(X, y, lam, max_iter=5000, tol=1e-8):
    """ISTA with backtracking from w = 0, b = 0, stopping when an accepted step gains less than tol."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    step = 1.0
    loss, grad_w, grad_b = _smooth_loss_and_gradient(w, b, X, y)
    objective = _objective(loss, w, lam)
    history = [objective]
    for _ in range(max_iter):
        while True:
            w_new = _soft_threshold(w - step * grad_w, step * lam)
            b_new = b - step * grad_b
            z = X @ w_new + b_new
            loss_new = float(np.mean(np.logaddexp(0.0, z) - y * z))
            dw = w_new - w
            db = b_new - b
            gap = float(dw @ dw + db * db)
            bound = loss + float(grad_w @ dw) + grad_b * db + gap / (2.0 * step)
            objective_new = _objective(loss_new, w_new, lam)
            if loss_new <= bound + 1e-15 and objective_new <= objective:
                break
            step *= 0.5
            if step < 1e-18:
                return w, b, history
        improvement = objective - objective_new
        w, b, objective = w_new, b_new, objective_new
        history.append(objective)
        if improvement < tol:
            break
        loss, grad_w, grad_b = _smooth_loss_and_gradient(w, b, X, y)
    return w, b, history


def knn_loop_score(scorer, X):
    """KnnScorer.score one query row at a time, with a full stable sort of its distances."""
    X = feature_matrix(X, scorer.n_features)
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        diff = scorer.train_features - row
        dist = np.einsum("ij,ij->i", diff, diff)
        nearest = np.argsort(dist, kind="stable")[: scorer.k]
        out[i] = scorer.train_labels[nearest].mean()
    return out


def _next_synth_counter(dataset: Dataset) -> int:
    """One above the highest synth counter, parsed from every id string; 0 when there is none."""
    highest = -1
    for ident in dataset.ids:
        if ident.startswith("synth:"):
            highest = max(highest, int(ident.split(":", 1)[1]))
    return highest + 1


class ResampleResult(NamedTuple):
    """A resampling outcome with its provenance as id strings and records, built as it happens."""

    dataset: Dataset
    added: tuple[SmoteRecord, ...] = ()
    removed_ids: tuple[str, ...] = ()


# ROS and SMOTE with a record loop each; SMOTE with a loop over the synthetics, a neighbour cache and
# a full stable sort of each seed's distances
def ros(dataset: Dataset, m: float, seed: int) -> ResampleResult:
    """Append round((m-1)|C1|) uniform-with-replacement copies of minor elements."""
    _check_multiplier(dataset, m)
    minor_idx = dataset.class_indices(1)
    n_new = _round_half_even((m - 1.0) * len(minor_idx))
    if n_new == 0:
        return ResampleResult(dataset=dataset)
    rng = substream(seed, "ros")
    picks = minor_idx[rng.integers(0, len(minor_idx), size=n_new)]
    counter = _next_synth_counter(dataset)
    new_ids = tuple(f"synth:{counter + i}" for i in range(n_new))
    records = tuple(
        SmoteRecord(synth_id=new_ids[i], seed_id=dataset.ids[p], neighbor_id=dataset.ids[p], lam=0.0)
        for i, p in enumerate(picks)
    )
    features = np.vstack([dataset.features, dataset.features[picks]])
    labels = np.concatenate([dataset.labels, np.ones(n_new, dtype=np.int64)])
    return ResampleResult(
        dataset=Dataset(features, labels, dataset.ids + new_ids), added=records
    )


def _minor_neighbors(features: np.ndarray, pos: int, k_eff: int) -> np.ndarray:
    """Indices (into the minor block) of the k_eff nearest neighbours of row pos.

    Euclidean distance, the point itself excluded, distance ties broken
    toward the lower index. Distances are computed by explicit subtraction
    so that equidistant points compare exactly equal.
    """
    diff = features - features[pos]
    dist = np.einsum("ij,ij->i", diff, diff)
    dist[pos] = np.inf
    order = np.argsort(dist, kind="stable")
    return order[:k_eff]


def smote(dataset: Dataset, m: float, seed: int, k: int = DEFAULT_SMOTE_K) -> ResampleResult:
    """Append round((m-1)|C1|) synthetic minor elements by convex interpolation.

    Each synthetic draws a seed element uniformly from the minor class,
    then one of its min(k, |C1|-1) nearest minor neighbours uniformly, then
    lam uniform on the closed interval [0, 1], and emits
    (1-lam) seed + lam neighbour.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    _check_multiplier(dataset, m)
    minor_idx = dataset.class_indices(1)
    if len(minor_idx) < 2:
        raise MinorityTooSmall(f"smote needs at least 2 minor elements, got {len(minor_idx)}")
    n_new = _round_half_even((m - 1.0) * len(minor_idx))
    if n_new == 0:
        return ResampleResult(dataset=dataset)
    k_eff = min(k, len(minor_idx) - 1)
    minor_features = dataset.features[minor_idx]
    rng = substream(seed, "smote")
    seed_pos = rng.integers(0, len(minor_idx), size=n_new)
    neighbor_slot = rng.integers(0, k_eff, size=n_new)
    lams = uniform_closed(rng, size=n_new)
    neighbor_cache: dict[int, np.ndarray] = {}
    counter = _next_synth_counter(dataset)
    rows = np.empty((n_new, dataset.dim))
    records = []
    for i in range(n_new):
        pos = int(seed_pos[i])
        if pos not in neighbor_cache:
            neighbor_cache[pos] = _minor_neighbors(minor_features, pos, k_eff)
        npos = int(neighbor_cache[pos][neighbor_slot[i]])
        lam = float(lams[i])
        rows[i] = (1.0 - lam) * minor_features[pos] + lam * minor_features[npos]
        records.append(
            SmoteRecord(
                synth_id=f"synth:{counter + i}",
                seed_id=dataset.ids[minor_idx[pos]],
                neighbor_id=dataset.ids[minor_idx[npos]],
                lam=lam,
            )
        )
    features = np.vstack([dataset.features, rows])
    labels = np.concatenate([dataset.labels, np.ones(n_new, dtype=np.int64)])
    new_ids = tuple(rec.synth_id for rec in records)
    return ResampleResult(
        dataset=Dataset(features, labels, dataset.ids + new_ids), added=tuple(records)
    )


# RUS with its kept rows taken by setdiff1d and its removed ids rendered as it draws them
def rus(dataset: Dataset, m: float, seed: int) -> ResampleResult:
    """Drop a uniform random subset of the major class of size round(|C0|(m-1)/m)."""
    _check_multiplier(dataset, m)
    major_idx = dataset.class_indices(0)
    n_drop = _round_half_even(len(major_idx) * (m - 1.0) / m)
    if n_drop == 0:
        return ResampleResult(dataset=dataset)
    rng = substream(seed, "rus")
    dropped = rng.permutation(major_idx)[:n_drop]
    removed_ids = tuple(dataset.ids[i] for i in np.sort(dropped))
    keep = np.setdiff1d(np.arange(dataset.size), dropped, assume_unique=True)
    return ResampleResult(dataset=string_subset(dataset, keep), removed_ids=removed_ids)


# cv_quality with its fold loop inline, and select_multiplier_cvs scanning every fold of every grid point
def cv_quality(dataset, spec, model, folds=10, seed=0) -> CVReport:
    """Mean PR-AUC over stratified folds with in-fold resampling."""
    strategy = spec if callable(spec) else (lambda train, fold: spec)
    split = stratified_kfold(dataset, folds, derive_seed(seed, "folds"))
    scores = []
    params_per_fold = []
    sizes = []
    multipliers = []
    methods = []
    train_ids = []
    test_ids = []
    degraded = False
    for fold, (train_idx, test_idx) in enumerate(split):
        train = dataset.subset(train_idx)
        test = dataset.subset(test_idx)
        fold_spec = strategy(train, fold)
        if fold_spec.method is not Method.NONE:
            cap = imbalance_ratio(train)
            if fold_spec.multiplier > cap:
                raise MultiplierOutOfRange(
                    f"fold {fold}: multiplier {fold_spec.multiplier} exceeds training-fold IR {cap:.6g}"
                )
        resampled = resample(train, fold_spec, derive_seed(seed, "resample", fold)).dataset

        def prepare(inner_fold, inner_train):
            inner_spec = _clamped(fold_spec, imbalance_ratio(inner_train))
            return resample(
                inner_train, inner_spec, derive_seed(seed, "tune-resample", fold, inner_fold)
            ).dataset

        params, fold_degraded = _tune(model, train, derive_seed(seed, "tune-folds", fold), prepare)
        degraded = degraded or fold_degraded
        scorer = fit_with_params(model.family, params, resampled)
        scores.append(pr_auc(scorer.score(test.features), test.labels))
        params_per_fold.append(params)
        sizes.append(resampled.size)
        multipliers.append(float(fold_spec.multiplier))
        methods.append(fold_spec.method.value)
        train_ids.append(resampled.ids)
        test_ids.append(test.ids)
    return CVReport(
        fold_scores=tuple(scores),
        qcv=float(np.mean(scores)),
        fold_params=tuple(params_per_fold),
        fold_train_sizes=tuple(sizes),
        fold_multipliers=tuple(multipliers),
        fold_methods=tuple(methods),
        degraded=degraded,
        fold_train_ids=tuple(train_ids),
        fold_test_ids=tuple(test_ids),
    )


def argmax_smallest(pairs):
    """(m, q) with maximal q over the rows whose q is not NaN; ties go to the smaller m."""
    feasible = [(m, q) for m, q in pairs if not np.isnan(q)]
    if not feasible:
        raise EmptyGrid("every effective grid point failed on some fold")
    best_q = max(q for _, q in feasible)
    return min(m for m, q in feasible if q == best_q), best_q


def select_multiplier_cvs(
    dataset, method, model, grid=DEFAULT_MULTIPLIER_GRID, folds=10, seed=0, mode="oracle",
    smote_k=DEFAULT_SMOTE_K,
):
    """(best m or None, Q^CV, (m, Q^CV) for every effective grid point with NaN where infeasible, report)."""
    method = Method(method)

    def scan(data, scan_folds, *labels):
        table, reports = [], {}
        for m in _effective_grid(grid, imbalance_ratio(data)):
            spec = ResamplingSpec(method, m, smote_k)
            try:
                reports[m] = cv_quality(data, spec, model, scan_folds, derive_seed(seed, *labels, repr(m)))
            except _INFEASIBLE:
                table.append((m, float("nan")))
                continue
            table.append((m, reports[m].qcv))
        return table, reports

    if mode == "oracle":
        table, reports = scan(dataset, folds, "cvs")
        best_m, best_q = argmax_smallest(table)
        return best_m, best_q, tuple(table), reports[best_m]

    def nested_pick(train, fold):
        best_m, _ = argmax_smallest(scan(train, 3, "nested", fold)[0])
        return ResamplingSpec(method, best_m, smote_k)

    report = cv_quality(dataset, nested_pick, model, folds, seed)
    return None, report.qcv, (), report


# Dataset.subset rebuilding the id strings and running every check of the constructor
def string_subset(dataset: Dataset, indices) -> Dataset:
    idx = np.asarray(indices, dtype=np.intp)
    return Dataset(dataset.features[idx], dataset.labels[idx], tuple(dataset.ids[i] for i in idx))


def setdiff_kfold(dataset: Dataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """stratified_kfold with each training side taken by setdiff1d."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    rng = substream(seed, "stratified-kfold", k)
    per_fold: list[list[np.ndarray]] = [[] for _ in range(k)]
    for label in (0, 1):
        idx = dataset.class_indices(label)
        if len(idx) < k:
            raise TooFewElements(
                f"class {label} has {len(idx)} elements, fewer than {k} folds"
            )
        shuffled = rng.permutation(idx)
        for fold, chunk in enumerate(np.array_split(shuffled, k)):
            per_fold[fold].append(chunk)
    folds = []
    all_idx = np.arange(dataset.size)
    for parts in per_fold:
        test = np.sort(np.concatenate(parts))
        train = np.setdiff1d(all_idx, test, assume_unique=True)
        folds.append((train, test))
    return folds


def pr_curve_area(scores, labels) -> float:
    """pr_auc as pr_curve(scores, labels).area(): every array of the curve built, then the area of its steps."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    tp = np.cumsum(y)
    n_seen = np.arange(1, len(s) + 1)
    # last position of each tied-score block
    last = np.append(np.flatnonzero(np.diff(s) != 0), len(s) - 1)
    keep = last[tp[last] > 0]
    recalls = tp[keep] / tp[-1]
    precisions = tp[keep] / n_seen[keep]
    prev = np.concatenate([[0.0], recalls[:-1]])
    return math.fsum((recalls - prev) * precisions)


# fit_tree with an argsort of every feature at every node
def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    n, d = X.shape
    orders = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, orders, axis=0)
    sorted_y = y[orders]
    cum_minor = np.cumsum(sorted_y, axis=0)
    total_minor = int(cum_minor[-1, 0])

    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    k_left = cum_minor[:-1, :].astype(np.float64)
    k_right = total_minor - k_left
    valid = (sorted_x[1:, :] != sorted_x[:-1, :]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    cost = (
        n_left
        - (k_left**2 + (n_left - k_left) ** 2) / n_left
        + n_right
        - (k_right**2 + (n_right - k_right) ** 2) / n_right
    )
    cost[~valid] = np.inf
    lowest = cost.min()
    near = np.argwhere(cost <= lowest + 1e-9 * max(1.0, abs(lowest)))

    best: tuple[int, int, int, float] | None = None
    for pos, j in near:
        size = int(pos) + 1
        k_left = int(cum_minor[pos, j])
        threshold = (float(sorted_x[pos, j]) + float(sorted_x[pos + 1, j])) / 2.0
        key = (*_exact_cost(size, k_left, n - size, total_minor - k_left), int(j), threshold)
        if best is None or _precedes(key, best):
            best = key
    assert best is not None
    return best[2], best[3]


def _build(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int, max_depth: int, min_leaf: int) -> TreeNode:
    labels = y[idx]
    minor = int(labels.sum())
    if minor == 0 or minor == len(idx) or depth >= max_depth or len(idx) < 2 * min_leaf:
        return _leaf(labels)
    split = _best_split(X[idx], labels, min_leaf)
    if split is None:
        return _leaf(labels)
    feature, threshold = split
    go_left = X[idx, feature] <= threshold
    left_idx = idx[go_left]
    right_idx = idx[~go_left]
    if len(left_idx) == 0 or len(right_idx) == 0:
        return _leaf(labels)
    return TreeNode(
        score=(minor + 1) / (len(idx) + 2),
        n=len(idx),
        feature=feature,
        threshold=threshold,
        left=_build(X, y, left_idx, depth + 1, max_depth, min_leaf),
        right=_build(X, y, right_idx, depth + 1, max_depth, min_leaf),
    )


def per_node_sort_tree(train: Dataset, max_depth: int, min_leaf: int) -> TreeNode:
    """The root fit_tree grows, each node sorting its own rows again."""
    return _build(train.features, train.labels, np.arange(train.size), 0, max_depth, min_leaf)
