"""Classification models with a minor-class score in [0, 1].

Three families are provided: a CART decision tree, brute-force k-nearest
neighbors, and L1-regularized logistic regression. ``select_hyperparams``
picks the grid point with the best mean PR-AUC over given (train,
validation) pairs, breaking ties toward the simpler model (shallower tree
with larger leaves, larger k, larger lam). Tree candidates share fits: one
per pair and min_leaf at the grid's largest max_depth, truncated to each
shallower depth. The tuning policy that builds those pairs by inner
stratified cross-validation, and ``fit`` (tune, then refit), live in
``imbalance_bench.evaluation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from ..datasets import Dataset
from ..metrics import pr_auc
from .knn import KnnScorer, fit_knn
from .logreg import LogRegScorer, fit_logreg, logreg_objective_and_gradient, solve_l1_logreg
from .tree import TreeScorer, fit_tree

__all__ = [
    "Family",
    "ModelSpec",
    "TrainedScorer",
    "KnnScorer",
    "LogRegScorer",
    "TreeScorer",
    "default_grid",
    "simplest_params",
    "fit_with_params",
    "select_hyperparams",
    "logreg_objective_and_gradient",
    "solve_l1_logreg",
]

TrainedScorer = Union[TreeScorer, KnnScorer, LogRegScorer]


class Family(str, Enum):
    TREE = "tree"
    KNN = "knn"
    LOGREG = "logreg"


_TREE_GRID = tuple(
    {"max_depth": depth, "min_leaf": leaf} for depth in (2, 4, 6, 8, 12, 25) for leaf in (1, 5)
)
_KNN_GRID = tuple({"k": k} for k in (1, 3, 5, 7, 11, 15))
_LOGREG_GRID = tuple({"lam": lam} for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0))


def default_grid(family: Family) -> tuple[dict, ...]:
    return {Family.TREE: _TREE_GRID, Family.KNN: _KNN_GRID, Family.LOGREG: _LOGREG_GRID}[Family(family)]


def _simplicity_key(family: Family, params: dict) -> tuple:
    """Sort key putting the simplest (most regularized) candidate first."""
    if family is Family.TREE:
        return (params["max_depth"], -params["min_leaf"])
    if family is Family.KNN:
        return (-params["k"],)
    return (-params["lam"],)


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus its hyperparameter grid and tuning configuration.

    seed seeds only the inner folds of ``evaluation.fit``; cv_quality,
    select_multiplier_cvs and run_benchmark take their own seed argument.
    """

    family: Family
    grid: tuple[dict, ...] = ()
    tuning_folds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        if not self.grid:
            object.__setattr__(self, "grid", default_grid(self.family))
        else:
            object.__setattr__(self, "grid", tuple(dict(p) for p in self.grid))
        if self.tuning_folds < 2:
            raise ValueError(f"tuning_folds must be at least 2, got {self.tuning_folds}")


def simplest_params(spec: ModelSpec) -> dict:
    """Fallback hyperparameters when tuning is not possible."""
    return dict(min(spec.grid, key=lambda p: _simplicity_key(spec.family, p)))


def fit_with_params(family: Family, params: dict, train: Dataset) -> TrainedScorer:
    """Fit one model with fixed hyperparameters; deterministic."""
    family = Family(family)
    if family is Family.TREE:
        return fit_tree(train, max_depth=params["max_depth"], min_leaf=params["min_leaf"])
    if family is Family.KNN:
        return fit_knn(train, k=params["k"])
    return fit_logreg(train, lam=params["lam"])


def _tree_quality(grid: Sequence[dict], pairs: Sequence[tuple[Dataset, Dataset]]):
    """quality(params, i): validation PR-AUC of tree params fitted on pairs[i].

    A tree is a prefix of any deeper tree with the same min_leaf, so each
    (pair, min_leaf) is fitted once, at the grid's largest max_depth, on
    first use, and shallower candidates truncate that fit. Depths beyond
    the one the fit reached give the same tree, so each distinct tree is
    scored once.
    """
    if any(p["max_depth"] < 1 for p in grid):
        raise ValueError("max_depth must be positive")
    deepest = max(p["max_depth"] for p in grid)
    fits: dict[tuple[int, int], tuple[TreeScorer, int]] = {}
    scores: dict[tuple[int, int, int], float] = {}

    def quality(params: dict, i: int) -> float:
        train, val = pairs[i]
        leaf = params["min_leaf"]
        if (i, leaf) not in fits:
            tree = fit_tree(train, max_depth=deepest, min_leaf=leaf)
            fits[i, leaf] = tree, tree.depth
        tree, reached = fits[i, leaf]
        depth = min(params["max_depth"], reached)
        if (i, leaf, depth) not in scores:
            scorer = tree if depth == reached else tree.truncated(depth)
            scores[i, leaf, depth] = pr_auc(scorer.score(val.features), val.labels)
        return scores[i, leaf, depth]

    return quality


def select_hyperparams(
    spec: ModelSpec, pairs: Sequence[tuple[Dataset, Dataset]]
) -> tuple[dict, tuple[tuple[dict, float], ...]]:
    """Pick the grid point with the best mean validation PR-AUC.

    pairs are (train, validation) datasets, typically inner CV splits; the
    caller controls how they were built (in particular whether the training
    side was resampled). Candidates are tried simplest first and ties go to
    the simpler one. PR-AUC is at most 1, so the search stops at the first
    candidate whose mean reaches 1.0: no later one can beat it. The returned
    table therefore lists only the candidates evaluated, in that order.

    kNN and logreg fit every candidate on every pair. Tree candidates share
    fits: one per pair and min_leaf, truncated to each max_depth, with
    exactly the scores separate fits would give.
    """
    if not pairs:
        raise ValueError("need at least one (train, validation) pair")
    if spec.family is Family.TREE:
        quality = _tree_quality(spec.grid, pairs)
    else:

        def quality(params: dict, i: int) -> float:
            train, val = pairs[i]
            return pr_auc(fit_with_params(spec.family, params, train).score(val.features), val.labels)

    candidates = sorted(spec.grid, key=lambda p: _simplicity_key(spec.family, p))
    table = []
    best_params: dict | None = None
    best_q = -1.0
    for params in candidates:
        total = 0.0
        for i in range(len(pairs)):
            total += quality(params, i)
        mean_q = total / len(pairs)
        table.append((dict(params), mean_q))
        if mean_q > best_q:
            best_params, best_q = dict(params), mean_q
            if best_q >= 1.0:
                break
    assert best_params is not None
    return best_params, tuple(table)
