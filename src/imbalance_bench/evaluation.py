"""Cross-validated quality and multiplier-selection strategies.

The central protocol is cv_quality: stratified k-fold CV where resampling
is applied inside each fold to the training portion only. Resampling the
whole dataset before splitting would leak duplicated or synthetic minor
elements into test folds and inflate the reported quality, so the test
portion is never touched. Hyperparameters are tuned per fold by an inner
CV whose validation splits are likewise left un-resampled.

``_tune`` holds the tuning policy for cv_quality and for ``fit`` (tune on
a training set, then refit on all of it): the simplest grid point when a
class has fewer elements than ``tuning_folds``, else ``select_hyperparams``
over inner stratified folds, whose table lists only the candidates tried.

Two strategies pick the resampling multiplier:

* EqS equalizes classes, m = IR of the training fold;
* CVS searches a grid for the m maximizing cross-validated quality,
  either on the full protocol (oracle mode) or per outer fold on the
  training portion only (nested mode).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .classifiers import ModelSpec, TrainedScorer, fit_with_params, select_hyperparams, simplest_params
from .datasets import Dataset, imbalance_ratio, stratified_kfold
from .errors import EmptyClass, EmptyGrid, MinorityTooSmall, MultiplierOutOfRange, WouldEmptyMajority
from .metrics import pr_auc, pr_curve
from .resampling import DEFAULT_SMOTE_K, Method, ResamplingSpec, resample
from .rng import derive_seed

__all__ = [
    "DEFAULT_MULTIPLIER_GRID",
    "CVReport",
    "CvsResult",
    "Strategy",
    "cv_quality",
    "eqs_strategy",
    "fit",
    "pr_auc",
    "pr_curve",
    "select_multiplier_eqs",
    "select_multiplier_cvs",
]

log = logging.getLogger(__name__)

# Spans multipliers 1.25 through 10; m = 1 is the separate "none" method.
DEFAULT_MULTIPLIER_GRID = (1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)

# A strategy picks the resampling for one training fold: (fold train set,
# fold index) -> spec. Plain fixed-multiplier runs pass a ResamplingSpec.
Strategy = Callable[[Dataset, int], ResamplingSpec]


@dataclass(frozen=True)
class CVReport:
    """Per-fold quality and enough detail to audit the protocol."""

    fold_scores: tuple[float, ...]
    qcv: float
    fold_params: tuple[dict, ...]
    fold_train_sizes: tuple[int, ...]
    fold_multipliers: tuple[float, ...]
    fold_methods: tuple[str, ...]
    degraded: bool
    fold_train_ids: tuple[tuple[str, ...], ...]
    fold_test_ids: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if abs(self.qcv - sum(self.fold_scores) / len(self.fold_scores)) > 1e-12:
            raise ValueError("qcv must be the mean of fold_scores")


def _clamped(spec: ResamplingSpec, cap: float) -> ResamplingSpec:
    """spec with its multiplier lowered to cap; none when cap leaves no room."""
    if spec.method is Method.NONE or spec.multiplier <= cap:
        return spec
    if cap <= 1.0:
        return ResamplingSpec(Method.NONE)
    return ResamplingSpec(spec.method, cap, spec.smote_k)


def _tune(
    model: ModelSpec,
    train: Dataset,
    seed: int,
    prepare: Callable[[int, Dataset], Dataset],
) -> tuple[dict, bool]:
    """Hyperparameters for train, and whether tuning fell back to the simplest.

    Inner stratified folds of train are seeded by seed; prepare(inner fold,
    inner training split) gives the dataset each candidate is fitted on,
    while the inner validation splits are used as they are.
    """
    major, minor = train.class_counts()
    if min(major, minor) < model.tuning_folds:
        return simplest_params(model), True
    if len(model.grid) == 1:
        return dict(model.grid[0]), False
    inner = stratified_kfold(train, model.tuning_folds, seed)
    pairs = [
        (prepare(inner_fold, train.subset(fit_idx)), train.subset(val_idx))
        for inner_fold, (fit_idx, val_idx) in enumerate(inner)
    ]
    params, _ = select_hyperparams(model, pairs)
    return params, False


def fit(spec: ModelSpec, train: Dataset) -> TrainedScorer:
    """Tune hyperparameters by inner stratified CV on train, then refit.

    The inner folds are seeded by spec.seed. When either class has fewer
    elements than tuning_folds, tuning degrades to the simplest grid point
    (logged).
    """
    major, minor = train.class_counts()
    if minor == 0 or major == 0:
        raise EmptyClass("training data must contain both classes")
    params, degraded = _tune(spec, train, spec.seed, lambda inner_fold, inner_train: inner_train)
    if degraded:
        log.warning(
            "class counts %d/%d below tuning_folds=%d; using default hyperparameters %s",
            major, minor, spec.tuning_folds, params,
        )
    return fit_with_params(spec.family, params, train)


def cv_quality(
    dataset: Dataset,
    spec: Union[ResamplingSpec, Strategy],
    model: ModelSpec,
    folds: int = 10,
    seed: int = 0,
) -> CVReport:
    """Mean PR-AUC over stratified folds with in-fold resampling.

    spec is either a fixed ResamplingSpec or a strategy called per fold
    with the fold's training set. Per fold: resample the training portion,
    tune hyperparameters by inner CV on the un-resampled training portion
    (inner training splits resampled, inner validation splits not), refit
    on the resampled training portion, score the untouched test portion.
    """
    strategy: Strategy = spec if callable(spec) else (lambda train, fold: spec)
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

        def prepare(inner_fold: int, inner_train: Dataset) -> Dataset:
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


def select_multiplier_eqs(train: Dataset) -> float:
    """The equalizing multiplier m = IR, so resampling balances the classes."""
    return imbalance_ratio(train)


def eqs_strategy(method: Method, smote_k: int = DEFAULT_SMOTE_K) -> Strategy:
    """Per-fold EqS: m = IR of the training fold.

    An already balanced fold (IR = 1) degenerates to no resampling.
    """
    method = Method(method)

    def pick(train: Dataset, fold: int) -> ResamplingSpec:
        m = select_multiplier_eqs(train)
        if m <= 1.0:
            return ResamplingSpec(Method.NONE)
        return ResamplingSpec(method, m, smote_k)

    return pick


@dataclass(frozen=True)
class CvsResult:
    """Outcome of a CV-search for the multiplier.

    In oracle mode best_multiplier is the grid argmax and table holds one
    (m, Q^CV) row per effective grid point (NaN marks grid points that
    failed on some fold). In nested mode the per-fold choices are in
    report.fold_multipliers and table is empty.
    """

    mode: str
    best_multiplier: float | None
    qcv: float
    table: tuple[tuple[float, float], ...]
    report: CVReport


_INFEASIBLE = (MultiplierOutOfRange, WouldEmptyMajority, MinorityTooSmall)


def _effective_grid(grid, cap: float) -> list[float]:
    out = [float(m) for m in grid if 1.0 < float(m) <= cap]
    if not out:
        raise EmptyGrid(f"no grid point lies in (1, {cap:.6g}]")
    return sorted(out)


def _argmax_smallest(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """(m, q) with maximal q; ties go to the smaller m. NaN rows lose."""
    best = None
    for m, q in sorted(pairs):
        if np.isnan(q):
            continue
        if best is None or q > best[1]:
            best = (m, q)
    if best is None:
        raise EmptyGrid("every effective grid point failed on some fold")
    return best


def select_multiplier_cvs(
    dataset: Dataset,
    method: Method,
    model: ModelSpec,
    grid=DEFAULT_MULTIPLIER_GRID,
    folds: int = 10,
    seed: int = 0,
    mode: str = "oracle",
    smote_k: int = DEFAULT_SMOTE_K,
) -> CvsResult:
    """Pick the multiplier maximizing Q^CV over the grid capped at IR.

    Oracle mode evaluates the full protocol per grid point and returns the
    argmax (ties toward smaller m) together with the per-m table. Nested
    mode re-runs the search per outer fold on the training portion only
    (inner 3-fold CV), so the reported Q^CV is free of selection bias.
    """
    method = Method(method)
    if method is Method.NONE:
        raise ValueError("cvs needs an actual resampling method, not none")
    if mode not in ("oracle", "nested"):
        raise ValueError(f"mode must be oracle or nested, got {mode!r}")

    def scan(data: Dataset, scan_folds: int, *labels) -> tuple[list[tuple[float, float]], dict]:
        """(m, Q^CV) per effective grid point, NaN where infeasible, and the reports."""
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
        best_m, best_q = _argmax_smallest(table)
        return CvsResult(
            mode="oracle",
            best_multiplier=best_m,
            qcv=best_q,
            table=tuple(table),
            report=reports[best_m],
        )

    def nested_pick(train: Dataset, fold: int) -> ResamplingSpec:
        best_m, _ = _argmax_smallest(scan(train, 3, "nested", fold)[0])
        return ResamplingSpec(method, best_m, smote_k)

    report = cv_quality(dataset, nested_pick, model, folds, seed)
    return CvsResult(
        mode="nested", best_multiplier=None, qcv=report.qcv, table=(), report=report
    )
