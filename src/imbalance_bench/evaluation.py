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
  training portion only (nested mode). Both stop a grid point as soon as
  its fold scores show it cannot beat the best point so far, which never
  changes the pick.

cv_quality and the CVS scan share one fold loop, ``_cv_folds``, which
yields one fold's outcome at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Union

import numpy as np

from .classifiers import ModelSpec, TrainedScorer, fit_with_params, select_hyperparams, simplest_params
from .datasets import Dataset, _rendered, imbalance_ratio, stratified_kfold
from .errors import ConfigError, EmptyClass, EmptyGrid, MinorityTooSmall, MultiplierOutOfRange
from .metrics import pr_auc
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


class _Fold(NamedTuple):
    """One fold's outcome, the per-fold fields of a CVReport; ids as codes, rendered only for a report."""

    score: float
    params: dict
    multiplier: float
    method: str
    degraded: bool
    train_codes: np.ndarray
    test_codes: np.ndarray


def _cv_folds(
    dataset: Dataset,
    spec: Union[ResamplingSpec, Strategy],
    model: ModelSpec,
    folds: int,
    seed: int,
) -> Iterator[_Fold]:
    """cv_quality's folds, one at a time; a caller that stops early runs no further fold."""
    strategy: Strategy = spec if callable(spec) else (lambda train, fold: spec)
    split = stratified_kfold(dataset, folds, derive_seed(seed, "folds"))
    for fold, (train_idx, test_idx) in enumerate(split):
        train = dataset.subset(train_idx)
        test = dataset.subset(test_idx)
        fold_spec = strategy(train, fold)
        try:
            resampled = resample(train, fold_spec, derive_seed(seed, "resample", fold)).dataset
        except MultiplierOutOfRange as exc:
            raise MultiplierOutOfRange(f"fold {fold}: {exc}") from None

        def prepare(inner_fold: int, inner_train: Dataset) -> Dataset:
            inner_spec = _clamped(fold_spec, imbalance_ratio(inner_train))
            return resample(
                inner_train, inner_spec, derive_seed(seed, "tune-resample", fold, inner_fold)
            ).dataset

        params, degraded = _tune(model, train, derive_seed(seed, "tune-folds", fold), prepare)
        scorer = fit_with_params(model.family, params, resampled)
        yield _Fold(
            score=pr_auc(scorer.score(test.features), test.labels),
            params=params,
            multiplier=float(fold_spec.multiplier),
            method=fold_spec.method.value,
            degraded=degraded,
            train_codes=resampled.codes,
            test_codes=test.codes,
        )


def _report(outcomes: list[_Fold]) -> CVReport:
    scores = [o.score for o in outcomes]
    return CVReport(
        fold_scores=tuple(scores),
        qcv=float(np.mean(scores)),
        fold_params=tuple(o.params for o in outcomes),
        fold_train_sizes=tuple(len(o.train_codes) for o in outcomes),
        fold_multipliers=tuple(o.multiplier for o in outcomes),
        fold_methods=tuple(o.method for o in outcomes),
        degraded=any(o.degraded for o in outcomes),
        fold_train_ids=tuple(_rendered(o.train_codes) for o in outcomes),
        fold_test_ids=tuple(_rendered(o.test_codes) for o in outcomes),
    )


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
    return _report(list(_cv_folds(dataset, spec, model, folds, seed)))


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

    In oracle mode best_multiplier is the grid argmax, table holds one
    (m, Q^CV) row per effective grid point scanned to its last fold, in
    ascending m (NaN marks grid points that failed on some fold), and
    pruned lists the grid points whose fold scores showed they could not
    win before their last fold ran. Every effective grid point is in
    exactly one of table and pruned. In nested mode the per-fold choices
    are in report.fold_multipliers and table and pruned are empty.
    """

    mode: str
    best_multiplier: float | None
    qcv: float
    table: tuple[tuple[float, float], ...]
    pruned: tuple[float, ...]
    report: CVReport


_INFEASIBLE = (MultiplierOutOfRange, MinorityTooSmall)


def _effective_grid(grid, cap: float) -> list[float]:
    out = [float(m) for m in grid if 1.0 < float(m) <= cap]
    if not out:
        raise EmptyGrid(f"no grid point lies in (1, {cap:.6g}]")
    return sorted(out)


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
    pick together with the per-m table. Nested mode re-runs the search per
    outer fold on the training portion only (inner 3-fold CV), so the
    reported Q^CV is free of selection bias.

    Both modes scan the grid in ascending m and keep one running best, the
    completed grid point with the highest Q^CV so far. A completed point
    replaces it only when its Q^CV is strictly higher, so ties go to the
    smaller m. The scan stops a grid point after any fold whose scores so
    far, with 1.0 for each fold still to run, average to at most the
    running best's Q^CV. That bound is the real mean's float operations on
    an array of the same length, and every fold score is at most 1.0, so
    it is never below the point's Q^CV: a stopped point could not have
    replaced the running best, and the pick and its report are those of
    the full scan. A scan in which no grid point completes raises
    EmptyGrid. A grid that repeats a point raises ConfigError before any
    fold runs.
    """
    method = Method(method)
    if method is Method.NONE:
        raise ValueError("cvs needs an actual resampling method, not none")
    if mode not in ("oracle", "nested"):
        raise ValueError(f"mode must be oracle or nested, got {mode!r}")
    points = [float(m) for m in grid]
    if len(set(points)) != len(points):
        raise ConfigError(f"multiplier grid repeats a point: {points}")

    def scan(data: Dataset, scan_folds: int, *labels) -> tuple[float, CVReport, list[tuple[float, float]], list[float]]:
        """The pick (m, report); (m, Q^CV) per completed grid point, NaN where infeasible; the pruned m."""
        table, pruned, best_m, best = [], [], None, None
        for m in _effective_grid(points, imbalance_ratio(data)):
            spec = ResamplingSpec(method, m, smote_k)
            best_q = -np.inf if best is None else best.qcv
            done = []
            try:
                for outcome in _cv_folds(data, spec, model, scan_folds, derive_seed(seed, *labels, repr(m))):
                    done.append(outcome)
                    rest = scan_folds - len(done)
                    if rest and np.mean([o.score for o in done] + [1.0] * rest) <= best_q:
                        break
            except _INFEASIBLE:
                table.append((m, float("nan")))
                continue
            if len(done) < scan_folds:
                pruned.append(m)
                continue
            report = _report(done)
            table.append((m, report.qcv))
            if report.qcv > best_q:
                best_m, best = m, report
        if best is None:
            raise EmptyGrid("every effective grid point failed on some fold")
        return best_m, best, table, pruned

    if mode == "oracle":
        best_m, best, table, pruned = scan(dataset, folds, "cvs")
        return CvsResult(
            mode="oracle",
            best_multiplier=best_m,
            qcv=best.qcv,
            table=tuple(table),
            pruned=tuple(pruned),
            report=best,
        )

    def nested_pick(train: Dataset, fold: int) -> ResamplingSpec:
        return ResamplingSpec(method, scan(train, 3, "nested", fold)[0], smote_k)

    report = cv_quality(dataset, nested_pick, model, folds, seed)
    return CvsResult(
        mode="nested", best_multiplier=None, qcv=report.qcv, table=(), pruned=(), report=report
    )
