"""PR-AUC, cross-validated quality, and multiplier selection."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalance_bench import (
    CVReport,
    ConfigError,
    CvsResult,
    DEFAULT_MULTIPLIER_GRID,
    EmptyGrid,
    Family,
    Method,
    ModelSpec,
    MultiplierOutOfRange,
    NoPositives,
    ResamplingSpec,
    cv_quality,
    eqs_strategy,
    from_rows,
    imbalance_ratio,
    pr_auc,
    pr_curve,
    resample,
    select_multiplier_cvs,
    select_multiplier_eqs,
)
from imbalance_bench import evaluation
from imbalance_bench.evaluation import _effective_grid

import oracles
from test_golden import ties_pool


def make(n_major, n_minor, d=2, seed=0, gap=0.0):
    rng = np.random.default_rng(seed)
    features = np.vstack(
        [rng.normal(0.0, 1.0, size=(n_major, d)), rng.normal(gap, 1.0, size=(n_minor, d))]
    )
    labels = np.array([0] * n_major + [1] * n_minor)
    return from_rows(features, labels)


# ---------------------------------------------------------------------------
# PR-AUC
# ---------------------------------------------------------------------------


def pr_auc_rescan(scores, labels):
    """O(n^2) definitional rescan: one point per distinct threshold."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    area, prev_recall = 0.0, 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= t
        tp = int((sel & pos).sum())
        fp = int((sel & ~pos).sum())
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def test_pr_auc_worked_example():
    assert pr_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(5 / 6, abs=1e-15)


def test_pr_auc_perfect_ranking_is_one():
    assert pr_auc([0.9, 0.8, 0.1, 0.0], [1, 1, 0, 0]) == 1.0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pr_auc_perfect_ranking_with_ties_never_exceeds_one(data):
    # select_hyperparams stops at the first mean PR-AUC of 1.0; that is
    # exact only if no ranking can score above 1.0
    n = data.draw(st.integers(1, 1000), label="n")
    n_pos = data.draw(st.integers(1, n), label="n_pos")
    pos_levels = data.draw(st.integers(1, n_pos), label="pos_levels")
    neg_levels = data.draw(st.integers(1, max(1, n - n_pos)), label="neg_levels")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # every minor score is at least 1 and every major score at most 0
    scores = np.concatenate(
        [1.0 + rng.integers(0, pos_levels, size=n_pos), -rng.integers(0, neg_levels, size=n - n_pos)]
    ).astype(float)
    labels = np.array([1] * n_pos + [0] * (n - n_pos))
    order = rng.permutation(n)
    assert pr_auc(scores[order], labels[order]) <= 1.0


def test_pr_auc_constant_scores_equal_prevalence():
    labels = [1] * 3 + [0] * 7
    assert pr_auc([0.5] * 10, labels) == pytest.approx(0.3, abs=1e-15)


def test_pr_auc_worst_ranking():
    # minors ranked last: precision only reaches 2/4 at full recall
    assert pr_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == pytest.approx(
        pr_auc_rescan([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]), abs=1e-15
    )


def test_pr_auc_requires_positives():
    with pytest.raises(NoPositives):
        pr_auc([0.1, 0.2], [0, 0])


def test_pr_auc_rejects_non_finite_scores():
    with pytest.raises(ValueError):
        pr_auc([np.nan, 0.2], [1, 0])


def test_pr_auc_matches_rescan_oracle():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        if rng.integers(0, 2):  # coarse scores force threshold ties
            scores = np.round(rng.uniform(0, 1, size=n), 1)
        else:
            scores = rng.normal(size=n)
        assert pr_auc(scores, labels) == pytest.approx(
            pr_auc_rescan(scores, labels), abs=1e-12
        ), f"trial {trial}"


def test_pr_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = np.round(rng.uniform(0, 1, size=60), 1)
    labels = rng.integers(0, 2, size=60)
    labels[0] = 1
    base = pr_auc(scores, labels)
    assert pr_auc(2.0 * scores + 1.0, labels) == base
    assert pr_auc(np.exp(scores), labels) == base


def test_pr_curve_invariants():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(2, 80))
        labels = rng.integers(0, 2, size=n)
        labels[int(rng.integers(0, n))] = 1
        scores = np.round(rng.normal(size=n), 1)
        curve = pr_curve(scores, labels)
        assert (np.diff(curve.thresholds) < 0).all()
        assert (np.diff(curve.recalls) >= 0).all()
        assert curve.recalls[-1] == 1.0
        assert ((curve.precisions > 0.0) & (curve.precisions <= 1.0)).all()
        assert 0.0 <= curve.area() <= 1.0


def test_pr_curve_drops_leading_zero_tp_thresholds():
    curve = pr_curve([0.9, 0.5], [0, 1])
    assert len(curve.thresholds) == 1
    assert curve.thresholds[0] == 0.5
    assert curve.precisions[0] == 0.5
    assert curve.area() == 0.5


def test_pr_curve_all_scores_equal():
    curve = pr_curve([0.4, 0.4, 0.4, 0.4], [1, 0, 0, 0])
    assert len(curve.thresholds) == 1
    assert curve.recalls[0] == 1.0
    assert curve.area() == 0.25


# ---------------------------------------------------------------------------
# cv_quality
# ---------------------------------------------------------------------------

FAST_KNN = ModelSpec(family=Family.KNN, grid=({"k": 3},))


def test_cv_quality_deterministic():
    ds = make(40, 10, seed=1, gap=2.0)
    a = cv_quality(ds, ResamplingSpec(Method.ROS, 2.0), FAST_KNN, folds=5, seed=9)
    b = cv_quality(ds, ResamplingSpec(Method.ROS, 2.0), FAST_KNN, folds=5, seed=9)
    assert a == b


def test_cv_quality_constant_features_score_prevalence():
    # nothing to learn: every family must fall back to constant scores,
    # whose PR-AUC is the test-fold prevalence under stratification
    ds = from_rows(np.ones((50, 3)), np.array([0] * 40 + [1] * 10))
    for family in (Family.TREE, Family.KNN, Family.LOGREG):
        report = cv_quality(ds, ResamplingSpec(Method.NONE), ModelSpec(family=family), folds=5)
        assert report.qcv == pytest.approx(0.2, abs=1e-9), family


def test_cv_quality_separable_blobs_near_one():
    rng = np.random.default_rng(4)
    major = rng.normal(0.0, 0.5, size=(40, 2))
    minor = rng.normal(8.0, 0.5, size=(10, 2))
    assert minor[:, 0].min() > major[:, 0].max()  # actually separable
    ds = from_rows(np.vstack([major, minor]), np.array([0] * 40 + [1] * 10))
    spec = ModelSpec(family=Family.LOGREG, grid=({"lam": 1e-3},))
    report = cv_quality(ds, ResamplingSpec(Method.NONE), spec, folds=5)
    assert report.qcv >= 0.95


def test_cv_quality_no_leakage_between_folds():
    ds = make(60, 12, seed=2, gap=1.0)
    for method in (Method.ROS, Method.SMOTE):
        report = cv_quality(ds, ResamplingSpec(method, 2.0), FAST_KNN, folds=4, seed=3)
        seen_test = []
        for train_ids, test_ids in zip(report.fold_train_ids, report.fold_test_ids):
            assert not set(train_ids) & set(test_ids)
            assert len(set(test_ids)) == len(test_ids)
            assert not any(i.startswith("synth:") for i in test_ids)
            assert any(i.startswith("synth:") for i in train_ids)  # resampling happened
            seen_test.extend(test_ids)
        assert sorted(seen_test) == sorted(ds.ids)  # folds partition the data


def test_cv_quality_resamples_only_training_folds():
    ds = make(40, 10, seed=5)
    report = cv_quality(ds, ResamplingSpec(Method.ROS, 2.0), FAST_KNN, folds=5, seed=1)
    # per fold: train 32/8, ros m=2 adds round(1·8)=8 copies
    assert report.fold_train_sizes == (48,) * 5
    assert report.fold_methods == ("ros",) * 5
    assert report.fold_multipliers == (2.0,) * 5


def test_cv_quality_multiplier_beyond_fold_cap():
    ds = make(30, 3, seed=6)
    with pytest.raises(MultiplierOutOfRange) as err:
        cv_quality(ds, ResamplingSpec(Method.ROS, 10.5), FAST_KNN, folds=3)
    assert "fold" in str(err.value)


def test_cv_quality_strategy_called_once_per_fold():
    ds = make(40, 10, seed=7)
    calls = []

    def probe(train, fold):
        calls.append((fold, train.size))
        return ResamplingSpec(Method.NONE)

    report = cv_quality(ds, probe, FAST_KNN, folds=5)
    assert [fold for fold, _ in calls] == [0, 1, 2, 3, 4]
    assert all(size == 40 for _, size in calls)
    assert report.fold_methods == ("none",) * 5


def test_cv_report_validates_mean():
    with pytest.raises(ValueError):
        CVReport(
            fold_scores=(0.5, 0.7),
            qcv=0.9,
            fold_params=({}, {}),
            fold_train_sizes=(1, 1),
            fold_multipliers=(1.0, 1.0),
            fold_methods=("none", "none"),
            degraded=False,
            fold_train_ids=((), ()),
            fold_test_ids=((), ()),
        )


def test_cv_quality_inner_clamp_runs_clean():
    # per-fold EqS m=10 exceeds some inner-fold IRs; the tuner must clamp
    ds = make(50, 5, seed=8, gap=3.0)
    spec = ModelSpec(family=Family.KNN, grid=({"k": 1}, {"k": 3}))
    report = cv_quality(ds, eqs_strategy(Method.ROS), spec, folds=5)
    assert report.fold_multipliers == (10.0,) * 5
    assert not report.degraded
    assert 0.0 <= report.qcv <= 1.0


def test_cv_quality_degrades_when_minority_below_tuning_folds():
    ds = make(30, 2, seed=9, gap=4.0)
    spec = ModelSpec(family=Family.KNN, tuning_folds=3)
    report = cv_quality(ds, ResamplingSpec(Method.NONE), spec, folds=2)
    assert report.degraded
    assert all(p == {"k": 15} for p in report.fold_params)


# ---------------------------------------------------------------------------
# EqS
# ---------------------------------------------------------------------------


def test_select_multiplier_eqs_is_imbalance_ratio():
    assert select_multiplier_eqs(make(90, 10)) == 9.0
    assert select_multiplier_eqs(make(100, 13)) == 100 / 13


def test_eqs_multiplier_balances_exactly():
    ds = make(100, 13)
    m = select_multiplier_eqs(ds)
    out = resample(ds, ResamplingSpec(Method.ROS, m), seed=0).dataset
    major, minor = out.class_counts()
    assert (major, minor) == (100, 100)
    assert imbalance_ratio(out) == 1.0


def test_eqs_strategy_per_fold_ratios():
    ds = make(40, 10, seed=10)
    report = cv_quality(ds, eqs_strategy(Method.ROS), FAST_KNN, folds=5)
    assert report.fold_multipliers == (4.0,) * 5  # train folds are 32/8
    assert report.fold_train_sizes == (64,) * 5  # ros tops minors up to 32


def test_eqs_strategy_balanced_fold_degenerates_to_none():
    strategy = eqs_strategy(Method.ROS)
    spec = strategy(make(10, 10), 0)
    assert spec.method is Method.NONE
    assert spec.multiplier == 1.0


# ---------------------------------------------------------------------------
# CVS
# ---------------------------------------------------------------------------


def test_argmax_smallest_prefers_higher_quality():
    assert oracles.argmax_smallest([(2.0, 0.5), (4.0, 0.7)]) == (4.0, 0.7)


def test_argmax_smallest_ties_go_to_smaller_multiplier():
    assert oracles.argmax_smallest([(4.0, 0.7), (2.0, 0.7), (3.0, 0.7)]) == (2.0, 0.7)


def test_argmax_smallest_skips_nan_rows():
    assert oracles.argmax_smallest([(2.0, float("nan")), (4.0, 0.3)]) == (4.0, 0.3)


def test_argmax_smallest_all_nan_is_empty_grid():
    with pytest.raises(EmptyGrid):
        oracles.argmax_smallest([(2.0, float("nan")), (4.0, float("nan"))])


def test_cvs_oracle_table_covers_effective_grid():
    ds = make(30, 10, seed=12, gap=2.0)  # IR = 3
    result = select_multiplier_cvs(ds, Method.ROS, FAST_KNN, folds=3, seed=1)
    assert result.mode == "oracle"
    assert [m for m, _ in result.table] == [1.25, 1.5, 2.0, 2.5, 3.0]
    assert result.pruned == ()
    qs = [q for _, q in result.table if not np.isnan(q)]
    assert result.qcv == max(qs)
    winners = [m for m, q in result.table if q == result.qcv]
    assert result.best_multiplier == min(winners)
    assert result.qcv == result.report.qcv
    assert set(result.report.fold_methods) == {"ros"}


def test_cvs_oracle_deterministic():
    ds = make(24, 8, seed=13)
    a = select_multiplier_cvs(ds, Method.RUS, FAST_KNN, folds=2, seed=5)
    b = select_multiplier_cvs(ds, Method.RUS, FAST_KNN, folds=2, seed=5)
    assert a.table == b.table
    assert a.best_multiplier == b.best_multiplier
    assert a.report == b.report


def test_cvs_default_grid_pinned():
    assert DEFAULT_MULTIPLIER_GRID == (1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)


def test_cvs_empty_grid_when_nearly_balanced():
    ds = make(11, 10, seed=14)  # IR = 1.1 sits below the smallest grid point
    with pytest.raises(EmptyGrid):
        select_multiplier_cvs(ds, Method.ROS, FAST_KNN, folds=2)


# (dataset, grid, mode); each grid point fits the IR of the data it scans,
# but a training fold of lower IR makes it infeasible on that fold
ALL_INFEASIBLE = {
    # 16/10 = 1.6; the first of 5 folds tests 4 majors and trains at 12/8 = 1.5
    "oracle": (make(16, 10, seed=17), (1.6,), "oracle"),
    # every outer training fold is 16/8 = 2; the third inner fold trains at 11/6
    "nested": (make(20, 10, seed=18), (2.0,), "nested"),
}


@pytest.mark.parametrize("ds, grid, mode", ALL_INFEASIBLE.values(), ids=ALL_INFEASIBLE.keys())
def test_cvs_every_point_infeasible_is_empty_grid(ds, grid, mode):
    with pytest.raises(EmptyGrid, match="every effective grid point failed"):
        select_multiplier_cvs(ds, Method.ROS, FAST_KNN, grid=grid, folds=5, mode=mode)


def test_cvs_rejects_method_none():
    with pytest.raises(ValueError):
        select_multiplier_cvs(make(20, 10), Method.NONE, FAST_KNN)


def test_cvs_rejects_unknown_mode():
    with pytest.raises(ValueError):
        select_multiplier_cvs(make(20, 10), Method.ROS, FAST_KNN, mode="bogus")


def test_cvs_nested_mode_smoke():
    ds = make(30, 10, seed=15, gap=2.0)
    result = select_multiplier_cvs(ds, Method.ROS, FAST_KNN, folds=3, seed=2, mode="nested")
    assert result.mode == "nested"
    assert result.best_multiplier is None
    assert result.table == ()
    assert result.qcv == result.report.qcv
    assert 0.0 <= result.qcv <= 1.0
    # every per-fold pick came from the grid capped by that fold's IR
    for m, train_ids in zip(result.report.fold_multipliers, result.report.fold_train_ids):
        assert m in DEFAULT_MULTIPLIER_GRID
        labels = dict(zip(ds.ids, ds.labels))
        originals = [i for i in train_ids if not i.startswith("synth:")]
        counts = np.bincount([labels[i] for i in originals], minlength=2)
        assert m <= counts[0] / counts[1]


def test_cvs_result_is_frozen():
    ds = make(24, 8, seed=16)
    result = select_multiplier_cvs(ds, Method.ROS, FAST_KNN, folds=2)
    assert isinstance(result, CvsResult)
    with pytest.raises(AttributeError):
        result.qcv = 0.0


# ---------------------------------------------------------------------------
# CVS branch-and-bound against the unpruned oracle
# ---------------------------------------------------------------------------

TUNED_KNN = ModelSpec(family=Family.KNN)
TUNED_TREE = ModelSpec(family=Family.TREE)
TIES = ties_pool()[0][1]

# (dataset, method, model, grid, folds, seed, mode, whether the bound fires)
CVS_CASES = {
    "normals-oracle": (make(60, 15, d=3, seed=32, gap=1.5), Method.SMOTE, TUNED_KNN, (1.5, 2.0, 2.5, 3.0, 4.0), 5, 32, "oracle", True),
    "normals-nested": (make(60, 15, d=3, seed=31, gap=2.5), Method.ROS, TUNED_TREE, (1.5, 2.0, 3.0), 5, 31, "nested", True),
    # 3.0 is pruned, 4.0 runs into its infeasible fold
    "ties-oracle": (TIES, Method.ROS, TUNED_TREE, (1.25, 2.0, 3.0, 4.0), 3, 11, "oracle", True),
    "ties-nested": (TIES, Method.SMOTE, TUNED_KNN, (1.5, 2.0, 3.0), 3, 11, "nested", True),
    "one-point": (make(40, 10, seed=24, gap=1.0), Method.RUS, TUNED_KNN, (2.0,), 3, 7, "oracle", False),
    "never-fires": (make(30, 10, seed=12, gap=2.0), Method.ROS, FAST_KNN, DEFAULT_MULTIPLIER_GRID, 3, 1, "oracle", False),
    # every score is 1.0, so 3.0 stops after fold 0, before fold 1 whose training IR is below 3
    "infeasible-pruned": (make(30, 10, seed=25, gap=6.0), Method.ROS, FAST_KNN, (2.0, 3.0), 3, 0, "oracle", True),
}


def assert_reports_bitwise_equal(got, want):
    # repr of a float is the shortest string that reads back to the same
    # bits, so equal reprs mean bitwise-equal scores, multipliers and params
    for field in dataclasses.fields(CVReport):
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


@pytest.fixture
def refits(monkeypatch):
    """Counts the per-fold refits of evaluation and of the oracles."""
    count = {"n": 0}
    original = evaluation.fit_with_params

    def counting(*args, **kwargs):
        count["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "fit_with_params", counting)
    monkeypatch.setattr(oracles, "fit_with_params", counting)
    return count


@pytest.mark.parametrize("case", sorted(CVS_CASES))
def test_cvs_scan_matches_unpruned_oracle_bitwise(case):
    ds, method, model, grid, folds, seed, mode, fires = CVS_CASES[case]
    result = select_multiplier_cvs(ds, method, model, grid=grid, folds=folds, seed=seed, mode=mode)
    best_m, qcv, table, report = oracles.select_multiplier_cvs(
        ds, method, model, grid=grid, folds=folds, seed=seed, mode=mode
    )
    assert result.mode == mode
    assert result.best_multiplier == best_m
    assert repr(result.qcv) == repr(qcv)
    assert_reports_bitwise_equal(result.report, report)
    if mode == "nested":
        assert result.table == () and result.pruned == ()
        return
    assert bool(result.pruned) == fires
    effective = _effective_grid(grid, imbalance_ratio(ds))
    scanned = [m for m, _ in result.table]
    assert scanned == sorted(scanned)
    assert sorted(scanned + list(result.pruned)) == effective
    full = dict(table)
    for m, q in result.table:
        assert repr(q) == repr(full[m])
    for m in result.pruned:
        assert np.isnan(full[m]) or full[m] <= qcv


def test_cvs_infeasible_point_pruned_before_failing_fold():
    ds, method, model, grid, folds, seed, mode, _ = CVS_CASES["infeasible-pruned"]
    result = select_multiplier_cvs(ds, method, model, grid=grid, folds=folds, seed=seed, mode=mode)
    _, _, table, _ = oracles.select_multiplier_cvs(ds, method, model, grid=grid, folds=folds, seed=seed)
    assert np.isnan(dict(table)[3.0])
    assert result.table == ((2.0, 1.0),)
    assert result.pruned == (3.0,)


@pytest.mark.parametrize("case", ["normals-oracle", "normals-nested", "ties-oracle", "ties-nested", "never-fires"])
def test_cvs_bound_cuts_refits(refits, case):
    ds, method, model, grid, folds, seed, mode, fires = CVS_CASES[case]
    select_multiplier_cvs(ds, method, model, grid=grid, folds=folds, seed=seed, mode=mode)
    pruned_scan, refits["n"] = refits["n"], 0
    oracles.select_multiplier_cvs(ds, method, model, grid=grid, folds=folds, seed=seed, mode=mode)
    assert pruned_scan > 0
    if fires:
        assert pruned_scan < refits["n"]
    else:
        assert pruned_scan == refits["n"]


@pytest.mark.parametrize("mode", ["oracle", "nested"])
def test_cvs_repeated_grid_point_is_config_error_before_any_fold(monkeypatch, mode):
    def no_folds(*args, **kwargs):
        raise AssertionError("a fold split ran")

    monkeypatch.setattr(evaluation, "stratified_kfold", no_folds)
    with pytest.raises(ConfigError, match="repeats a point"):
        select_multiplier_cvs(make(30, 10), Method.ROS, FAST_KNN, grid=(2, 1.5, 2.0), folds=3, mode=mode)


@pytest.mark.parametrize("spec", [ResamplingSpec(Method.SMOTE, 2.0), eqs_strategy(Method.RUS)], ids=["fixed", "eqs"])
@pytest.mark.parametrize("ds", [make(60, 15, d=3, seed=33, gap=1.0), TIES], ids=["normals", "ties"])
def test_cv_quality_matches_loop_oracle_bitwise(ds, spec):
    got = cv_quality(ds, spec, TUNED_TREE, folds=3, seed=4)
    assert_reports_bitwise_equal(got, oracles.cv_quality(ds, spec, TUNED_TREE, folds=3, seed=4))
