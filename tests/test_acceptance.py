"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they happen; without -s they appear in captured output on failure.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from imbalance_bench import (
    DEFAULT_CELLS,
    DEFAULT_MULTIPLIER_GRID,
    DEFAULT_SMOTE_K,
    Family,
    GaussianPoolConfig,
    Method,
    ModelSpec,
    ResamplingSpec,
    dolan_more,
    from_rows,
    generate_gaussian_pool,
    imbalance_ratio,
    parse_cell,
    pr_auc,
    resample,
    run_benchmark,
)
from imbalance_bench.benchmark import evaluate_strategy
from imbalance_bench.classifiers.logreg import (
    logreg_objective_and_gradient,
    solve_l1_logreg,
    standardize_stats,
)
from imbalance_bench.rng import derive_seed


def criterion(num, name):
    """Print exactly one verdict line per criterion, then let pytest judge."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {num} ({name}): PASS")

        return wrapper

    return deco


def random_dataset(rng, n_major, n_minor, d):
    features = rng.normal(0.0, 2.0, size=(n_major + n_minor, d))
    labels = np.array([0] * n_major + [1] * n_minor)
    return from_rows(features, labels)


# ---------------------------------------------------------------------------
# 1. resampling count contracts
# ---------------------------------------------------------------------------


@criterion(1, "resampling count contracts")
def test_criterion_1_resampling_counts():
    rng = np.random.default_rng(101)
    start = time.time()
    checked = 0
    while checked < 500:
        n_minor = int(rng.integers(2, 60))
        n_major = int(rng.integers(n_minor + 1, 220))
        ir = n_major / n_minor
        m = 1.0 + float(rng.uniform(0.0, 1.0)) * (ir - 1.0)
        if m <= 1.0:
            continue
        method = (Method.ROS, Method.RUS, Method.SMOTE)[int(rng.integers(0, 3))]
        ds = random_dataset(rng, n_major, n_minor, int(rng.integers(1, 5)))
        out = resample(ds, ResamplingSpec(method, m, smote_k=5), seed=checked).dataset
        major, minor = out.class_counts()
        if method is Method.RUS:
            assert minor == n_minor
            assert major == n_major - int(np.round(n_major * (m - 1.0) / m))
            slack = 0.5 / n_minor
        else:
            assert major == n_major
            assert minor == n_minor + int(np.round((m - 1.0) * n_minor))
            target = m * n_minor
            slack = n_major * 0.5 / ((target - 0.5) * target)
        assert abs(imbalance_ratio(out) - ir / m) <= slack + 1e-9, (method, n_major, n_minor, m)
        checked += 1
    assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 2. SMOTE geometry
# ---------------------------------------------------------------------------


def segment_distance(point, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((point - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(point - (a + t * ab)))


def neighbor_candidates(minor_rows, pos, k_eff):
    """Brute-force k-NN with inclusive tie handling: any point at a distance
    not exceeding the k_eff-th smallest is an admissible neighbor."""
    dists = sorted(
        (float(((row - minor_rows[pos]) ** 2).sum()), j)
        for j, row in enumerate(minor_rows)
        if j != pos
    )
    cutoff = dists[k_eff - 1][0]
    return {j for dist, j in dists if dist <= cutoff + 1e-12}


@criterion(2, "smote geometry")
def test_criterion_2_smote_geometry():
    rng = np.random.default_rng(202)
    start = time.time()
    checked = 0
    while checked < 100:
        n_minor = int(rng.integers(2, 30))
        n_major = int(rng.integers(3 * n_minor, 6 * n_minor))
        ir = n_major / n_minor
        m = 1.0 + float(rng.uniform(0.2, 1.0)) * (min(ir, 4.0) - 1.0)
        k = int(rng.integers(1, 8))
        ds = random_dataset(rng, n_major, n_minor, int(rng.integers(1, 5)))
        result = resample(ds, ResamplingSpec(Method.SMOTE, m, smote_k=k), seed=1000 + checked)
        if not result.added:
            continue
        minor_ids = [i for i, lab in zip(ds.ids, ds.labels) if lab == 1]
        minor_rows = ds.features[ds.labels == 1]
        position = {i: p for p, i in enumerate(minor_ids)}
        k_eff = min(k, n_minor - 1)
        out_rows = {i: row for i, row in zip(result.dataset.ids, result.dataset.features)}
        for record in result.added:
            seed_pos = position[record.seed_id]
            neighbor_pos = position[record.neighbor_id]
            assert neighbor_pos in neighbor_candidates(minor_rows, seed_pos, k_eff)
            gap = segment_distance(
                out_rows[record.synth_id], minor_rows[seed_pos], minor_rows[neighbor_pos]
            )
            assert gap <= 1e-9, (checked, record.synth_id, gap)
        checked += 1
    assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 3. PR-AUC oracle equivalence
# ---------------------------------------------------------------------------


def pr_auc_rescan(scores, labels):
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    area, prev_recall = 0.0, 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= t
        tp = int((sel & pos).sum())
        precision = tp / int(sel.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


@criterion(3, "pr-auc oracle equivalence")
def test_criterion_3_pr_auc_oracle():
    rng = np.random.default_rng(303)
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        if trial % 2:
            scores = np.round(rng.uniform(0.0, 1.0, size=n), 1)
        else:
            scores = rng.normal(size=n)
        assert abs(pr_auc(scores, labels) - pr_auc_rescan(scores, labels)) <= 1e-12, trial

    # exact edge cases
    for n_pos, n_neg in ((1, 1), (3, 7), (40, 160), (117, 31)):
        scores = np.concatenate([rng.uniform(1, 2, n_pos), rng.uniform(-1, 0, n_neg)])
        labels = np.array([1] * n_pos + [0] * n_neg)
        assert pr_auc(scores, labels) == 1.0
        assert pr_auc(np.zeros(n_pos + n_neg), labels) == n_pos / (n_pos + n_neg)


# ---------------------------------------------------------------------------
# 4. logistic-regression gradient and objective descent
# ---------------------------------------------------------------------------


@criterion(4, "logreg gradient vs finite differences")
def test_criterion_4_logreg_gradient():
    rng = np.random.default_rng(404)
    h = 1e-6
    for problem in range(50):
        n = int(rng.integers(20, 61))
        d = int(rng.integers(2, 9))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        if y.sum() in (0, n):
            y[0] = 1.0 - y[0]
        w = rng.normal(scale=0.8, size=d)
        b = float(rng.normal())
        _, analytic = logreg_objective_and_gradient(w, b, 0.0, X, y)
        numeric = np.empty(d + 1)
        for i in range(d + 1):
            shift = np.zeros(d + 1)
            shift[i] = h
            hi, _ = logreg_objective_and_gradient(w + shift[:d], b + shift[d], 0.0, X, y)
            lo, _ = logreg_objective_and_gradient(w - shift[:d], b - shift[d], 0.0, X, y)
            numeric[i] = (hi - lo) / (2.0 * h)
        scale = max(1.0, float(np.abs(analytic).max()))
        assert float(np.abs(numeric - analytic).max()) / scale <= 1e-5, problem

        mean, sd = standardize_stats(X)
        lam = float(rng.choice([0.0, 1e-3, 1e-1]))
        _, _, history = solve_l1_logreg((X - mean) / sd, y, lam)
        assert (np.diff(history) <= 0.0).all(), problem


# ---------------------------------------------------------------------------
# 5. leakage audit across a full benchmark
# ---------------------------------------------------------------------------


@criterion(5, "leakage audit")
def test_criterion_5_leakage_audit():
    cfg = GaussianPoolConfig(
        pool_size=20, seed=5150, d_range=(6, 8), size_range=(200, 240),
        minor_fraction_range=(0.1, 0.3),
    )
    pool = [(f"dataset_{e.index:04d}", e.dataset) for e in generate_gaussian_pool(cfg)]
    model = ModelSpec(family=Family.KNN, grid=({"k": 5},))
    result = run_benchmark(pool, [("knn", model)], cells=DEFAULT_CELLS, folds=5, seed=3)
    assert result.n_errors == 0
    matrix = result.matrices["knn"]
    reports = {}
    for row, (dataset_id, dataset) in enumerate(pool):
        for col, cell in enumerate(DEFAULT_CELLS):
            report, _ = evaluate_strategy(
                dataset, model, *parse_cell(cell), 1.0, 5, derive_seed(3, dataset_id, "knn", cell),
                DEFAULT_MULTIPLIER_GRID, DEFAULT_SMOTE_K, "oracle",
            )
            # the rebuilt report is the one behind the benchmark's matrix entry
            assert report.qcv == matrix.values[row, col], (dataset_id, cell)
            reports[dataset_id, cell] = report
    assert len(reports) == 20 * len(DEFAULT_CELLS)
    synthetics_seen = 0
    for key, report in reports.items():
        for train_ids, test_ids in zip(report.fold_train_ids, report.fold_test_ids):
            assert not any(i.startswith("synth:") for i in test_ids), key
            assert len(set(test_ids)) == len(test_ids), key
            assert not set(train_ids) & set(test_ids), key
            synthetics_seen += sum(1 for i in train_ids if i.startswith("synth:"))
    assert synthetics_seen > 0  # the audit actually saw resampled folds


# ---------------------------------------------------------------------------
# 6. Dolan-More oracle equivalence
# ---------------------------------------------------------------------------


@criterion(6, "dolan-more oracle equivalence")
def test_criterion_6_dolan_more_oracle():
    from imbalance_bench import QualityMatrix

    rng = np.random.default_rng(606)
    for trial in range(100):
        tasks = int(rng.integers(1, 13))
        methods = int(rng.integers(1, 7))
        values = rng.uniform(0.0, 1.0, size=(tasks, methods))
        if rng.integers(0, 4) == 0:
            values[rng.integers(0, tasks), rng.integers(0, methods)] = 0.0
        matrix = QualityMatrix(
            tasks=tuple(f"t{i}" for i in range(tasks)),
            methods=tuple(f"m{j}" for j in range(methods)),
            values=values,
            mask=np.ones((tasks, methods), bool),
        )
        result = dolan_more(matrix)
        clamped = np.clip(values, 1e-9, None)
        for i, curve in enumerate(result.curves):
            assert (np.diff(curve.p) >= 0.0).all(), trial
            assert curve.p[-1] == 1.0, trial
            for j in (0, len(curve.betas) // 2, len(curve.betas) - 1):
                beta = curve.betas[j]
                direct = np.mean(
                    [clamped[t, i] >= clamped[t].max() / beta for t in range(tasks)]
                )
                assert abs(curve.p[j] - direct) <= 1e-15, trial


# ---------------------------------------------------------------------------
# 7-9. desk-scale directional reproduction and determinism
# ---------------------------------------------------------------------------

BENCH_POOL = GaussianPoolConfig(
    pool_size=50, seed=20260814, d_range=(6, 8), size_range=(200, 260),
    minor_fraction_range=(0.1, 0.3),
)
BENCH_TREE = ModelSpec(family=Family.TREE, grid=({"max_depth": 4, "min_leaf": 5},))
BENCH_SEED = 7
BENCH_FOLDS = 5


@pytest.fixture(scope="module")
def tree_benchmark(tmp_path_factory):
    pool = [(f"dataset_{e.index:04d}", e.dataset) for e in generate_gaussian_pool(BENCH_POOL)]
    out = tmp_path_factory.mktemp("bench") / "results.csv"
    start = time.time()
    result = run_benchmark(
        pool, [("tree", BENCH_TREE)], cells=DEFAULT_CELLS,
        folds=BENCH_FOLDS, seed=BENCH_SEED, out=out,
    )
    return pool, result, out, time.time() - start


@criterion(7, "cvs improves on eqs across the pool")
def test_criterion_7_cvs_beats_eqs(tree_benchmark):
    _, result, _, elapsed = tree_benchmark
    assert elapsed <= 1800.0
    profile = dolan_more(result.matrices["tree"], betas=[1.0, 1.05])
    p = {curve.method: curve.p for curve in profile.curves}
    cvs_wins = sum(p[f"{m}+cvs"][0] for m in ("ros", "rus", "smote"))
    eqs_wins = sum(p[f"{m}+eqs"][0] for m in ("ros", "rus", "smote"))
    assert cvs_wins >= eqs_wins, (cvs_wins, eqs_wins)
    for m in ("ros", "rus", "smote"):
        assert p[f"{m}+cvs"][1] >= p[f"{m}+eqs"][1], (m, p[f"{m}+cvs"][1], p[f"{m}+eqs"][1])


@criterion(8, "no-resampling wins on at least one dataset")
def test_criterion_8_none_wins_somewhere(tree_benchmark):
    _, result, _, _ = tree_benchmark
    profile = dolan_more(result.matrices["tree"], betas=[1.0])
    p_none = next(c for c in profile.curves if c.method == "none").p[0]
    assert p_none > 0.0, p_none


@criterion(9, "end-to-end determinism")
def test_criterion_9_byte_identical_rerun(tree_benchmark, tmp_path):
    pool, _, out, _ = tree_benchmark
    again = tmp_path / "again.csv"
    run_benchmark(
        pool, [("tree", BENCH_TREE)], cells=DEFAULT_CELLS,
        folds=BENCH_FOLDS, seed=BENCH_SEED, out=again,
    )
    assert again.read_bytes() == out.read_bytes()
