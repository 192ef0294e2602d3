"""Classifier families: tree splits, knn scoring, logreg solver, tuning."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from imbalance_bench import (
    DimensionMismatch,
    EmptyClass,
    Family,
    ModelSpec,
    default_grid,
    fit,
    fit_with_params,
    from_rows,
    logreg_objective_and_gradient,
    select_hyperparams,
    stratified_kfold,
)
from imbalance_bench import datasets
from imbalance_bench.classifiers import simplest_params
from imbalance_bench.classifiers.knn import fit_knn
from imbalance_bench.classifiers.logreg import LogRegScorer, _sigmoid, fit_logreg, solve_l1_logreg, standardize_stats
from imbalance_bench.classifiers.tree import _exact_cost, _precedes, fit_tree
from oracles import brute_force_best_split, fraction_cost, full_search, ista, knn_loop_score, masked_sigmoid
from test_golden import ties_pool


def blobs(n_major=30, n_minor=10, gap=8.0, d=2, seed=0):
    rng = np.random.default_rng(seed)
    major = rng.normal(0.0, 1.0, size=(n_major, d))
    minor = rng.normal(gap, 1.0, size=(n_minor, d))
    features = np.vstack([major, minor])
    labels = np.array([0] * n_major + [1] * n_minor)
    return from_rows(features, labels)


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------


def walk_leaves(node):
    if node.is_leaf:
        yield node
    else:
        yield from walk_leaves(node.left)
        yield from walk_leaves(node.right)


def walk_internal(node):
    if not node.is_leaf:
        yield node
        yield from walk_internal(node.left)
        yield from walk_internal(node.right)


def test_tree_root_split_matches_exact_oracle():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        d = int(rng.integers(1, 4))
        # integer-valued features force duplicate values and cost ties
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        min_leaf = int(rng.integers(1, 4))
        tree = fit_tree(from_rows(X, y), 1, min_leaf)
        got = None if tree.root.is_leaf else (tree.root.feature, tree.root.threshold)
        assert got == brute_force_best_split(X, y, min_leaf), f"seed {seed}"


def test_tree_separable_blobs_perfect_training_accuracy():
    ds = blobs(gap=10.0)
    spec = ModelSpec(family=Family.TREE)
    model = fit(spec, ds)
    predictions = model.score(ds.features) >= 0.5
    for predicted, label in zip(predictions, ds.labels):
        assert bool(predicted) == bool(label)


def test_tree_laplace_leaf_score():
    # identical features leave nothing to split on: one leaf, 3 minor 1 major
    X = np.ones((4, 2))
    y = np.array([1, 1, 1, 0])
    tree = fit_tree(from_rows(X, y), 8, 1)
    assert tree.root.is_leaf
    assert tree.root.score == (3 + 1) / (4 + 2) == pytest.approx(2 / 3)


def test_tree_never_splits_pure_node():
    X = np.arange(12, dtype=float).reshape(6, 2)
    tree = fit_tree(from_rows(X, np.zeros(6, dtype=int)), 8, 1)
    assert tree.root.is_leaf
    tree = fit_tree(from_rows(X, np.ones(6, dtype=int)), 8, 1)
    assert tree.root.is_leaf


def test_tree_depth_bounded():
    ds = blobs(40, 30, gap=1.0, seed=3)
    for max_depth in (1, 2, 3, 5):
        tree = fit_tree(ds, max_depth, 1)
        assert tree.depth <= max_depth


def test_tree_min_leaf_respected_on_split_children():
    for seed in range(10):
        ds = blobs(25, 12, gap=2.0, seed=seed)
        tree = fit_tree(ds, 25, 5)
        for node in walk_internal(tree.root):
            assert node.left.n >= 5
            assert node.right.n >= 5


def test_tree_tie_breaks_to_lower_feature_index():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([x, x])  # identical columns: feature 0 must win
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(from_rows(X, y), 1, 1)
    assert tree.root.feature == 0
    assert tree.root.threshold == 1.5


def test_tree_tie_breaks_to_lower_threshold():
    # splits at 0.5 and 1.5 both cost one impure pair: lower threshold wins
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 0])
    tree = fit_tree(from_rows(X, y), 1, 1)
    assert tree.root.threshold == 0.5


def test_tree_scores_match_per_row_descent():
    ds = blobs(30, 15, gap=2.5, seed=5)
    tree = fit_tree(ds, 6, 2)
    queries = np.random.default_rng(1).normal(1.0, 3.0, size=(50, 2))
    got = tree.score(queries)

    def descend(row):
        node = tree.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.score

    assert np.array_equal(got, [descend(row) for row in queries])


def test_tree_scores_within_unit_interval():
    ds = blobs(20, 10, gap=0.5, seed=2)
    tree = fit_tree(ds, 25, 1)
    scores = tree.score(ds.features)
    assert ((scores > 0.0) & (scores < 1.0)).all()  # Laplace keeps scores interior


@pytest.mark.parametrize("leaf", [1, 2, 5])
def test_truncated_tree_equals_direct_fit(leaf):
    ties = ties_pool()[0][1]
    datasets = [blobs(40, 20, gap=gap, d=3, seed=seed) for seed, gap in ((0, 0.5), (1, 1.5), (2, 4.0))]
    datasets += [ties] + [ties.subset(train) for train, _ in stratified_kfold(ties, 3, 0)]
    cut = 0
    for ds in datasets:
        deep = fit_tree(ds, 25, leaf)
        for depth in (1, 2, 4, 6, 8, 12, 25):
            assert deep.truncated(depth) == fit_tree(ds, depth, leaf)
            cut += depth < deep.depth
    assert cut > len(datasets)  # most trees are deeper than the shallow depths


def test_truncated_rejects_depth_outside_the_fit():
    tree = fit_tree(blobs(seed=1), 4, 1)
    for depth in (0, 5):
        with pytest.raises(ValueError):
            tree.truncated(depth)


def test_exact_cost_order_matches_fraction_order():
    rng = np.random.default_rng(0)
    splits = []
    for _ in range(300):
        n_left, n_right = (int(v) for v in rng.integers(1, 7, size=2))
        k_left, k_right = int(rng.integers(0, n_left + 1)), int(rng.integers(0, n_right + 1))
        feature, threshold = int(rng.integers(0, 3)), float(rng.choice([0.5, 1.5]))
        exact = _exact_cost(n_left, k_left, n_right, k_right)
        oracle = fraction_cost(n_left, k_left, n_right, k_right)
        splits.append(((*exact, feature, threshold), (oracle, feature, threshold)))
    # exact cost ties, also between unequal (numerator, denominator) pairs
    assert any(a[1][0] == b[1][0] and a[0][:2] != b[0][:2] for a in splits for b in splits)
    for new, oracle in splits:
        for other_new, other_oracle in splits:
            assert _precedes(new, other_new) == (oracle < other_oracle)


# ---------------------------------------------------------------------------
# k nearest neighbors
# ---------------------------------------------------------------------------


def test_knn_nearest_point_case():
    ds = from_rows(np.array([[0.0], [1.0]]), np.array([0, 1]))
    spec = ModelSpec(family=Family.KNN, grid=({"k": 1},))
    model = fit(spec, ds)
    assert model.score(np.array([[0.9]]))[0] == 1.0
    assert model.score(np.array([[0.1]]))[0] == 0.0


def test_knn_counting_two_of_three():
    ds = from_rows(np.array([[0.0], [1.0], [2.0], [50.0]]), np.array([1, 1, 0, 0]))
    model = fit_knn(ds, 3)
    assert model.score(np.array([[1.0]]))[0] == pytest.approx(2 / 3)


def test_knn_k1_training_accuracy_on_distinct_points():
    ds = blobs(25, 10, gap=0.5, seed=4)
    model = fit_knn(ds, 1)
    assert np.array_equal(model.score(ds.features), ds.labels.astype(float))


def test_knn_distance_ties_break_by_index():
    ds = from_rows(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    model = fit_knn(ds, 1)
    assert model.score(np.array([[0.0]]))[0] == 0.0  # index 0 wins the tie


def test_knn_k_clamped_to_train_size():
    ds = from_rows(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]))
    model = fit_knn(ds, 50)
    assert model.k == 3
    assert model.score(np.array([[5.0]]))[0] == pytest.approx(2 / 3)


def test_knn_matches_brute_force_oracle():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        ds = blobs(int(rng.integers(5, 25)), int(rng.integers(3, 12)), gap=1.0, seed=seed)
        k = int(rng.integers(1, 8))
        model = fit_knn(ds, k)
        queries = rng.normal(0.5, 2.0, size=(20, 2))
        for q, got in zip(queries, model.score(queries)):
            pairs = sorted(
                (float(((row - q) ** 2).sum()), i) for i, row in enumerate(ds.features)
            )
            expected = np.mean([ds.labels[i] for _, i in pairs[: model.k]])
            assert got == expected


def knn_problem(kind):
    """(train, queries): continuous, integer-valued (ties at the k-th distance), repeated training rows,
    or training rows that permute each other's coordinates, seen from queries with equal coordinates,
    whose distances are equal in exact arithmetic and differ in the last bits by summation order.
    """
    rng = np.random.default_rng(23)
    labels = rng.integers(0, 2, 120)
    if kind == "normal":
        return from_rows(rng.normal(size=(120, 5)), labels), rng.normal(size=(250, 5))
    if kind == "permuted":
        base = rng.normal(size=(6, 8))
        features = np.array([row[rng.permutation(8)] for row in base for _ in range(20)])
        return from_rows(features, labels), rng.normal(size=(250, 1)) * np.ones(8)
    if kind == "integer":
        return from_rows(rng.integers(-2, 3, size=(120, 3)).astype(float), labels), rng.integers(
            -2, 3, size=(250, 3)
        ).astype(float)
    base = rng.normal(size=(30, 4))
    features = base[rng.integers(0, 30, 120)]
    return from_rows(features, labels), np.vstack([features[:125], rng.normal(size=(125, 4))])


def tie_straddles_kth(model, X):
    """Whether some query row has equal k-th and (k+1)-th nearest distances."""
    dist = np.sort(((X[:, None] - model.train_features[None]) ** 2).sum(axis=2), axis=1)
    return bool((dist[:, model.k - 1] == dist[:, model.k]).any())


@pytest.mark.parametrize("kind", ["normal", "integer", "duplicates", "permuted"])
@pytest.mark.parametrize("rows_per_block", [None, 1, 7])
def test_knn_score_matches_loop_oracle_bitwise(kind, rows_per_block, monkeypatch):
    train, queries = knn_problem(kind)
    if rows_per_block is not None:
        monkeypatch.setattr(datasets, "_BLOCK_ELEMENTS", rows_per_block * train.features.size)
    assert len(queries) > datasets._BLOCK_ELEMENTS // train.features.size  # more rows than one block
    if kind in ("integer", "duplicates"):
        assert tie_straddles_kth(fit_knn(train, 3), queries)
    for k in (1, 3, 15, 500):
        model = fit_knn(train, k)
        assert model.k == min(k, train.size)
        for X in (queries, queries[:1], queries[:0]):
            assert model.score(X).tobytes() == knn_loop_score(model, X).tobytes()


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------


def test_logreg_objective_at_origin_is_ln2():
    X = np.random.default_rng(0).normal(size=(8, 3))
    y = np.array([0, 1] * 4, dtype=float)
    objective, _ = logreg_objective_and_gradient(np.zeros(3), 0.0, 0.0, X, y)
    assert objective == pytest.approx(np.log(2), rel=1e-15)


def test_logreg_softplus_single_point():
    objective, _ = logreg_objective_and_gradient(np.array([10.0]), 0.0, 0.0, np.array([[1.0]]), np.array([1.0]))
    assert objective == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-12)
    assert objective == pytest.approx(4.5398e-5, rel=1e-3)


def fd_gradient(w, b, X, y, h=1e-6):
    grad = np.empty(len(w) + 1)
    for i in range(len(w) + 1):
        def objective_at(delta):
            w_shift = w.copy()
            b_shift = b
            if i < len(w):
                w_shift[i] += delta
            else:
                b_shift += delta
            value, _ = logreg_objective_and_gradient(w_shift, b_shift, 0.0, X, y)
            return value

        grad[i] = (objective_at(h) - objective_at(-h)) / (2.0 * h)
    return grad


def test_logreg_gradient_matches_central_differences():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5).astype(float)
        w = rng.normal(size=3)
        b = float(rng.normal())
        _, analytic = logreg_objective_and_gradient(w, b, 0.0, X, y)
        numeric = fd_gradient(w, b, X, y)
        scale = max(1.0, float(np.abs(analytic).max()))
        assert float(np.abs(numeric - analytic).max()) / scale <= 1e-5


def test_logreg_gradient_ignores_l1_term():
    X = np.random.default_rng(3).normal(size=(6, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    w = np.array([0.5, -0.2])
    _, grad_plain = logreg_objective_and_gradient(w, 0.1, 0.0, X, y)
    objective, grad_l1 = logreg_objective_and_gradient(w, 0.1, 2.0, X, y)
    assert np.array_equal(grad_plain, grad_l1)
    plain, _ = logreg_objective_and_gradient(w, 0.1, 0.0, X, y)
    assert objective == pytest.approx(plain + 2.0 * 0.7, rel=1e-12)


def test_logreg_huge_lambda_gives_constant_scores():
    ds = blobs(30, 10, gap=5.0, seed=1)
    model = fit_logreg(ds, 1e6)
    assert (model.w == 0.0).all()
    scores = model.score(np.random.default_rng(0).normal(size=(20, 2)))
    assert len(set(scores.tolist())) == 1
    assert scores[0] == pytest.approx(0.25, abs=1e-3)  # sigmoid(b) fits prevalence


def test_logreg_zero_weights_score_half():
    ds = blobs(6, 6, gap=3.0)
    model = fit_logreg(ds, 0.0, max_iter=0)
    assert (model.score(ds.features) == 0.5).all()


def test_logreg_objective_history_non_increasing():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30).astype(float)
        for lam in (0.0, 0.01, 0.5):
            _, _, history = solve_l1_logreg(X, y, lam)
            assert (np.diff(history) <= 0.0).all()


def test_logreg_suboptimality_vs_long_run():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 5))
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
    for lam in (1e-3, 1e-1):
        _, _, history = solve_l1_logreg(X, y, lam, max_iter=5000, tol=1e-8)
        _, _, reference = solve_l1_logreg(X, y, lam, max_iter=50_000, tol=0.0)
        assert history[-1] - reference[-1] <= 1e-6


def test_logreg_standardization_guards_zero_variance():
    features = np.column_stack([np.ones(12), np.linspace(-2, 2, 12)])
    labels = (features[:, 1] > 0).astype(int)
    ds = from_rows(features, np.where(labels.sum() * 2 > 12, 1 - labels, labels))
    mean, scale = standardize_stats(ds.features)
    assert scale[0] == 1.0
    model = fit_logreg(ds, 0.01)
    assert model.w[0] == 0.0
    assert np.isfinite(model.score(ds.features)).all()


def test_logreg_constant_column_is_inert():
    # 0.1 is not exactly representable: the column's std comes out near 1e-17, not 0.
    x = np.random.default_rng(0).normal(size=60)
    features = np.column_stack([np.full(60, 0.1), x])
    ds = from_rows(features, (x > 0.8).astype(int))
    mean, scale = standardize_stats(features)
    assert (mean[0], scale[0]) == (0.1, 1.0)
    rows = np.array([[0.1, 0.5], [0.2, 0.5], [-7.0, 0.5]])
    for params in default_grid(Family.LOGREG):
        model = fit_logreg(ds, params["lam"])
        assert model.w[0] == 0.0
        assert np.unique(model.score(rows)).size == 1


def correlated_problem(n, d, seed, constant_column=False):
    """Standardized features sharing a common factor, so the first steps overshoot and backtrack."""
    rng = np.random.default_rng(seed)
    features = 2.0 * rng.normal(size=(n, 1)) + rng.normal(size=(n, d))
    if constant_column:
        features[:, 1] = 3.0
    y = (features[:, 0] + features[:, 2] + rng.normal(size=n) > 3.0).astype(np.float64)
    mean, scale = standardize_stats(features)
    return (features - mean) / scale, y


@pytest.mark.parametrize(
    "n, d, lam, max_iter, constant_column",
    [
        (200, 6, 0.0, 5000, False),
        (300, 9, 1e-4, 5000, False),
        (400, 12, 1e-2, 5000, False),
        (250, 8, 10.0, 5000, False),
        (350, 10, 1e-4, 50, False),
        (220, 7, 1e-3, 0, False),
        (260, 8, 1e-3, 5000, True),
    ],
)
def test_solve_l1_logreg_matches_ista_oracle_bitwise(n, d, lam, max_iter, constant_column):
    X, y = correlated_problem(n, d, seed=n + d, constant_column=constant_column)
    w, b, history = solve_l1_logreg(X, y, lam, max_iter)
    w_ref, b_ref, history_ref = ista(X, y, lam, max_iter)
    assert w.tobytes() == w_ref.tobytes()
    assert np.float64(b).tobytes() == np.float64(b_ref).tobytes()
    assert np.array(history).tobytes() == np.array(history_ref).tobytes()
    if max_iter == 50:
        assert len(history) == 51


def special_margins():
    magnitudes = [0.0, 1e-300, 36.0, 709.0, 745.0, 1e308]
    random = np.random.default_rng(5).normal(0.0, 20.0, size=500)
    return np.concatenate([magnitudes, np.negative(magnitudes), random])


def test_sigmoid_matches_masked_oracle_bitwise():
    z = special_margins()
    assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


def test_logreg_score_matches_masked_oracle_bitwise():
    z = special_margins()
    identity = LogRegScorer(w=np.array([1.0]), b=0.0, mean=np.zeros(1), scale=np.ones(1), params={})
    assert identity.score(z[:, None]).tobytes() == masked_sigmoid(z[:, None] @ np.array([1.0]) + 0.0).tobytes()
    ds = blobs(40, 15, gap=1.5, d=3, seed=4)
    model = fit_logreg(ds, 1e-3)
    X = np.random.default_rng(6).normal(0.0, 4.0, size=(200, 3))
    expected = masked_sigmoid((X - model.mean) / model.scale @ model.w + model.b)
    assert model.score(X).tobytes() == expected.tobytes()


def test_solve_l1_logreg_hook_contract():
    # The benchmark's tracer counts solves, iterations (len(history) - 1) and
    # capped solves (iterations == max_iter) from positional calls like this one.
    assert list(inspect.signature(solve_l1_logreg).parameters) == ["X", "y", "lam", "max_iter", "tol"]
    X, y = correlated_problem(200, 6, seed=1)
    result = solve_l1_logreg(X, y, 1e-4, 7)
    assert isinstance(result, tuple) and len(result) == 3
    assert len(result[2]) - 1 == 7


def test_logreg_scores_monotone_in_linear_predictor():
    ds = blobs(20, 10, gap=4.0, seed=7)
    model = fit_logreg(ds, 0.01)
    X = np.random.default_rng(2).normal(2.0, 3.0, size=(30, 2))
    z = (X - model.mean) / model.scale @ model.w + model.b
    s = model.score(X)
    order = np.argsort(z)
    assert (np.diff(s[order]) >= 0.0).all()


# ---------------------------------------------------------------------------
# ModelSpec, tuning, fit
# ---------------------------------------------------------------------------


def test_default_grids_pinned():
    tree = default_grid(Family.TREE)
    assert len(tree) == 12
    assert {p["max_depth"] for p in tree} == {2, 4, 6, 8, 12, 25}
    assert {p["min_leaf"] for p in tree} == {1, 5}
    assert [p["k"] for p in default_grid(Family.KNN)] == [1, 3, 5, 7, 11, 15]
    assert [p["lam"] for p in default_grid(Family.LOGREG)] == [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(family=Family.KNN, tuning_folds=1)
    spec = ModelSpec(family="knn")
    assert spec.family is Family.KNN
    assert spec.grid == default_grid(Family.KNN)


def test_simplest_params_per_family():
    assert simplest_params(ModelSpec(family=Family.TREE)) == {"max_depth": 2, "min_leaf": 5}
    assert simplest_params(ModelSpec(family=Family.KNN)) == {"k": 15}
    assert simplest_params(ModelSpec(family=Family.LOGREG)) == {"lam": 10.0}


def test_select_hyperparams_ties_go_to_simpler():
    train = blobs(6, 6, gap=30.0, seed=0)
    val = blobs(6, 6, gap=30.0, seed=1)
    spec = ModelSpec(family=Family.KNN, grid=({"k": 1}, {"k": 3}))
    _, full_table = full_search(spec, [(train, val)])
    assert [q for _, q in full_table] == [1.0, 1.0]
    params, table = select_hyperparams(spec, [(train, val)])
    assert params == {"k": 3}  # both perfect: larger k is simpler
    assert table == full_table[:1]  # nothing can beat a perfect score


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("gap, exits", [(8.0, True), (0.5, False)])
def test_select_hyperparams_matches_full_search(family, gap, exits):
    ds = blobs(24, 9, gap=gap, d=3, seed=5)
    pairs = [(ds.subset(tr), ds.subset(te)) for tr, te in stratified_kfold(ds, 3, 1)]
    spec = ModelSpec(family=family)
    params, table = select_hyperparams(spec, pairs)
    oracle_params, oracle_table = full_search(spec, pairs)
    assert params == oracle_params
    assert table == oracle_table[: len(table)]
    assert (len(table) < len(spec.grid)) == exits


@pytest.mark.parametrize(
    "grid",
    [
        # unsorted depths, one min_leaf, a depth above the default 25
        ({"max_depth": 6, "min_leaf": 2}, {"max_depth": 40, "min_leaf": 2},
         {"max_depth": 1, "min_leaf": 2}, {"max_depth": 3, "min_leaf": 2}),
        default_grid(Family.TREE),
    ],
)
def test_select_hyperparams_tree_grid_matches_full_search(monkeypatch, grid):
    import imbalance_bench.classifiers as classifiers

    fits = []

    def counted_fit_tree(train, max_depth, min_leaf):
        fits.append((max_depth, min_leaf))
        return fit_tree(train, max_depth, min_leaf)

    monkeypatch.setattr(classifiers, "fit_tree", counted_fit_tree)
    spec = ModelSpec(family=Family.TREE, grid=grid)
    deepest = max(p["max_depth"] for p in grid)
    leaves = {p["min_leaf"] for p in grid}
    for ds in (ties_pool()[0][1], blobs(30, 12, gap=1.0, d=3, seed=3)):
        pairs = [(ds.subset(tr), ds.subset(te)) for tr, te in stratified_kfold(ds, 3, 2)]
        fits.clear()
        params, table = select_hyperparams(spec, pairs)
        assert sorted(fits) == sorted((deepest, leaf) for leaf in leaves for _ in pairs)
        oracle_params, oracle_table = full_search(spec, pairs)
        assert params == oracle_params
        assert table == oracle_table[: len(table)]


def test_select_hyperparams_prefers_better_candidate():
    # k=1 memorizes the training point; k=3 is forced to average in the
    # opposite class on this tiny, interleaved validation layout.
    train = from_rows(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 0, 1]))
    val = from_rows(np.array([[0.1], [0.9], [2.1], [2.9]]), np.array([0, 1, 0, 1]))
    spec = ModelSpec(family=Family.KNN, grid=({"k": 1}, {"k": 3}))
    params, table = select_hyperparams(spec, [(train, val)])
    scores = dict((tuple(p.items()), q) for p, q in table)
    assert scores[(("k", 1),)] > scores[(("k", 3),)]
    assert params == {"k": 1}


def test_fit_degrades_below_tuning_folds(caplog):
    ds = blobs(20, 2, gap=6.0)
    spec = ModelSpec(family=Family.KNN, tuning_folds=3)
    with caplog.at_level("WARNING"):
        model = fit(spec, ds)
    assert model.params == {"k": 15}
    assert any("tuning_folds" in record.message for record in caplog.records)


def test_fit_tunes_on_folds_seeded_by_spec_seed():
    ds = blobs(30, 12, gap=1.0, seed=3)
    spec = ModelSpec(family=Family.TREE, seed=1)
    pairs = [(ds.subset(tr), ds.subset(te)) for tr, te in stratified_kfold(ds, spec.tuning_folds, spec.seed)]
    params, _ = select_hyperparams(spec, pairs)
    assert fit(spec, ds).params == params == {"max_depth": 8, "min_leaf": 1}


def test_fit_requires_both_classes():
    ds = from_rows(np.ones((4, 1)), np.zeros(4, dtype=int))
    with pytest.raises(EmptyClass):
        fit(ModelSpec(family=Family.KNN), ds)


def test_fit_deterministic():
    ds = blobs(30, 12, gap=2.0, seed=9)
    spec = ModelSpec(family=Family.TREE, seed=4)
    a = fit(spec, ds)
    b = fit(spec, ds)
    assert a.params == b.params
    X = np.random.default_rng(0).normal(size=(25, 2))
    assert np.array_equal(a.score(X), b.score(X))


def test_score_wrapper_and_dimension_mismatch():
    ds = blobs(10, 5, gap=4.0)
    for family, params in ((Family.TREE, {"max_depth": 2, "min_leaf": 1}), (Family.KNN, {"k": 1}), (Family.LOGREG, {"lam": 0.1})):
        model = fit_with_params(family, params, ds)
        values = model.score(ds.features)
        assert ((values >= 0.0) & (values <= 1.0)).all()
        with pytest.raises(DimensionMismatch):
            model.score(np.ones((3, 5)))
        with pytest.raises(ValueError):
            model.score(np.array([[np.nan, 1.0]]))
