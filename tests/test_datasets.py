"""Dataset container, CSV interchange, folds, and pool generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalance_bench import (
    ConfigError,
    Dataset,
    EmptyClass,
    GaussianPoolConfig,
    LabelError,
    MajorityMislabeled,
    Method,
    ParseError,
    ResamplingSpec,
    TooFewElements,
    from_rows,
    generate_gaussian_pool,
    imbalance_ratio,
    load_csv,
    load_pool,
    resample,
    save_csv,
    stratified_kfold,
    write_pool,
)
import oracles


def make(n_major: int, n_minor: int, d: int = 2, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_major + n_minor, d))
    labels = np.array([0] * n_major + [1] * n_minor)
    return from_rows(features, labels)


# ---------------------------------------------------------------------------
# Dataset invariants
# ---------------------------------------------------------------------------


def test_dataset_basic_accessors():
    ds = make(3, 2)
    assert ds.size == 5
    assert ds.dim == 2
    assert ds.class_counts() == (3, 2)
    assert list(ds.class_indices(1)) == [3, 4]
    assert ds.ids == ("orig:0", "orig:1", "orig:2", "orig:3", "orig:4")


def test_dataset_arrays_are_read_only():
    ds = make(3, 2)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


def test_dataset_copies_the_callers_arrays():
    features = np.zeros((3, 2))
    labels = np.array([0, 0, 1], dtype=np.int64)
    view = features[:]
    ds = from_rows(features, labels)
    view[0, 0] = 42.0  # a view taken before construction cannot reach the dataset
    features[1, 1] = 7.0  # and the caller's arrays stay writable
    labels[0] = 1
    assert ds.features[0, 0] == 0.0 and ds.features[1, 1] == 0.0
    assert ds.labels.tolist() == [0, 0, 1]


def test_dataset_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([1]), ("orig:0",))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf]]), np.array([1]), ("orig:0",))


def test_dataset_rejects_bad_labels():
    with pytest.raises(LabelError):
        Dataset(np.ones((2, 1)), np.array([0, 2]), ("orig:0", "orig:1"))


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 1)), np.array([0, 1]), ("orig:0", "orig:0"))


@pytest.mark.parametrize("ident", ["a", "orig:01", "synth:-1", "orig:1.0", "orig:", "synth:1 ", 3])
def test_dataset_rejects_ids_that_do_not_render_back(ident):
    with pytest.raises(ValueError, match="canonical"):
        Dataset(np.ones((2, 1)), np.array([0, 1]), ("orig:0", ident))


def test_dataset_ids_round_trip_through_codes():
    ids = ("synth:12", "orig:0", "orig:7", "synth:0")
    ds = Dataset(np.ones((4, 1)), np.array([0, 1, 0, 1]), ids)
    assert ds.codes.tolist() == [-13, 0, 7, -1]
    assert ds.ids == ids
    with pytest.raises(ValueError, match="pairwise distinct"):
        Dataset(np.ones((2, 1)), np.array([0, 1]), ("synth:3", "synth:3"))


def test_dataset_rejects_shape_mismatches():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 1)), np.array([0, 1, 1]), ("orig:0", "orig:1"))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 1)), np.array([0, 1]), ("orig:0",))
    with pytest.raises(ValueError):
        Dataset(np.ones((0, 1)), np.array([]), ())


def test_subset_keeps_rows_and_ids():
    ds = make(3, 2)
    sub = ds.subset([4, 1])
    assert sub.ids == ("orig:4", "orig:1")
    assert np.array_equal(sub.features, ds.features[[4, 1]])
    assert list(sub.labels) == [1, 0]


def assert_same_dataset(got, want):
    assert got.features.tobytes() == want.features.tobytes() and got.features.shape == want.features.shape
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.ids == want.ids
    assert not (got.features.flags.writeable or got.labels.flags.writeable or got.codes.flags.writeable)


def test_subset_matches_string_id_oracle():
    ds = resample(make(12, 6, d=3, seed=4), ResamplingSpec(Method.SMOTE, 1.5), seed=0).dataset
    rng = np.random.default_rng(0)
    cases = [
        np.arange(ds.size),
        [0],
        [ds.size - 1, 0],  # unsorted distinct indices keep their order
        [-1, 0, 3],
        np.flatnonzero(rng.integers(0, 2, size=ds.size)),
        *(rng.permutation(ds.size)[: int(rng.integers(1, ds.size))] for _ in range(20)),
    ]
    for indices in cases:
        got = ds.subset(indices)
        assert_same_dataset(got, oracles.string_subset(ds, indices))
        assert_same_dataset(got.subset(np.arange(got.size)[::-1]), oracles.string_subset(got, np.arange(got.size)[::-1]))
    for repeated in ([1, 1], [3, 0, 3], [0, -ds.size], [ds.size - 1, -1]):
        with pytest.raises(ValueError, match="ids must be pairwise distinct"):
            oracles.string_subset(ds, repeated)
        with pytest.raises(ValueError, match="ids must be pairwise distinct"):
            ds.subset(repeated)
    for empty in ([], np.zeros((2, 2), dtype=int)):
        with pytest.raises(ValueError):
            ds.subset(empty)


# ---------------------------------------------------------------------------
# imbalance_ratio
# ---------------------------------------------------------------------------


def test_imbalance_ratio_balanced_pair():
    assert imbalance_ratio(make(1, 1)) == 1.0


def test_imbalance_ratio_ninety_ten():
    assert imbalance_ratio(make(90, 10)) == 9.0


def test_imbalance_ratio_against_brute_force_count():
    ds = make(950, 50)
    zeros = sum(1 for label in ds.labels if label == 0)
    ones = sum(1 for label in ds.labels if label == 1)
    assert zeros == 950 and ones == 50
    assert imbalance_ratio(ds) == zeros / ones == 19.0


def test_imbalance_ratio_requires_both_classes():
    ds = Dataset(np.ones((3, 1)), np.zeros(3, dtype=int), ("orig:0", "orig:1", "orig:2"))
    with pytest.raises(EmptyClass):
        imbalance_ratio(ds)


@given(n_major=st.integers(1, 60), n_minor=st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_imbalance_ratio_at_least_one_under_convention(n_major, n_minor):
    if n_minor > n_major:
        n_major, n_minor = n_minor, n_major
    assert imbalance_ratio(make(n_major, n_minor)) >= 1.0


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def test_load_csv_four_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,0\n5.0,6.0,0\n7.0,8.0,1\n")
    ds = load_csv(path)
    assert ds.size == 4
    assert imbalance_ratio(ds) == 3.0
    assert ds.ids == ("orig:0", "orig:1", "orig:2", "orig:3")
    assert np.array_equal(ds.features[3], [7.0, 8.0])


def test_load_csv_rejects_nonbinary_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,label\n1.0,0\n2.0,2\n")
    with pytest.raises(LabelError):
        load_csv(path)


def test_load_csv_relabel_flips_majority_ones(tmp_path):
    path = tmp_path / "d.csv"
    rows = [f"{i}.0,1" for i in range(7)] + [f"{i}.5,0" for i in range(3)]
    path.write_text("f0,label\n" + "\n".join(rows) + "\n")
    with pytest.raises(MajorityMislabeled):
        load_csv(path)
    ds = load_csv(path, relabel=True)
    assert ds.class_counts() == (7, 3)
    assert imbalance_ratio(ds) == pytest.approx(7 / 3)
    # the rows that were written as label 0 are the minor class after the flip
    assert list(ds.labels[:7]) == [0] * 7
    assert list(ds.labels[7:]) == [1] * 3


@pytest.mark.parametrize(
    "content",
    [
        "",  # empty file
        "f0,f1\n1.0,2.0\n",  # no label column
        "label\n0\n1\n",  # no feature columns
        "f0,label\n1.0\n",  # row length mismatch
        "f0,label\nponies,1\n",  # malformed cell
        "f0,label\ninf,1\n",  # non-finite feature
        "f0,label\n",  # no data rows
    ],
)
def test_load_csv_parse_errors(tmp_path, content):
    path = tmp_path / "d.csv"
    path.write_text(content)
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_single_class_is_empty_class(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,label\n1.0,0\n2.0,0\n")
    with pytest.raises(EmptyClass):
        load_csv(path)


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    features = rng.normal(size=(20, 3)) * np.exp(rng.integers(-30, 30, size=(20, 3)))
    ds = from_rows(features, np.array([0] * 15 + [1] * 5))
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.ids == ds.ids


@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_round_trip_identity_property(tmp_path_factory, rows):
    features = np.array(rows, dtype=np.float64)
    labels = np.zeros(len(rows), dtype=np.int64)
    labels[0] = 1
    ds = from_rows(features, labels)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------------------
# stratified_kfold
# ---------------------------------------------------------------------------


def test_folds_two_way_stratification_forced():
    ds = make(8, 2)
    folds = stratified_kfold(ds, 2, seed=0)
    assert len(folds) == 2
    for _, test in folds:
        labels = ds.labels[test]
        assert labels.sum() == 1
        assert len(labels) == 5


def test_folds_partition_and_one_minor_each():
    ds = make(90, 10)
    folds = stratified_kfold(ds, 10, seed=3)
    seen = np.concatenate([test for _, test in folds])
    assert sorted(seen) == list(range(100))
    for train, test in folds:
        assert ds.labels[test].sum() == 1
        assert len(np.intersect1d(train, test)) == 0
        assert sorted(np.concatenate([train, test])) == list(range(100))


def test_folds_too_few_elements():
    ds = make(1, 1)
    with pytest.raises(TooFewElements):
        stratified_kfold(ds, 2, seed=0)


def test_folds_deterministic_and_seed_sensitive():
    ds = make(40, 12)
    a = stratified_kfold(ds, 4, seed=5)
    b = stratified_kfold(ds, 4, seed=5)
    c = stratified_kfold(ds, 4, seed=6)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(sa, sb)
    assert any(not np.array_equal(sa, sc) for (_, sa), (_, sc) in zip(a, c))


def test_folds_minor_counts_differ_by_at_most_one():
    ds = make(70, 23)
    folds = stratified_kfold(ds, 4, seed=1)
    minor_counts = [int(ds.labels[test].sum()) for _, test in folds]
    assert max(minor_counts) - min(minor_counts) <= 1
    assert sum(minor_counts) == 23


def test_folds_match_setdiff_oracle():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n_minor = int(rng.integers(3, 30))
        ds = make(int(rng.integers(n_minor, 120)), n_minor, seed=seed)
        for k in {2, 3, min(10, n_minor)}:
            for (train, test), (want_train, want_test) in zip(
                stratified_kfold(ds, k, seed), oracles.setdiff_kfold(ds, k, seed), strict=True
            ):
                assert train.dtype == want_train.dtype and test.dtype == want_test.dtype
                assert train.tobytes() == want_train.tobytes() and test.tobytes() == want_test.tobytes()


def test_folds_rejects_k_below_two():
    with pytest.raises(ValueError):
        stratified_kfold(make(5, 5), 1, seed=0)


# ---------------------------------------------------------------------------
# Gaussian pool
# ---------------------------------------------------------------------------


def test_pool_degenerate_ranges_force_counts():
    cfg = GaussianPoolConfig(
        pool_size=1,
        seed=11,
        d_range=(6, 6),
        size_range=(200, 200),
        minor_fraction_range=(0.25, 0.25),
    )
    (entry,) = generate_gaussian_pool(cfg)
    assert entry.dataset.size == 200
    assert entry.dataset.dim == 6
    assert entry.dataset.class_counts() == (150, 50)
    assert imbalance_ratio(entry.dataset) == 3.0


def test_pool_deterministic():
    cfg = GaussianPoolConfig(pool_size=3, seed=42, d_range=(6, 8), size_range=(200, 220))
    a = generate_gaussian_pool(cfg)
    b = generate_gaussian_pool(cfg)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.dataset.features, eb.dataset.features)
        assert np.array_equal(ea.dataset.labels, eb.dataset.labels)


def test_pool_scan_respects_ranges():
    cfg = GaussianPoolConfig(pool_size=1000, seed=9)
    entries = generate_gaussian_pool(cfg)
    assert len(entries) == 1000
    for entry in entries:
        ds = entry.dataset
        assert 6 <= ds.dim <= 40
        assert 200 <= ds.size <= 1000
        assert 0.05 <= entry.minor_fraction <= 0.35
        major, minor = ds.class_counts()
        assert minor == round(ds.size * entry.minor_fraction)
        assert major == ds.size - minor
        assert minor >= 1 and major > minor


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pool_size": 0},
        {"pool_size": 1, "d_range": (5, 40)},
        {"pool_size": 1, "d_range": (8, 6)},
        {"pool_size": 1, "size_range": (100, 1000)},
        {"pool_size": 1, "minor_fraction_range": (0.05, 0.5)},
        {"pool_size": 1, "components_per_class": (0, 3)},
    ],
)
def test_pool_config_validation(kwargs):
    with pytest.raises(ConfigError):
        GaussianPoolConfig(seed=0, **kwargs)


def test_write_and_load_pool(tmp_path):
    cfg = GaussianPoolConfig(pool_size=2, seed=5, d_range=(6, 6), size_range=(200, 200))
    entries = generate_gaussian_pool(cfg)
    manifest = write_pool(entries, tmp_path / "pool", seed=5)
    assert manifest.name == "manifest.json"
    for source in (manifest, tmp_path / "pool"):
        pairs = load_pool(source)
        assert [name for name, _ in pairs] == ["dataset_0000", "dataset_0001"]
        for (name, ds), entry in zip(pairs, entries):
            assert np.array_equal(ds.features, entry.dataset.features)
            assert np.array_equal(ds.labels, entry.dataset.labels)


def test_load_pool_from_bare_csv_directory(tmp_path):
    ds = make(10, 4)
    save_csv(ds, tmp_path / "alpha.csv")
    save_csv(ds, tmp_path / "beta.csv")
    pairs = load_pool(tmp_path)
    assert [name for name, _ in pairs] == ["alpha", "beta"]


def test_load_pool_empty_directory(tmp_path):
    with pytest.raises(ParseError):
        load_pool(tmp_path)
