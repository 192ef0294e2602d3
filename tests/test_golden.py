"""Golden-bytes gate: the results CSV of a fixed small benchmark, by SHA-256.

Every tuned hyperparameter, CVS pick and fold score reaches the CSV, so a
change that moves any of them changes a hash here. A change that alters
results on purpose updates these constants in the same commit and records
the old and new hashes; the gate compares exact bytes, never a tolerance.

The pool is built from ``substream`` normals with elementwise operations
only (no matrix products or factorizations), so its bytes do not depend on
the BLAS kernel. One dataset is separable, where tuning scores often reach
PR-AUC 1.0; the other has overlapping classes, where they rarely do. A
third pool has small integer features, so distances, split costs and
neighbour ranks tie often and the tie-break orders of the tree, kNN and
SMOTE reach the bytes. The nested cases run the one cell whose multiplier
is picked per outer fold.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from imbalance_bench import DEFAULT_CELLS, Family, ModelSpec, from_rows, run_benchmark
from imbalance_bench.rng import substream

GOLDEN = {
    ("tree", 1): "c3423f0cc99e94cd305a1d7e4c457d2ddbc7f76cc3086e4ab159c2e9f76b792c",
    ("knn", 1): "79825d1e3ea2047bad3564989231265eea623a528b81475a8d91f2992baaf012",
    ("knn", 2): "79825d1e3ea2047bad3564989231265eea623a528b81475a8d91f2992baaf012",
    ("logreg", 1): "636d01e16b4039c2d9e48e8d2b563d958987ac2dce7d9ff6f6b04f2b0cdb5dcf",
}

GOLDEN_TIES = {
    "tree": "c1f20fffe3370556d162acf52ac498542aa25f651dec9a8e3716b193bd22e570",
    "knn": "5786fe50baf67625b37e05f3fafb815ec70af9998a9e9d286d1bcf86e5688c44",
}

GOLDEN_NESTED = {
    "tree": "277fe59abbcaa00b8cc9b717dc7608a40705a6938951816808cab19efe7b7e70",
    "knn": "2fa5b1ece6535fec6e59adc2797baa46c80ac11551d134cf185ee04df584bbdc",
}

CELLS = {"tree": DEFAULT_CELLS, "knn": DEFAULT_CELLS, "logreg": ("none", "smote+eqs")}


def golden_pool():
    n, d, n_minor = 200, 6, 40
    labels = (np.arange(n) < n_minor).astype(np.int64)
    pool = []
    for name, shift in (("separable", 4.0), ("overlap", 0.75)):
        z = substream(2017, "golden", name).standard_normal((n, d))
        pool.append((name, from_rows(z + shift * labels[:, None], labels)))
    return pool


def ties_pool():
    n, d, n_minor = 200, 6, 40
    labels = (np.arange(n) < n_minor).astype(np.int64)
    x = substream(2017, "golden", "ties").integers(0, 3, (n, d))
    return [("ties", from_rows(x + labels[:, None], labels))]


def results_hash(tmp_path, pool, model_name, cells, jobs=1, cvs_mode="oracle"):
    out = tmp_path / "results.csv"
    run_benchmark(
        pool,
        [(model_name, ModelSpec(family=Family(model_name)))],
        cells=cells,
        folds=3,
        seed=11,
        out=out,
        jobs=jobs,
        cvs_mode=cvs_mode,
    )
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("model_name, jobs", sorted(GOLDEN))
def test_results_csv_bytes_pinned(tmp_path, model_name, jobs):
    assert results_hash(tmp_path, golden_pool(), model_name, CELLS[model_name], jobs) == GOLDEN[(model_name, jobs)]


@pytest.mark.parametrize("model_name", sorted(GOLDEN_TIES))
def test_results_csv_bytes_pinned_on_ties(tmp_path, model_name):
    assert results_hash(tmp_path, ties_pool(), model_name, CELLS[model_name]) == GOLDEN_TIES[model_name]


@pytest.mark.parametrize("model_name", sorted(GOLDEN_NESTED))
def test_results_csv_bytes_pinned_nested_cvs(tmp_path, model_name):
    got = results_hash(tmp_path, golden_pool(), model_name, ("smote+cvs",), cvs_mode="nested")
    assert got == GOLDEN_NESTED[model_name]
