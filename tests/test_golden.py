"""Golden-bytes gate: the results CSV of a fixed small benchmark, by SHA-256.

Every tuned hyperparameter, CVS pick and fold score reaches the CSV, so a
change that moves any of them changes a hash here. A change that alters
results on purpose updates these constants in the same commit and records
the old and new hashes; the gate compares exact bytes, never a tolerance.

The pool is built from ``substream`` normals with elementwise operations
only (no matrix products or factorizations), so its bytes do not depend on
the BLAS kernel. One dataset is separable, where tuning scores often reach
PR-AUC 1.0; the other has overlapping classes, where they rarely do.
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

CELLS = {"tree": DEFAULT_CELLS, "knn": DEFAULT_CELLS, "logreg": ("none", "smote+eqs")}


def golden_pool():
    n, d, n_minor = 200, 6, 40
    labels = (np.arange(n) < n_minor).astype(np.int64)
    pool = []
    for name, shift in (("separable", 4.0), ("overlap", 0.75)):
        z = substream(2017, "golden", name).standard_normal((n, d))
        pool.append((name, from_rows(z + shift * labels[:, None], labels)))
    return pool


@pytest.mark.parametrize("model_name, jobs", sorted(GOLDEN))
def test_results_csv_bytes_pinned(tmp_path, model_name, jobs):
    out = tmp_path / "results.csv"
    run_benchmark(
        golden_pool(),
        [(model_name, ModelSpec(family=Family(model_name)))],
        cells=CELLS[model_name],
        folds=3,
        seed=11,
        out=out,
        jobs=jobs,
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(model_name, jobs)]
