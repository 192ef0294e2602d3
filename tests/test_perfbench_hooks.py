"""perfbench's outside-in hooks still find and fire on the functions they wrap.

perfbench/tracing.py patches module attributes such as
``resampling.smote`` and ``KnnScorer.score``; a refactor that moves the
work away from those names would silently zero a per-layer metric. This
test loads the tracer read-only from its file and runs the CLI under it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from imbalance_bench import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_hook_fires(tmp_path):
    tracing = load_tracing()
    pool, results = tmp_path / "pool", tmp_path / "results.csv"
    assert cli.main([
        "generate", "--pool-size", "1", "--seed", "3", "--out", str(pool),
        "--d-range", "6:6", "--size-range", "200:200", "--minor-fraction-range", "0.2:0.2",
    ]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main([
            "benchmark", "--pool", str(pool), "--models", "tree,knn,logreg",
            "--cells", "none,ros+eqs,rus+eqs,smote+cvs", "--folds", "2", "--out", str(results),
        ]) == 0
        assert cli.main(["curves", "--results", str(results), "--model", "knn", "--out", str(tmp_path / "c.csv")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    seen = {span.name for span in tracer.spans}
    assert {name for _, _, name, _ in tracing.HOOKS} <= seen
    assert tracer.counts["resampling.rows_added"] > 0 and tracer.counts["resampling.rows_removed"] > 0
