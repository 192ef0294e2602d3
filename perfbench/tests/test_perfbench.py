"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

MAIN, WORKER = 1, 2


def _tree() -> list[Span]:
    return [
        # main thread: root with two children, the first of which nests
        Span(0, None, MAIN, "cli.main", 0.0, 10.0),
        Span(1, 0, MAIN, "benchmark.run_benchmark", 1.0, 4.0),
        Span(2, 1, MAIN, "evaluation.cv_quality", 2.0, 3.0),
        Span(3, 0, MAIN, "benchmark.emit_curves", 5.0, 7.0),
        # a worker thread's spans overlap the main thread in time but are
        # not its children
        Span(4, None, WORKER, "evaluation.cv_quality", 2.0, 8.0),
        Span(5, 4, WORKER, "classifiers.fit.tree", 3.0, 6.0),
        Span(6, 4, WORKER, "classifiers.fit.tree", 6.5, 7.5),
    ]


def test_self_time_subtracts_child_cover_per_thread():
    own = tracing.self_times(_tree())
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0, 5: 3.0, 6: 1.0})
    main_spans = [s for s in _tree() if s.thread == MAIN]
    assert sum(own[s.id] for s in main_spans) == pytest.approx(10.0)


def test_overlapping_children_count_once_and_are_clipped_to_the_parent():
    spans = [
        Span(0, None, MAIN, "a", 0.0, 4.0),
        Span(1, 0, WORKER, "b", 1.0, 3.0),
        Span(2, 0, WORKER, "c", 2.0, 5.0),
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 1.0, 1: 2.0, 2: 3.0})


def test_layer_summary_groups_by_name_and_finds_cells():
    summary = tracing.layer_summary(_tree(), {"resampling.rows_added": 4})
    assert summary["calls"]["classifiers.fit.tree"] == 2
    assert summary["self_s"]["evaluation.cv_quality"] == pytest.approx(3.0)
    assert summary["attributed_s"] == pytest.approx(10.0 + 6.0)
    # only the cv_quality directly under run_benchmark is a cell
    assert summary["cell_s"] == pytest.approx([1.0])
    assert summary["counts"] == {"resampling.rows_added": 4}


def test_tracer_keeps_parents_within_each_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    threads = [threading.Thread(target=outer) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 3
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
        assert parent.start <= s.start <= s.end <= parent.end
    assert all(s.parent is None for s in tracer.spans if s.name == "outer")


def test_missing_hook_target_is_reported_absent_and_others_still_trace(tmp_path):
    from imbalance_bench import metrics

    original = metrics.pr_auc
    tracer = Tracer()
    tracer.install(hooks=(
        ("imbalance_bench.cli", "no_such_function", "cli.gone", None),
        ("imbalance_bench.no_such_module", "f", "gone", None),
        ("imbalance_bench.classifiers.tree", "NoSuchScorer.score", "gone", None),
        ("imbalance_bench.metrics", "pr_auc", "metrics.pr_auc", None),
        ("imbalance_bench.metrics", "pr_curve", "metrics.pr_curve", lambda *a: a[3].no_such_field),
    ))
    try:
        assert metrics.pr_auc([0.9, 0.1], [1, 0]) == 1.0
        metrics.pr_curve([0.9, 0.1], [1, 0])
    finally:
        tracer.uninstall()
    assert metrics.pr_auc is original
    assert tracer.absent == [
        "imbalance_bench.cli.no_such_function",
        "imbalance_bench.no_such_module.f",
        "imbalance_bench.classifiers.tree.NoSuchScorer.score",
        "metrics.pr_curve counts",
    ]
    # pr_auc calls pr_curve through the patched module attribute
    assert [s.name for s in tracer.spans] == ["metrics.pr_curve", "metrics.pr_auc", "metrics.pr_curve"]
    assert tracer.spans[0].parent == tracer.spans[1].id
    tracer.dump(tmp_path / "spans.jsonl")
    spans, counts, absent = tracing.load(tmp_path / "spans.jsonl")
    assert spans == tracer.spans and absent == tracer.absent and counts == {}


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile([float(x) for x in range(1, 101)]) == pytest.approx((90.0, 90.1))
    assert tracing.tail_percentile([4.0, 1.0, 3.0, 2.0]) == pytest.approx((50.0, 2.5))


def test_pool_follows_the_seed_and_keeps_the_shape_grid():
    workload = workloads.get("wide-jobs2", pool_size=3)
    first = workloads.make_pool(workload, 11)
    again = workloads.make_pool(workload, 11)
    other = workloads.make_pool(workload, 12)
    shapes = [(e.size, e.d) for e in first]
    assert shapes == [(e.size, e.d) for e in other]
    assert [e.index for e in first] == [0, 1, 2]
    for a, b, c in zip(first, again, other):
        assert (a.dataset.features == b.dataset.features).all()
        assert not (a.dataset.features == c.dataset.features).all()
    for n, d, fraction in workloads.pool_shapes(workload):
        assert 200 <= n <= 1000 and 6 <= d <= 40 and 0.05 <= fraction <= 0.35


def test_joined_pools_keep_each_pool_and_renumber_the_entries():
    workload = workloads.get("tree-cvs")
    joined = workloads.make_pool(workload, 5, [0, 1])
    parts = workloads.make_pool(workload, 5, [0]) + workloads.make_pool(workload, 5, [1])
    assert [e.index for e in joined] == list(range(2 * workload.pool_size))
    for a, b in zip(joined, parts):
        assert (a.dataset.features == b.dataset.features).all()
    first, second = parts[: workload.pool_size], parts[workload.pool_size:]
    assert [(e.size, e.d) for e in first] == [(e.size, e.d) for e in second]
    assert not (first[0].dataset.features == second[0].dataset.features).all()


def test_results_csv_is_compared_with_the_first_run_on_the_same_pools():
    import run

    def rep(tag, pools, digest):
        return {"tag": tag, "pools": pools, "csv_sha256": digest, "problems": []}

    reps = [rep("a", [0], "x"), rep("b", [1], "y"), rep("c", [0], "x"), rep("d", [1], "z")]
    assert run._check_reps(reps) == ["d: results CSV differs from b on the same pools"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload,trace", [("tree-cvs", "0"), ("tree-cvs", "1"), ("wide-jobs2", "1")])
def test_tiny_pool_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--pool-size", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = declared["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert f"{name} " in proc.stdout and m["unit"] in proc.stdout


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tree-cvs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
