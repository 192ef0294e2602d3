"""End-to-end and per-layer benchmark of imbalance-bench.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tree-cvs --seed 7 --seconds 30 --trace 0

Each measured run is a fresh interpreter (perfbench/child.py) that builds
the workload's pool from the seed with generate_gaussian_pool and
write_pool, loads it, then calls imbalance_bench.cli.main for `benchmark`
and for `curves` (csv and svg) per model family. The package is imported
from src/; nothing is installed.

--trace 0 starts with one unmeasured set-up-only run (a warm-up), then
repeats the run while --seconds allow, cycling through the workload's
pools (several pools of the same shapes, all drawn from the seed), each
at least once and again while the time allows, adds set-up-only runs, and
reports medians of the end-to-end metrics:
  wall_s        wall time of benchmark plus curves; median over the pools
                of each pool's median over its runs
  setup_s       from process start through imports, pool generation,
                write_pool and load_pool
  peak_rss_mb   ru_maxrss of the run plus that of its largest waited-for
                child process (getrusage reports the largest single child,
                so concurrent workers are not summed)
  ok_cell_frac  cells with status ok over cells attempted, first run of
                each pool
  qcv_mean      mean Q^CV over the successful cells of those runs

--trace 1 joins the workload's first trace_pools pools into one and makes
on it one untraced run at the workload's jobs (for benchmark.cpu_per_wall),
one untraced run with jobs=1 when that differs, and two traced runs with
jobs=1, and reports the per-layer metrics; see tracing.py. Counts must
repeat exactly between the traced runs.

Every run checks its outputs (cell count, Q in [0, 1], run.json echoes,
curve files) and that its results CSV is byte-identical to that of the
first run on the same pools. When the first run's CSV hash differs from
the one recorded in baseline.json for the same workload, seed and mode,
that is reported, not failed: some changes alter results on purpose.

Child runs get single-threaded BLAS, so that the only threads competing
for the CPUs are the ones the package starts itself.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY_RUNS = 15
# The package's BLAS calls are small; idle BLAS worker threads would only
# add to the threads the scheduler juggles on a few shared cores.
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The whole invocation must end within 180 s: no run starts that could end
# after HARD_LIMIT_S, and a child still running at DEADLINE_S is killed.
HARD_LIMIT_S = 150.0
DEADLINE_S = 175.0


class ChildFailed(RuntimeError):
    pass


def environment() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Runner:
    """Starts child runs of one workload and seed inside one work directory."""

    def __init__(self, workload: str, seed: int, pool_size: int | None, work: Path) -> None:
        self.request = {"workload": workload, "seed": seed, "pool_size": pool_size, "work": str(work)}
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **SINGLE_THREADED_BLAS)
        self.deadline = time.monotonic() + DEADLINE_S
        self.runs = 0

    def spawn(self, mode: str, pools: list[int], jobs: int = 1, trace: bool = False) -> dict:
        tag = f"{mode}{self.runs:03d}"
        self.runs += 1
        request = dict(self.request, mode=mode, jobs=jobs, trace=trace, tag=tag, pools=pools)
        log = self.work / f"{tag}.log"
        with log.open("w", encoding="utf-8") as fh:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(request)],
                stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                timeout=max(1.0, self.deadline - start),
            )
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8").splitlines()[-15:]
            raise ChildFailed(f"{tag} exited with {proc.returncode}:\n" + "\n".join(tail))
        report = json.loads((self.work / f"{tag}.json").read_text(encoding="utf-8"))
        report["setup_s"] = report["setup_end"] - start
        report["tag"] = tag
        report["pools"] = pools
        return report


def _check_reps(reps: list[dict]) -> list[str]:
    """Output problems, and results CSVs that differ from the first run on the same pools."""
    problems = [f"{r['tag']}: {p}" for r in reps for p in r["problems"]]
    first: dict[tuple, dict] = {}
    for r in reps:
        earlier = first.setdefault(tuple(r["pools"]), r)
        if r["csv_sha256"] != earlier["csv_sha256"]:
            problems.append(f"{r['tag']}: results CSV differs from {earlier['tag']} on the same pools")
    return problems


def measure_end_to_end(runner: Runner, workload: workloads.Workload, jobs: int,
                       seconds: int) -> tuple[dict, list[dict], list[str]]:
    runner.spawn("setup", [0])  # warm-up: file cache and first imports; not measured
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        reps.append(runner.spawn("full", [len(reps) % workload.pools], jobs=jobs))
        elapsed = time.monotonic() - start
        next_end = elapsed * (len(reps) + 1) / len(reps)
        # every pool once; pools run again, and so check determinism, while the time allows
        if len(reps) >= workload.pools and next_end > min(seconds, HARD_LIMIT_S):
            break
    setups = [r["setup_s"] for r in reps]
    setups += [runner.spawn("setup", [i % workload.pools])["setup_s"] for i in range(SETUP_ONLY_RUNS)]
    # Cell outcomes and Q^CV are fixed by the pool, so they come from the
    # first run of each pool and do not depend on how many runs fit.
    firsts = reps[:workload.pools]
    attempted = sum(r["cells"] for r in firsts)
    failed = sum(r["failed_cells"] for r in firsts)
    qcv_n = sum(r["qcv_n"] for r in firsts)
    # Each draw of the data counts once, however many runs it got.
    walls: dict[tuple, list[float]] = {}
    for r in reps:
        walls.setdefault(tuple(r["pools"]), []).append(r["wall_s"])
    metrics = {
        "wall_s": (statistics.median(statistics.median(w) for w in walls.values()), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MiB"),
        "ok_cell_frac": (1.0 - failed / attempted, "ratio"),
        "qcv_mean": (sum(r["qcv_sum"] for r in firsts) / qcv_n if qcv_n else 0.0, "PR-AUC"),
    }
    return metrics, reps, _check_reps(reps)


def _repeatable_counts(summary: dict, rows_written: int) -> dict:
    counts = {f"{name}.calls": n for name, n in summary["calls"].items()}
    counts.update(summary["counts"])
    counts["benchmark.rows_written"] = rows_written
    return counts


def measure_layers(runner: Runner, workload: workloads.Workload, jobs: int) -> tuple[dict, list[dict], list[str]]:
    pools = list(range(workload.trace_pools))
    untraced = runner.spawn("full", pools, jobs=jobs)
    base = untraced if jobs == 1 else runner.spawn("full", pools, jobs=1)
    traced = [runner.spawn("full", pools, jobs=1, trace=True) for _ in range(2)]
    reps = [untraced, base, *traced] if base is not untraced else [untraced, *traced]
    problems = _check_reps(reps)

    summaries = []
    for t in traced:
        spans, counts, absent = tracing.load(runner.work / t["tag"] / "spans.jsonl")
        summaries.append(tracing.layer_summary(spans, counts))
    for hook in absent:
        print(f"note: hook target absent: {hook}")
    repeat = [_repeatable_counts(s, t["rows_written"]) for s, t in zip(summaries, traced)]
    if repeat[0] != repeat[1]:
        changed = sorted(k for k in repeat[0].keys() | repeat[1].keys() if repeat[0].get(k) != repeat[1].get(k))
        problems.append(f"counts differ between traced runs: {changed}")

    traced_wall = statistics.median(t["wall_s"] for t in traced)
    overhead = traced_wall / base["wall_s"] - 1.0
    unattributed = statistics.median(1.0 - s["attributed_s"] / t["wall_s"] for s, t in zip(summaries, traced))
    if abs(unattributed) > max(overhead, 0.01):
        problems.append(f"layer self times leave {unattributed:.2%} of traced wall time unattributed")

    def self_s(name: str) -> float:
        return statistics.median(s["self_s"].get(name, 0.0) for s in summaries)

    def total_s(name: str) -> float:
        return statistics.median(s["total_s"].get(name, 0.0) for s in summaries)

    first = summaries[0]
    calls = first["calls"]
    counts = first["counts"]
    fits = sum(calls.get(f"classifiers.fit.{family}", 0) for family in ("tree", "knn", "logreg"))
    solves = calls.get("classifiers.logreg.solve", 0)
    capped = counts.get("classifiers.logreg.capped", 0)
    cvs_rows = counts.get("evaluation.cvs_rows", 0)
    cells = [statistics.median(pair) for pair in zip(*(s["cell_s"] for s in summaries))]
    tail_pct, tail = tracing.tail_percentile(cells)
    metrics = {
        "classifiers.fit.tree.calls": (calls.get("classifiers.fit.tree", 0), "count"),
        "classifiers.fit.tree.self_s": (self_s("classifiers.fit.tree"), "s"),
        "classifiers.fit.knn.self_s": (self_s("classifiers.fit.knn"), "s"),
        "classifiers.select_hyperparams.self_s": (self_s("classifiers.select_hyperparams"), "s"),
        "classifiers.refit_frac": (calls.get("classifiers.refit", 0) / fits if fits else 0.0, "ratio"),
        "classifiers.score.knn.calls": (calls.get("classifiers.score.knn", 0), "count"),
        "classifiers.score.knn.self_s": (self_s("classifiers.score.knn"), "s"),
        "classifiers.score.tree.self_s": (self_s("classifiers.score.tree"), "s"),
        "classifiers.score.logreg.self_s": (self_s("classifiers.score.logreg"), "s"),
        "classifiers.logreg.solves": (solves, "count"),
        "classifiers.logreg.iterations": (counts.get("classifiers.logreg.iterations", 0), "count"),
        "classifiers.logreg.capped": (capped, "count"),
        "classifiers.logreg.capped_frac": (capped / solves if solves else 0.0, "ratio"),
        "classifiers.logreg.solve.self_s": (self_s("classifiers.logreg.solve"), "s"),
        "metrics.pr_auc.calls": (calls.get("metrics.pr_auc", 0), "count"),
        "metrics.pr_auc.self_s": (self_s("metrics.pr_auc"), "s"),
    }
    for method in ("ros", "rus", "smote"):
        metrics[f"resampling.{method}.calls"] = (calls.get(f"resampling.{method}", 0), "count")
        metrics[f"resampling.{method}.self_s"] = (self_s(f"resampling.{method}"), "s")
    metrics.update({
        "resampling.rows_added": (counts.get("resampling.rows_added", 0), "count"),
        "resampling.rows_removed": (counts.get("resampling.rows_removed", 0), "count"),
        "datasets.subset.calls": (calls.get("datasets.subset", 0), "count"),
        "datasets.subset.self_s": (self_s("datasets.subset"), "s"),
        "datasets.stratified_kfold.calls": (calls.get("datasets.stratified_kfold", 0), "count"),
        "datasets.stratified_kfold.self_s": (self_s("datasets.stratified_kfold"), "s"),
        "datasets.load_pool.self_s": (self_s("datasets.load_pool"), "s"),
        "evaluation.cv_quality.calls": (calls.get("evaluation.cv_quality", 0), "count"),
        "evaluation.cv_quality.self_s": (self_s("evaluation.cv_quality"), "s"),
        "evaluation.select_multiplier_cvs.calls": (calls.get("evaluation.select_multiplier_cvs", 0), "count"),
        "evaluation.cvs_infeasible_frac": (
            counts.get("evaluation.cvs_infeasible_rows", 0) / cvs_rows if cvs_rows else 0.0, "ratio"),
        "evaluation.cell_s.p50": (statistics.median(cells) if cells else 0.0, "s"),
        "evaluation.cell_s.tail": (tail, "s"),
        "evaluation.cell_s.tail_pct": (tail_pct, "pct"),
        "evaluation.cell_s.samples": (len(cells), "count"),
        "benchmark.cpu_per_wall": (untraced["cpu_s"] / untraced["wall_s"], "ratio"),
        "benchmark.run_benchmark.self_s": (self_s("benchmark.run_benchmark"), "s"),
        "benchmark.read_results.s": (total_s("benchmark.read_results"), "s"),
        "benchmark.dolan_more.s": (total_s("benchmark.dolan_more"), "s"),
        "benchmark.emit_curves.s": (total_s("benchmark.emit_curves"), "s"),
        "benchmark.rows_written": (traced[0]["rows_written"], "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unattributed_frac": (unattributed, "ratio"),
        "trace.absent_hooks": (len(absent), "count"),
    })
    return metrics, reps, problems


def _baseline_hash(workload: str, seed: int, trace: int) -> str | None:
    try:
        baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    table = "traced_csv_sha256" if trace else "csv_sha256"
    return baseline.get(table, {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"pool and run seed (default {workloads.DEFAULT_SEED}; "
                             f"{workloads.HELD_OUT_SEED} is held out for re-checking claims)")
    parser.add_argument("--seconds", type=int, default=30, help="how long the untraced runs measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-size", type=int, default=None, help="smaller pool, for smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "imbalance_bench" / "__init__.py").is_file():
        print(f"error: no imbalance_bench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.get(args.workload, args.pool_size)
    jobs = min(workload.jobs, len(os.sched_getaffinity(0)))
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(workload.name, args.seed, args.pool_size, work)
    try:
        if args.trace:
            metrics, reps, problems = measure_layers(runner, workload, jobs)
        else:
            metrics, reps, problems = measure_end_to_end(runner, workload, jobs, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    env = environment()
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, jobs {jobs}, pool {json.dumps(reps[0]['pool'])}")
    for r in reps:
        print(f"  run {r['tag']} on pools {r['pools']}: wall {r['wall_s']:.3f} s, setup {r['setup_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.1f} MiB, cells {r['cells']} ({r['failed_cells']} failed)")
    digest = reps[0]["csv_sha256"]
    recorded = _baseline_hash(workload.name, args.seed, args.trace)
    print(f"results CSV of pools {reps[0]['pools']} sha256 {digest}")
    if recorded is not None and recorded != digest and args.pool_size is None:
        print(f"note: results CSV differs from the hash recorded in baseline.json ({recorded})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["cells"] for r in reps),
        "failed": sum(r["failed_cells"] for r in reps),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
