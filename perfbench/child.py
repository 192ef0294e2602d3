"""One run of one workload in a fresh interpreter; started by run.py.

Usage: python3 child.py '<json request>'

The request names the workload, seed, pool numbers, jobs, work directory
and tag, and whether to stop after set-up or to trace. The child writes its findings to
<work>/<tag>.json; run.py turns them into metrics. Set-up (imports, pool
generation, write_pool, load_pool) ends at the reported monotonic time,
which run.py compares with the time it started this process.
"""

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from imbalance_bench import cli
from imbalance_bench.datasets import load_pool, write_pool

import workloads

request = json.loads(sys.argv[1])
workload = workloads.get(request["workload"], request["pool_size"])
seed = request["seed"]
work = Path(request["work"])
tag = request["tag"]
out_dir = work / tag
pool_dir = out_dir / "pool"
pool_dir.mkdir(parents=True)
write_pool(workloads.make_pool(workload, seed, request["pools"]), pool_dir, seed)
pool = load_pool(pool_dir)
setup_end = time.monotonic()


def maxrss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run() -> dict:
    from imbalance_bench.benchmark import read_results

    results = out_dir / "results.csv"
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = os.times()
    t0 = time.perf_counter()
    codes = [cli.main(workloads.benchmark_argv(workload, str(pool_dir), str(results), seed, request["jobs"]))]
    curves = []
    for model in workload.models:
        for fmt in ("csv", "svg"):
            path = out_dir / f"{model}.{fmt}"
            curves.append((fmt, path))
            codes.append(cli.main(["curves", "--results", str(results), "--model", model, "--format", fmt, "--out", str(path)]))
    wall = time.perf_counter() - t0
    cpu1 = os.times()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(out_dir / "spans.jsonl")
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])

    # Output checks, outside the timed region.
    problems = []
    if codes[0] not in (0, 3) or any(codes[1:]):
        problems.append(f"exit codes {codes}")
    matrices = read_results(results)
    expected_cells = len(pool) * len(workload.models) * workload.n_cells
    done = sum(int(m.mask.sum()) + len(m.errors) for m in matrices.values())
    if sorted(matrices) != sorted(workload.models) or done != expected_cells:
        problems.append(f"{done} cells for models {sorted(matrices)}, expected {expected_cells}")
    qualities = [float(q) for m in matrices.values() for q in m.values[m.mask]]
    if not all(0.0 <= q <= 1.0 for q in qualities):
        problems.append("a Q^CV lies outside [0, 1]")
    for artifact in [results] + [path for _, path in curves]:
        echo = artifact.with_name(artifact.name + ".run.json")
        try:
            config = json.loads(echo.read_text(encoding="utf-8"))["config"]
        except (OSError, ValueError, KeyError):
            problems.append(f"no run.json echo for {artifact.name}")
            continue
        if config.get("out") != str(artifact):
            problems.append(f"run.json echo of {artifact.name} names {config.get('out')!r}")
    for fmt, path in curves:
        head = path.read_text(encoding="utf-8")[:16] if path.exists() else ""
        if not head.startswith("beta,method,p" if fmt == "csv" else "<svg"):
            problems.append(f"{path.name} is not a curves {fmt}")
    failed = sum(len(m.errors) for m in matrices.values())
    data_rows = len(results.read_text(encoding="utf-8").splitlines()) - 1
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": maxrss_mb(),
        "cells": done,
        "failed_cells": failed,
        "qcv_sum": sum(qualities),
        "qcv_n": len(qualities),
        "rows_written": data_rows,
        "csv_sha256": hashlib.sha256(results.read_bytes()).hexdigest(),
        "problems": problems,
    }


def pool_stats() -> dict:
    sizes = [d.size for _, d in pool]
    dims = [d.dim for _, d in pool]
    ratios = [(d.size - int(d.labels.sum())) / int(d.labels.sum()) for _, d in pool]
    return {
        "datasets": len(pool),
        "n": [min(sizes), max(sizes)],
        "d": [min(dims), max(dims)],
        "ir": [round(min(ratios), 3), round(max(ratios), 3)],
        "cells": len(pool) * len(workload.models) * workload.n_cells,
    }


report = {"setup_end": setup_end, "pool": pool_stats()}
if request["mode"] == "full":
    report.update(run())
(work / f"{tag}.json").write_text(json.dumps(report), encoding="utf-8")
