"""Check that the benchmark is steady, and record the baseline.

Usage, from the root of a source checkout:

    python3 perfbench/verify.py --seeds 1-10 [--workloads tree-cvs,...] [--write]

Runs run.py once per seed and workload with --trace 0 and the
BENCHMARK.json run length, then prints each end-to-end metric's median,
quartiles and spread (interquartile distance over median) against its
bound, and how far each median is worse than the one in baseline.json.
It then makes one --trace 1 run per workload on the default seed. With
--write the numbers, the environment, the pool statistics and every results
CSV hash go to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402
import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, facts printed above it) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    facts = {}
    for line in lines:
        if line.startswith("results CSV of pools "):
            facts["csv_sha256"] = line.split()[-1]
        elif line.startswith("seed ") and ", pool " in line:
            facts["pool"] = json.loads(line.split(", pool ", 1)[1])
    return json.loads(lines[-1]), facts


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), metavar="LO-HI")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in declared["end_to_end"]}
    try:
        recorded = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))["workloads"]
    except (OSError, ValueError, KeyError):
        recorded = {}
    names = [name for name in args.workloads.split(",") if name]
    steady = True
    baseline = {"environment": run.environment(), "run_seconds": seconds, "workloads": {},
                "csv_sha256": {}, "traced_csv_sha256": {}}
    for name in names:
        runs = []
        hashes = {}
        for seed in args.seeds:
            result, facts = invoke(name, seed, seconds, 0)
            if not result["correct"]:
                steady = False
                print(f"{name} seed {seed}: output checks failed")
            runs.append(result)
            hashes[str(seed)] = facts["csv_sha256"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        end_to_end = {}
        for metric, bound in bounds.items():
            stats = quartiles([r["metrics"][metric]["value"] for r in runs])
            stats["bound"] = bound
            end_to_end[metric] = stats
            verdict = "ok" if stats["spread"] <= bound / 3 else ("within bound" if stats["spread"] <= bound else "TOO WIDE")
            if metric != "setup_s" and stats["spread"] > bound:
                steady = False
            versus = ""
            before = recorded.get(name, {}).get("end_to_end", {}).get(metric, {}).get("median")
            if before:
                worse = (stats["median"] - before) / before * (1 if lower_is_better[metric] else -1)
                versus = f"  worse than baseline by {worse:+.4f}"
                if worse > bound:
                    steady = False
                    versus += " BEYOND BOUND"
            print(f"  {metric:14s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bound}  {verdict}{versus}")
        traced, facts = invoke(name, workloads.DEFAULT_SEED, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  traced seed {workloads.DEFAULT_SEED}: correct {traced['correct']}, "
              f"trace.wall_s {layers['trace.wall_s']:.6g}, trace.overhead_frac {layers['trace.overhead_frac']:.4f}")
        if not traced["correct"]:
            steady = False
            print(f"{name} traced run: output checks failed")
        baseline["workloads"][name] = {
            "why": workloads.WORKLOADS[name].why,
            "pool": facts["pool"],
            "seeds": args.seeds,
            "end_to_end": end_to_end,
            "per_layer_seed": workloads.DEFAULT_SEED,
            "per_layer": layers,
        }
        baseline["csv_sha256"][name] = hashes
        baseline["traced_csv_sha256"][name] = {str(workloads.DEFAULT_SEED): facts["csv_sha256"]}
    if args.write:
        path = HERE / "baseline.json"
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
