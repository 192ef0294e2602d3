"""Benchmark workloads and the seeded pools they run on.

Each workload names a pool design (ranges for n, d and minor fraction),
the model families and cells passed to ``imbalance-bench benchmark``, and
the number of jobs. Pools are built only through the package's public
``generate_gaussian_pool`` and ``write_pool``.

Dataset shapes (n, d, minor fraction) are laid out on a Latin-hypercube
grid that spans the workload's ranges and does not depend on the seed; the
seed draws the data. Each class is one Gaussian. Run time follows the
shapes and, for trees and the L1 solver, how hard the data is. Over twenty
draws the time of one tree-cvs dataset typically stayed within 10% of its
median, but one draw in five or so took 1.5-4 times as long. A sum over a
few datasets therefore jumps with the draw, so a seed gives tree-cvs and
wide-jobs2 many small pools of the same shapes with different data; run.py
times each in its own process and reports the median, which the rare slow
draws and short bursts of load on the host do not move. The traced runs
join several of these pools into one, so that their per-cell figures rest
on enough cells.

A logreg-eqs dataset takes 7-13 s, and its time varied by about 11%
between draws (coefficient of variation, 2-CPU AMD EPYC) without rare slow
draws. Only about three fit in a run, and the mean of three varies less
than their median, so logreg-eqs runs one pool of three datasets and its
time is their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_SEED = 7
# Never used while tuning the benchmark or writing a change; use it only to
# re-check a claim made on other seeds.
HELD_OUT_SEED = 1707

FOLDS = 5
CVS_MODE = "oracle"
# The design grid is a property of the benchmark, not of the seed.
_DESIGN_SEED = 20170712


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_size: int  # datasets per pool
    pools: int  # distinct pools per seed, cycled through by the untraced runs
    trace_pools: int  # pools joined into the one pool of the traced runs
    size_range: tuple[int, int]
    d_range: tuple[int, int]
    minor_fraction_range: tuple[float, float]
    models: tuple[str, ...]
    cells: tuple[str, ...] | None  # None: the CLI's default cells
    jobs: int  # capped at the CPU count when run

    @property
    def n_cells(self) -> int:
        from imbalance_bench.benchmark import DEFAULT_CELLS

        return len(self.cells or DEFAULT_CELLS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tree-cvs",
            why="tree tuning over all 7 default cells incl. CVS grids; fit-once-per-grid acts here, solver and executor never run",
            pool_size=2,
            pools=16,
            trace_pools=8,
            size_range=(200, 400),
            d_range=(6, 12),
            minor_fraction_range=(0.1, 0.3),
            models=("tree",),
            cells=None,
            jobs=1,
        ),
        Workload(
            name="logreg-eqs",
            why="logreg only, none and smote+eqs: almost all time is the L1 solver, many solves hit MAX_ITER; tree and knn never run",
            pool_size=3,
            pools=1,
            trace_pools=1,
            size_range=(200, 400),
            d_range=(6, 12),
            minor_fraction_range=(0.1, 0.3),
            models=("logreg",),
            cells=("none", "smote+eqs"),
            jobs=1,
        ),
        Workload(
            name="wide-jobs2",
            why="CLI default ranges up to n 1000 and d 40, tree+knn on EqS cells with 2 jobs: O(n^2) knn scoring and the only parallel cells",
            pool_size=2,
            pools=9,
            trace_pools=3,
            size_range=(200, 1000),
            d_range=(6, 40),
            minor_fraction_range=(0.05, 0.35),
            models=("tree", "knn"),
            cells=("none", "ros+eqs", "rus+eqs", "smote+eqs"),
            jobs=2,
        ),
    )
}


def get(name: str, pool_size: int | None = None) -> Workload:
    """The named workload, optionally with a smaller pool for smoke tests."""
    workload = WORKLOADS[name]
    return workload if pool_size is None else replace(workload, pool_size=pool_size)


def pool_shapes(workload: Workload) -> list[tuple[int, int, float]]:
    """(n, d, minor fraction) for each dataset.

    Each coordinate takes the midpoints of pool_size equal strata of its
    range, in an order fixed by a pinned permutation per coordinate.
    """
    k = workload.pool_size
    rng = np.random.default_rng(_DESIGN_SEED)
    strata = [(rng.permutation(k) + 0.5) / k for _ in range(3)]

    def at(lo, hi, q):
        return lo + (hi - lo) * q

    shapes = []
    for i in range(k):
        n = int(round(at(*workload.size_range, strata[0][i])))
        d = int(round(at(*workload.d_range, strata[1][i])))
        fraction = float(at(*workload.minor_fraction_range, strata[2][i]))
        shapes.append((n, d, fraction))
    return shapes


def make_pool(workload: Workload, seed: int, pools=(0,)):
    """Entries of the workload's pools numbered ``pools``, as one pool.

    Every pool has the workload's shapes; equal (seed, pool) give equal
    data. Entries are numbered in order across the pools.
    """
    from imbalance_bench.datasets import GaussianPoolConfig, generate_gaussian_pool

    entries = []
    for pool in pools:
        for i, (n, d, fraction) in enumerate(pool_shapes(workload)):
            cfg = GaussianPoolConfig(
                pool_size=1,
                seed=(seed * 1000 + pool) * 1000 + i,  # distinct while pools and their sizes stay under 1000
                components_per_class=(1, 1),
                d_range=(d, d),
                size_range=(n, n),
                minor_fraction_range=(fraction, fraction),
            )
            entries.append(replace(generate_gaussian_pool(cfg)[0], index=len(entries)))
    return entries


def benchmark_argv(workload: Workload, pool_dir: str, out: str, seed: int, jobs: int) -> list[str]:
    argv = [
        "benchmark", "--pool", pool_dir, "--models", ",".join(workload.models),
        "--folds", str(FOLDS), "--seed", str(seed), "--cvs-mode", CVS_MODE,
        "--jobs", str(jobs), "--out", out,
    ]
    if workload.cells is not None:
        argv += ["--cells", ",".join(workload.cells)]
    return argv
