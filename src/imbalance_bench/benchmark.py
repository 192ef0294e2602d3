"""Experiment matrix runner, results persistence, and Dolan-More profiles.

A benchmark evaluates every (dataset, model, cell) combination, where a
cell pairs a resampling method with a multiplier strategy ("none",
"ros+eqs", "smote+cvs", ...). Results go to an append-only CSV with one
row per fold; the rows of one cell are written together, so a cell is the
atomic unit of progress and an interrupted run can resume. Cells that fail
with a data error (e.g. an empty effective CVS grid on a nearly balanced
dataset) are recorded as missing with the error tag, never raised.

Reruns with equal inputs produce byte-identical artifacts: every cell
derives its random streams from (seed, dataset id, model name, cell name),
so results do not depend on execution order.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifiers import ModelSpec
from .datasets import Dataset, _frozen, _open_utf8, _write_csv
from .errors import ConfigError, DataError, MismatchedGrids, NoComparableRows, ParseError
from .evaluation import (
    DEFAULT_MULTIPLIER_GRID,
    CVReport,
    CvsResult,
    cv_quality,
    eqs_strategy,
    select_multiplier_cvs,
)
from .resampling import DEFAULT_SMOTE_K, Method, ResamplingSpec
from .rng import derive_seed

__all__ = [
    "CSV_HEADER",
    "DEFAULT_CELLS",
    "BenchmarkResult",
    "DolanMoreCurve",
    "DolanMoreResult",
    "QualityMatrix",
    "dolan_more",
    "emit_curves",
    "evaluate_strategy",
    "parse_cell",
    "read_results",
    "run_benchmark",
]

log = logging.getLogger(__name__)

CSV_HEADER = (
    "dataset_id",
    "model",
    "method",
    "strategy",
    "multiplier",
    "fold",
    "q_prc",
    "chosen_hyperparams",
    "status",
)

DEFAULT_CELLS = ("none", "ros+eqs", "ros+cvs", "rus+eqs", "rus+cvs", "smote+eqs", "smote+cvs")

# status column: "ok", or "error:" and the name of the data error a failed cell raised
_STATUS = re.compile(r"ok|error:[A-Za-z_]\w*")

CLAMP_EPS = 1e-9
BETA_POINTS = 200


def parse_cell(name: str) -> tuple[Method, str]:
    """Split a cell name into (resampling method, strategy name)."""
    if name == "none":
        return Method.NONE, "none"
    method_name, sep, strategy = name.partition("+")
    if not sep or strategy not in ("eqs", "cvs"):
        raise ConfigError(f"cell must be 'none' or '<method>+<eqs|cvs>', got {name!r}")
    try:
        method = Method(method_name)
    except ValueError:
        raise ConfigError(f"unknown resampling method in cell {name!r}") from None
    if method is Method.NONE:
        raise ConfigError(f"method none takes no strategy, got {name!r}")
    return method, strategy


@dataclass(frozen=True)
class QualityMatrix:
    """Q^CV values per (task, method-strategy cell), with missing cells masked."""

    tasks: tuple[str, ...]
    methods: tuple[str, ...]
    values: np.ndarray
    mask: np.ndarray
    errors: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self) -> None:
        values = _frozen(self.values, np.float64)
        mask = _frozen(self.mask, bool)
        shape = (len(self.tasks), len(self.methods))
        if values.shape != shape or mask.shape != shape:
            raise ValueError(f"values and mask must have shape {shape}")
        present = values[mask]
        if len(present) and not ((present >= 0.0) & (present <= 1.0)).all():
            raise ValueError("present quality values must lie in [0, 1]")
        for row, task in enumerate(self.tasks):
            if not mask[row].any():
                log.warning("task %s has no successful cell", task)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "errors", tuple(self.errors))


@dataclass(frozen=True)
class DolanMoreCurve:
    """p_i(beta): fraction of tasks where method i is within factor beta of best."""

    method: str
    betas: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        betas = _frozen(self.betas, np.float64)
        p = _frozen(self.p, np.float64)
        if betas.ndim != 1 or betas.shape != p.shape or len(betas) == 0:
            raise ValueError("betas and p must be equal-length nonempty vectors")
        if betas[0] < 1.0 or (np.diff(betas) < 0).any():
            raise ValueError("betas must be ascending and at least 1")
        if ((p < 0) | (p > 1)).any() or (np.diff(p) < -1e-15).any():
            raise ValueError("p must be non-decreasing within [0, 1]")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class DolanMoreResult:
    curves: tuple[DolanMoreCurve, ...]
    dropped_rows: int
    retained_rows: int


def dolan_more(
    matrix: QualityMatrix,
    betas: Sequence[float] | None = None,
    methods: Sequence[str] | None = None,
) -> DolanMoreResult:
    """Dolan-More curves over the complete-case rows of the matrix.

    Rows missing any compared method are dropped (the count is returned);
    quality values are clamped below at 1e-9 so a zero-quality method
    still reaches p = 1 at finite beta. The default beta grid has 200
    log-spaced points spanning [1, beta_max] with beta_max the largest
    row max/min ratio.
    """
    if methods is None:
        methods = matrix.methods
    if not methods or len(set(methods)) != len(methods):
        raise ConfigError(f"methods must be nonempty and distinct, got {list(methods)}")
    cols = []
    for name in methods:
        if name not in matrix.methods:
            raise ConfigError(f"method {name!r} not in matrix (has {matrix.methods})")
        cols.append(matrix.methods.index(name))
    keep = matrix.mask[:, cols].all(axis=1)
    retained = int(keep.sum())
    dropped = len(matrix.tasks) - retained
    if retained == 0:
        raise NoComparableRows("every task is missing at least one compared method")
    q = np.clip(matrix.values[keep][:, cols], CLAMP_EPS, None)
    row_best = q.max(axis=1)
    if betas is None:
        # the tiny inflation keeps best/beta_max strictly below the row
        # minimum despite rounding, so the terminal point is exactly 1
        beta_max = float((row_best / q.min(axis=1)).max()) * (1.0 + 1e-12)
        beta_grid = np.geomspace(1.0, beta_max, BETA_POINTS)
        beta_grid[0] = 1.0
    else:
        beta_grid = np.asarray(betas, dtype=np.float64)
        if beta_grid.ndim != 1 or len(beta_grid) == 0 or beta_grid[0] < 1.0 or (np.diff(beta_grid) < 0).any():
            raise ValueError("betas must be ascending and at least 1")
    cutoffs = row_best[:, None] / beta_grid[None, :]
    curves = []
    for i, name in enumerate(methods):
        p = (q[:, i][:, None] >= cutoffs).mean(axis=0)
        curves.append(DolanMoreCurve(method=name, betas=beta_grid, p=p))
    return DolanMoreResult(curves=tuple(curves), dropped_rows=dropped, retained_rows=retained)


# ---------------------------------------------------------------------------
# Curve artifacts
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def _shared_betas(curves: Sequence[DolanMoreCurve]) -> np.ndarray:
    if not curves:
        raise ValueError("need at least one curve")
    betas = curves[0].betas
    for curve in curves[1:]:
        if not np.array_equal(curve.betas, betas):
            raise MismatchedGrids(f"curve {curve.method!r} uses a different beta grid")
    return betas


def _render_svg(curves: Sequence[DolanMoreCurve]) -> str:
    """Fixed-layout chart, log-scaled beta axis; byte-deterministic."""
    betas = _shared_betas(curves)
    left, right, top, bottom = 70.0, 770.0, 40.0, 440.0
    span = float(np.log(betas[-1])) if betas[-1] > 1.0 else 1.0

    def x(beta: float) -> float:
        return left + (right - left) * (np.log(beta) / span)

    def y(p: float) -> float:
        return bottom - (bottom - top) * p

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="500" viewBox="0 0 800 500">',
        '<rect width="800" height="500" fill="white"/>',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" height="{bottom - top:.2f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        ty = y(tick)
        parts.append(f'<line x1="{left:.2f}" y1="{ty:.2f}" x2="{right:.2f}" y2="{ty:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{ty + 4:.2f}" font-size="12" text-anchor="end" font-family="sans-serif">{tick:.2f}</text>')
    for beta in np.geomspace(1.0, float(betas[-1]), 5) if betas[-1] > 1.0 else [1.0]:
        tx = x(beta)
        parts.append(f'<line x1="{tx:.2f}" y1="{bottom:.2f}" x2="{tx:.2f}" y2="{bottom + 5:.2f}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{tx:.2f}" y="{bottom + 20:.2f}" font-size="12" text-anchor="middle" font-family="sans-serif">{beta:.4g}</text>')
    parts.append(f'<text x="{(left + right) / 2:.2f}" y="478.00" font-size="13" text-anchor="middle" font-family="sans-serif">performance ratio β (log scale)</text>')
    parts.append(f'<text x="18.00" y="{(top + bottom) / 2:.2f}" font-size="13" text-anchor="middle" font-family="sans-serif" transform="rotate(-90 18 {(top + bottom) / 2:.2f})">p(β)</text>')
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{x(float(b)):.2f},{y(float(v)):.2f}" for b, v in zip(curve.betas, curve.p))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = top + 16 + 18 * i
        parts.append(f'<rect x="{left + 12:.2f}" y="{ly - 9:.2f}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{left + 30:.2f}" y="{ly + 2:.2f}" font-size="12" font-family="sans-serif">{curve.method}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_curves(curves: Sequence[DolanMoreCurve], fmt: str, path: str | Path) -> Path:
    """Write curves as CSV (beta, method, p) or a standalone SVG chart."""
    path = Path(path)
    betas = _shared_betas(curves)
    if fmt == "csv":
        rows = [(repr(float(beta)), curve.method, repr(float(p))) for curve in curves for beta, p in zip(betas, curve.p)]
        _write_csv(path, [("beta", "method", "p"), *rows])
    elif fmt == "svg":
        path.write_text(_render_svg(curves), encoding="utf-8")
    else:
        raise ValueError(f"format must be csv or svg, got {fmt!r}")
    return path


# ---------------------------------------------------------------------------
# Matrix runner and results CSV
# ---------------------------------------------------------------------------


def _hyperparams_json(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def evaluate_strategy(
    dataset: Dataset,
    model: ModelSpec,
    method: Method,
    strategy: str,
    multiplier: float,
    folds: int,
    seed: int,
    grid,
    smote_k: int,
    cvs_mode: str,
) -> tuple[CVReport, CvsResult | None]:
    """Cross-validated quality of one (method, strategy) configuration.

    strategy "none" or "fixed" resamples every training fold by multiplier
    (method none ignores it), "eqs" by the fold's IR, and "cvs" by the
    multiplier select_multiplier_cvs picks from grid in cvs_mode. The
    CvsResult is returned for "cvs" only.
    """
    if strategy in ("none", "fixed"):
        spec = ResamplingSpec(Method.NONE) if method is Method.NONE else ResamplingSpec(method, multiplier, smote_k)
        return cv_quality(dataset, spec, model, folds, seed), None
    if strategy == "eqs":
        return cv_quality(dataset, eqs_strategy(method, smote_k), model, folds, seed), None
    if strategy == "cvs":
        result = select_multiplier_cvs(
            dataset, method, model, grid=grid, folds=folds, seed=seed, mode=cvs_mode, smote_k=smote_k
        )
        return result.report, result
    raise ConfigError(f"strategy must be none, fixed, eqs or cvs, got {strategy!r}")


def _cell_key(dataset_id: str, model_name: str, cell: str) -> tuple[str, str, str, str]:
    method, strategy = parse_cell(cell)
    return (dataset_id, model_name, method.value, strategy)


def _read_groups(path: Path) -> tuple[list[tuple[tuple[str, str, str, str], list[tuple[str, ...]]]], str]:
    """Parse a results CSV into consecutive same-cell row groups, plus its torn last line.

    A crash while rows are being written can leave the last line without
    its terminator; that line is returned apart ("" if there is none) and
    not parsed. A file torn inside its header has no groups. Every ok row
    must carry a multiplier, q_prc and chosen_hyperparams that parse and
    lie in range, so that nothing downstream half-trusts a row.
    """
    with _open_utf8(path) as fh:
        lines = fh.readlines()
    torn = lines.pop() if lines and not lines[-1].endswith(("\n", "\r")) else ""
    if not lines and ",".join(CSV_HEADER).startswith(torn):
        return [], torn
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != list(CSV_HEADER):
        raise ParseError(f"{path}: unexpected header {header}")
    groups = []
    for row in reader:
        if len(row) != len(CSV_HEADER) or not _STATUS.fullmatch(row[8]):
            raise ParseError(f"{path}: malformed row {row}")
        if row[8] == "ok" and not _values_in_range(row):
            raise ParseError(f"{path}: multiplier, q_prc or chosen_hyperparams out of range in row {row}")
        key = (row[0], row[1], row[2], row[3])
        if groups and groups[-1][0] == key:
            groups[-1][1].append(tuple(row))
        else:
            groups.append((key, [tuple(row)]))
    return groups, torn


def _values_in_range(row: list[str]) -> bool:
    """Whether an ok row has a finite multiplier >= 1, a q_prc in [0, 1] and a JSON object of hyperparameters."""
    try:
        multiplier, q = float(row[4]), float(row[6])
        params = json.loads(row[7])
    except ValueError:
        return False
    return 1.0 <= multiplier < np.inf and 0.0 <= q <= 1.0 and isinstance(params, dict)


def _group_complete(rows: list[tuple[str, ...]], folds: int) -> bool:
    if len(rows) == 1 and rows[0][8].startswith("error:"):
        return True
    return len(rows) == folds and [r[5] for r in rows] == [str(f) for f in range(folds)]


def _reusable_groups(path: Path, keys: list[tuple[str, str, str, str]], folds: int):
    """Longest prefix of complete groups matching the canonical key order.

    The trailing group of an interrupted run may be partial, and its last
    line torn; both are discarded. Anything out of order means the file
    belongs to a different configuration, which is an error rather than
    silent recomputation.
    """
    groups, torn = _read_groups(path)
    if torn:
        log.warning("discarding torn last line %r", torn)
    if len(groups) > len(keys):
        raise ParseError(f"{path}: has {len(groups)} cell groups, expected at most {len(keys)}")
    reused = []
    for i, (key, rows) in enumerate(groups):
        if key != keys[i]:
            raise ParseError(f"{path}: cell group {i} is {key}, expected {keys[i]}")
        if not _group_complete(rows, folds):
            if i != len(groups) - 1:
                raise ParseError(f"{path}: incomplete cell group {key} in the middle of the file")
            log.warning("discarding partial trailing group %s", key)
            break
        reused.append((key, rows))
    return reused


@dataclass(frozen=True)
class BenchmarkResult:
    matrices: dict[str, QualityMatrix]
    csv_path: Path | None
    n_cells: int
    n_errors: int


def run_benchmark(
    pool: Sequence[tuple[str, Dataset]],
    models: Sequence[tuple[str, ModelSpec]],
    cells: Sequence[str] = DEFAULT_CELLS,
    folds: int = 10,
    seed: int = 0,
    out: str | Path | None = None,
    resume: bool = False,
    jobs: int = 1,
    grid=DEFAULT_MULTIPLIER_GRID,
    smote_k: int = DEFAULT_SMOTE_K,
    cvs_mode: str = "oracle",
) -> BenchmarkResult:
    """Evaluate every (dataset, model, cell) and assemble per-model matrices.

    With out set, each cell's rows are appended to the CSV once the cell
    completes; with resume, complete cells already in the file are trusted
    and skipped. jobs > 1 computes cells in a thread pool; output order
    stays canonical.
    """
    if not pool or not models or not cells:
        raise ConfigError("pool, models and cells must be nonempty")
    work = [
        (dataset_id, dataset, model_name, model, cell)
        for dataset_id, dataset in pool
        for model_name, model in models
        for cell in cells
    ]
    keys = [_cell_key(w[0], w[2], w[4]) for w in work]
    if len(set(keys)) != len(keys):
        raise ConfigError("duplicate (dataset, model, cell) combinations")

    cell_rows: dict[tuple[str, str, str], tuple[tuple[str, ...], ...]] = {}
    out_path = Path(out) if out is not None else None
    reused_rows: list[tuple[str, ...]] = []
    start = 0
    if out_path is not None and resume and out_path.exists():
        reused = _reusable_groups(out_path, keys, folds)
        for item, (_, rows) in zip(work, reused):
            cell_rows[(item[0], item[2], item[4])] = tuple(rows)
            reused_rows.extend(rows)
        start = len(reused)
        log.info("resuming: %d of %d cells reused", start, len(work))

    pending = work[start:]

    def run_one(item) -> tuple[tuple[str, ...], ...]:
        dataset_id, dataset, model_name, model, cell = item
        method, strategy = parse_cell(cell)
        cell_seed = derive_seed(seed, dataset_id, model_name, cell)
        try:
            report, _ = evaluate_strategy(
                dataset, model, method, strategy, 1.0, folds, cell_seed, grid, smote_k, cvs_mode
            )
        except DataError as exc:
            tag = f"error:{type(exc).__name__}"
            log.warning("cell (%s, %s, %s) failed: %s", dataset_id, model_name, cell, exc)
            return ((dataset_id, model_name, method.value, strategy, "", "", "", "", tag),)
        return tuple(
            (
                dataset_id,
                model_name,
                method.value,
                strategy,
                repr(report.fold_multipliers[f]),
                str(f),
                repr(report.fold_scores[f]),
                _hyperparams_json(report.fold_params[f]),
                "ok",
            )
            for f in range(folds)
        )

    if out_path is not None:
        # the reused rows go to a temporary file that then replaces the
        # results file, so a failure before that leaves the file as it was
        tmp_path = out_path.with_name(out_path.name + ".tmp")
        try:
            _write_csv(tmp_path, [CSV_HEADER, *reused_rows])
            os.replace(tmp_path, out_path)
        finally:
            tmp_path.unlink(missing_ok=True)
    if jobs > 1 and pending:
        executor = ThreadPoolExecutor(max_workers=jobs)
        results = executor.map(run_one, pending)
    else:
        executor = None
        results = map(run_one, pending)
    for item, rows in zip(pending, results):
        cell_rows[(item[0], item[2], item[4])] = rows
        if out_path is not None:
            _write_csv(out_path, rows, mode="a")
    if executor is not None:
        executor.shutdown()

    matrices = _assemble_matrices(cell_rows)
    return BenchmarkResult(
        matrices=matrices,
        csv_path=out_path,
        n_cells=len(work),
        n_errors=sum(len(matrix.errors) for matrix in matrices.values()),
    )


def _assemble_matrices(cell_rows: dict[tuple[str, str, str], Sequence[tuple[str, ...]]]) -> dict[str, QualityMatrix]:
    """One QualityMatrix per model from (dataset id, model, cell) -> results CSV rows.

    A cell's Q^CV is the mean of its fold scores. Tasks, models and cells
    keep the order in which the keys first name them; (task, cell) pairs
    without rows stay masked.
    """
    tasks, model_names, cells = (tuple(dict.fromkeys(key[i] for key in cell_rows)) for i in range(3))
    matrices = {}
    for model_name in model_names:
        values = np.full((len(tasks), len(cells)), np.nan)
        mask = np.zeros((len(tasks), len(cells)), dtype=bool)
        errors = []
        for row, dataset_id in enumerate(tasks):
            for col, cell in enumerate(cells):
                rows = cell_rows.get((dataset_id, model_name, cell))
                if rows is None:
                    continue
                if rows[0][8] != "ok":
                    errors.append((dataset_id, cell, rows[0][8]))
                else:
                    values[row, col] = np.mean([float(r[6]) for r in rows])
                    mask[row, col] = True
        matrices[model_name] = QualityMatrix(
            tasks=tasks, methods=cells, values=values, mask=mask, errors=tuple(errors)
        )
    return matrices


def read_results(path: str | Path) -> dict[str, QualityMatrix]:
    """Rebuild per-model quality matrices from a results CSV; a torn last line or a short ok cell group is an error."""
    groups, torn = _read_groups(Path(path))
    if torn:
        raise ParseError(f"{path}: torn last line {torn!r}")
    if not groups:
        raise ParseError(f"{path}: no result rows")
    data: dict[tuple[str, str, str], list[tuple[str, ...]]] = {}
    # one run gives every ok cell the same folds, so a group that lost its last fold rows stands out
    folds = max(len(rows) for _, rows in groups)
    for (dataset_id, model_name, method, strategy), rows in groups:
        cell = "none" if strategy == "none" else f"{method}+{strategy}"
        key = (dataset_id, model_name, cell)
        if key in data:
            raise ParseError(f"{path}: duplicate cell group {key}")
        if not _group_complete(rows, folds):
            raise ParseError(f"{path}: malformed fold sequence in cell group {key}, expected folds 0..{folds - 1}")
        data[key] = rows
    return _assemble_matrices(data)
