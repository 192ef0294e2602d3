"""Outside-in tracing of the package's layers, and the per-layer arithmetic.

Hooks wrap public functions at the module attribute the package calls them
through, so the package itself needs no tracing code. Each call becomes a
span (name, start, end, parent); a span's parent is the innermost open
span of the same thread. Spans stay in memory and are written out when the
run ends. A hook whose target no longer exists is reported as absent and
never fails the run.

A layer's self time is its spans' duration minus the part of each span's
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float


def _logreg_counts(tracer, args, kwargs, result):
    """Iterations are len(history) - 1; a solve is capped at max_iter."""
    from imbalance_bench.classifiers import logreg

    max_iter = kwargs.get("max_iter", args[3] if len(args) > 3 else logreg.MAX_ITER)
    iterations = len(result[2]) - 1
    tracer.count("classifiers.logreg.iterations", iterations)
    tracer.count("classifiers.logreg.capped", int(iterations == max_iter))


def _resample_counts(tracer, args, kwargs, result):
    tracer.count("resampling.rows_added", len(result.added))
    tracer.count("resampling.rows_removed", len(result.removed_ids))


def _cvs_counts(tracer, args, kwargs, result):
    tracer.count("evaluation.cvs_rows", len(result.table))
    tracer.count("evaluation.cvs_infeasible_rows", sum(1 for _, q in result.table if math.isnan(q)))


# (module, attribute path, span name, counter); one entry per call site.
HOOKS = (
    ("imbalance_bench.cli", "main", "cli.main", None),
    ("imbalance_bench.cli", "load_pool", "datasets.load_pool", None),
    ("imbalance_bench.cli", "run_benchmark", "benchmark.run_benchmark", None),
    ("imbalance_bench.cli", "read_results", "benchmark.read_results", None),
    ("imbalance_bench.cli", "dolan_more", "benchmark.dolan_more", None),
    ("imbalance_bench.cli", "emit_curves", "benchmark.emit_curves", None),
    ("imbalance_bench.benchmark", "cv_quality", "evaluation.cv_quality", None),
    ("imbalance_bench.benchmark", "select_multiplier_cvs", "evaluation.select_multiplier_cvs", _cvs_counts),
    ("imbalance_bench.evaluation", "cv_quality", "evaluation.cv_quality", None),
    ("imbalance_bench.evaluation", "stratified_kfold", "datasets.stratified_kfold", None),
    ("imbalance_bench.evaluation", "select_hyperparams", "classifiers.select_hyperparams", None),
    ("imbalance_bench.evaluation", "fit_with_params", "classifiers.refit", None),
    ("imbalance_bench.evaluation", "pr_auc", "metrics.pr_auc", None),
    ("imbalance_bench.classifiers", "pr_auc", "metrics.pr_auc", None),
    ("imbalance_bench.classifiers", "fit_tree", "classifiers.fit.tree", None),
    ("imbalance_bench.classifiers", "fit_knn", "classifiers.fit.knn", None),
    ("imbalance_bench.classifiers", "fit_logreg", "classifiers.fit.logreg", None),
    ("imbalance_bench.classifiers.logreg", "solve_l1_logreg", "classifiers.logreg.solve", _logreg_counts),
    ("imbalance_bench.classifiers.tree", "TreeScorer.score", "classifiers.score.tree", None),
    ("imbalance_bench.classifiers.knn", "KnnScorer.score", "classifiers.score.knn", None),
    ("imbalance_bench.classifiers.logreg", "LogRegScorer.score", "classifiers.score.logreg", None),
    ("imbalance_bench.resampling", "ros", "resampling.ros", _resample_counts),
    ("imbalance_bench.resampling", "rus", "resampling.rus", _resample_counts),
    ("imbalance_bench.resampling", "smote", "resampling.smote", _resample_counts),
    ("imbalance_bench.datasets", "Dataset.subset", "datasets.subset", None),
)

# Outermost evaluation spans directly under run_benchmark are the cells.
CELL_SPANS = ("evaluation.cv_quality", "evaluation.select_multiplier_cvs")
CELL_PARENT = "benchmark.run_benchmark"


class Tracer:
    """Collects spans and counts; install() patches the hooks, uninstall() restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def _open(self) -> tuple[int, int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int | None, name: str, start: float, end: float) -> None:
        self._local.stack.pop()
        span = Span(span_id, parent, threading.get_ident(), name, start, end)
        with self._lock:
            self.spans.append(span)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start, time.perf_counter())
            if counter is not None:
                try:
                    counter(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the result no longer has the shape the counter reads
                    with self._lock:
                        if f"{name} counts" not in self.absent:
                            self.absent.append(f"{name} counts")
            return result

        return traced

    def install(self, hooks=HOOKS) -> None:
        for module_name, path, name, counter in hooks:
            target = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Spans one JSON array per line, then one line of counts and absent hooks."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "absent": self.absent}) + "\n")


def load(path) -> tuple[list[Span], dict, list[str]]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[:-1]:
        spans.append(Span(*json.loads(line)))
    tail = json.loads(lines[-1])
    return spans, tail["counts"], tail["absent"]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end) for s in spans}


def tail_percentile(samples: list[float], min_beyond: int = 10) -> tuple[float, float]:
    """(percentile, value): the highest of p50..p99 with min_beyond samples above it.

    Falls back to the median when no percentile has that many beyond it.
    """
    ordered = sorted(samples)
    best = (50.0, _percentile(ordered, 50.0))
    for pct in (75.0, 90.0, 95.0, 99.0):
        value = _percentile(ordered, pct)
        if sum(1 for x in ordered if x > value) >= min_beyond:
            best = (pct, value)
    return best


def _percentile(ordered: list[float], pct: float) -> float:
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_summary(spans: list[Span], counts: dict) -> dict:
    """Per span name: calls, self seconds and inclusive seconds; plus cell latencies."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    cells = []
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        total_s[s.name] += s.end - s.start
        parent = by_id.get(s.parent)
        if s.name in CELL_SPANS and parent is not None and parent.name == CELL_PARENT:
            cells.append(s.end - s.start)
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "total_s": dict(total_s),
        "attributed_s": sum(own.values()),
        "cell_s": cells,
        "counts": dict(counts),
    }
