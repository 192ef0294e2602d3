"""Quality matrices, Dolan-More curves, and the benchmark runner."""

from __future__ import annotations

import numpy as np
import pytest

from imbalance_bench import (
    ConfigError,
    DEFAULT_CELLS,
    Family,
    Method,
    MismatchedGrids,
    ModelSpec,
    NoComparableRows,
    ParseError,
    QualityMatrix,
    cv_quality,
    DolanMoreCurve,
    ResamplingSpec,
    dolan_more,
    emit_curves,
    from_rows,
    parse_cell,
    read_results,
    run_benchmark,
)
from imbalance_bench.rng import derive_seed


def full_matrix(values, methods=None):
    values = np.asarray(values, dtype=float)
    tasks = tuple(f"t{i}" for i in range(values.shape[0]))
    methods = methods or tuple(f"m{j}" for j in range(values.shape[1]))
    return QualityMatrix(
        tasks=tasks, methods=tuple(methods), values=values, mask=np.ones(values.shape, bool)
    )


def make(n_major, n_minor, d=2, seed=0, gap=2.0):
    rng = np.random.default_rng(seed)
    features = np.vstack(
        [rng.normal(0.0, 1.0, size=(n_major, d)), rng.normal(gap, 1.0, size=(n_minor, d))]
    )
    return from_rows(features, np.array([0] * n_major + [1] * n_minor))


FAST_KNN = ModelSpec(family=Family.KNN, grid=({"k": 3},))


# ---------------------------------------------------------------------------
# Dolan-More
# ---------------------------------------------------------------------------


def test_dolan_more_worked_example():
    result = dolan_more(full_matrix([[0.5, 0.25], [0.4, 0.4]]), betas=[1.0, 2.0])
    by_name = {c.method: c for c in result.curves}
    assert np.array_equal(by_name["m0"].p, [1.0, 1.0])
    assert np.array_equal(by_name["m1"].p, [0.5, 1.0])
    assert result.dropped_rows == 0
    assert result.retained_rows == 2


def test_dolan_more_best_everywhere_is_flat_one():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 0.8, size=(6, 3))
    values[:, 0] = values.max(axis=1) + 0.1
    result = dolan_more(full_matrix(values))
    best = next(c for c in result.curves if c.method == "m0")
    assert (best.p == 1.0).all()


def test_dolan_more_single_method_is_flat_one():
    result = dolan_more(full_matrix([[0.3], [0.9], [0.5]]))
    assert (result.curves[0].p == 1.0).all()


def test_dolan_more_matches_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(30):
        tasks = int(rng.integers(1, 10))
        methods = int(rng.integers(1, 5))
        values = rng.uniform(0.0, 1.0, size=(tasks, methods))
        betas = np.sort(rng.uniform(1.0, 6.0, size=7))
        betas[0] = 1.0
        result = dolan_more(full_matrix(values), betas=betas)
        clamped = np.clip(values, 1e-9, None)
        for i, curve in enumerate(result.curves):
            for j, beta in enumerate(betas):
                hits = sum(
                    1 for t in range(tasks) if clamped[t, i] >= clamped[t].max() / beta
                )
                assert abs(curve.p[j] - hits / tasks) <= 1e-15, f"trial {trial}"


def test_dolan_more_default_grid_monotone_terminal_one():
    rng = np.random.default_rng(2)
    values = rng.uniform(0.05, 0.95, size=(8, 4))
    result = dolan_more(full_matrix(values))
    for curve in result.curves:
        assert len(curve.betas) == 200
        assert curve.betas[0] == 1.0
        assert (np.diff(curve.p) >= 0.0).all()
        assert curve.p[-1] == 1.0


def test_dolan_more_sum_at_beta_one_at_least_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        values = rng.uniform(0.0, 1.0, size=(5, 3))
        result = dolan_more(full_matrix(values), betas=[1.0])
        assert sum(c.p[0] for c in result.curves) >= 1.0  # every row has a winner


def test_dolan_more_clamps_zero_quality():
    result = dolan_more(full_matrix([[0.0, 0.5], [0.4, 0.4]]))
    for curve in result.curves:
        assert np.isfinite(curve.p).all()
        assert curve.p[-1] == 1.0


def test_dolan_more_drops_incomplete_rows():
    values = np.array([[0.5, 0.4], [0.9, 0.1], [0.2, 0.3]])
    mask = np.array([[True, True], [True, False], [True, True]])
    matrix = QualityMatrix(tasks=("a", "b", "c"), methods=("x", "y"), values=values, mask=mask)
    result = dolan_more(matrix, betas=[1.0])
    assert result.dropped_rows == 1
    assert result.retained_rows == 2
    by_name = {c.method: c for c in result.curves}
    assert by_name["x"].p[0] == 0.5
    assert by_name["y"].p[0] == 0.5


def test_dolan_more_no_comparable_rows():
    mask = np.array([[True, False], [False, True]])
    matrix = QualityMatrix(("a", "b"), ("x", "y"), np.full((2, 2), 0.5), mask)
    with pytest.raises(NoComparableRows):
        dolan_more(matrix)


def test_dolan_more_method_subset_and_unknown():
    matrix = full_matrix([[0.5, 0.25], [0.4, 0.4]])
    result = dolan_more(matrix, betas=[1.0], methods=["m1"])
    assert len(result.curves) == 1
    assert result.curves[0].p[0] == 1.0
    with pytest.raises(ConfigError):
        dolan_more(matrix, methods=["nope"])


@pytest.mark.parametrize("methods", [[], ["m1", "m0", "m1"]], ids=["empty", "repeated"])
def test_dolan_more_rejects_empty_or_repeated_methods(methods):
    with pytest.raises(ConfigError, match="nonempty and distinct"):
        dolan_more(full_matrix([[0.5, 0.25], [0.4, 0.4]]), methods=methods)


def test_dolan_more_rejects_bad_betas():
    matrix = full_matrix([[0.5, 0.25]])
    with pytest.raises(ValueError):
        dolan_more(matrix, betas=[0.5, 2.0])
    with pytest.raises(ValueError):
        dolan_more(matrix, betas=[2.0, 1.5])


def test_quality_matrix_validation():
    with pytest.raises(ValueError):
        QualityMatrix(("a",), ("x", "y"), np.zeros((2, 2)), np.ones((2, 2), bool))
    with pytest.raises(ValueError):
        QualityMatrix(("a",), ("x",), np.array([[1.5]]), np.array([[True]]))
    # masked-out entries may hold anything
    QualityMatrix(("a",), ("x",), np.array([[np.nan]]), np.array([[False]]))


def test_quality_matrix_copies_the_callers_arrays():
    values = np.array([[0.5, 0.25]])
    mask = np.array([[True, False]])
    matrix = QualityMatrix(("a",), ("x", "y"), values, mask)
    values[0, 0] = 0.75  # the caller's arrays stay writable and cannot reach the matrix
    mask[0, 1] = True
    assert matrix.values[0, 0] == 0.5 and not matrix.mask[0, 1]
    with pytest.raises(ValueError):
        matrix.values[0, 0] = 0.0


def test_dolan_more_curve_validation():
    with pytest.raises(ValueError):
        DolanMoreCurve(method="x", betas=np.array([2.0, 1.0]), p=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        DolanMoreCurve(method="x", betas=np.array([1.0, 2.0]), p=np.array([0.9, 0.5]))


# ---------------------------------------------------------------------------
# Cells and curve artifacts
# ---------------------------------------------------------------------------


def test_parse_cell():
    assert parse_cell("none") == (Method.NONE, "none")
    assert parse_cell("ros+eqs") == (Method.ROS, "eqs")
    assert parse_cell("smote+cvs") == (Method.SMOTE, "cvs")
    for bad in ("ros", "ros+bogus", "none+eqs", "bogus+eqs", ""):
        with pytest.raises(ConfigError):
            parse_cell(bad)


def test_default_cells_pinned():
    assert DEFAULT_CELLS == (
        "none", "ros+eqs", "ros+cvs", "rus+eqs", "rus+cvs", "smote+eqs", "smote+cvs"
    )


def curves_for_emit():
    betas = np.geomspace(1.0, 4.0, 50)
    betas[0] = 1.0
    return (
        DolanMoreCurve(method="ros+eqs", betas=betas, p=np.linspace(0.4, 1.0, 50)),
        DolanMoreCurve(method="ros+cvs", betas=betas, p=np.linspace(0.6, 1.0, 50)),
    )


def test_emit_curves_csv(tmp_path):
    out = emit_curves(curves_for_emit(), "csv", tmp_path / "curves.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,method,p"
    assert len(lines) == 1 + 2 * 50
    assert lines[1].split(",")[1] == "ros+eqs"
    first = emit_curves(curves_for_emit(), "csv", tmp_path / "again.csv").read_bytes()
    assert first == out.read_bytes()


def test_emit_curves_svg(tmp_path):
    out = emit_curves(curves_for_emit(), "svg", tmp_path / "curves.svg")
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "ros+cvs" in text
    again = emit_curves(curves_for_emit(), "svg", tmp_path / "again.svg")
    assert again.read_bytes() == out.read_bytes()


def test_emit_curves_rejects_mixed_grids(tmp_path):
    a, b = curves_for_emit()
    other = DolanMoreCurve(method=b.method, betas=np.array([1.0, 9.0]), p=np.array([0.5, 1.0]))
    with pytest.raises(MismatchedGrids):
        emit_curves((a, other), "csv", tmp_path / "x.csv")


def test_emit_curves_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_curves(curves_for_emit(), "png", tmp_path / "x.png")


# ---------------------------------------------------------------------------
# run_benchmark
# ---------------------------------------------------------------------------


def small_pool():
    return [("ds_a", make(24, 8, seed=1)), ("ds_b", make(24, 8, seed=2))]


def test_run_benchmark_matches_direct_cv_quality():
    pool = small_pool()
    result = run_benchmark(pool, [("knn", FAST_KNN)], cells=("none", "ros+eqs"), folds=2, seed=7)
    matrix = result.matrices["knn"]
    assert matrix.tasks == ("ds_a", "ds_b")
    assert matrix.methods == ("none", "ros+eqs")
    assert matrix.mask.all()
    assert result.n_cells == 4
    assert result.n_errors == 0
    for row, (dataset_id, dataset) in enumerate(pool):
        cell_seed = derive_seed(7, dataset_id, "knn", "none")
        expected = cv_quality(dataset, ResamplingSpec(Method.NONE), FAST_KNN, 2, cell_seed)
        assert matrix.values[row, 0] == expected.qcv


def test_run_benchmark_csv_layout(tmp_path):
    out = tmp_path / "results.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], cells=("none", "ros+eqs"), folds=2, out=out)
    lines = out.read_text().splitlines()
    assert lines[0] == "dataset_id,model,method,strategy,multiplier,fold,q_prc,chosen_hyperparams,status"
    assert len(lines) == 1 + 2 * 2 * 2  # datasets x cells x folds
    # canonical order: dataset-major, cells within, folds within
    firsts = [line.split(",")[0] for line in lines[1:]]
    assert firsts == ["ds_a"] * 4 + ["ds_b"] * 4
    assert all(line.endswith(",ok") for line in lines[1:])
    assert '"{""k"":3}"' in lines[1]


def test_run_benchmark_records_cell_errors(tmp_path):
    pool = [("near_balanced", make(11, 10, seed=3))]  # IR = 1.1: cvs grid is empty
    out = tmp_path / "results.csv"
    result = run_benchmark(pool, [("knn", FAST_KNN)], cells=("ros+eqs", "ros+cvs"), folds=2, out=out)
    assert result.n_errors == 1
    matrix = result.matrices["knn"]
    assert matrix.mask[0, 0]
    assert not matrix.mask[0, 1]
    assert matrix.errors == (("near_balanced", "ros+cvs", "error:EmptyGrid"),)
    error_lines = [l for l in out.read_text().splitlines() if l.endswith("error:EmptyGrid")]
    assert error_lines == ["near_balanced,knn,ros,cvs,,,,,error:EmptyGrid"]


def test_run_benchmark_rerun_byte_identical(tmp_path):
    kwargs = dict(cells=("none", "ros+cvs"), folds=2, seed=3)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=a, **kwargs)
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=b, **kwargs)
    assert a.read_bytes() == b.read_bytes()


def test_run_benchmark_parallel_matches_serial(tmp_path):
    kwargs = dict(cells=("none", "ros+eqs", "rus+eqs"), folds=2, seed=5)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=serial, jobs=1, **kwargs)
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=parallel, jobs=3, **kwargs)
    assert serial.read_bytes() == parallel.read_bytes()


def test_run_benchmark_resume_after_truncation(tmp_path):
    kwargs = dict(cells=("none", "ros+eqs"), folds=2, seed=9)
    full = tmp_path / "full.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=full, **kwargs)
    reference = full.read_bytes()

    resumed = tmp_path / "resumed.csv"
    lines = full.read_text().splitlines(keepends=True)
    resumed.write_text("".join(lines[: 1 + 2 + 1]))  # one full group + half a group
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=resumed, resume=True, **kwargs)
    assert resumed.read_bytes() == reference


def test_run_benchmark_resume_with_complete_prefix(tmp_path):
    kwargs = dict(cells=("none", "ros+eqs"), folds=2, seed=9)
    full = tmp_path / "full.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=full, **kwargs)
    reference = full.read_bytes()

    resumed = tmp_path / "resumed.csv"
    lines = full.read_text().splitlines(keepends=True)
    resumed.write_text("".join(lines[: 1 + 3 * 2]))  # three complete groups
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=resumed, resume=True, **kwargs)
    assert resumed.read_bytes() == reference


def test_run_benchmark_resume_from_every_byte_offset(tmp_path):
    # a crash can cut the file anywhere, also inside the header or a row
    pool = [("near_balanced", make(11, 10, seed=3)), ("ds_a", make(24, 8, seed=1))]
    kwargs = dict(cells=("none", "ros+cvs"), folds=2, seed=9, grid=(2.0,))
    full = tmp_path / "full.csv"
    run_benchmark(pool, [("knn", FAST_KNN)], out=full, **kwargs)
    reference = full.read_bytes()
    assert b"error:EmptyGrid" in reference

    resumed = tmp_path / "resumed.csv"
    for offset in range(len(reference)):
        resumed.write_bytes(reference[:offset])
        run_benchmark(pool, [("knn", FAST_KNN)], out=resumed, resume=True, **kwargs)
        assert resumed.read_bytes() == reference, f"offset {offset}"


@pytest.mark.parametrize("status", ["", "o", "error:", "failed"])
def test_run_benchmark_resume_rejects_bad_status(tmp_path, status):
    kwargs = dict(cells=("none", "ros+eqs"), folds=2, seed=9)
    out = tmp_path / "results.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, **kwargs)
    lines = out.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(",ok\n", f",{status}\n")
    out.write_text("".join(lines))
    with pytest.raises(ParseError):
        run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, resume=True, **kwargs)


def test_run_benchmark_resume_rejects_reordered_file(tmp_path):
    kwargs = dict(cells=("none", "ros+eqs"), folds=2, seed=9)
    out = tmp_path / "results.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, **kwargs)
    lines = out.read_text().splitlines(keepends=True)
    # swap the first two cell groups (2 rows each)
    reordered = [lines[0]] + lines[3:5] + lines[1:3] + lines[5:]
    out.write_text("".join(reordered))
    with pytest.raises(ParseError):
        run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, resume=True, **kwargs)


def test_run_benchmark_validates_inputs():
    with pytest.raises(ConfigError):
        run_benchmark([], [("knn", FAST_KNN)])
    with pytest.raises(ConfigError):
        run_benchmark(small_pool(), [])
    with pytest.raises(ConfigError):
        run_benchmark(small_pool(), [("knn", FAST_KNN)], cells=("ros",))
    with pytest.raises(ConfigError):
        run_benchmark(small_pool() + [("ds_a", make(20, 10))], [("knn", FAST_KNN)])


def test_read_results_roundtrip(tmp_path):
    out = tmp_path / "results.csv"
    result = run_benchmark(
        small_pool(), [("knn", FAST_KNN)], cells=("none", "ros+eqs"), folds=2, seed=4, out=out
    )
    loaded = read_results(out)
    assert set(loaded) == {"knn"}
    got, want = loaded["knn"], result.matrices["knn"]
    assert got.tasks == want.tasks
    assert got.methods == want.methods
    assert np.array_equal(got.mask, want.mask)
    assert np.array_equal(got.values[got.mask], want.values[want.mask])


def test_read_results_rejects_duplicates(tmp_path):
    out = tmp_path / "results.csv"
    run_benchmark(small_pool()[:1], [("knn", FAST_KNN)], cells=("none",), folds=2, out=out)
    lines = out.read_text().splitlines(keepends=True)
    # consecutive repeat merges into one group but breaks the fold sequence
    out.write_text("".join(lines + lines[1:]))
    with pytest.raises(ParseError):
        read_results(out)


def test_read_results_rejects_repeated_group(tmp_path):
    out = tmp_path / "results.csv"
    run_benchmark(
        small_pool()[:1], [("knn", FAST_KNN)], cells=("none", "ros+eqs"), folds=2, out=out
    )
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines + lines[1:3]))  # first group again, after the second
    with pytest.raises(ParseError):
        read_results(out)


def test_read_results_rejects_torn_last_line(tmp_path):
    out = tmp_path / "results.csv"
    run_benchmark(small_pool()[:1], [("knn", FAST_KNN)], cells=("none",), folds=2, out=out)
    data = out.read_bytes()
    for cut in (1, 2, 3):  # the newline lost, then the status cut to "o" and to ""
        out.write_bytes(data[:-cut])
        with pytest.raises(ParseError):
            read_results(out)


def test_read_results_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    with pytest.raises(ParseError):
        read_results(bad)


def test_run_benchmark_failed_rewrite_keeps_complete_cells(tmp_path, monkeypatch):
    import csv

    kwargs = dict(cells=("none", "ros+eqs"), folds=2, seed=9)
    out = tmp_path / "results.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, **kwargs)
    reference = out.read_bytes()
    lines = reference.decode().splitlines(keepends=True)
    out.write_text("".join(lines[: 1 + 3 * 2 + 1]))  # three complete groups and a partial one
    prefix = out.read_bytes()

    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, fh, **kw):
            self.inner = real_writer(fh, **kw)

        def writerow(self, row):
            self.inner.writerow(row)

        def writerows(self, rows):
            rows = list(rows)
            self.inner.writerows(rows[:1])
            raise OSError("disk full")

    monkeypatch.setattr(csv, "writer", FailingWriter)
    with pytest.raises(OSError, match="disk full"):
        run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, resume=True, **kwargs)
    assert out.read_bytes() == prefix
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]
    monkeypatch.undo()
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, resume=True, **kwargs)
    assert out.read_bytes() == reference


@pytest.mark.parametrize(
    "column, value",
    [(6, "abc"), (6, "1.5"), (6, "-0.1"), (6, "nan"), (4, "0.5"), (4, "inf"), (4, "x"), (7, "[1]"), (7, "{")],
)
def test_resume_and_read_results_reject_out_of_range_values(tmp_path, column, value):
    import csv

    kwargs = dict(cells=("none", "ros+eqs"), folds=2, seed=9)
    out = tmp_path / "results.csv"
    run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, **kwargs)
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][column] = value
    with out.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    corrupted = out.read_bytes()
    with pytest.raises(ParseError):
        read_results(out)
    with pytest.raises(ParseError):
        run_benchmark(small_pool(), [("knn", FAST_KNN)], out=out, resume=True, **kwargs)
    assert out.read_bytes() == corrupted
