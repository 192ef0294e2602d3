"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from imbalance_bench import from_rows, load_csv, save_csv
from imbalance_bench.benchmark import CSV_HEADER
from imbalance_bench.cli import main


def write_dataset(path, n_major=24, n_minor=8, seed=0, gap=3.0):
    rng = np.random.default_rng(seed)
    features = np.vstack(
        [rng.normal(0.0, 1.0, size=(n_major, 2)), rng.normal(gap, 1.0, size=(n_minor, 2))]
    )
    ds = from_rows(features, np.array([0] * n_major + [1] * n_minor))
    save_csv(ds, path)
    return ds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "benchmark")
    assert code == 1
    assert "--pool" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--pool-size", "1", "--out", "x", "--bogus")
    assert code == 1
    assert "usage error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_multiplier_below_one_is_usage_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code, _, err = run(
        capsys, "resample", "--in", str(data), "--method", "ros",
        "--multiplier", "0.5", "--out", str(tmp_path / "o.csv"),
    )
    assert code == 1
    assert "exceed 1" in err


def test_bad_fixed_strategy_suffix_is_usage_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code, _, _ = run(
        capsys, "evaluate", "--in", str(data), "--model", "knn", "--method", "ros",
        "--strategy", "fixed:0.5", "--out", str(tmp_path / "r.json"),
    )
    assert code == 1


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "resample", "--in", str(tmp_path / "absent.csv"), "--method", "ros",
        "--multiplier", "2", "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2
    assert "data error" in err


def test_multiplier_above_ir_is_data_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, 10, 10)
    code, _, err = run(
        capsys, "resample", "--in", str(data), "--method", "ros",
        "--multiplier", "2", "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2
    assert "data error" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "imbalance-bench" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_pool_and_echo(tmp_path, capsys):
    out = tmp_path / "pool"
    code, _, _ = run(
        capsys, "generate", "--pool-size", "3", "--seed", "11", "--out", str(out),
        "--d-range", "6:7", "--size-range", "200:220", "--minor-fraction-range", "0.2:0.3",
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["datasets"]) == 3
    for entry in manifest["datasets"]:
        ds = load_csv(out / entry["file"])
        assert ds.size == entry["size"]
        assert ds.dim == entry["d"]
        assert 6 <= ds.dim <= 7
        assert 200 <= ds.size <= 220
    echo = json.loads((out / "run.json").read_text())
    assert echo["config"]["seed"] == 11
    assert echo["config"]["pool_size"] == 3
    assert "version" in echo
    assert not any("time" in k for k in echo)


def test_generate_deterministic(tmp_path, capsys):
    args = ("generate", "--pool-size", "2", "--seed", "5", "--d-range", "6:6",
            "--size-range", "200:200", "--minor-fraction-range", "0.25:0.25")
    code_a, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    code_b, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code_a == code_b == 0
    for name in ("dataset_0000.csv", "dataset_0001.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generate_bad_range_is_usage_error(tmp_path, capsys):
    for flag, text, message in (
        ("--d-range", "50:60", "d_range must stay within (6, 40), got 50..60"),
        ("--d-range", "6-40", "expected LO:HI integer range, got '6-40'"),
        ("--minor-fraction-range", "0.1:x", "expected LO:HI real range, got '0.1:x'"),
    ):
        code, _, err = run(capsys, "generate", "--pool-size", "1", "--out", str(tmp_path / "p"), flag, text)
        assert code == 1
        assert f"usage error: {message}" in err
    assert not (tmp_path / "p").exists()


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------


def test_resample_roundtrip_with_provenance(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, 24, 8)
    out = tmp_path / "resampled.csv"
    prov = tmp_path / "prov.csv"
    code, _, _ = run(
        capsys, "resample", "--in", str(data), "--method", "smote", "--multiplier", "2",
        "--k", "3", "--seed", "1", "--out", str(out), "--provenance-out", str(prov),
    )
    assert code == 0
    resampled = load_csv(out)
    assert resampled.class_counts() == (24, 16)
    lines = prov.read_text().splitlines()
    assert lines[0] == "synth_id,seed_id,neighbor_id,lambda"
    assert len(lines) == 1 + 8
    echo = json.loads((tmp_path / "resampled.csv.run.json").read_text())
    assert echo["config"]["multiplier"] == 2.0
    assert echo["config"]["smote_k"] == 3


def test_resample_deterministic(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, 24, 8)
    args = ("resample", "--in", str(data), "--method", "ros", "--multiplier", "1.5", "--seed", "3")
    run(capsys, *args, "--out", str(tmp_path / "a.csv"))
    run(capsys, *args, "--out", str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_fixed_strategy_forms_agree(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data)
    common = ("evaluate", "--in", str(data), "--model", "knn", "--method", "ros",
              "--folds", "2", "--seed", "2")
    run(capsys, *common, "--multiplier", "2", "--out", str(tmp_path / "a.json"))
    run(capsys, *common, "--strategy", "fixed:2", "--out", str(tmp_path / "b.json"))
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert a == b
    assert a["strategy"] == "fixed"
    assert a["multiplier"] == 2.0
    assert a["folds"] == 2
    assert len(a["fold_scores"]) == 2
    assert 0.0 <= a["qcv"] <= 1.0


def test_evaluate_defaults_to_method_none_fixed(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data)
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "evaluate", "--in", str(data), "--model", "knn", "--folds", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert (payload["method"], payload["strategy"], payload["multiplier"]) == ("none", "fixed", 1.0)
    assert payload["fold_methods"] == ["none", "none"]


def test_evaluate_conflicting_multiplier_forms(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code, _, _ = run(
        capsys, "evaluate", "--in", str(data), "--model", "knn", "--method", "ros",
        "--strategy", "fixed:2", "--multiplier", "3", "--out", str(tmp_path / "r.json"),
    )
    assert code == 1


def test_evaluate_eqs_payload(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, 24, 8)
    out = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "evaluate", "--in", str(data), "--model", "knn", "--method", "ros",
        "--strategy", "eqs", "--folds", "2", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["strategy"] == "eqs"
    assert payload["fold_multipliers"] == [3.0, 3.0]  # train folds are 12/4


def test_evaluate_eqs_rejects_explicit_multiplier(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code, _, _ = run(
        capsys, "evaluate", "--in", str(data), "--model", "knn", "--method", "ros",
        "--strategy", "eqs", "--multiplier", "2", "--out", str(tmp_path / "r.json"),
    )
    assert code == 1


def test_evaluate_cvs_payload(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, 24, 8)
    out = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "evaluate", "--in", str(data), "--model", "knn", "--method", "ros",
        "--strategy", "cvs", "--cvs-grid", "1.5,2,3", "--folds", "2", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["strategy"] == "cvs"
    assert payload["mode"] == "oracle"
    # 1.5 scores 1.0 on both folds, so 2 and 3 stop after their first fold
    assert payload["table"] == [[1.5, 1.0]]
    assert payload["pruned"] == [2.0, 3.0]
    assert payload["best_multiplier"] == 1.5


def test_evaluate_strategy_none_with_method_is_usage_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code, _, _ = run(
        capsys, "evaluate", "--in", str(data), "--model", "knn",
        "--strategy", "cvs", "--out", str(tmp_path / "r.json"),
    )
    assert code == 1  # cvs needs an actual resampling method


def test_resample_k_below_one_is_usage_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code, _, err = run(
        capsys, "resample", "--in", str(data), "--method", "smote",
        "--multiplier", "2", "--k", "0", "--out", str(tmp_path / "o.csv"),
    )
    assert code == 1
    assert "usage error: --k must be at least 1, got 0" in err
    assert "Traceback" not in err


BAD_COUNTS = {
    "tuning-folds": (("--tuning-folds", "1"), "--tuning-folds must be at least 2, got 1"),
    "smote-k": (("--smote-k", "0"), "--smote-k must be at least 1, got 0"),
    "folds": (("--folds", "1"), "--folds must be at least 2, got 1"),
    "folds-not-int": (("--folds", "x"), "argument --folds: invalid int value: 'x'"),
}

# evaluate's own usage errors; each flag overrides the test's --method smote --strategy eqs
BAD_EVALUATE_FLAGS = {
    "ros-without-multiplier": (("--method", "ros", "--strategy", "fixed"), "method ros requires --multiplier"),
    "none-with-multiplier": (
        ("--method", "none", "--strategy", "fixed", "--multiplier", "2"),
        "method none takes no multiplier (or exactly 1)",
    ),
    "fixed-not-a-number": (("--strategy", "fixed:x"), "bad fixed multiplier in --strategy 'fixed:x'"),
    "unknown-strategy": (("--strategy", "bogus"), "--strategy must be fixed[:<m>], eqs or cvs, got 'bogus'"),
    "malformed-grid": (("--strategy", "cvs", "--cvs-grid", "2,x"), "expected comma-separated reals, got '2,x'"),
}


@pytest.mark.parametrize("flag, message", {**BAD_COUNTS, **BAD_EVALUATE_FLAGS}.values(),
                         ids={**BAD_COUNTS, **BAD_EVALUATE_FLAGS}.keys())
def test_evaluate_bad_counts_are_usage_errors(tmp_path, capsys, flag, message):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code, _, err = run(
        capsys, "evaluate", "--in", str(data), "--model", "knn", "--method", "smote",
        "--strategy", "eqs", "--folds", "2", *flag, "--out", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert f"usage error: {message}" in err
    assert "Traceback" not in err


BAD_CELL_LISTS = {
    "empty": (",", "--cells must name at least one cell"),
    "repeated": ("none,none", "--cells names a cell twice: 'none,none'"),
}
# curves compares the cells a results file has, so an unknown cell is a data error there
BAD_BENCHMARK_CELLS = {
    **BAD_CELL_LISTS,
    "unknown": ("bogus", "cell must be 'none' or '<method>+<eqs|cvs>', got 'bogus'"),
}


@pytest.mark.parametrize("cells, message", BAD_BENCHMARK_CELLS.values(), ids=BAD_BENCHMARK_CELLS.keys())
def test_benchmark_bad_cell_lists_are_usage_errors(tmp_path, capsys, cells, message):
    pool = make_pool_dir(tmp_path, capsys)
    code, _, err = run(
        capsys, "benchmark", "--pool", str(pool), "--models", "knn",
        "--cells", cells, "--folds", "2", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert f"usage error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("cells, message", BAD_CELL_LISTS.values(), ids=BAD_CELL_LISTS.keys())
def test_curves_bad_cell_lists_are_usage_errors(tmp_path, capsys, cells, message):
    pool = make_pool_dir(tmp_path, capsys)
    results = tmp_path / "results.csv"
    args = ("--models", "knn", "--cells", "none,ros+eqs", "--folds", "2", "--out", str(results))
    assert run(capsys, "benchmark", "--pool", str(pool), *args)[0] == 0
    code, _, err = run(
        capsys, "curves", "--results", str(results), "--model", "knn",
        "--cells", cells, "--out", str(tmp_path / "c.csv"),
    )
    assert code == 1
    assert f"usage error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c.csv").exists()


def test_benchmark_repeated_model_is_usage_error(tmp_path, capsys):
    pool = make_pool_dir(tmp_path, capsys)
    code, _, err = run(
        capsys, "benchmark", "--pool", str(pool), "--models", "knn,knn",
        "--cells", "none", "--folds", "2", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert "usage error: --models names a model family twice: 'knn,knn'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("subcommand", ["evaluate", "benchmark"])
def test_repeated_multiplier_grid_point_is_usage_error(tmp_path, capsys, subcommand):
    data_dir = tmp_path / "pool"
    data_dir.mkdir()
    write_dataset(data_dir / "dataset_0000.csv")
    if subcommand == "evaluate":
        args = ("evaluate", "--in", str(data_dir / "dataset_0000.csv"), "--model", "knn",
                "--method", "ros", "--strategy", "cvs", "--cvs-grid", "2,2,1.5")
    else:
        args = ("benchmark", "--pool", str(data_dir), "--models", "knn",
                "--cells", "ros+cvs", "--multiplier-grid", "2,2,1.5")
    out = tmp_path / "r.out"
    code, _, err = run(capsys, *args, "--folds", "2", "--out", str(out))
    assert code == 1
    assert "usage error: a multiplier grid must not repeat a point, got '2,2,1.5'" in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed input files
# ---------------------------------------------------------------------------

RESULTS_HEADER = ",".join(CSV_HEADER).encode() + b"\n"
NOT_MANIFEST = "not a manifest whose 'datasets' each name a 'file' "
NOT_UTF8 = "not UTF-8 text ('utf-8' codec can't decode byte 0xff"
MALFORMED = [
    ("manifest.json", b'{"datasets": [', NOT_MANIFEST + "(JSONDecodeError"),
    ("manifest.json", b'["dataset_0000.csv"]', NOT_MANIFEST + "(TypeError"),
    ("manifest.json", b'{"seed": 1}', NOT_MANIFEST + "(KeyError('datasets')"),
    ("manifest.json", b'{"datasets": [{"seed": 1}]}', NOT_MANIFEST + "(KeyError('file')"),
    ("manifest.json", b'{"datasets": ["\xff"]}', NOT_MANIFEST + "(UnicodeDecodeError"),
    ("d.csv", b"f0,label\n0.5,0\n\xff,1\n", NOT_UTF8),
    ("results.csv", RESULTS_HEADER + b"d,knn,none,none,1.0,0,\xff\n", NOT_UTF8),
    ("results.csv", RESULTS_HEADER, "no result rows"),
]


@pytest.mark.parametrize(
    "name, content, message", MALFORMED,
    ids=["manifest-not-json", "manifest-list", "manifest-no-datasets", "manifest-entry-no-file",
         "manifest-not-utf8", "dataset-not-utf8", "results-not-utf8", "results-header-only"],
)
def test_malformed_input_files_are_data_errors(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    out = str(tmp_path / "out.csv")
    if name == "manifest.json":
        argv = ("benchmark", "--pool", str(path), "--models", "knn", "--cells", "none", "--folds", "2", "--out", out)
    elif name == "d.csv":
        argv = ("resample", "--in", str(path), "--method", "ros", "--multiplier", "2", "--out", out)
    else:
        argv = ("curves", "--results", str(path), "--model", "knn", "--out", out)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"data error: {path}: {message}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# benchmark and curves
# ---------------------------------------------------------------------------


def make_pool_dir(tmp_path, capsys):
    pool = tmp_path / "pool"
    code, _, _ = run(
        capsys, "generate", "--pool-size", "2", "--seed", "4", "--out", str(pool),
        "--d-range", "6:6", "--size-range", "200:210", "--minor-fraction-range", "0.2:0.25",
    )
    assert code == 0
    return pool


def test_benchmark_and_curves_pipeline(tmp_path, capsys):
    pool = make_pool_dir(tmp_path, capsys)
    results = tmp_path / "results.csv"
    code, _, _ = run(
        capsys, "benchmark", "--pool", str(pool), "--models", "knn",
        "--cells", "none,ros+eqs", "--folds", "2", "--out", str(results),
    )
    assert code == 0
    lines = results.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2
    echo = json.loads((tmp_path / "results.csv.run.json").read_text())
    assert echo["config"]["models"] == "knn"

    curves = tmp_path / "curves.csv"
    code, _, _ = run(
        capsys, "curves", "--results", str(results), "--model", "knn", "--out", str(curves),
    )
    assert code == 0
    lines = curves.read_text().splitlines()
    assert lines[0] == "beta,method,p"
    assert len(lines) == 1 + 2 * 200

    svg = tmp_path / "curves.svg"
    code, _, _ = run(
        capsys, "curves", "--results", str(results), "--model", "knn",
        "--format", "svg", "--out", str(svg),
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_benchmark_cell_error_exit_code(tmp_path, capsys):
    data_dir = tmp_path / "pool"
    data_dir.mkdir()
    write_dataset(data_dir / "dataset_0000.csv", 11, 10)  # IR 1.1 starves the cvs grid
    results = tmp_path / "results.csv"
    code, _, _ = run(
        capsys, "benchmark", "--pool", str(data_dir), "--models", "knn",
        "--cells", "ros+eqs,ros+cvs", "--folds", "2", "--out", str(results),
    )
    assert code == 3
    assert "error:EmptyGrid" in results.read_text()


def test_benchmark_rerun_byte_identical(tmp_path, capsys):
    pool = make_pool_dir(tmp_path, capsys)
    args = ("benchmark", "--pool", str(pool), "--models", "knn",
            "--cells", "none,ros+eqs", "--folds", "2", "--seed", "8")
    run(capsys, *args, "--out", str(tmp_path / "a.csv"))
    run(capsys, *args, "--out", str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_benchmark_unknown_model_is_usage_error(tmp_path, capsys):
    pool = make_pool_dir(tmp_path, capsys)
    code, _, _ = run(
        capsys, "benchmark", "--pool", str(pool), "--models", "svm",
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1


BAD_BENCHMARK_COUNTS = {**BAD_COUNTS, "jobs": (("--jobs", "0"), "--jobs must be at least 1, got 0")}


@pytest.mark.parametrize("flag, message", BAD_BENCHMARK_COUNTS.values(), ids=BAD_BENCHMARK_COUNTS.keys())
def test_benchmark_bad_counts_are_usage_errors(tmp_path, capsys, flag, message):
    pool = make_pool_dir(tmp_path, capsys)
    code, _, err = run(
        capsys, "benchmark", "--pool", str(pool), "--models", "knn",
        "--cells", "none,smote+eqs", "--folds", "2", *flag, "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert f"usage error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def test_curves_missing_model_is_data_error(tmp_path, capsys):
    pool = make_pool_dir(tmp_path, capsys)
    results = tmp_path / "results.csv"
    run(
        capsys, "benchmark", "--pool", str(pool), "--models", "knn",
        "--cells", "none,ros+eqs", "--folds", "2", "--out", str(results),
    )
    code, _, err = run(
        capsys, "curves", "--results", str(results), "--model", "tree",
        "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert "data error" in err


def with_q_prc(lines, value):
    fields = lines[1].split(",")
    fields[6] = value
    return [lines[0], ",".join(fields), *lines[2:]]


# edits of a results file of 4 two-fold cell groups that --resume rejects, and its message
OUT_OF_RANGE = "multiplier, q_prc or chosen_hyperparams out of range in row"
BAD_RESULTS = {
    "q_prc-abc": (lambda lines: with_q_prc(lines, "abc"), OUT_OF_RANGE),
    "q_prc-1.5": (lambda lines: with_q_prc(lines, "1.5"), OUT_OF_RANGE),
    "extra-group": (lambda lines: lines + lines[1:3], "has 5 cell groups, expected at most 4"),
    "group-cut-mid-file": (
        lambda lines: lines[:1] + lines[2:],  # fold 0 of the first group lost
        "incomplete cell group ('dataset_0000', 'knn', 'none', 'none') in the middle of the file",
    ),
    "group-lost-last-fold": (
        lambda lines: lines[:2] + lines[3:],  # fold 1 of the first group lost, so folds 0..0 look complete
        "incomplete cell group ('dataset_0000', 'knn', 'none', 'none') in the middle of the file",
    ),
}


@pytest.mark.parametrize("edit, message", BAD_RESULTS.values(), ids=BAD_RESULTS.keys())
def test_bad_results_are_data_errors_on_resume_and_curves(tmp_path, capsys, edit, message):
    pool = make_pool_dir(tmp_path, capsys)
    results = tmp_path / "results.csv"
    args = ("benchmark", "--pool", str(pool), "--models", "knn",
            "--cells", "none,ros+eqs", "--folds", "2", "--out", str(results))
    assert run(capsys, *args)[0] == 0
    results.write_text("".join(edit(results.read_text().splitlines(keepends=True))))
    corrupted = results.read_bytes()

    code, _, err = run(capsys, *args, "--resume")
    assert code == 2
    assert f"data error: {results}: {message}" in err
    assert results.read_bytes() == corrupted
    code, _, err = run(
        capsys, "curves", "--results", str(results), "--model", "knn", "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert "data error" in err


def test_curves_drop_a_dataset_that_lacks_a_cell(tmp_path, capsys):
    pool = make_pool_dir(tmp_path, capsys)
    results = tmp_path / "results.csv"
    assert run(
        capsys, "benchmark", "--pool", str(pool), "--models", "knn",
        "--cells", "none,ros+eqs", "--folds", "2", "--out", str(results),
    )[0] == 0
    lines = results.read_text().splitlines(keepends=True)
    lacking, without = tmp_path / "lacking.csv", tmp_path / "without.csv"
    lacking.write_text("".join(lines[:7]))  # dataset_0001 lacks its ros+eqs cell
    without.write_text("".join(lines[:5]))  # dataset_0001 has no cell at all
    for path in (lacking, without):
        code, _, _ = run(
            capsys, "curves", "--results", str(path), "--model", "knn", "--out", str(path.with_suffix(".curves.csv")),
        )
        assert code == 0
    assert (tmp_path / "lacking.curves.csv").read_bytes() == (tmp_path / "without.curves.csv").read_bytes()
