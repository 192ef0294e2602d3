"""Command-line interface.

Subcommands: generate (synthetic dataset pools), resample (one dataset,
one method), evaluate (cross-validated quality of one configuration),
benchmark (full experiment matrix, resumable), curves (Dolan-More profiles
from a results CSV).

Reproducibility contract: every run is fully determined by its arguments;
a ``run.json`` config echo is written alongside every artifact (inside
output directories, next to output files as ``<name>.run.json``). Equal
configurations produce byte-identical artifacts. Diagnostics go to stderr.

Exit codes: 0 success; 1 usage error; 2 data error; 3 benchmark completed
but some cells failed with data errors.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .benchmark import (
    DEFAULT_CELLS,
    dolan_more,
    emit_curves,
    evaluate_strategy,
    parse_cell,
    read_results,
    run_benchmark,
)
from .classifiers import Family, ModelSpec
from .datasets import (
    GaussianPoolConfig,
    _write_csv,
    _write_json,
    generate_gaussian_pool,
    load_csv,
    load_pool,
    save_csv,
    write_pool,
)
from .errors import ConfigError, DataError, UsageError
from .evaluation import DEFAULT_MULTIPLIER_GRID
from .resampling import DEFAULT_SMOTE_K, Method, ResamplingSpec, resample

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exit code 2."""

    def error(self, message):
        raise UsageError(message)


def _range(cast, kind: str):
    """argparse type for a LO:HI pair of cast values; kind names them in the usage error."""

    def parse(text: str) -> tuple:
        try:
            lo, hi = text.split(":")
            return cast(lo), cast(hi)
        except ValueError:
            raise UsageError(f"expected LO:HI {kind} range, got {text!r}") from None

    return parse


def _count(option: str, least: int):
    """argparse type for an integer option; a value below least is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise UsageError(f"{option} must be at least {least}, got {value}")
        return value

    return parse


def _multiplier_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated reals, got {text!r}") from None
    if len(set(grid)) != len(grid):
        raise UsageError(f"a multiplier grid must not repeat a point, got {text!r}")
    return grid


def _name_list(text: str, option: str, what: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise UsageError(f"{option} must name at least one {what}")
    if len(set(names)) != len(names):
        raise UsageError(f"{option} names a {what} twice: {text!r}")
    return names


def build_parser() -> _Parser:
    parser = _Parser(prog="imbalance-bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    # the cross-validation protocol flags that evaluate and benchmark share
    protocol = _Parser(add_help=False)
    protocol.add_argument("--folds", type=_count("--folds", 2), default=10)
    protocol.add_argument("--seed", type=int, default=0)
    protocol.add_argument("--smote-k", type=_count("--smote-k", 1), default=DEFAULT_SMOTE_K)
    protocol.add_argument("--tuning-folds", type=_count("--tuning-folds", 2), default=3)
    protocol.add_argument("--cvs-mode", choices=["oracle", "nested"], default="oracle")

    p = sub.add_parser("generate", help="generate a synthetic Gaussian-mixture dataset pool")
    p.add_argument("--pool-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--d-range", type=_range(int, "integer"), default=GaussianPoolConfig.d_range, metavar="LO:HI")
    p.add_argument("--size-range", type=_range(int, "integer"), default=GaussianPoolConfig.size_range, metavar="LO:HI")
    p.add_argument(
        "--minor-fraction-range", type=_range(float, "real"), default=GaussianPoolConfig.minor_fraction_range, metavar="LO:HI"
    )
    p.add_argument("--components", type=_range(int, "integer"), default=GaussianPoolConfig.components_per_class, metavar="LO:HI")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("resample", help="resample one dataset CSV")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--method", choices=[m.value for m in Method], required=True)
    p.add_argument("--multiplier", type=float, default=None)
    p.add_argument("--k", "--smote-k", dest="smote_k", type=_count("--k", 1), default=DEFAULT_SMOTE_K)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--provenance-out", type=Path, default=None, help="sidecar CSV of added-element provenance")
    p.add_argument("--relabel", action="store_true", help="flip labels when class 1 is the majority")
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("evaluate", parents=[protocol], help="cross-validated PR-AUC of one configuration")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--model", choices=[f.value for f in Family], required=True)
    p.add_argument("--method", choices=[m.value for m in Method], default="none")
    p.add_argument("--strategy", default="fixed", help="fixed | fixed:<m> | eqs | cvs")
    p.add_argument("--multiplier", type=float, default=None)
    p.add_argument("--cvs-grid", type=_multiplier_grid, default=DEFAULT_MULTIPLIER_GRID, metavar="M1,M2,...")
    p.add_argument("--relabel", action="store_true")
    p.add_argument("--out", type=Path, required=True, help="output JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", parents=[protocol], help="run the full experiment matrix")
    p.add_argument("--pool", type=Path, required=True, help="pool manifest.json or directory of CSVs")
    p.add_argument("--models", default="tree,knn,logreg", help="comma-separated model families")
    p.add_argument("--cells", default=",".join(DEFAULT_CELLS), help="comma-separated cells")
    p.add_argument("--multiplier-grid", type=_multiplier_grid, default=DEFAULT_MULTIPLIER_GRID, metavar="M1,M2,...")
    p.add_argument("--jobs", type=_count("--jobs", 1), default=1)
    p.add_argument("--resume", action="store_true", help="reuse complete cells from an existing results CSV")
    p.add_argument("--out", type=Path, required=True, help="output results CSV")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("curves", help="Dolan-More curves from a results CSV")
    p.add_argument("--results", type=Path, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--cells", default=None, help="comma-separated subset of cells to compare")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_curves)

    return parser


def _echo_config(args: argparse.Namespace) -> dict:
    config = {}
    for key, value in vars(args).items():
        if key == "func":
            continue
        if isinstance(value, Path):
            value = str(value)
        config[key] = value
    return config


def _write_echo(artifact: Path, args: argparse.Namespace) -> None:
    payload = {"version": __version__, "config": _echo_config(args)}
    target = artifact / "run.json" if artifact.is_dir() else artifact.with_name(artifact.name + ".run.json")
    _write_json(target, payload)


def cmd_generate(args) -> int:
    try:
        cfg = GaussianPoolConfig(
            pool_size=args.pool_size,
            seed=args.seed,
            components_per_class=args.components,
            d_range=args.d_range,
            size_range=args.size_range,
            minor_fraction_range=args.minor_fraction_range,
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from None
    entries = generate_gaussian_pool(cfg)
    manifest = write_pool(entries, args.out, args.seed)
    _write_echo(args.out, args)
    log.info("wrote %d datasets and %s", len(entries), manifest)
    return 0


def _fixed_spec(method: Method, multiplier: float | None, smote_k: int) -> ResamplingSpec:
    if method is Method.NONE:
        if multiplier not in (None, 1.0):
            raise UsageError("method none takes no multiplier (or exactly 1)")
        return ResamplingSpec(Method.NONE)
    if multiplier is None:
        raise UsageError(f"method {method.value} requires --multiplier")
    if multiplier <= 1.0:
        raise UsageError(f"multiplier must exceed 1, got {multiplier}")
    return ResamplingSpec(method, multiplier, smote_k)


def cmd_resample(args) -> int:
    method = Method(args.method)
    spec = _fixed_spec(method, args.multiplier, args.smote_k)
    dataset = load_csv(args.input, relabel=args.relabel)
    result = resample(dataset, spec, args.seed)
    save_csv(result.dataset, args.out)
    if args.provenance_out is not None:
        rows = [(rec.synth_id, rec.seed_id, rec.neighbor_id, repr(rec.lam)) for rec in result.added]
        _write_csv(args.provenance_out, [("synth_id", "seed_id", "neighbor_id", "lambda"), *rows])
    _write_echo(args.out, args)
    log.info(
        "%s -> %s: %d added, %d removed, %d total rows",
        args.input, args.out, len(result.added), len(result.removed_ids), result.dataset.size,
    )
    return 0


def _report_payload(report) -> dict:
    return {
        "qcv": report.qcv,
        "fold_scores": list(report.fold_scores),
        "fold_multipliers": list(report.fold_multipliers),
        "fold_methods": list(report.fold_methods),
        "fold_params": list(report.fold_params),
        "fold_train_sizes": list(report.fold_train_sizes),
        "degraded": report.degraded,
    }


def cmd_evaluate(args) -> int:
    method = Method(args.method)
    strategy = args.strategy
    fixed_m = args.multiplier
    if strategy.startswith("fixed:"):
        try:
            suffix = float(strategy.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad fixed multiplier in --strategy {strategy!r}") from None
        if fixed_m is not None and fixed_m != suffix:
            raise UsageError("--multiplier disagrees with --strategy fixed:<m>")
        fixed_m = suffix
        strategy = "fixed"
    if strategy not in ("fixed", "eqs", "cvs"):
        raise UsageError(f"--strategy must be fixed[:<m>], eqs or cvs, got {args.strategy!r}")
    if strategy != "fixed" and method is Method.NONE:
        raise UsageError(f"strategy {strategy} requires a resampling method")
    if strategy != "fixed" and fixed_m is not None:
        raise UsageError(f"--multiplier is meaningless with strategy {strategy}")

    dataset = load_csv(args.input, relabel=args.relabel)
    model = ModelSpec(family=Family(args.model), tuning_folds=args.tuning_folds)
    multiplier = 1.0
    if strategy == "fixed":
        multiplier = _fixed_spec(method, fixed_m, args.smote_k).multiplier
    report, result = evaluate_strategy(
        dataset, model, method, strategy, multiplier, args.folds, args.seed,
        args.cvs_grid, args.smote_k, args.cvs_mode,
    )
    payload = _report_payload(report)
    if strategy == "fixed":
        payload["multiplier"] = multiplier
    if result is not None:
        payload["mode"] = result.mode
        payload["best_multiplier"] = result.best_multiplier
        payload["table"] = [[m, None if q != q else q] for m, q in result.table]
        payload["pruned"] = list(result.pruned)
    payload["model"] = args.model
    payload["method"] = method.value
    payload["strategy"] = strategy
    payload["folds"] = args.folds
    payload["seed"] = args.seed

    _write_json(args.out, payload)
    _write_echo(args.out, args)
    log.info("qcv = %.6f -> %s", payload["qcv"], args.out)
    return 0


def cmd_benchmark(args) -> int:
    models = []
    for name in _name_list(args.models, "--models", "model family"):
        try:
            family = Family(name)
        except ValueError:
            raise UsageError(f"unknown model family {name!r}") from None
        models.append((name, ModelSpec(family=family, tuning_folds=args.tuning_folds)))
    cells = tuple(_name_list(args.cells, "--cells", "cell"))
    try:
        for cell in cells:
            parse_cell(cell)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None

    pool = load_pool(args.pool)
    result = run_benchmark(
        pool, models, cells, folds=args.folds, seed=args.seed, out=args.out,
        resume=args.resume, jobs=args.jobs, grid=args.multiplier_grid,
        smote_k=args.smote_k, cvs_mode=args.cvs_mode,
    )
    _write_echo(args.out, args)
    log.info("%d cells, %d errors -> %s", result.n_cells, result.n_errors, args.out)
    return 3 if result.n_errors else 0


def cmd_curves(args) -> int:
    methods = None if args.cells is None else _name_list(args.cells, "--cells", "cell")
    matrices = read_results(args.results)
    if args.model not in matrices:
        raise ConfigError(f"model {args.model!r} not in {args.results} (has {sorted(matrices)})")
    result = dolan_more(matrices[args.model], methods=methods)
    emit_curves(result.curves, args.format, args.out)
    _write_echo(args.out, args)
    log.info(
        "%d curves over %d tasks (%d dropped) -> %s",
        len(result.curves), result.retained_rows, result.dropped_rows, args.out,
    )
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
