"""Dataset container, CSV interchange, fold splitting, and synthetic pools.

Conventions used throughout the package:

* labels are {0, 1}; label 1 is the minor (under-represented) class and is
  the prediction target;
* every element carries a provenance id, ``orig:<row>`` for points read or
  generated directly and ``synth:<counter>`` for points added by a
  resampler, so train/test leakage can be audited after the fact;
* datasets are immutable after construction and safe to share.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, EmptyClass, LabelError, MajorityMislabeled, ParseError, TooFewElements
from .rng import substream

log = logging.getLogger(__name__)

LABEL_COLUMN = "label"


@dataclass(frozen=True, init=False)
class Dataset:
    """Immutable feature matrix with binary labels and provenance ids, stored as int64 ``codes``.

    ``orig:<r>`` is coded r and ``synth:<c>`` -(c+1); an id that would not render back to itself is rejected.
    """

    features: np.ndarray
    labels: np.ndarray
    codes: np.ndarray

    def __init__(self, features, labels, ids: Sequence[str]) -> None:
        _checked(self, features, labels, [_encode(ident) for ident in ids])

    @property
    def ids(self) -> tuple[str, ...]:
        return _rendered(self.codes)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def class_counts(self) -> tuple[int, int]:
        """(major count, minor count)."""
        minor = int(self.labels.sum())
        return self.size - minor, minor

    def subset(self, indices: Sequence[int] | np.ndarray) -> Dataset:
        """The rows at indices, in that order; they must be distinct, and nothing else is checked again."""
        idx = np.asarray(indices, dtype=np.intp)
        if not (idx.ndim == 1 and idx.size and idx[0] >= 0 and (idx[1:] > idx[:-1]).all()):
            # negative indices are normalized first, so that -1 and size - 1 count as one row
            rows = np.sort(np.arange(self.size)[idx], axis=None)
            if idx.ndim != 1 or rows.size == 0 or (rows[1:] == rows[:-1]).any():
                raise ValueError("ids must be pairwise distinct, from a nonempty vector of indices")
        return _assigned(object.__new__(Dataset), self.features[idx], self.labels[idx], self.codes[idx])


def _encode(ident: str) -> int:
    kind, _, number = str(ident).partition(":")
    if kind not in ("orig", "synth") or not number.isdecimal() or str(int(number)) != number:
        raise ValueError(f"id {ident!r} is not orig:<row> or synth:<counter> in canonical form")
    return int(number) if kind == "orig" else -int(number) - 1


def _rendered(codes: np.ndarray) -> tuple[str, ...]:
    """The ids that an array of Dataset codes stands for."""
    return tuple(f"orig:{c}" if c >= 0 else f"synth:{-c - 1}" for c in codes.tolist())


def _assigned(dataset: Dataset, features: np.ndarray, labels: np.ndarray, codes: np.ndarray) -> Dataset:
    """dataset holding the three arrays, made read-only where they are, not copied."""
    for name, values in (("features", features), ("labels", labels), ("codes", codes)):
        values.setflags(write=False)
        object.__setattr__(dataset, name, values)
    return dataset


def _checked(dataset: Dataset, features, labels, codes) -> Dataset:
    """dataset holding read-only copies of the arrays, once every invariant of a Dataset holds."""
    features = _frozen(features, np.float64)
    labels = _frozen(labels, np.int64)
    if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
        raise ValueError(f"features must be a nonempty 2-D matrix, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features contain NaN or Inf")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels length does not match feature rows")
    if not ((labels == 0) | (labels == 1)).all():
        raise LabelError("labels must be 0 or 1")
    codes = np.array(codes, dtype=np.int64)
    if codes.shape != labels.shape:
        raise ValueError("ids length does not match feature rows")
    if (np.diff(np.sort(codes)) == 0).any():
        raise ValueError("ids must be pairwise distinct")
    return _assigned(dataset, features, labels, codes)


def from_rows(features: np.ndarray, labels: np.ndarray) -> Dataset:
    """Dataset with fresh ``orig:<row>`` ids."""
    return _checked(object.__new__(Dataset), features, labels, np.arange(np.asarray(features).shape[0]))


def feature_matrix(X, n_features: int) -> np.ndarray:
    """X as a float64 matrix of finite values with n_features columns; what every scorer accepts."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatch(f"expected n x {n_features} matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    return X


# float64 elements of one block's query-minus-reference differences (512 KiB)
_BLOCK_ELEMENTS = 65_536


def distance_blocks(reference: np.ndarray, queries: np.ndarray):
    """Yield (start, dist), dist[b, j] the squared distance from queries[start + b] to reference[j].

    Explicit subtraction, so equidistant points compare exactly equal; the inner reduction of
    einsum("ij,ij->i") on one row, so the bits do not depend on the _BLOCK_ELEMENTS budget.
    """
    rows = max(1, _BLOCK_ELEMENTS // reference.size)
    for start in range(0, queries.shape[0], rows):
        diff = reference[None] - queries[start : start + rows, None]
        yield start, np.einsum("bij,bij->bi", diff, diff)


def k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's k smallest entries; ties, at the k-th distance too, go to the lower column."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    below = dist < kth
    tied = dist == kth
    # the lowest-index ties that fill the k nearest after those strictly below
    room = k - np.count_nonzero(below, axis=1)[:, None]
    return below | (tied & (np.cumsum(tied, axis=1) <= room))


def imbalance_ratio(dataset: Dataset) -> float:
    """|C0| / |C1|; at least 1 under the minor-is-label-1 convention."""
    major, minor = dataset.class_counts()
    if minor == 0 or major == 0:
        raise EmptyClass(f"need both classes nonempty, got {major} major / {minor} minor")
    return major / minor


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of values as dtype, so that no caller's array is frozen or can change it."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@contextmanager
def _open_utf8(path: Path):
    """path opened as UTF-8 text for csv; a byte that does not decode is a ParseError."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def _write_csv(path: Path, rows: Iterable[Sequence], mode: str = "w") -> None:
    """Write (mode "w") or append (mode "a") rows to path as UTF-8 CSV, each line ended by LF alone."""
    with path.open(mode, newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    """Write payload to path as UTF-8 JSON, indented by 2, keys sorted, with a final newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_csv(path: str | Path, relabel: bool = False) -> Dataset:
    """Read a dataset from CSV (header row, float features, 0/1 label column).

    If class 1 turns out to be the majority, the labels are flipped when
    ``relabel`` is set (and logged); otherwise MajorityMislabeled is raised
    so the minor-is-label-1 convention can never be silently violated.
    """
    path = Path(path)
    with _open_utf8(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if LABEL_COLUMN not in header:
            raise ParseError(f"{path}: no '{LABEL_COLUMN}' column in header")
        label_pos = header.index(LABEL_COLUMN)
        feature_pos = [i for i in range(len(header)) if i != label_pos]
        if not feature_pos:
            raise ParseError(f"{path}: no feature columns")
        rows: list[list[float]] = []
        labels: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            raw_label = row[label_pos].strip()
            if raw_label not in ("0", "1"):
                raise LabelError(f"{path}:{lineno}: label must be 0 or 1, got {raw_label!r}")
            labels.append(int(raw_label))
            try:
                values = [float(row[i]) for i in feature_pos]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not all(np.isfinite(values)):
                raise ParseError(f"{path}:{lineno}: non-finite feature value")
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    ones = int(y.sum())
    zeros = len(y) - ones
    if ones == 0 or zeros == 0:
        raise EmptyClass(f"{path}: only one class present ({zeros} zeros, {ones} ones)")
    if ones > zeros:
        if not relabel:
            raise MajorityMislabeled(
                f"{path}: class 1 has {ones} elements vs {zeros}; pass relabel to flip"
            )
        log.warning("%s: class 1 is the majority (%d vs %d); labels flipped", path, ones, zeros)
        y = 1 - y
    return from_rows(features, y)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write ``f0,...,f{d-1},label`` rows; floats round-trip exactly."""
    header = [f"f{j}" for j in range(dataset.dim)] + [LABEL_COLUMN]
    rows = ([repr(float(v)) for v in row] + [str(int(label))] for row, label in zip(dataset.features, dataset.labels))
    _write_csv(Path(path), chain([header], rows))


# ---------------------------------------------------------------------------
# Stratified folds
# ---------------------------------------------------------------------------


def stratified_kfold(
    dataset: Dataset, k: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (train, test) index pairs; per-class test counts differ by at most 1.

    Test sets partition the index range. Deterministic for equal
    (dataset, k, seed).
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    rng = substream(seed, "stratified-kfold", k)
    per_fold: list[list[np.ndarray]] = [[] for _ in range(k)]
    for label in (0, 1):
        idx = dataset.class_indices(label)
        if len(idx) < k:
            raise TooFewElements(
                f"class {label} has {len(idx)} elements, fewer than {k} folds"
            )
        shuffled = rng.permutation(idx)
        for fold, chunk in enumerate(np.array_split(shuffled, k)):
            per_fold[fold].append(chunk)
    folds = []
    for parts in per_fold:
        test = np.sort(np.concatenate(parts))
        in_train = np.ones(dataset.size, dtype=bool)
        in_train[test] = False
        folds.append((np.flatnonzero(in_train), test))
    return folds


# ---------------------------------------------------------------------------
# Synthetic Gaussian-mixture pools
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPoolConfig:
    """Ranges for the artificial dataset pool. Bounds are inclusive.

    Each range field's default is also the widest range it admits.
    """

    pool_size: int
    seed: int
    components_per_class: tuple[int, int] = (1, 3)
    d_range: tuple[int, int] = (6, 40)
    size_range: tuple[int, int] = (200, 1000)
    minor_fraction_range: tuple[float, float] = (0.05, 0.35)

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ConfigError(f"pool_size must be positive, got {self.pool_size}")
        for f in fields(self):
            if not isinstance(f.default, tuple):
                continue
            lo, hi = getattr(self, f.name)
            if lo > hi:
                raise ConfigError(f"{f.name} is empty: {lo}..{hi}")
            if lo < f.default[0] or hi > f.default[1]:
                raise ConfigError(f"{f.name} must stay within {f.default}, got {lo}..{hi}")


def _sample_mixture(rng: np.random.Generator, n: int, d: int, max_components: int, min_components: int) -> np.ndarray:
    """Draw n points from a random Gaussian mixture in d dimensions.

    Per component: weight from a flat Dirichlet, mean i.i.d. N(0, 3^2) per
    coordinate, covariance A A^T + 0.5 I with A a d x d matrix of standard
    normals scaled by 1/sqrt(d). Fresh covariance per component.
    """
    n_comp = int(rng.integers(min_components, max_components + 1))
    weights = rng.dirichlet(np.ones(n_comp))
    means = rng.normal(0.0, 3.0, size=(n_comp, d))
    chols = []
    for _ in range(n_comp):
        a = rng.normal(0.0, 1.0, size=(d, d)) / np.sqrt(d)
        cov = a @ a.T + 0.5 * np.eye(d)
        chols.append(np.linalg.cholesky(cov))
    assignment = rng.choice(n_comp, size=n, p=weights)
    z = rng.normal(size=(n, d))
    out = np.empty((n, d))
    for c in range(n_comp):
        mask = assignment == c
        out[mask] = means[c] + z[mask] @ chols[c].T
    return out


@dataclass(frozen=True)
class PoolEntry:
    """Bookkeeping for one generated dataset (manifest row)."""

    index: int
    d: int
    size: int
    minor_fraction: float
    dataset: Dataset = field(repr=False)


def generate_gaussian_pool(cfg: GaussianPoolConfig) -> list[PoolEntry]:
    """Deterministic pool of imbalanced Gaussian-mixture datasets.

    d, total size and minor fraction are drawn uniformly from the
    configured ranges; the minor class gets round(size * fraction)
    elements. Each class is its own mixture.
    """
    entries = []
    min_c, max_c = cfg.components_per_class
    for i in range(cfg.pool_size):
        rng = substream(cfg.seed, "pool", i)
        d = int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
        size = int(rng.integers(cfg.size_range[0], cfg.size_range[1] + 1))
        fraction = float(rng.uniform(cfg.minor_fraction_range[0], cfg.minor_fraction_range[1]))
        n_minor = int(np.round(size * fraction))
        n_major = size - n_minor
        major = _sample_mixture(rng, n_major, d, max_c, min_c)
        minor = _sample_mixture(rng, n_minor, d, max_c, min_c)
        features = np.vstack([major, minor])
        labels = np.concatenate([np.zeros(n_major, dtype=np.int64), np.ones(n_minor, dtype=np.int64)])
        entries.append(
            PoolEntry(index=i, d=d, size=size, minor_fraction=fraction, dataset=from_rows(features, labels))
        )
    return entries


def write_pool(entries: Iterable[PoolEntry], out_dir: str | Path, seed: int) -> Path:
    """Write pool CSVs plus a JSON manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": seed, "datasets": []}
    for entry in entries:
        name = f"dataset_{entry.index:04d}.csv"
        save_csv(entry.dataset, out_dir / name)
        manifest["datasets"].append(
            {
                "file": name,
                "seed": seed,
                "index": entry.index,
                "d": entry.d,
                "size": entry.size,
                "minor_fraction": entry.minor_fraction,
            }
        )
    manifest_path = out_dir / "manifest.json"
    _write_json(manifest_path, manifest)
    return manifest_path


def load_pool(path: str | Path) -> list[tuple[str, Dataset]]:
    """Load (name, dataset) pairs from a manifest.json or a directory of CSVs."""
    path = Path(path)
    if path.is_dir() and (path / "manifest.json").exists():
        path = path / "manifest.json"
    pairs = []
    if path.is_dir():
        for csv_path in sorted(path.glob("*.csv")):
            pairs.append((csv_path.stem, load_csv(csv_path)))
    else:
        try:
            files = [Path(item["file"]) for item in json.loads(path.read_text(encoding="utf-8"))["datasets"]]
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON and bytes that are not UTF-8
            raise ParseError(f"{path}: not a manifest whose 'datasets' each name a 'file' ({exc!r})") from None
        for name in files:
            pairs.append((name.stem, load_csv(path.parent / name)))
    if not pairs:
        raise ParseError(f"{path}: no datasets found")
    return pairs
