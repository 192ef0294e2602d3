"""Resampling methods that reduce class imbalance by a chosen multiplier.

A resampler r with multiplier m transforms a dataset S so that
IR(r(S)) = IR(S) / m. Three methods are provided:

* ``ros``  -- random oversampling: duplicate minor-class elements;
* ``rus``  -- random undersampling: discard major-class elements;
* ``smote`` -- synthetic minority oversampling: interpolate between
  minor-class neighbours.

All fractional element counts are rounded half to even. Added elements get
fresh ``synth:<counter>`` ids and carry provenance records; removed
elements are reported by id. ROS copies are appended through the same path
as SMOTE's interpolations, recorded with lam 0. SMOTE's neighbour search is
the kNN scorer's k-nearest selection (explicit-subtraction distances in
bounded blocks, selection at the k-th distance, ties to the lower index)
with the seed excluded; a seed's k neighbours are ordered by distance, then
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .datasets import Dataset, _assigned, _rendered, distance_blocks, imbalance_ratio, k_nearest
from .errors import MinorityTooSmall, MultiplierOutOfRange
from .rng import substream, uniform_closed

DEFAULT_SMOTE_K = 5


class Method(str, Enum):
    NONE = "none"
    ROS = "ros"
    RUS = "rus"
    SMOTE = "smote"


@dataclass(frozen=True)
class ResamplingSpec:
    """Method plus multiplier; ``smote_k`` is ignored by the other methods."""

    method: Method
    multiplier: float = 1.0
    smote_k: int = DEFAULT_SMOTE_K

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method(self.method))
        m = float(self.multiplier)
        if self.method is Method.NONE:
            if m != 1.0:
                raise MultiplierOutOfRange(f"method none requires multiplier 1, got {m}")
        elif not m > 1.0:
            raise MultiplierOutOfRange(f"{self.method.value} requires multiplier > 1, got {m}")
        if self.smote_k < 1:
            raise ValueError(f"smote_k must be at least 1, got {self.smote_k}")


@dataclass(frozen=True)
class SmoteRecord:
    """Provenance of one added element.

    ROS copies are recorded as degenerate interpolations: neighbor equals
    seed and lam is 0.
    """

    synth_id: str
    seed_id: str
    neighbor_id: str
    lam: float


@dataclass(frozen=True)
class ResampleResult:
    """The resampled dataset, and its provenance as ``Dataset.codes`` that ``added`` and ``removed_ids`` render.

    Added row i is synth_codes[i], made from seed_codes[i] and neighbor_codes[i] with weight lams[i].
    """

    dataset: Dataset
    synth_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    seed_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    neighbor_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    lams: np.ndarray = field(default_factory=lambda: np.empty(0))
    removed_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def added(self) -> tuple[SmoteRecord, ...]:
        ids = (_rendered(codes) for codes in (self.synth_codes, self.seed_codes, self.neighbor_codes))
        return tuple(SmoteRecord(*record) for record in zip(*ids, self.lams.tolist()))

    @property
    def removed_ids(self) -> tuple[str, ...]:
        return _rendered(self.removed_codes)


def _round_half_even(x: float) -> int:
    return int(np.round(x))


def _check_multiplier(dataset: Dataset, m: float) -> None:
    ratio = imbalance_ratio(dataset)
    if not 1.0 < m <= ratio:
        raise MultiplierOutOfRange(
            f"multiplier must lie in (1, IR(S)] = (1, {ratio:.6g}], got {m}"
        )


def _append(dataset: Dataset, rows: np.ndarray, seeds: np.ndarray, neighbors: np.ndarray, lams: np.ndarray) -> ResampleResult:
    """The dataset with minor rows appended under fresh synth ids, each recorded as (seed, neighbour, lam)."""
    # synth:<c> is coded -(c+1), so fresh counters continue one above the highest, or from 0
    synth = min(int(dataset.codes.min()), 0) - 1 - np.arange(len(rows))
    features = np.vstack([dataset.features, rows])
    labels = np.concatenate([dataset.labels, np.ones(len(rows), dtype=np.int64)])
    # finite rows labelled 1 under fresh codes: the checks of a Dataset hold without running them again
    appended = _assigned(object.__new__(Dataset), features, labels, np.concatenate([dataset.codes, synth]))
    return ResampleResult(appended, synth, dataset.codes[seeds], dataset.codes[neighbors], lams)


def ros(dataset: Dataset, m: float, seed: int) -> ResampleResult:
    """Append round((m-1)|C1|) uniform-with-replacement copies of minor elements."""
    _check_multiplier(dataset, m)
    minor_idx = dataset.class_indices(1)
    n_new = _round_half_even((m - 1.0) * len(minor_idx))
    if n_new == 0:
        return ResampleResult(dataset=dataset)
    rng = substream(seed, "ros")
    picks = minor_idx[rng.integers(0, len(minor_idx), size=n_new)]
    return _append(dataset, dataset.features[picks], picks, picks, np.zeros(n_new))


def rus(dataset: Dataset, m: float, seed: int) -> ResampleResult:
    """Drop a uniform random subset of the major class of size round(|C0|(m-1)/m), at most |C0|-|C1| as m <= IR."""
    _check_multiplier(dataset, m)
    major_idx = dataset.class_indices(0)
    n_drop = _round_half_even(len(major_idx) * (m - 1.0) / m)
    if n_drop == 0:
        return ResampleResult(dataset=dataset)
    rng = substream(seed, "rus")
    dropped = rng.permutation(major_idx)[:n_drop]
    keep = np.ones(dataset.size, dtype=bool)
    keep[dropped] = False
    return ResampleResult(dataset=dataset.subset(np.flatnonzero(keep)), removed_codes=dataset.codes[~keep])


def _minor_neighbors(minor: np.ndarray, seeds: np.ndarray, k_eff: int) -> np.ndarray:
    """Row i: indices into minor of the k_eff nearest neighbours of minor[seeds[i]], itself excluded."""
    out = np.empty((len(seeds), k_eff), dtype=np.intp)
    for start, dist in distance_blocks(minor, minor[seeds]):
        dist[np.arange(len(dist)), seeds[start : start + len(dist)]] = np.inf
        # each row's k_eff selected indices, ascending, then stably sorted: by distance, then index
        chosen = np.nonzero(k_nearest(dist, k_eff))[1].reshape(-1, k_eff)
        order = np.argsort(np.take_along_axis(dist, chosen, axis=1), axis=1, kind="stable")
        out[start : start + len(dist)] = np.take_along_axis(chosen, order, axis=1)
    return out


def smote(dataset: Dataset, m: float, seed: int, k: int = DEFAULT_SMOTE_K) -> ResampleResult:
    """Append round((m-1)|C1|) synthetic minor elements by convex interpolation.

    Each synthetic draws a seed element uniformly from the minor class,
    then one of its min(k, |C1|-1) nearest minor neighbours uniformly, then
    lam uniform on the closed interval [0, 1], and emits
    (1-lam) seed + lam neighbour.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    _check_multiplier(dataset, m)
    minor_idx = dataset.class_indices(1)
    if len(minor_idx) < 2:
        raise MinorityTooSmall(f"smote needs at least 2 minor elements, got {len(minor_idx)}")
    n_new = _round_half_even((m - 1.0) * len(minor_idx))
    if n_new == 0:
        return ResampleResult(dataset=dataset)
    k_eff = min(k, len(minor_idx) - 1)
    minor = dataset.features[minor_idx]
    rng = substream(seed, "smote")
    seed_pos = rng.integers(0, len(minor_idx), size=n_new)
    neighbor_slot = rng.integers(0, k_eff, size=n_new)
    lams = uniform_closed(rng, size=n_new)
    distinct, which = np.unique(seed_pos, return_inverse=True)
    neighbor_pos = _minor_neighbors(minor, distinct, k_eff)[which, neighbor_slot]
    rows = (1.0 - lams)[:, None] * minor[seed_pos] + lams[:, None] * minor[neighbor_pos]
    return _append(dataset, rows, minor_idx[seed_pos], minor_idx[neighbor_pos], lams)


def resample(dataset: Dataset, spec: ResamplingSpec, seed: int) -> ResampleResult:
    """Apply the method named in spec; ``none`` returns the dataset untouched."""
    if spec.method is Method.NONE:
        return ResampleResult(dataset=dataset)
    if spec.method is Method.ROS:
        return ros(dataset, spec.multiplier, seed)
    if spec.method is Method.RUS:
        return rus(dataset, spec.multiplier, seed)
    return smote(dataset, spec.multiplier, seed, k=spec.smote_k)
