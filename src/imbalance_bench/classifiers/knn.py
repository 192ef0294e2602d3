"""Brute-force k-nearest-neighbors scorer.

Distances are computed by explicit subtraction, O(n^2) overall, in bounded
blocks of query rows; at the desk scales this package targets (n <= 1000) an
index structure would not pay for itself. The k nearest are found by
selecting the k-th smallest distance, not by sorting. Ties in distance, at
the k-th distance too, go to the lower training index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import Dataset, feature_matrix

# float64 elements of one block's query-minus-training differences (512 KiB)
_BLOCK_ELEMENTS = 65_536


@dataclass(frozen=True)
class KnnScorer:
    """Stored training set; score is the minor fraction among k nearest."""

    train_features: np.ndarray
    train_labels: np.ndarray
    k: int
    params: dict

    @property
    def n_features(self) -> int:
        return self.train_features.shape[1]

    def score(self, X) -> np.ndarray:
        X = feature_matrix(X, self.n_features)
        train, k = self.train_features, self.k
        minor = self.train_labels == 1
        out = np.empty(X.shape[0])
        rows = max(1, _BLOCK_ELEMENTS // train.size)
        for start in range(0, X.shape[0], rows):
            diff = train[None] - X[start : start + rows, None]
            # the inner reduction of einsum("ij,ij->i") on one row, so the bits do not depend on the block
            dist = np.einsum("bij,bij->bi", diff, diff)
            kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
            below = dist < kth
            tied = dist == kth
            # the lowest-index ties that fill the k nearest after those strictly below
            room = k - np.count_nonzero(below, axis=1)[:, None]
            nearest = below | (tied & (np.cumsum(tied, axis=1) <= room))
            # a count of at most k ones is exact, so this equals the mean of the k labels
            out[start : start + rows] = np.count_nonzero(nearest & minor, axis=1) / k
        return out


def fit_knn(train: Dataset, k: int) -> KnnScorer:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return KnnScorer(
        train_features=train.features,
        train_labels=train.labels,
        k=min(k, train.size),
        params={"k": k},
    )
