"""Brute-force k-nearest-neighbors scorer.

Distances are computed by explicit subtraction, O(n^2) overall, in bounded
blocks of query rows; at the desk scales this package targets (n <= 1000) an
index structure would not pay for itself. The k nearest are found by
selecting the k-th smallest distance, not by sorting; ties, at the k-th
distance too, go to the lower training index. SMOTE's neighbour search is
this same k-nearest selection (``datasets.distance_blocks``, ``k_nearest``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import Dataset, distance_blocks, feature_matrix, k_nearest


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
        minor = self.train_labels == 1
        out = np.empty(X.shape[0])
        for start, dist in distance_blocks(self.train_features, X):
            # a count of at most k ones is exact, so this equals the mean of the k labels
            out[start : start + len(dist)] = np.count_nonzero(k_nearest(dist, self.k) & minor, axis=1) / self.k
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
