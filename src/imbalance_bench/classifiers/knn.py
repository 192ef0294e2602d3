"""Brute-force k-nearest-neighbors scorer.

Distances are computed by explicit subtraction per query, O(n^2) overall;
at the desk scales this package targets (n <= 1000) an index structure
would not pay for itself. Ties in distance go to the lower training index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import Dataset, feature_matrix


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
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            diff = self.train_features - row
            dist = np.einsum("ij,ij->i", diff, diff)
            nearest = np.argsort(dist, kind="stable")[: self.k]
            out[i] = self.train_labels[nearest].mean()
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
