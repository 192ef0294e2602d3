"""Precision-recall curves and the area metric Q_PRC.

The area is computed by step interpolation (average precision): scores are
sorted descending, tied scores form a single threshold step, and the area
is sum over steps of (R_i - R_{i-1}) * P_i with R_0 = 0. Linear
interpolation in PR space is deliberately avoided because it is
systematically optimistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import _frozen
from .errors import NoPositives


@dataclass(frozen=True)
class PRCurve:
    """One point per distinct score threshold that covers a positive.

    Thresholds descend, recall is non-decreasing and ends at 1, precision
    stays in (0, 1]. Leading thresholds with zero true positives are not
    represented; they carry no area and their precision would be 0.
    """

    thresholds: np.ndarray
    recalls: np.ndarray
    precisions: np.ndarray

    def __post_init__(self) -> None:
        for name in ("thresholds", "recalls", "precisions"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.float64))
        if not (len(self.thresholds) == len(self.recalls) == len(self.precisions)):
            raise ValueError("curve arrays must have equal length")
        if len(self.recalls) == 0 or self.recalls[-1] != 1.0:
            raise ValueError("curve must end at recall 1")

    def area(self) -> float:
        # fsum keeps the telescoping recall steps exact, so a perfect
        # ranking yields 1.0 and not 1.0 minus an ulp
        prev = np.concatenate([[0.0], self.recalls[:-1]])
        return math.fsum((self.recalls - prev) * self.precisions)


def _validated(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.ndim != 1 or s.shape != y.shape or len(s) == 0:
        raise ValueError(f"scores and labels must be equal-length nonempty vectors, got {s.shape} vs {y.shape}")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if y.sum() == 0:
        raise NoPositives("pr curve needs at least one positive label")
    return s, y


def pr_curve(scores, labels) -> PRCurve:
    """Precision-recall curve over the distinct score thresholds."""
    s, y = _validated(scores, labels)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    tp = np.cumsum(y)
    n_seen = np.arange(1, len(s) + 1)
    # last position of each tied-score block
    last = np.append(np.flatnonzero(np.diff(s) != 0), len(s) - 1)
    keep = last[tp[last] > 0]
    recalls = tp[keep] / tp[-1]
    precisions = tp[keep] / n_seen[keep]
    return PRCurve(thresholds=s[keep], recalls=recalls, precisions=precisions)


def pr_auc(scores, labels) -> float:
    """Area under the precision-recall curve, in [0, 1]."""
    return pr_curve(scores, labels).area()
