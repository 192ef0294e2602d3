"""L1-regularized logistic regression via proximal gradient descent.

Objective: mean logistic loss + lam * ||w||_1, bias unpenalized. Features
are standardized to zero mean and unit variance before solving. A
feature constant in training gets its value as mean and scale 1 (as does
one whose variance underflows), so it is identically 0 after centering
and its weight stays 0 under any lam.

Solver: ISTA with backtracking line search on the smooth part. Steps are
accepted only when the quadratic upper bound holds and the full objective
does not increase, so the recorded objective history is non-increasing by
construction. Margins and loss are computed once per line-search trial;
the accepted trial's values feed the next gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import Dataset, feature_matrix

MAX_ITER = 5000
TOL = 1e-8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)


def _mean(v: np.ndarray) -> float:
    """np.mean's pairwise sum and division, bitwise, without its Python wrapper."""
    return float(v.sum()) / len(v)


def _loss(z: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss at the margins z."""
    return _mean(np.logaddexp(0.0, z) - y * z)


def _gradient(z: np.ndarray, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient of the mean logistic loss in (w, b) at the margins z."""
    residual = _sigmoid(z) - y
    return X.T @ residual / len(y), _mean(residual)


def _smooth_loss_and_gradient(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss and its gradient in (w, b)."""
    z = X @ w + b
    return (_loss(z, y), *_gradient(z, X, y))


def _objective(loss: float, w: np.ndarray, lam: float) -> float:
    return loss + lam * float(np.abs(w).sum())


def logreg_objective_and_gradient(
    w: np.ndarray, b: float, lam: float, X: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Full objective and the gradient of its smooth part.

    X is expected to be already standardized. The gradient has d+1 entries,
    weights first then bias; the L1 term is not differentiated here because
    the solver handles it through the proximal step.
    """
    w = np.asarray(w, dtype=np.float64)
    loss, grad_w, grad_b = _smooth_loss_and_gradient(w, float(b), np.asarray(X, dtype=np.float64), np.asarray(y))
    objective = _objective(loss, w, lam)
    return objective, np.append(grad_w, grad_b)


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def solve_l1_logreg(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iter: int = MAX_ITER,
    tol: float = TOL,
) -> tuple[np.ndarray, float, list[float]]:
    """Minimize the L1 objective on standardized data; returns (w, b, history).

    history[i] is the objective after i accepted steps; it never increases.
    Stops when an accepted step improves the objective by less than tol.
    """
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    step = 1.0
    loss, grad_w, grad_b = _smooth_loss_and_gradient(w, b, X, y)
    objective = _objective(loss, w, lam)
    history = [objective]
    for _ in range(max_iter):
        while True:
            w_new = _soft_threshold(w - step * grad_w, step * lam)
            b_new = b - step * grad_b
            z = X @ w_new + b_new
            loss_new = _loss(z, y)
            dw = w_new - w
            db = b_new - b
            gap = float(dw @ dw + db * db)
            bound = loss + float(grad_w @ dw) + grad_b * db + gap / (2.0 * step)
            objective_new = _objective(loss_new, w_new, lam)
            if loss_new <= bound + 1e-15 and objective_new <= objective:
                break
            step *= 0.5
            if step < 1e-18:
                return w, b, history
        improvement = objective - objective_new
        w, b, loss, objective = w_new, b_new, loss_new, objective_new
        history.append(objective)
        if improvement < tol:
            break
        grad_w, grad_b = _gradient(z, X, y)
    return w, b, history


@dataclass(frozen=True)
class LogRegScorer:
    """Fitted weights plus the standardization statistics of the train set."""

    w: np.ndarray
    b: float
    mean: np.ndarray
    scale: np.ndarray
    params: dict

    @property
    def n_features(self) -> int:
        return len(self.w)

    def score(self, X) -> np.ndarray:
        X = feature_matrix(X, self.n_features)
        return _sigmoid((X - self.mean) / self.scale @ self.w + self.b)


def standardize_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    constant = (features == features[0]).all(axis=0)
    mean[constant] = features[0, constant]
    scale[constant | (scale == 0.0)] = 1.0
    return mean, scale


def fit_logreg(train: Dataset, lam: float, max_iter: int = MAX_ITER, tol: float = TOL) -> LogRegScorer:
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    mean, scale = standardize_stats(train.features)
    X = (train.features - mean) / scale
    w, b, _ = solve_l1_logreg(X, train.labels.astype(np.float64), lam, max_iter=max_iter, tol=tol)
    return LogRegScorer(w=w, b=b, mean=mean, scale=scale, params={"lam": lam})
