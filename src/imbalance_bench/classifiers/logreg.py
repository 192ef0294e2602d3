"""L1-regularized logistic regression via accelerated proximal gradient.

Objective: mean logistic loss + lam * ||w||_1, bias unpenalized. Features
are standardized to zero mean and unit variance before solving. A
feature constant in training gets its value as mean and scale 1 (as does
one whose variance underflows), so it is identically 0 after centering
and its weight stays 0 under any lam.

Solver: monotone FISTA (Beck & Teboulle 2009) with backtracking line search
on the smooth part. The bias starts at the training log-odds, the exact
minimizer while w = 0. Each iteration takes one proximal step from a point
extrapolated along the last move; its margins are extrapolated from the two
previous iterates' margins, so an iteration costs one gradient plus one
margin and loss evaluation per line-search trial. A step that would raise
the objective is rejected and the momentum restarts from the current point
(O'Donoghue & Candes 2015), so the recorded objective history is
non-increasing by construction.

The solve stops when the step's gradient mapping, ||x+ - v|| / step at the
extrapolated point v, and the KKT residual at the new point, the norm of
the objective's smallest subgradient there, are both at most tol. The
residual is 0 exactly at the minimum; fit_logreg reports whether the
returned point passes that test as LogRegScorer.converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..datasets import Dataset, feature_matrix

MAX_ITER = 5000
TOL = 1e-7


def _sigmoid_at(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The sigmoid of z given e = exp(-|z|)."""
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return _sigmoid_at(z, np.exp(-np.abs(z)))


def _mean(v: np.ndarray) -> float:
    """np.mean's pairwise sum and division, bitwise, without its Python wrapper."""
    return float(v.sum()) / len(v)


def _loss(z: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss at the margins z."""
    return _mean(np.logaddexp(0.0, z) - y * z)


def _loss_and_gradient(z: np.ndarray, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss and its gradient in (w, b) at the margins z, from one exp."""
    e = np.exp(-np.abs(z))
    loss = _mean(np.maximum(z, 0.0) + np.log1p(e) - y * z)
    residual = _sigmoid_at(z, e) - y
    return loss, X.T @ residual / len(y), _mean(residual)


def _objective(loss: float, w: np.ndarray, lam: float) -> float:
    return loss + lam * float(np.abs(w).sum())


def _kkt_residual(w: np.ndarray, z: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Norm of the objective's smallest subgradient at weights w and margins z."""
    _, grad_w, grad_b = _loss_and_gradient(z, X, y)
    r = np.where(w != 0.0, grad_w + lam * np.sign(w), np.sign(grad_w) * np.maximum(np.abs(grad_w) - lam, 0.0))
    return math.sqrt(float(r @ r) + grad_b * grad_b)


def logreg_objective_and_gradient(
    w: np.ndarray, b: float, lam: float, X: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Full objective and the gradient of its smooth part.

    X is expected to be already standardized. The gradient has d+1 entries,
    weights first then bias; the L1 term is not differentiated here because
    the solver handles it through the proximal step.
    """
    w = np.asarray(w, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    loss, grad_w, grad_b = _loss_and_gradient(X @ w + float(b), X, np.asarray(y))
    return _objective(loss, w, lam), np.append(grad_w, grad_b)


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

    history[i] is the objective after i iterations; it never increases, and
    an iteration whose step was rejected repeats the previous value. Stops
    once the gradient mapping and the KKT residual are both at most tol, or
    after max_iter iterations.
    """
    n, d = X.shape
    w = np.zeros(d)
    p = _mean(y)
    b = math.log(p / (1.0 - p)) if 0.0 < p < 1.0 else 0.0
    z = np.full(n, b)
    objective = _loss(z, y)
    history = [objective]
    w_prev, b_prev, z_prev = w, b, z
    t = 1.0
    step = 1.0
    for _ in range(max_iter):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_next
        w_v, b_v, z_v = w + beta * (w - w_prev), b + beta * (b - b_prev), z + beta * (z - z_prev)
        loss_v, grad_w, grad_b = _loss_and_gradient(z_v, X, y)
        while True:
            w_new = _soft_threshold(w_v - step * grad_w, step * lam)
            b_new = b_v - step * grad_b
            z_new = X @ w_new + b_new
            loss_new = _loss(z_new, y)
            dw = w_new - w_v
            db = b_new - b_v
            gap = float(dw @ dw + db * db)
            bound = loss_v + float(grad_w @ dw) + grad_b * db + gap / (2.0 * step)
            objective_new = _objective(loss_new, w_new, lam)
            # Without momentum the step is from the current point, so it has to descend.
            if loss_new <= bound + 1e-15 and (beta or objective_new <= objective):
                break
            step *= 0.5
            if step < 1e-18:
                return w, b, history
        w_prev, b_prev, z_prev = w, b, z
        if objective_new > objective:
            t = 1.0
            history.append(objective)
            continue
        w, b, z, objective, t = w_new, b_new, z_new, objective_new, t_next
        history.append(objective)
        if math.sqrt(gap) / step <= tol and _kkt_residual(w, z, X, y, lam) <= tol:
            break
    return w, b, history


@dataclass(frozen=True)
class LogRegScorer:
    """Fitted weights plus the standardization statistics of the train set.

    converged: whether the returned weights pass the solver's KKT test
    (residual at most tol); a solve cut off at max_iter or by step underflow
    short of the minimum reads False. iterations: the solve's len(history) - 1.
    """

    w: np.ndarray
    b: float
    mean: np.ndarray
    scale: np.ndarray
    params: dict
    converged: bool = False
    iterations: int = 0

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
    y = train.labels.astype(np.float64)
    w, b, history = solve_l1_logreg(X, y, lam, max_iter=max_iter, tol=tol)
    converged = _kkt_residual(w, X @ w + b, X, y, lam) <= tol
    return LogRegScorer(w, b, mean, scale, {"lam": lam}, converged=converged, iterations=len(history) - 1)
