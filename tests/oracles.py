"""Slow-path oracles: the plain algorithms that fast paths must match bitwise."""

from __future__ import annotations

from fractions import Fraction

from imbalance_bench import fit_with_params, pr_auc
from imbalance_bench.classifiers import _simplicity_key


def full_search(spec, pairs):
    """select_hyperparams without its early exit or shared fits: every candidate, simplest first, one fit each."""
    table = []
    best_params, best_q = None, -1.0
    for params in sorted(spec.grid, key=lambda p: _simplicity_key(spec.family, p)):
        total = 0.0
        for train, val in pairs:
            total += pr_auc(fit_with_params(spec.family, params, train).score(val.features), val.labels)
        mean_q = total / len(pairs)
        table.append((dict(params), mean_q))
        if mean_q > best_q:
            best_params, best_q = dict(params), mean_q
    return best_params, tuple(table)


def fraction_cost(n_left, k_left, n_right, k_right):
    """n_L * gini_L + n_R * gini_R as a Fraction."""
    return Fraction(n_left * n_left - k_left * k_left - (n_left - k_left) ** 2, n_left) + Fraction(
        n_right * n_right - k_right * k_right - (n_right - k_right) ** 2, n_right
    )


def brute_force_best_split(X, y, min_leaf):
    """Exhaustive exact-Gini split search with the declared tie order."""
    n, d = X.shape
    best = None
    for j in range(d):
        values = sorted(set(X[:, j]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            left = X[:, j] <= t
            nl, nr = int(left.sum()), int((~left).sum())
            if nl < min_leaf or nr < min_leaf:
                continue
            kl, kr = int(y[left].sum()), int(y[~left].sum())
            key = (fraction_cost(nl, kl, nr, kr), j, t)
            if best is None or key < best:
                best = key
    return None if best is None else (best[1], best[2])
