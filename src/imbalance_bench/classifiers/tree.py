"""CART-style decision tree with Gini splits and Laplace-smoothed leaves."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datasets import Dataset, feature_matrix


@dataclass(frozen=True)
class TreeNode:
    """Internal node when ``feature`` is set, leaf otherwise."""

    score: float
    n: int
    feature: int | None = None
    threshold: float | None = None
    left: TreeNode | None = None
    right: TreeNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _leaf(labels: np.ndarray) -> TreeNode:
    # Laplace smoothing keeps leaf scores off 0 and 1 so PR thresholds rank.
    minor = int(labels.sum())
    return TreeNode(score=(minor + 1) / (len(labels) + 2), n=len(labels))


def _exact_cost(n_left: int, k_left: int, n_right: int, k_right: int) -> tuple[int, int]:
    """n_L * gini_L + n_R * gini_R as an exact (numerator, positive denominator).

    n * gini = 2k(n-k) / n for a block of n elements with k minors; exact
    arithmetic makes the declared tie-break order (lower feature, then lower
    threshold) independent of float rounding.
    """
    left = 2 * k_left * (n_left - k_left)
    right = 2 * k_right * (n_right - k_right)
    return left * n_right + right * n_left, n_left * n_right


def _precedes(a: tuple[int, int, int, float], b: tuple[int, int, int, float]) -> bool:
    """Whether split a comes before split b; each is (cost numerator, denominator, feature, threshold).

    Lower exact cost first, compared by cross-multiplication, then lower
    feature, then lower threshold.
    """
    return (a[0] * b[1], a[2], a[3]) < (b[0] * a[1], b[2], b[3])


def _best_split(columns: np.ndarray, y: np.ndarray, orders: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    """Lowest-weighted-Gini split of the node whose rows orders[j] lists by feature j, or None when no split is valid.

    columns is the training matrix transposed. Candidate thresholds are midpoints between consecutive distinct
    sorted values of each feature. A float pass locates the near-minimal candidates; exact integer comparison
    then settles ties toward the lower feature index and lower threshold.
    """
    d, n = orders.shape
    # orders[j, i] + j * (rows of columns) is the flat position of that value in columns
    sorted_x = columns.ravel()[orders + np.arange(0, columns.size, columns.shape[1])[:, None]]
    cum_minor = np.cumsum(y[orders], axis=1)
    total_minor = int(cum_minor[0, -1])

    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    k_left = cum_minor[:, :-1].astype(np.float64)
    k_right = total_minor - k_left
    valid = (sorted_x[:, 1:] != sorted_x[:, :-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    cost = (
        n_left
        - (k_left**2 + (n_left - k_left) ** 2) / n_left
        + n_right
        - (k_right**2 + (n_right - k_right) ** 2) / n_right
    )
    cost[~valid] = np.inf
    lowest = cost.min()
    near = np.nonzero(cost <= lowest + 1e-9 * max(1.0, abs(lowest)))

    best: tuple[int, int, int, float] | None = None
    for j, pos in zip(*near):
        size = int(pos) + 1
        k_left = int(cum_minor[j, pos])
        threshold = (float(sorted_x[j, pos]) + float(sorted_x[j, pos + 1])) / 2.0
        key = (*_exact_cost(size, k_left, n - size, total_minor - k_left), int(j), threshold)
        if best is None or _precedes(key, best):
            best = key
    assert best is not None
    return best[2], best[3]


def _build(columns: np.ndarray, y: np.ndarray, orders: np.ndarray, depth: int, max_depth: int, min_leaf: int) -> TreeNode:
    """The subtree of the rows in orders; a child's orders are its parent's, filtered, so still sorted."""
    labels = y[orders[0]]
    minor = int(labels.sum())
    if minor == 0 or minor == len(labels) or depth >= max_depth or len(labels) < 2 * min_leaf:
        return _leaf(labels)
    split = _best_split(columns, y, orders, min_leaf)
    if split is None:
        return _leaf(labels)
    feature, threshold = split
    go_left = (columns[feature] <= threshold)[orders]
    left, right = orders[go_left].reshape(len(orders), -1), orders[~go_left].reshape(len(orders), -1)
    if left.size == 0 or right.size == 0:
        return _leaf(labels)
    return TreeNode(
        score=(minor + 1) / (len(labels) + 2),
        n=len(labels),
        feature=feature,
        threshold=threshold,
        left=_build(columns, y, left, depth + 1, max_depth, min_leaf),
        right=_build(columns, y, right, depth + 1, max_depth, min_leaf),
    )


def _depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


def _truncate(node: TreeNode, max_depth: int) -> TreeNode:
    """node with every node at depth max_depth turned into a leaf.

    An internal node already carries the score and n its leaf would have,
    and _build stops on depth alone, so this is the tree a fit with
    max_depth would grow.
    """
    if node.is_leaf:
        return node
    if max_depth == 0:
        return TreeNode(score=node.score, n=node.n)
    return replace(node, left=_truncate(node.left, max_depth - 1), right=_truncate(node.right, max_depth - 1))


@dataclass(frozen=True)
class TreeScorer:
    """Fitted tree; ``score`` returns the Laplace leaf frequency per row."""

    root: TreeNode
    n_features: int
    params: dict

    @property
    def depth(self) -> int:
        return _depth(self.root)

    def truncated(self, max_depth: int) -> TreeScorer:
        """The tree fit_tree would give on the same data with this max_depth.

        max_depth may not exceed the one this tree was fitted with.
        """
        if not 1 <= max_depth <= self.params["max_depth"]:
            raise ValueError(f"max_depth must lie in [1, {self.params['max_depth']}], got {max_depth}")
        params = {"max_depth": max_depth, "min_leaf": self.params["min_leaf"]}
        return replace(self, root=_truncate(self.root, max_depth), params=params)

    def score(self, X) -> np.ndarray:
        X = feature_matrix(X, self.n_features)
        out = np.empty(X.shape[0])
        self._fill(self.root, X, np.arange(X.shape[0]), out)
        return out

    def _fill(self, node: TreeNode, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
        if node.is_leaf:
            out[rows] = node.score
            return
        go_left = X[rows, node.feature] <= node.threshold
        self._fill(node.left, X, rows[go_left], out)
        self._fill(node.right, X, rows[~go_left], out)


def fit_tree(train: Dataset, max_depth: int, min_leaf: int) -> TreeScorer:
    if max_depth < 1 or min_leaf < 1:
        raise ValueError(f"max_depth and min_leaf must be positive, got {max_depth}, {min_leaf}")
    columns = np.ascontiguousarray(train.features.T)
    # one stable sort per feature, ties by row index, as every node sees its rows
    root = _build(columns, train.labels, np.argsort(columns, axis=1, kind="stable"), 0, max_depth, min_leaf)
    return TreeScorer(root=root, n_features=train.dim, params={"max_depth": max_depth, "min_leaf": min_leaf})
