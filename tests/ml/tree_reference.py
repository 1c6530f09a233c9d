"""Test-only reference: the per-feature split search and partition.

This is the tree core as it was before the feature-stacked kernel in
:mod:`repro.ml.tree`: a Python loop over features, one ``cumsum`` per
feature, and child orders partitioned with one list comprehension per
feature. It is kept here, outside ``src``, as the differential oracle
the kernel must match bit for bit (``test_tree_oracle.py``): same
split ``(feature, threshold, gain)`` at every node, same tree shape,
same leaf-value bytes, same boosted logits.
"""

from __future__ import annotations

import numpy as np

from repro.ml.logistic import _sigmoid
from repro.ml.tree import _Node


def reference_presort(X: np.ndarray) -> list[np.ndarray]:
    """Per-column stable sort orders as a list (the old layout)."""
    return [np.argsort(X[:, feature], kind="mergesort") for feature in range(X.shape[1])]


def reference_best_split(
    X: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    rows: np.ndarray,
    orders: list[np.ndarray],
    lam: float,
    min_child_weight: float,
) -> tuple[int, float, float] | None:
    """Per-feature first argmax, then a strict ``>`` pick across features."""
    total_g = gradients[rows].sum()
    total_h = hessians[rows].sum()
    parent_score = total_g**2 / (total_h + lam)
    best: tuple[int, float, float] | None = None
    for feature, order in enumerate(orders):
        sorted_values = X[order, feature]
        g_cum = np.cumsum(gradients[order])
        h_cum = np.cumsum(hessians[order])
        boundaries = np.nonzero(sorted_values[:-1] < sorted_values[1:])[0]
        if boundaries.size == 0:
            continue
        g_left = g_cum[boundaries]
        h_left = h_cum[boundaries]
        g_right = total_g - g_left
        h_right = total_h - h_left
        valid = (h_left >= min_child_weight) & (h_right >= min_child_weight)
        if not valid.any():
            continue
        gains = (
            g_left**2 / (h_left + lam)
            + g_right**2 / (h_right + lam)
            - parent_score
        )
        gains[~valid] = -np.inf
        pick = int(np.argmax(gains))
        gain = float(gains[pick]) / 2.0
        if gain <= 0:
            continue
        boundary = boundaries[pick]
        threshold = float(
            (sorted_values[boundary] + sorted_values[boundary + 1]) / 2.0
        )
        if best is None or gain > best[2]:
            best = (feature, threshold, gain)
    return best


def _reference_build(X, gradients, hessians, rows, orders, in_left, depth, params):
    max_depth, lam, min_child_weight, min_split_gain = params
    value = float(-gradients[rows].sum() / (hessians[rows].sum() + lam))
    if depth >= max_depth or rows.shape[0] < 2:
        return _Node(feature=-1, threshold=0.0, value=value)
    split = reference_best_split(
        X, gradients, hessians, rows, orders, lam, min_child_weight
    )
    if split is None or split[2] < min_split_gain:
        return _Node(feature=-1, threshold=0.0, value=value)
    feature, threshold, __ = split
    goes_left = X[rows, feature] <= threshold
    left_rows = rows[goes_left]
    right_rows = rows[~goes_left]
    in_left[left_rows] = True
    left_orders = [order[in_left[order]] for order in orders]
    right_orders = [order[~in_left[order]] for order in orders]
    in_left[left_rows] = False
    left = _reference_build(
        X, gradients, hessians, left_rows, left_orders, in_left, depth + 1, params
    )
    right = _reference_build(
        X, gradients, hessians, right_rows, right_orders, in_left, depth + 1, params
    )
    return _Node(feature=feature, threshold=threshold, value=value, left=left, right=right)


def reference_tree(
    X: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    max_depth: int,
    lam: float,
    min_child_weight: float,
    min_split_gain: float,
) -> _Node:
    """Root of a tree grown with the per-feature search."""
    return _reference_build(
        X,
        gradients,
        hessians,
        np.arange(X.shape[0]),
        reference_presort(X),
        np.zeros(X.shape[0], dtype=bool),
        0,
        (max_depth, lam, min_child_weight, min_split_gain),
    )


def reference_predict(root: _Node, X: np.ndarray) -> np.ndarray:
    """Route every row of ``X`` to its leaf value."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.value
            continue
        goes_left = X[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[goes_left]))
        stack.append((node.right, rows[~goes_left]))
    return out


def reference_boost(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int,
    max_depth: int,
    learning_rate: float = 0.15,
    reg_lambda: float = 1.0,
    min_child_weight: float = 1.0,
    subsample: float = 1.0,
    random_state: int = 0,
) -> tuple[list[_Node], np.ndarray]:
    """The boosting loop over reference trees: ``(roots, train logits)``.

    Every round fits a copy of the (sub)sampled rows and routes the
    whole training matrix through the fitted tree, as the booster did
    before fits returned their in-sample leaf values.
    """
    rng = np.random.default_rng(random_state)
    y_float = y.astype(np.float64)
    positive_rate = float(np.clip(y_float.mean(), 1e-6, 1 - 1e-6))
    logits = np.full(X.shape[0], float(np.log(positive_rate / (1.0 - positive_rate))))
    roots = []
    for __ in range(n_estimators):
        p = _sigmoid(logits)
        gradients = p - y_float
        hessians = np.maximum(p * (1.0 - p), 1e-6)
        if subsample < 1.0:
            n_rows = max(1, int(round(subsample * X.shape[0])))
            rows = rng.choice(X.shape[0], size=n_rows, replace=False)
        else:
            rows = np.arange(X.shape[0])
        root = reference_tree(
            X[rows], gradients[rows], hessians[rows], max_depth, reg_lambda,
            min_child_weight, 0.0,
        )
        logits = logits + learning_rate * reference_predict(root, X)
        roots.append(root)
    return roots, logits
