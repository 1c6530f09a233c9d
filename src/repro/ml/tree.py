"""CART-style regression trees.

The tree core works on per-example gradient/hessian pairs with the
second-order gain rule used by gradient-boosting libraries:

    gain = 1/2 [ G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam) ]
    leaf value = -G / (H + lam)

Split search is one kernel over all features at once. The root presort
is a ``(d, n)`` matrix of per-column stable (mergesort) orders, and
every node carries it together with the matching sorted-value matrix.
A split partitions both into the children with one 2-D membership mask:
filtering a stable order by a mask *is* the stable sort of the subset,
so no node re-sorts or gathers from ``X``. Per node, one axis-1
``cumsum`` each of gradients and hessians gives every feature's
left-child sums (each row accumulates sequentially, in the same order
as a per-feature ``cumsum``); gains are evaluated only at positions
where the sorted value changes, laid out feature-major, and one global
first ``argmax`` picks the split. That argmax equals a per-feature
first argmax followed by a strict ``>`` pick across features, so the
splits, thresholds and leaf values are bit-for-bit those of the
per-feature search (DESIGN.md §16).

:class:`DecisionTreeRegressor` exposes the squared-error special case
(g = -y, h = 1, leaf = mean of y) as a standalone public estimator;
:mod:`repro.ml.boosting` drives the same core with logistic-loss
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator


def presort_orders(X: np.ndarray) -> np.ndarray:
    """Per-column stable sort orders of ``X`` as one ``(d, n)`` matrix.

    Row ``f`` is ``np.argsort(X[:, f], kind="mergesort")``. A stable
    order is unique, so this is a pure function of ``X``'s bytes, which
    is what makes the orders shareable across trees, grid candidates
    and dataset versions with byte-equal matrices.
    """
    return np.argsort(X.T, axis=1, kind="mergesort")


@dataclass
class _Node:
    """A tree node; leaves have ``feature`` = -1."""

    feature: int
    threshold: float
    value: float
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _best_split(
    gradients: np.ndarray,
    hessians: np.ndarray,
    total_g: float,
    total_h: float,
    orders: np.ndarray,
    values: np.ndarray,
    lam: float,
    min_child_weight: float,
) -> tuple[int, float, float] | None:
    """Return ``(feature, threshold, gain)`` of the best split, or None.

    ``orders[f]`` holds the node's rows stably sorted by feature ``f``
    and ``values[f]`` the matching sorted values of that feature;
    ``total_g`` / ``total_h`` are the node sums over its rows in their
    original relative order.
    """
    # candidate split after position i (left = first i+1 examples),
    # only where the value actually changes; flat indices into the
    # (features x rows) layout, so the candidates come out feature-major
    n_rows = values.shape[1]
    changes = np.zeros(values.shape, dtype=bool)
    np.less(values[:, :-1], values[:, 1:], out=changes[:, :-1])
    candidates = changes.ravel().nonzero()[0]
    if candidates.size == 0:
        return None
    g_left = gradients.take(orders).cumsum(axis=1).take(candidates)
    h_left = hessians.take(orders).cumsum(axis=1).take(candidates)
    g_right = total_g - g_left
    h_right = total_h - h_left
    valid = (h_left >= min_child_weight) & (h_right >= min_child_weight)
    if not valid.any():
        return None
    parent_score = total_g**2 / (total_h + lam)
    gains = (
        g_left**2 / (h_left + lam)
        + g_right**2 / (h_right + lam)
        - parent_score
    )
    gains[~valid] = -np.inf
    pick = int(np.argmax(gains))
    gain = float(gains[pick]) / 2.0
    if gain <= 0:
        return None
    feature, position = divmod(int(candidates[pick]), n_rows)
    threshold = float(
        (values[feature, position] + values[feature, position + 1]) / 2.0
    )
    return feature, threshold, gain


def _build(
    gradients: np.ndarray,
    hessians: np.ndarray,
    rows: np.ndarray,
    orders: np.ndarray,
    values: np.ndarray,
    in_left: np.ndarray,
    leaf_values: np.ndarray,
    depth: int,
    max_depth: int,
    lam: float,
    min_child_weight: float,
    min_split_gain: float,
) -> _Node:
    """Grow the subtree over ``rows`` (ascending), writing leaf values.

    Every training row's leaf value lands in ``leaf_values`` — the
    in-sample prediction, which a caller would otherwise recompute by
    routing the training matrix through the fitted tree.
    """
    total_g = gradients[rows].sum()
    total_h = hessians[rows].sum()
    value = float(-total_g / (total_h + lam))
    split = None
    if depth < max_depth and rows.shape[0] >= 2:
        split = _best_split(
            gradients, hessians, total_g, total_h, orders, values, lam,
            min_child_weight,
        )
    if split is None or split[2] < min_split_gain:
        leaf_values[rows] = value
        return _Node(feature=-1, threshold=0.0, value=value)
    feature, threshold, __ = split
    # values[feature] is sorted, so the rows going left (value <=
    # threshold, the comparison prediction uses) are a prefix of
    # orders[feature]
    n_left = int(values[feature].searchsorted(threshold, side="right"))
    # in_left is a scratch buffer shared by the whole tree: it is
    # cleared again before recursing, after member has copied out this
    # node's (features x rows) membership mask
    in_left[orders[feature, :n_left]] = True
    member = in_left.take(orders).ravel()
    goes_left = in_left[rows]
    left_rows = rows[goes_left]
    right_rows = rows[~goes_left]
    in_left[left_rows] = False
    n_features = orders.shape[0]

    def grow(child_rows: np.ndarray, keep: np.ndarray) -> _Node:
        return _build(
            gradients,
            hessians,
            child_rows,
            orders.compress(keep).reshape(n_features, -1),
            values.compress(keep).reshape(n_features, -1),
            in_left,
            leaf_values,
            depth + 1,
            max_depth,
            lam,
            min_child_weight,
            min_split_gain,
        )

    left = grow(left_rows, member)
    right = grow(right_rows, ~member)
    return _Node(feature=feature, threshold=threshold, value=value, left=left, right=right)


def _predict_node(node: _Node, X: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    if node.is_leaf:
        out[rows] = node.value
        return
    assert node.left is not None and node.right is not None
    goes_left = X[rows, node.feature] <= node.threshold
    _predict_node(node.left, X, out, rows[goes_left])
    _predict_node(node.right, X, out, rows[~goes_left])


class _GradientTree:
    """A single fitted tree over gradient/hessian targets."""

    def __init__(
        self,
        max_depth: int,
        lam: float,
        min_child_weight: float,
        min_split_gain: float,
    ) -> None:
        self._max_depth = max_depth
        self._lam = lam
        self._min_child_weight = min_child_weight
        self._min_split_gain = min_split_gain
        self._root: _Node | None = None

    def fit(
        self,
        X: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        orders: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fit the tree and return each training row's leaf value.

        ``orders`` optionally supplies the root presort. It is a pure
        function of ``X`` (:func:`presort_orders`), so a caller fitting
        many trees on the same matrix (the boosting loop) may compute
        it once and pass it in; it is only read here (each node
        materialises filtered copies), never mutated. The returned
        in-sample predictions equal ``predict(X)`` bit for bit: a row's
        leaf is found by the same ``<=`` comparisons on the same values.
        """
        n_rows, n_features = X.shape
        if orders is None:
            orders = presort_orders(X)
        values = X[orders, np.arange(n_features)[:, None]]
        leaf_values = np.empty(n_rows, dtype=np.float64)
        self._root = _build(
            gradients,
            hessians,
            np.arange(n_rows),
            orders,
            values,
            np.zeros(n_rows, dtype=bool),
            leaf_values,
            depth=0,
            max_depth=self._max_depth,
            lam=self._lam,
            min_child_weight=self._min_child_weight,
            min_split_gain=self._min_split_gain,
        )
        return leaf_values

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        out = np.empty(X.shape[0], dtype=np.float64)
        _predict_node(self._root, X, out, np.arange(X.shape[0]))
        return out

    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree is not fitted")
        return walk(self._root)


class DecisionTreeRegressor(BaseEstimator):
    """Squared-error regression tree (public CART interface).

    Args:
        max_depth: Maximum tree depth (0 = a single leaf).
        min_samples_leaf: Minimum examples per leaf.
        min_split_gain: Minimum gain required to split.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        min_split_gain: float = 1e-12,
    ) -> None:
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_split_gain = min_split_gain
        self._tree: _GradientTree | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError(
                f"bad shapes: X {X.shape}, y {y.shape}"
            )
        # squared error: g_i = -y_i, h_i = 1 gives leaf value = mean(y)
        self._tree = _GradientTree(
            max_depth=self.max_depth,
            lam=0.0,
            min_child_weight=float(self.min_samples_leaf),
            min_split_gain=self.min_split_gain,
        )
        self._tree.fit(X, -y, np.ones_like(y))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._tree is None:
            raise RuntimeError("DecisionTreeRegressor is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return self._tree.predict(X)

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self._tree is None:
            raise RuntimeError("DecisionTreeRegressor is not fitted")
        return self._tree.depth()
