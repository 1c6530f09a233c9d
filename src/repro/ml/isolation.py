"""Isolation forest for multivariate outlier detection.

Direct implementation of Liu, Ting & Zhou's iForest: an ensemble of
random isolation trees built on small subsamples; the anomaly score of
a point is ``2^(-E[h(x)] / c(n))`` where ``h`` is the path length to
isolation and ``c(n)`` the average BST path length. Points whose score
exceeds the ``contamination`` quantile are flagged — matching
scikit-learn's contamination semantics used in the paper (0.01).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator


def _average_path_length(n: float) -> float:
    """Expected path length of an unsuccessful BST search among n points."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = np.log(n - 1.0) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1.0) / n


#: The splittable features of a node that must be a leaf.
_NO_FEATURES = np.empty(0, dtype=np.intp)


class _FlatTree:
    """An isolation tree as struct-of-arrays, built in preorder.

    Node ``i`` is internal iff ``feature[i] >= 0``; its children are
    ``left[i]``/``right[i]``. For leaves, ``leaf_value[i]`` holds the
    fully-resolved path length ``depth + c(size)``.

    The build runs on a ``(features × rows)`` subsample with an
    explicit stack. Nodes pop in preorder (root, whole left subtree,
    right subtree), so the RNG draws come in the order a recursive
    descent makes them (DESIGN §18).
    """

    __slots__ = ("feature", "threshold", "left", "right", "leaf_value")

    def __init__(
        self, XT: np.ndarray, max_depth: int, rng: np.random.Generator
    ) -> None:
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        leaf_value: list[float] = []
        # (node columns, depth, parent slot): parent slot >= 0 patches right[]
        stack: list[tuple[np.ndarray, int, int]] = [(XT, 0, -1)]
        while stack:
            node, depth, patch = stack.pop()
            index = len(feature)
            if patch >= 0:
                right[patch] = index
            size = node.shape[1]
            splittable = _NO_FEATURES
            if depth < max_depth and size > 1:
                high = node.max(axis=1)
                low = node.min(axis=1)
                splittable = np.flatnonzero((high - low) > 0)
            if splittable.size == 0:
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                leaf_value.append(depth + _average_path_length(size))
                continue
            f = int(splittable[rng.integers(0, splittable.size)])
            cut = float(rng.uniform(low[f], high[f]))
            goes_left = node[f] < cut
            feature.append(f)
            threshold.append(cut)
            left.append(index + 1)  # preorder: left child is next
            right.append(-1)  # patched when the right child is emitted
            leaf_value.append(0.0)
            stack.append((node.compress(~goes_left, axis=1), depth + 1, index))
            stack.append((node.compress(goes_left, axis=1), depth + 1, -1))
        self.feature = np.array(feature, dtype=np.int32)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.int32)
        self.right = np.array(right, dtype=np.int32)
        self.leaf_value = np.array(leaf_value, dtype=np.float64)

    def path_lengths(self, XT: np.ndarray, out: np.ndarray) -> None:
        """Route every column of ``XT`` to its leaf; write path lengths.

        An explicit worklist routes a whole row batch through one node
        with a single compare on that feature's contiguous row of
        ``XT``.
        """
        feature, threshold = self.feature, self.threshold
        left, right, leaf_value = self.left, self.right, self.leaf_value
        stack = [(0, np.arange(XT.shape[1]))]
        while stack:
            index, rows = stack.pop()
            f = feature[index]
            if f < 0:
                out[rows] = leaf_value[index]
                continue
            goes_left = XT[f].take(rows) < threshold[index]
            stack.append((right[index], rows.compress(~goes_left)))
            stack.append((left[index], rows.compress(goes_left)))


class IsolationForest(BaseEstimator):
    """Isolation forest anomaly detector.

    Args:
        n_estimators: Number of isolation trees.
        max_samples: Subsample size per tree (capped at dataset size).
        contamination: Expected fraction of outliers; sets the decision
            threshold on the fitted scores.
        random_state: Seed.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float = 0.01,
        random_state: int = 0,
    ) -> None:
        if not 0.0 < contamination < 0.5:
            raise ValueError(
                f"contamination must be in (0, 0.5), got {contamination}"
            )
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.contamination = contamination
        self.random_state = random_state
        self._trees: list[_FlatTree] = []
        self._subsample_size: int = 0
        self.n_features_in_: int = 0
        self.threshold_: float | None = None

    def fit(self, X: np.ndarray) -> "IsolationForest":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"X must be a non-empty 2-d array, got shape {X.shape}")
        if np.isnan(X).any():
            raise ValueError("X contains NaN; isolation forest needs complete rows")
        XT = np.ascontiguousarray(X.T)
        rng = np.random.default_rng(self.random_state)
        self.n_features_in_ = X.shape[1]
        self._subsample_size = min(self.max_samples, X.shape[0])
        max_depth = int(np.ceil(np.log2(max(2, self._subsample_size))))
        self._trees = []
        for __ in range(self.n_estimators):
            rows = rng.choice(X.shape[0], size=self._subsample_size, replace=False)
            self._trees.append(_FlatTree(XT.take(rows, axis=1), max_depth, rng))
        scores = self._scores(XT)
        # contamination-quantile threshold, as in scikit-learn
        self.threshold_ = float(
            np.quantile(scores, 1.0 - self.contamination, method="lower")
        )
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); higher = more anomalous."""
        if not self._trees:
            raise RuntimeError("IsolationForest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must have shape (n, {self.n_features_in_}), got {X.shape}"
            )
        if np.isnan(X).any():
            raise ValueError("X contains NaN; isolation forest scores complete rows")
        return self._scores(np.ascontiguousarray(X.T))

    def _scores(self, XT: np.ndarray) -> np.ndarray:
        """Scores of the columns of ``XT``, trees accumulated in fit order."""
        depths = np.zeros(XT.shape[1], dtype=np.float64)
        buffer = np.empty(XT.shape[1], dtype=np.float64)
        for tree in self._trees:
            tree.path_lengths(XT, buffer)
            depths += buffer
        mean_depth = depths / len(self._trees)
        normaliser = _average_path_length(self._subsample_size)
        return np.power(2.0, -mean_depth / max(normaliser, 1e-12))

    def predict_outliers(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask: True where a row is flagged as an outlier."""
        if self.threshold_ is None:
            raise RuntimeError("IsolationForest is not fitted")
        return self.score_samples(X) > self.threshold_
