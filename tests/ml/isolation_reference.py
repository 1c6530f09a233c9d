"""Test-only reference: the recursive isolation-tree build and walk.

This is the isolation forest as it was before :mod:`repro.ml.isolation`
moved to one ``(features × rows)`` matrix: a recursive builder over
row-major subsamples that draws each split feature with
``rng.choice(splittable)``, a node-object tree flattened to
struct-of-arrays afterwards, and a pointer-chasing recursive descent.
It is kept here, outside ``src``, as the differential oracle the
iterative build and the transposed scoring walk must match bit for bit
(``test_isolation_oracle.py``): same flat arrays, same ``threshold_``,
same scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.isolation import _average_path_length


@dataclass
class _ITreeNode:
    feature: int
    threshold: float
    size: int
    left: "_ITreeNode | None" = None
    right: "_ITreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _build_itree(
    X: np.ndarray, depth: int, max_depth: int, rng: np.random.Generator
) -> _ITreeNode:
    n = X.shape[0]
    if depth >= max_depth or n <= 1:
        return _ITreeNode(feature=-1, threshold=0.0, size=n)
    spans = X.max(axis=0) - X.min(axis=0)
    splittable = np.nonzero(spans > 0)[0]
    if splittable.size == 0:
        return _ITreeNode(feature=-1, threshold=0.0, size=n)
    feature = int(rng.choice(splittable))
    low, high = X[:, feature].min(), X[:, feature].max()
    threshold = float(rng.uniform(low, high))
    goes_left = X[:, feature] < threshold
    return _ITreeNode(
        feature=feature,
        threshold=threshold,
        size=n,
        left=_build_itree(X[goes_left], depth + 1, max_depth, rng),
        right=_build_itree(X[~goes_left], depth + 1, max_depth, rng),
    )


@dataclass
class ReferenceTree:
    """The flat arrays the node tree converts to, plus its root."""

    root: _ITreeNode
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray


def flatten(root: _ITreeNode) -> ReferenceTree:
    """The node-tree → struct-of-arrays conversion, in preorder."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_value: list[float] = []
    # preorder walk assigning indices; stack holds (node, depth)
    stack: list[tuple[_ITreeNode, int, int]] = [(root, 0, -1)]
    # (node, depth, parent slot): parent slot >= 0 patches right[]
    while stack:
        node, depth, patch = stack.pop()
        index = len(feature)
        if patch >= 0:
            right[patch] = index
        if node.is_leaf:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            leaf_value.append(depth + _average_path_length(node.size))
        else:
            assert node.left is not None and node.right is not None
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(index + 1)  # preorder: left child is next
            right.append(-1)  # patched when the right child is emitted
            leaf_value.append(0.0)
            stack.append((node.right, depth + 1, index))
            stack.append((node.left, depth + 1, -1))
    return ReferenceTree(
        root=root,
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_value=np.array(leaf_value, dtype=np.float64),
    )


def recursive_path_lengths(
    node: _ITreeNode, X: np.ndarray, rows: np.ndarray, depth: int, out: np.ndarray
) -> None:
    """Pointer-chasing descent: route ``rows`` of ``X`` to their leaves."""
    if node.is_leaf:
        out[rows] = depth + _average_path_length(node.size)
        return
    goes_left = X[rows, node.feature] < node.threshold
    recursive_path_lengths(node.left, X, rows[goes_left], depth + 1, out)
    recursive_path_lengths(node.right, X, rows[~goes_left], depth + 1, out)


@dataclass
class ReferenceForest:
    """A fitted reference forest: its trees, subsample size and threshold."""

    trees: list[ReferenceTree]
    subsample_size: int
    threshold: float

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Scores accumulated tree by tree in fit order, recursively walked."""
        X = np.asarray(X, dtype=np.float64)
        depths = np.zeros(X.shape[0], dtype=np.float64)
        buffer = np.empty(X.shape[0], dtype=np.float64)
        rows = np.arange(X.shape[0])
        for tree in self.trees:
            recursive_path_lengths(tree.root, X, rows, 0, buffer)
            depths += buffer
        mean_depth = depths / len(self.trees)
        normaliser = _average_path_length(self.subsample_size)
        return np.power(2.0, -mean_depth / max(normaliser, 1e-12))


def reference_forest(
    X: np.ndarray,
    n_estimators: int = 100,
    max_samples: int = 256,
    contamination: float = 0.01,
    random_state: int = 0,
) -> ReferenceForest:
    """``IsolationForest.fit`` as it was: same draws, same threshold rule."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(random_state)
    subsample_size = min(max_samples, X.shape[0])
    max_depth = int(np.ceil(np.log2(max(2, subsample_size))))
    trees = []
    for __ in range(n_estimators):
        rows = rng.choice(X.shape[0], size=subsample_size, replace=False)
        trees.append(flatten(_build_itree(X[rows], 0, max_depth, rng)))
    forest = ReferenceForest(trees, subsample_size, threshold=float("nan"))
    scores = forest.score_samples(X)
    forest.threshold = float(
        np.quantile(scores, 1.0 - contamination, method="lower")
    )
    return forest
