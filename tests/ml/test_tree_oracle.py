"""Differential tests: the feature-stacked split kernel vs the reference.

``tree_reference.py`` holds the per-feature search the kernel replaced.
Every property here demands bit identity, not closeness: the same
split ``(feature, threshold, gain)`` at a node, the same tree shape and
leaf-value bytes for :class:`DecisionTreeRegressor` (``lam=0``), and
the same trees and logits for the booster. Floats are compared through
``float.hex`` so even a last-bit difference (or a signed zero) fails.
Problems use coarse value grids, so ties within a feature, duplicated
columns (ties across features), constant columns, 1- and 2-row nodes
and ``d >> n`` one-hot matrices all occur.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor, GradientBoostedTreesClassifier
from repro.ml.tree import _best_split, _GradientTree, presort_orders

from tests.ml.tree_reference import (
    reference_best_split,
    reference_boost,
    reference_presort,
    reference_tree,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def tree_signature(node):
    """Shape, split features, thresholds and leaf values, as exact bits."""
    if node.is_leaf:
        return ("leaf", node.value.hex())
    return (
        node.feature,
        node.threshold.hex(),
        node.value.hex(),
        tree_signature(node.left),
        tree_signature(node.right),
    )


def split_signature(split):
    if split is None:
        return None
    feature, threshold, gain = split
    return feature, threshold.hex(), gain.hex()


@st.composite
def matrices(draw, max_rows=40, max_features=6):
    """Coarse-grid matrices with optional duplicated and constant columns."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    d = draw(st.integers(min_value=1, max_value=max_features))
    levels = draw(st.sampled_from([1, 2, 3, 5, 1000]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.integers(0, levels, size=(n, d)) * 0.5 - 1.0
    if d > 1 and draw(st.booleans()):
        X[:, draw(st.integers(min_value=1, max_value=d - 1))] = X[:, 0]
    if draw(st.booleans()):
        X[:, draw(st.integers(min_value=0, max_value=d - 1))] = 3.0
    return X, rng


@st.composite
def one_hot_matrices(draw):
    """``d >> n`` one-hot blocks: most columns are constant zero."""
    n = draw(st.integers(min_value=1, max_value=12))
    d = draw(st.integers(min_value=40, max_value=90))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = np.zeros((n, d))
    X[np.arange(n), rng.integers(0, d, size=n)] = 1.0
    return X, rng


def gradient_pairs(rng, n, coarse):
    if coarse:
        gradients = rng.integers(-2, 3, size=n).astype(np.float64)
        hessians = np.ones(n)
    else:
        p = rng.uniform(0.01, 0.99, size=n)
        gradients = p - (rng.random(n) < 0.5)
        hessians = np.maximum(p * (1.0 - p), 1e-6)
    return gradients, hessians


def node_split(X, gradients, hessians, rows, lam, min_child_weight):
    """Kernel split on the node holding ``rows`` (ascending)."""
    in_node = np.zeros(X.shape[0], dtype=bool)
    in_node[rows] = True
    root_orders = presort_orders(X)
    orders = root_orders[in_node[root_orders]].reshape(X.shape[1], -1)
    values = X[orders, np.arange(X.shape[1])[:, None]]
    return _best_split(
        gradients,
        hessians,
        gradients[rows].sum(),
        hessians[rows].sum(),
        orders,
        values,
        lam,
        min_child_weight,
    )


def reference_node_split(X, gradients, hessians, rows, lam, min_child_weight):
    in_node = np.zeros(X.shape[0], dtype=bool)
    in_node[rows] = True
    orders = [order[in_node[order]] for order in reference_presort(X)]
    return reference_best_split(
        X, gradients, hessians, rows, orders, lam, min_child_weight
    )


def assert_same_split(X, gradients, hessians, rows, lam, min_child_weight):
    actual = node_split(X, gradients, hessians, rows, lam, min_child_weight)
    expected = reference_node_split(
        X, gradients, hessians, rows, lam, min_child_weight
    )
    assert split_signature(actual) == split_signature(expected)
    return actual


# -- single nodes -----------------------------------------------------------


@SETTINGS
@given(
    problem=st.one_of(matrices(), one_hot_matrices()),
    coarse=st.booleans(),
    lam=st.sampled_from([0.0, 1.0]),
    min_child_weight=st.sampled_from([0.0, 1.0, 3.0, 1e9]),
    keep=st.floats(min_value=0.0, max_value=1.0),
)
def test_split_matches_reference(problem, coarse, lam, min_child_weight, keep):
    X, rng = problem
    gradients, hessians = gradient_pairs(rng, X.shape[0], coarse)
    rows = np.flatnonzero(rng.random(X.shape[0]) < keep)
    if rows.size == 0:
        rows = np.arange(X.shape[0])
    split = assert_same_split(X, gradients, hessians, rows, lam, min_child_weight)
    if min_child_weight == 1e9 or rows.size < 2:
        assert split is None


def test_cross_feature_tie_picks_first_feature():
    # all three columns reach the same best partition, column 0 at a
    # later sorted position than column 1: a position-major scan would
    # pick column 1, the feature-major first argmax must pick column 0
    ramp = np.arange(6.0)
    X = np.column_stack([5.0 - ramp, ramp, 5.0 - ramp])
    gradients = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    split = assert_same_split(X, gradients, np.ones(6), np.arange(6), 0.0, 1.0)
    assert split is not None and split[0] == 0


def test_within_feature_tie_picks_first_boundary():
    # splits after position 0 and after position 2 have equal gain
    X = np.arange(4.0)[:, None]
    gradients = np.array([-1.0, 0.0, 0.0, -1.0])
    split = assert_same_split(X, gradients, np.ones(4), np.arange(4), 0.0, 1.0)
    assert split is not None and split[1] == 0.5


def test_constant_columns_never_split():
    X = np.column_stack([np.full(6, 2.0), np.arange(6.0), np.full(6, -1.0)])
    gradients = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    split = assert_same_split(X, gradients, np.ones(6), np.arange(6), 0.0, 1.0)
    assert split is not None and split[0] == 1
    X_constant = np.ones((6, 3))
    assert assert_same_split(
        X_constant, gradients, np.ones(6), np.arange(6), 0.0, 1.0
    ) is None


def test_one_and_two_row_nodes():
    X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    gradients = np.array([1.0, -1.0, 0.5])
    for rows in ([0], [2], [0, 1], [1, 2], [0, 2]):
        assert_same_split(X, gradients, np.ones(3), np.array(rows), 0.0, 1.0)
    assert node_split(X, gradients, np.ones(3), np.array([0, 1]), 0.0, 1.0) is not None


def test_min_child_weight_blocks_every_split():
    X = np.arange(8.0).reshape(4, 2)
    gradients = np.array([1.0, 1.0, -1.0, -1.0])
    assert assert_same_split(X, gradients, np.ones(4), np.arange(4), 0.0, 3.0) is None


# -- whole trees ------------------------------------------------------------


@SETTINGS
@given(
    problem=st.one_of(matrices(), one_hot_matrices()),
    max_depth=st.integers(min_value=0, max_value=5),
    min_samples_leaf=st.sampled_from([1, 2, 5, 1000]),
)
def test_regressor_matches_reference(problem, max_depth, min_samples_leaf):
    X, rng = problem
    y = rng.integers(-2, 3, size=X.shape[0]) * 0.75
    model = DecisionTreeRegressor(
        max_depth=max_depth, min_samples_leaf=min_samples_leaf
    ).fit(X, y)
    expected = reference_tree(
        X, -y, np.ones_like(y), max_depth, 0.0, float(min_samples_leaf), 1e-12
    )
    assert tree_signature(model._tree._root) == tree_signature(expected)


@SETTINGS
@given(
    problem=st.one_of(matrices(), one_hot_matrices()),
    coarse=st.booleans(),
    max_depth=st.integers(min_value=0, max_value=4),
)
def test_fit_leaf_values_are_predictions(problem, coarse, max_depth):
    X, rng = problem
    gradients, hessians = gradient_pairs(rng, X.shape[0], coarse)
    tree = _GradientTree(max_depth, lam=1.0, min_child_weight=0.0, min_split_gain=0.0)
    leaf_values = tree.fit(X, gradients, hessians)
    assert leaf_values.tobytes() == tree.predict(X).tobytes()


@SETTINGS
@given(
    problem=st.one_of(matrices(max_rows=30), one_hot_matrices()),
    n_estimators=st.integers(min_value=1, max_value=6),
    max_depth=st.integers(min_value=1, max_value=4),
    min_child_weight=st.sampled_from([0.0, 0.1, 1.0]),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    subsample=st.sampled_from([1.0, 0.6]),
)
def test_booster_matches_reference(
    problem, n_estimators, max_depth, min_child_weight, reg_lambda, subsample
):
    X, rng = problem
    y = (rng.random(X.shape[0]) < 0.4).astype(np.int64)
    params = dict(
        n_estimators=n_estimators,
        max_depth=max_depth,
        min_child_weight=min_child_weight,
        reg_lambda=reg_lambda,
        subsample=subsample,
        random_state=3,
    )
    model = GradientBoostedTreesClassifier(**params).fit(X, y)
    roots, logits = reference_boost(X, y, **params)
    assert [tree_signature(tree._root) for tree in model._trees] == [
        tree_signature(root) for root in roots
    ]
    assert model.decision_function(X).tobytes() == logits.tobytes()
