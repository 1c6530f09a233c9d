"""Differential tests: the stacked isolation forest vs the recursive reference.

``isolation_reference.py`` holds the recursive builder, node-tree
flattening and recursive walk that :mod:`repro.ml.isolation` replaced.
Every check here demands bit identity, not closeness: the same flat
``feature / threshold / left / right / leaf_value`` arrays for every
tree, the same ``threshold_`` and the same ``score_samples`` bytes on
the fitted rows and on unseen rows. The reference draws split features
with ``rng.choice(splittable)`` and the kernel with
``splittable[rng.integers(0, splittable.size)]``, so these tests also
pin that the two draw the same stream on the installed numpy
(DESIGN §18).

Inputs cover rounded ties, constant columns, integer duplicates,
per-column scales from 1e-300 to 1e300, columns of neighbouring floats
(where a cut rounds onto a data value), subsamples smaller and larger
than ``n`` and 1- and 2-row tables. Scored rows include rows that sit
exactly on a node's threshold, so ``<`` vs ``<=`` is observable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import IsolationForest

from tests.ml.isolation_reference import reference_forest

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def tables(draw, max_rows=600, max_features=12):
    """Fit rows and unseen rows with ties, constants, duplicates and scales."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    d = draw(st.integers(min_value=1, max_value=max_features))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "rounded", "integers", "scaled", "ulps"]))
    X = rng.normal(size=(n + 20, d))
    if kind == "rounded":
        X = np.round(X, 1)
    elif kind == "integers":
        X = rng.integers(0, draw(st.integers(1, 4)), size=(n + 20, d)).astype(float)
    elif kind == "scaled":
        X = rng.uniform(-1.0, 1.0, size=(n + 20, d))
        X *= 10.0 ** rng.integers(-300, 301, size=d)
    elif kind == "ulps":
        # neighbouring floats: cuts round onto data values, so ties occur
        X = 1.0 + rng.integers(0, 3, size=(n + 20, d)) * np.spacing(1.0)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, -2.5, 1e300]))
    if d > 1 and draw(st.booleans()):
        X[:, draw(st.integers(1, d - 1))] = X[:, 0]
    return X[:n], X[n:]


def threshold_rows(forest, X):
    """Fit rows with one feature set exactly to some node's threshold."""
    splits = [
        (f, t)
        for tree in forest._trees
        for f, t in zip(tree.feature, tree.threshold)
        if f >= 0
    ]
    rows = X[np.arange(len(splits)) % X.shape[0]].copy()
    for row, (f, t) in zip(rows, splits):
        row[f] = t
    return rows


def assert_forests_identical(X, unseen, **params):
    forest = IsolationForest(**params).fit(X)
    reference = reference_forest(X, **params)
    assert len(forest._trees) == len(reference.trees)
    for tree, expected in zip(forest._trees, reference.trees):
        for name in ("feature", "threshold", "left", "right", "leaf_value"):
            actual, wanted = getattr(tree, name), getattr(expected, name)
            assert actual.dtype == wanted.dtype, name
            assert actual.tobytes() == wanted.tobytes(), name
    assert forest.threshold_.hex() == reference.threshold.hex()
    for rows in (X, unseen, threshold_rows(forest, X)):
        assert forest.score_samples(rows).tobytes() == (
            reference.score_samples(rows).tobytes()
        )


@SETTINGS
@given(
    tables(),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=300),
    st.sampled_from([0.01, 0.1, 0.3]),
    st.integers(min_value=0, max_value=2**16),
)
def test_forest_matches_reference(data, n_estimators, max_samples, contamination, seed):
    X, unseen = data
    assert_forests_identical(
        X,
        unseen,
        n_estimators=n_estimators,
        max_samples=max_samples,
        contamination=contamination,
        random_state=seed,
    )


@pytest.mark.parametrize(
    "X",
    [
        np.array([[3.0]]),
        np.array([[1.0, 2.0]]),
        np.array([[0.0], [1.0]]),
        np.array([[5.0, 5.0], [5.0, 5.0]]),
        np.full((40, 3), 7.0),
        np.repeat(np.arange(4.0), 30).reshape(-1, 1) * [1.0, -1.0, 0.0],
        np.array([[-0.0, 1.0], [0.0, -1.0], [-0.0, 2.0], [0.0, 0.0]]),
        np.array([[1e-300, -1e300], [-1e-300, 1e300], [0.0, 0.0]]),
    ],
    ids=["n1", "n1-d2", "n2", "n2-constant", "constant", "duplicates",
         "signed-zeros", "extreme-scales"],
)
def test_edge_tables_match_reference(X):
    unseen = np.vstack([X, X.min(axis=0) - 1.0, X.max(axis=0) + 1.0])
    assert_forests_identical(X, unseen, n_estimators=12, max_samples=256,
                             contamination=0.3, random_state=3)


def test_paper_scale_forest_matches_reference():
    """The detector's own settings: 100 trees of 256 on a 2,000×6 table."""
    rng = np.random.default_rng(2024)
    X = np.round(rng.normal(size=(2000, 6)) * [1, 10, 100, 1, 1, 0.1], 2)
    X[:, 4] = rng.integers(0, 3, size=2000)
    unseen = rng.normal(size=(200, 6)) * 20
    assert_forests_identical(X, unseen, n_estimators=100, max_samples=256,
                             contamination=0.01, random_state=0)
