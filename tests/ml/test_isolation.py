"""Tests for the isolation forest."""

import numpy as np
import pytest

from repro.ml import IsolationForest


def make_data_with_outliers(n=500, n_outliers=10, seed=0):
    rng = np.random.default_rng(seed)
    inliers = rng.normal(0.0, 1.0, size=(n - n_outliers, 2))
    outliers = rng.normal(0.0, 1.0, size=(n_outliers, 2)) + 12.0
    X = np.vstack([inliers, outliers])
    is_outlier = np.zeros(n, dtype=bool)
    is_outlier[-n_outliers:] = True
    return X, is_outlier


def test_outliers_get_higher_scores():
    X, is_outlier = make_data_with_outliers()
    forest = IsolationForest(n_estimators=50, random_state=1).fit(X)
    scores = forest.score_samples(X)
    assert scores[is_outlier].mean() > scores[~is_outlier].mean() + 0.1


def test_predict_outliers_flags_the_planted_points():
    X, is_outlier = make_data_with_outliers(n=500, n_outliers=5)
    forest = IsolationForest(
        n_estimators=100, contamination=0.01, random_state=2
    ).fit(X)
    flagged = forest.predict_outliers(X)
    # all five planted outliers are among the flagged points
    assert flagged[is_outlier].sum() == 5


def test_contamination_controls_flag_rate():
    X, __ = make_data_with_outliers()
    forest = IsolationForest(contamination=0.05, random_state=3).fit(X)
    rate = forest.predict_outliers(X).mean()
    assert rate <= 0.06


def test_scores_in_unit_interval():
    X, __ = make_data_with_outliers(n=200)
    forest = IsolationForest(n_estimators=20, random_state=4).fit(X)
    scores = forest.score_samples(X)
    assert (scores > 0).all() and (scores < 1).all()


def test_deterministic_under_seed():
    X, __ = make_data_with_outliers(n=200)
    a = IsolationForest(n_estimators=20, random_state=5).fit(X).score_samples(X)
    b = IsolationForest(n_estimators=20, random_state=5).fit(X).score_samples(X)
    assert np.array_equal(a, b)


def test_invalid_contamination():
    with pytest.raises(ValueError):
        IsolationForest(contamination=0.0)
    with pytest.raises(ValueError):
        IsolationForest(contamination=0.6)


def test_nan_rejected():
    with pytest.raises(ValueError, match="NaN"):
        IsolationForest().fit(np.array([[1.0], [np.nan]]))


def test_unfitted_raises():
    with pytest.raises(RuntimeError):
        IsolationForest().score_samples(np.zeros((1, 2)))


def test_small_dataset_does_not_crash():
    X = np.array([[0.0], [1.0], [2.0]])
    forest = IsolationForest(n_estimators=5, contamination=0.3, random_state=0).fit(X)
    assert forest.score_samples(X).shape == (3,)


def test_score_samples_rejects_nan():
    X, __ = make_data_with_outliers(n=50)
    forest = IsolationForest(n_estimators=5, random_state=0).fit(X)
    bad = X.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        forest.score_samples(bad)
    with pytest.raises(ValueError, match="NaN"):
        forest.predict_outliers(bad)


def test_score_samples_rejects_column_mismatch():
    X, __ = make_data_with_outliers(n=50)
    forest = IsolationForest(n_estimators=5, random_state=0).fit(X)
    assert forest.n_features_in_ == 2
    wider = np.hstack([X, X[:, :1]])
    with pytest.raises(ValueError, match="shape"):
        forest.score_samples(wider)
    with pytest.raises(ValueError, match="shape"):
        forest.score_samples(X[:, :1])
    with pytest.raises(ValueError, match="shape"):
        forest.score_samples(X[0])


def test_flat_walk_matches_recursive_reference():
    """The struct-of-arrays traversal must be bit-identical to a
    pointer-chasing recursive descent of the same trees."""
    from repro.ml.isolation import (
        IsolationForest as Forest,
        _average_path_length,
    )
    from tests.ml.isolation_reference import (
        _build_itree,
        recursive_path_lengths,
    )

    X, __ = make_data_with_outliers(n=400, seed=7)
    n_trees, sub, seed = 15, 64, 11
    forest = Forest(
        n_estimators=n_trees, max_samples=sub, random_state=seed
    ).fit(X)

    # replay the fit's RNG stream to rebuild the same node trees
    rng = np.random.default_rng(seed)
    max_depth = int(np.ceil(np.log2(sub)))
    depths = np.zeros(len(X))
    buffer = np.empty(len(X))
    rows = np.arange(len(X))
    for __ in range(n_trees):
        pick = rng.choice(len(X), size=sub, replace=False)
        tree = _build_itree(X[pick], 0, max_depth, rng)
        recursive_path_lengths(tree, X, rows, 0, buffer)
        depths += buffer
    reference = np.power(
        2.0, -(depths / n_trees) / max(_average_path_length(sub), 1e-12)
    )
    assert np.array_equal(forest.score_samples(X), reference)
