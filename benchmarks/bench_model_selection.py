"""Grid-search kernel benchmarks: naive loop vs shared ``score_grid``.

Times :class:`GridSearchCV` with the fast path off and on for each of
the study's three model families, on grids wide enough to exercise the
sharing (one neighbour ranking for the whole ``n_neighbors`` grid, one
boosting run for the whole ``n_estimators`` grid, one warm-started
coefficient path for the ``C`` grid). Every timed pair is also checked
for byte-identical selection, and an identity sweep over the study
registry grids runs across ``REPRO_BENCH_WORKERS`` processes.

Speedups are appended to ``BENCH_models.json`` at the repo root for the
perf trajectory. The kNN and booster grids are the acceptance bar
(>= 2x); logistic's warm start is a smaller, solver-bound win and is
recorded without a floor.

Run with ``pytest benchmarks/bench_model_selection.py``.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import numpy as np

from conftest import map_parallel
from repro.benchmark.models import MODEL_NAMES, model_search
from repro.ml import (
    GradientBoostedTreesClassifier,
    GridSearchCV,
    KNearestNeighborsClassifier,
    LogisticRegressionClassifier,
)

ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = ROOT / "BENCH_models.json"

#: The timed tuning workloads. Grid widths mirror realistic sweeps —
#: wider than the paper's study grids, which share too little for the
#: booster (its ``max_depth`` grid has no common prefix to reuse).
BENCH_GRIDS = {
    "log_reg": (
        LogisticRegressionClassifier(),
        {"C": [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0]},
    ),
    "knn": (
        KNearestNeighborsClassifier(),
        {"n_neighbors": [1, 3, 5, 9, 15, 21, 31]},
    ),
    "xgboost": (
        GradientBoostedTreesClassifier(max_depth=3),
        {"n_estimators": [5, 10, 20, 30, 40]},
    ),
}

#: Tuning speedup floor per model (None = record only).
SPEEDUP_FLOOR = {"log_reg": None, "knn": 2.0, "xgboost": 2.0}

N_ROWS = 2_400
N_FEATURES = 12
TIMING_ROUNDS = 3


def _bench_data(n: int = N_ROWS, d: int = N_FEATURES, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = ((X @ w + rng.normal(scale=1.5, size=n)) > 0).astype(int)
    return X, y


def _environment_stamp() -> dict:
    """The end-to-end benchmark's stamp: usable cores, CPU, library
    versions, OpenBLAS builds and threads, ``*_NUM_THREADS`` variables."""
    spec = importlib.util.spec_from_file_location(
        "envstamp", ROOT / "perfbench" / "envstamp.py"
    )
    envstamp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envstamp)
    return envstamp.environment_stamp()


def _merge_artifact(update: dict) -> None:
    payload = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    payload.update(update)
    payload.pop("cpu_count", None)  # superseded by the environment stamp
    payload["environment"] = _environment_stamp()
    payload["config"] = {
        "n_rows": N_ROWS,
        "n_features": N_FEATURES,
        "n_splits": 3,
        "timing_rounds": TIMING_ROUNDS,
        "grids": {
            name: grid for name, (__, grid) in BENCH_GRIDS.items()
        },
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def _time_search(estimator, grid, X, y, use_fast_path: bool):
    """Best-of-rounds wall clock plus the last fitted search."""
    best = float("inf")
    search = None
    for __ in range(TIMING_ROUNDS):
        search = GridSearchCV(
            estimator, grid, n_splits=3, random_state=0,
            use_fast_path=use_fast_path,
        )
        start = time.perf_counter()
        search.fit(X, y)
        best = min(best, time.perf_counter() - start)
    return best, search


def _registry_identity(name: str) -> dict:
    """Worker for the parallel sweep: both paths on the study grid."""
    rng = np.random.default_rng(17)
    X = rng.normal(size=(600, 10))
    w = rng.normal(size=10)
    y = ((X @ w + rng.normal(scale=1.5, size=600)) > 0).astype(int)
    naive = model_search(name, tuning_seed=5, fast_path=False).fit(X, y)
    fast = model_search(name, tuning_seed=5, fast_path=True).fit(X, y)
    return {
        "model": name,
        "identical": (
            naive.best_params_ == fast.best_params_
            and [e["score"] for e in naive.cv_results_]
            == [e["score"] for e in fast.cv_results_]
        ),
        "best_params": fast.best_params_,
    }


def test_registry_identity_sweep():
    """Study-registry grids select identically on both paths (sharded
    across ``REPRO_BENCH_WORKERS`` processes)."""
    results = map_parallel(_registry_identity, MODEL_NAMES)
    assert all(entry["identical"] for entry in results), results
    _merge_artifact({"registry_identity": results})


def test_grid_search_kernel_speedups():
    """Naive vs fast tuning wall clock for all three model families."""
    X, y = _bench_data()
    summary = {}
    for name, (estimator, grid) in BENCH_GRIDS.items():
        naive_s, naive = _time_search(estimator, grid, X, y, use_fast_path=False)
        fast_s, fast = _time_search(estimator, grid, X, y, use_fast_path=True)
        assert naive.best_params_ == fast.best_params_
        assert [e["score"] for e in naive.cv_results_] == [
            e["score"] for e in fast.cv_results_
        ]
        summary[name] = {
            "n_candidates": len(naive.cv_results_),
            "naive_s": naive_s,
            "fast_s": fast_s,
            "speedup": naive_s / fast_s,
        }
    _merge_artifact({"tuning": summary})
    for name, floor in SPEEDUP_FLOOR.items():
        if floor is not None:
            assert summary[name]["speedup"] >= floor, (name, summary[name])
