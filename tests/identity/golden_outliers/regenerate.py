"""Regenerate the outlier golden store pinned by ``test_golden_outliers.py``.

The slice is ``chaos_config(models=("log_reg", "knn"), n_repetitions=1)``
with every dataset in ``DATASET_NAMES`` generated at 600 rows, run over
the ``outliers`` error type: 90 records, covering each outlier detector
(SD, IQR, isolation forest) and repair on every dataset, scored with
both the logistic regression and kNN. The script writes the store
(``study.json`` plus ``study.store/``) next to itself, together with
``environment.json``: the record count and the Python, numpy and scipy
versions and OpenBLAS builds the bytes were produced with.

Regenerate only for an intentional change of the outlier pipeline's
output, and justify the new bytes in CHANGES.md. Run from the
repository root::

    PYTHONPATH=src python tests/identity/golden_outliers/regenerate.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

from repro.benchmark import ExperimentRunner, ResultStore
from repro.datasets import DATASET_NAMES
from repro.testing.fixtures import chaos_config

HERE = Path(__file__).resolve().parent
ERROR_TYPE = "outliers"


def golden_config():
    """The pinned study slice's configuration."""
    return chaos_config(
        models=("log_reg", "knn"),
        n_repetitions=1,
        dataset_sizes=dict.fromkeys(DATASET_NAMES, 600),
    )


def run_slice(store_path: Path) -> ResultStore:
    """Run the pinned slice into a fresh store at ``store_path``."""
    store = ResultStore(store_path)
    runner = ExperimentRunner(golden_config(), store)
    for dataset in DATASET_NAMES:
        runner.run_dataset_error(dataset, ERROR_TYPE)
    store.save()
    return store


def build_stack() -> dict[str, object]:
    """The software stack, as the booster golden records it."""
    spec = importlib.util.spec_from_file_location(
        "golden_xgboost_regenerate", HERE.parent / "golden_xgboost" / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_stack()


def main() -> None:
    store_path = HERE / "study.json"
    store_path.unlink(missing_ok=True)
    shutil.rmtree(HERE / "study.store", ignore_errors=True)
    store = run_slice(store_path)
    stamp = {"records": len(store), **build_stack()}
    (HERE / "environment.json").write_text(json.dumps(stamp, indent=2) + "\n")
    print(f"wrote {len(store)} records to {store_path}")


if __name__ == "__main__":
    main()
