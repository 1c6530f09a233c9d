"""Regenerate the booster golden store pinned by ``test_golden_xgboost.py``.

The slice is ``chaos_config(models=("xgboost",), n_repetitions=1)`` on
german for all three error types: 16 records, every one of them tuned
and scored with the gradient-boosted trees. The script writes the
store (``study.json`` plus ``study.store/``) next to itself, together
with ``environment.json``: the Python, numpy and scipy versions and the
bundled OpenBLAS builds the bytes were produced with, read by the
benchmark's environment stamp (``perfbench/envstamp.py``).

Regenerate only for an intentional change of the booster's output, and
justify the new bytes in CHANGES.md. Run from the repository root::

    PYTHONPATH=src python tests/identity/golden_xgboost/regenerate.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

from repro.benchmark import ExperimentRunner, ResultStore
from repro.testing.fixtures import chaos_config

HERE = Path(__file__).resolve().parent
DATASET = "german"
ERROR_TYPES = ("missing_values", "outliers", "mislabels")


def golden_config():
    """The pinned study slice's configuration."""
    return chaos_config(models=("xgboost",), n_repetitions=1)


def run_slice(store_path: Path) -> ResultStore:
    """Run the pinned slice into a fresh store at ``store_path``."""
    store = ResultStore(store_path)
    runner = ExperimentRunner(golden_config(), store)
    for error_type in ERROR_TYPES:
        runner.run_dataset_error(DATASET, error_type)
    store.save()
    return store


def build_stack() -> dict[str, object]:
    """The software stack the bytes depend on, without host details."""
    spec = importlib.util.spec_from_file_location(
        "envstamp", HERE.parents[2] / "perfbench" / "envstamp.py"
    )
    envstamp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envstamp)
    stamp = envstamp.environment_stamp()
    # cores, CPU model and thread counts describe the generating host,
    # not the arithmetic, so they are left out of the fixture
    return {
        "python": stamp["python"],
        "numpy": stamp["numpy"],
        "scipy": stamp["scipy"],
        "blas": [
            {key: lib[key] for key in ("package", "library", "config") if key in lib}
            for lib in stamp["blas"]
        ],
    }


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
