"""Cross-version byte-identity of the outlier pipeline on every dataset.

``test_golden_store.py`` and ``test_golden_xgboost.py`` cover german
only. This test pins a 90-record slice — all five datasets at 600 rows,
the ``outliers`` error type, log_reg and knn — so a change to any
outlier detector (the isolation forest included), outlier repair, the
featurizer or either model on any dataset shows up as a diverged shard.
The fixture was captured before the isolation forest moved to its
``(features × rows)`` layout; ``environment.json`` next to it records
the Python / numpy / scipy / OpenBLAS stack, and the generator is
``golden_outliers/regenerate.py``.
"""

import json
from pathlib import Path

from repro.testing.fixtures import store_fingerprint
from tests.identity.golden_outliers.regenerate import run_slice

GOLDEN_DIR = Path(__file__).parent / "golden_outliers"


def test_outlier_store_bytes_match_golden(tmp_path):
    store = run_slice(tmp_path / "study.json")
    stamp = json.loads((GOLDEN_DIR / "environment.json").read_text())
    assert len(store) == stamp["records"]

    actual = store_fingerprint(tmp_path / "study.json")
    golden = store_fingerprint(GOLDEN_DIR / "study.json")
    assert actual.keys() == golden.keys(), (
        f"shard layout diverged from golden: {sorted(actual)} != {sorted(golden)}"
    )
    diverged = [name for name in golden if actual[name] != golden[name]]
    assert not diverged, (
        f"outlier store bytes diverged from the golden in {diverged} "
        f"(golden generated with numpy {stamp['numpy']} and scipy "
        f"{stamp['scipy']}; BLAS builds in environment.json)"
    )
