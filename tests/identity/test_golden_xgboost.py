"""Cross-version byte-identity of the booster against a golden store.

``test_golden_store.py`` pins a log_reg-only slice, so a change to the
gradient-boosted trees could shift bytes without any tier-1 test
noticing. This test pins a 16-record xgboost slice (german, all three
error types) captured with the per-feature split search that preceded
the feature-stacked kernel in :mod:`repro.ml.tree`. Any change to split
selection, thresholds, leaf values or the boosting accumulation shows
up as a diverged shard. ``environment.json`` next to the fixture
records the Python / numpy / scipy / OpenBLAS stack it was generated
with; the generator is ``golden_xgboost/regenerate.py``.
"""

import json
from pathlib import Path

from repro.testing.fixtures import store_fingerprint
from tests.identity.golden_xgboost.regenerate import run_slice

GOLDEN_DIR = Path(__file__).parent / "golden_xgboost"


def test_xgboost_store_bytes_match_golden(tmp_path):
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
        f"booster store bytes diverged from the golden in {diverged} "
        f"(golden generated with numpy {stamp['numpy']} and scipy "
        f"{stamp['scipy']}; BLAS builds in environment.json)"
    )
