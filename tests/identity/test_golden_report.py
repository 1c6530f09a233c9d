"""Cross-version pin of the rendered RQ2 report and the fairness audit.

The store goldens pin what the study *writes*; this test pins what the
read side *renders* from it. ``golden_report/digests.json`` holds the
SHA-256 of ``build_study_report`` and of the canonical audit JSON over
the committed full study store and over the 16-record booster golden
store, and ``golden_xgboost_report.md`` holds the small store's full
report. A refactor of ``repro.stats.impact``, ``ImpactAnalysis`` or the
reporting layer that moves a single p-value across a threshold, reorders
a configuration or re-renders a cell fails here. The generator is
``golden_report/regenerate.py``.
"""

import json

import pytest

from tests.identity.golden_report.regenerate import HERE, SMALL_REPORT, render, sha256

DIGESTS = json.loads((HERE / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGESTS["stores"]))
def test_report_and_audit_match_golden(rq2_stores, name):
    store = rq2_stores[name]
    pinned = DIGESTS["stores"][name]
    assert len(store) == pinned["records"]
    report, audit = render(store)
    if name == "golden_xgboost":
        assert report == SMALL_REPORT.read_text()
    assert sha256(report) == pinned["report_sha256"], (
        f"rendered report of {name} diverged from the golden (generated with "
        f"numpy {DIGESTS['numpy']} and scipy {DIGESTS['scipy']})"
    )
    assert sha256(audit) == pinned["audit_sha256"], (
        f"fairness audit of {name} diverged from the golden"
    )
