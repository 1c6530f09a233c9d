"""Cross-version identity of the RQ1 findings (Figures 1–2).

No other tier-1 test pins the detectors' row masks across code
versions: the study stores record repaired-model metrics, not which
rows each detector flagged. This test re-renders every
:class:`DisparityFinding` of all five datasets at 600 rows (seed 0) —
counts per group and the ``repr`` of each G² statistic and p-value —
and compares the text with ``golden_rq1/findings.txt``, captured before
the isolation forest moved to its ``(features × rows)`` layout. A
changed flag in any detector (missing values, SD / IQR / isolation
forest outliers, confident learning) shows up as a differing line.
``environment.json`` records the Python / numpy / scipy / OpenBLAS
stack of the fixture; the generator is ``golden_rq1/regenerate.py``.
"""

import json
from pathlib import Path

from tests.identity.golden_rq1.regenerate import render_findings

GOLDEN_DIR = Path(__file__).parent / "golden_rq1"


def test_rq1_findings_match_golden():
    actual = render_findings()
    golden = (GOLDEN_DIR / "findings.txt").read_text().splitlines()
    stamp = json.loads((GOLDEN_DIR / "environment.json").read_text())
    assert len(golden) == stamp["findings"]
    diverged = [
        f"golden {want!r} != actual {got!r}"
        for want, got in zip(golden, actual)
        if want != got
    ]
    assert len(actual) == len(golden) and not diverged, (
        f"RQ1 findings diverged from the golden ({len(actual)} vs "
        f"{len(golden)} lines; golden generated with numpy {stamp['numpy']} "
        f"and scipy {stamp['scipy']}): {diverged[:5]}"
    )
