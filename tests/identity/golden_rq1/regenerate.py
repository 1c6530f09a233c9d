"""Regenerate the RQ1 golden pinned by ``test_golden_rq1.py``.

Figures 1–2 come from :class:`repro.benchmark.DisparityAnalysis`: every
detector (missing values, SD / IQR / isolation-forest outliers,
confident learning) flags rows, and a G² test compares the flagged
fractions of the privileged and disadvantaged groups. For every dataset
in ``DATASET_NAMES``, generated at ``n_rows=600`` with seed 0, the
script writes one line per :class:`DisparityFinding` to
``findings.txt``: single-attribute findings first, then intersectional
ones, each with its raw counts and the ``repr`` of the G² statistic and
p-value. ``environment.json`` records the finding count and the Python,
numpy and scipy versions and OpenBLAS builds the text was produced with.

Regenerate only for an intentional change of a detector's output, and
justify the new text in CHANGES.md. Run from the repository root::

    PYTHONPATH=src python tests/identity/golden_rq1/regenerate.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.benchmark.disparity import DisparityAnalysis, DisparityFinding
from repro.datasets import DATASET_NAMES, load_dataset

HERE = Path(__file__).resolve().parent
N_ROWS = 600
SEED = 0


def format_finding(kind: str, finding: DisparityFinding) -> str:
    """One finding as a stable text line."""
    f = finding
    return (
        f"{kind}|{f.dataset}|{f.detector}|{f.group_key}|"
        f"{f.privileged_flagged}/{f.privileged_total}|"
        f"{f.disadvantaged_flagged}/{f.disadvantaged_total}|"
        f"{f.test.statistic!r}|{f.test.p_value!r}"
    )


def render_findings() -> list[str]:
    """Every RQ1 finding of the pinned tables, one line each."""
    lines: list[str] = []
    for name in DATASET_NAMES:
        definition, table = load_dataset(name, n_rows=N_ROWS, seed=SEED)
        analysis = DisparityAnalysis()
        for finding in analysis.single_attribute(definition, table):
            lines.append(format_finding("single", finding))
        if definition.intersectional_specs:
            for finding in analysis.intersectional(definition, table):
                lines.append(format_finding("intersectional", finding))
    return lines


def build_stack() -> dict[str, object]:
    """The software stack, as the booster golden records it."""
    spec = importlib.util.spec_from_file_location(
        "golden_xgboost_regenerate", HERE.parent / "golden_xgboost" / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_stack()


def main() -> None:
    lines = render_findings()
    (HERE / "findings.txt").write_text("\n".join(lines) + "\n")
    stamp = {"findings": len(lines), **build_stack()}
    (HERE / "environment.json").write_text(json.dumps(stamp, indent=2) + "\n")
    print(f"wrote {len(lines)} findings to {HERE / 'findings.txt'}")


if __name__ == "__main__":
    main()
