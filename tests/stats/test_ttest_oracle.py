"""``paired_t_test`` against scipy's ``ttest_rel``, compared exactly.

The closed form in :mod:`repro.stats.impact` repeats the operations of
``scipy.stats.ttest_rel`` one for one (DESIGN §17), so the p-values must
be the same float, not merely close: a p-value that moves by one ulp
can cross a Bonferroni threshold and flip a table cell. The oracle is
scipy itself, behind the same NaN-pair and degenerate-input branches.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.reporting import build_study_report
from repro.stats import impact as impact_module
from repro.stats.impact import paired_t_test
from tests.identity.golden_report.regenerate import ROOT, open_copy

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


def scipy_paired_p(baseline: np.ndarray, treated: np.ndarray) -> float:
    """The p-value as scipy's ``ttest_rel`` computes it."""
    baseline = np.asarray(baseline, dtype=np.float64)
    treated = np.asarray(treated, dtype=np.float64)
    keep = ~(np.isnan(baseline) | np.isnan(treated))
    baseline, treated = baseline[keep], treated[keep]
    if baseline.size < 2 or np.allclose(treated - baseline, 0.0):
        return 1.0
    with warnings.catch_warnings():
        # near-constant differences trip scipy's precision-loss warning
        warnings.simplefilter("ignore", RuntimeWarning)
        p_value = float(scipy_stats.ttest_rel(treated, baseline).pvalue)
    return 1.0 if np.isnan(p_value) else p_value


unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def paired_vectors(draw):
    n = draw(st.integers(2, 40))
    scale = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6]))
    baseline = np.array(draw(st.lists(unit, min_size=n, max_size=n))) * scale
    kind = draw(st.sampled_from(["noise", "shift", "constant", "near_constant", "atol_edge"]))
    if kind == "noise":
        differences = np.array(draw(st.lists(unit, min_size=n, max_size=n))) * scale
    elif kind == "shift":
        noise = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        differences = (draw(unit) + 0.1 * noise) * scale
    elif kind == "constant":
        differences = np.full(n, draw(unit) * scale)
    elif kind == "near_constant":
        noise = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        differences = draw(unit) * scale + noise * scale * 1e-12
    else:
        # np.allclose(d, 0) holds iff every |d| <= 1e-8
        factor = draw(st.sampled_from([0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5]))
        noise = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        differences = 1e-8 * factor + noise * draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    treated = baseline + differences
    drop = np.array(draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, 2]), min_size=n, max_size=n)))
    baseline[drop == 1] = np.nan
    treated[drop == 2] = np.nan
    return baseline, treated


@SETTINGS
@given(paired_vectors())
def test_closed_form_matches_scipy_exactly(vectors):
    baseline, treated = vectors
    assert paired_t_test(baseline, treated) == scipy_paired_p(baseline, treated)


@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
def test_allclose_edge_matches_scipy(ulps):
    # a constant difference ``ulps`` floats away from the 1e-8 atol
    shift = 1e-8
    for _ in range(abs(ulps)):
        shift = np.nextafter(shift, np.inf if ulps > 0 else 0.0)
    baseline = np.zeros(12)
    treated = baseline + shift
    p_value = paired_t_test(baseline, treated)
    assert p_value == scipy_paired_p(baseline, treated)
    if ulps <= 0:
        assert p_value == 1.0


@pytest.fixture(scope="module")
def report_vectors(rq2_stores, tmp_path_factory):
    """Every (baseline, treated) pair the report classifies, per store."""
    golden = open_copy(
        ROOT / "tests" / "identity" / "golden" / "study.json",
        tmp_path_factory.mktemp("golden"),
    )
    stores = {**rq2_stores, "golden": golden}
    vectors = {}
    calls: list = []
    original = impact_module.paired_t_test

    def record(baseline, treated):
        calls.append((np.array(baseline), np.array(treated)))
        return original(baseline, treated)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(impact_module, "paired_t_test", record)
        for name, store in stores.items():
            calls = vectors[name] = []
            build_study_report(store)
    return vectors


@pytest.mark.parametrize("name", ["study", "golden_xgboost", "golden"])
def test_every_report_vector_matches_scipy_exactly(report_vectors, name):
    vectors = report_vectors[name]
    assert vectors
    mismatched = [
        index
        for index, (baseline, treated) in enumerate(vectors)
        if paired_t_test(baseline, treated) != scipy_paired_p(baseline, treated)
    ]
    assert not mismatched, f"{len(mismatched)} of {len(vectors)} p-values differ"

