"""Tests for ImpactAnalysis internals: key recovery and value extraction."""

import numpy as np

from repro.benchmark import ImpactAnalysis, ResultStore, RunRecord
from repro.benchmark import impact as impact_module
from repro.benchmark.impact import fairness_value
from repro.fairness.metrics import predictive_parity
from repro.stats.impact import Impact


def make_record(repetition, dirty_counts, clean_counts, dirty_acc, clean_acc):
    """A record with sex-group confusion counts for dirty and repaired."""
    metrics = {"dirty_test_acc": dirty_acc, "impute_mean_dummy_test_acc": clean_acc}
    for technique, (priv, dis) in (
        ("dirty", dirty_counts),
        ("impute_mean_dummy", clean_counts),
    ):
        for fragment, counts in (("sex_priv", priv), ("sex_dis", dis)):
            for cell, count in zip(("tn", "fp", "fn", "tp"), counts):
                metrics[f"{technique}__{fragment}__{cell}"] = count
    return RunRecord(
        dataset="german",
        error_type="missing_values",
        detection="missing_values",
        repair="impute_mean_dummy",
        model="log_reg",
        repetition=repetition,
        tuning_seed=0,
        metrics=metrics,
    )


def build_store(n=10, improvement=True):
    """Dirty precision gap is large; clean gap small (or reversed)."""
    store = ResultStore()
    rng = np.random.default_rng(0)
    for repetition in range(n):
        jitter = int(rng.integers(0, 3))
        dirty = ((50, 10, 5, 40), (50, 2 + jitter, 5, 10))   # priv prec .8, dis ~.8+
        clean = ((50, 10, 5, 40), (50, 10 + jitter, 5, 40))  # closer precisions
        if not improvement:
            dirty, clean = clean, dirty
        store.add(
            make_record(
                repetition,
                dirty,
                clean,
                dirty_acc=0.70 + 0.001 * jitter,
                clean_acc=0.70 + 0.001 * jitter,
            )
        )
    return store


def test_fairness_value_matches_manual_computation():
    record = make_record(
        0,
        dirty_counts=((50, 10, 5, 40), (50, 2, 5, 10)),
        clean_counts=((50, 10, 5, 40), (50, 10, 5, 40)),
        dirty_acc=0.7,
        clean_acc=0.7,
    )
    value = fairness_value(record, "dirty", "sex", predictive_parity)
    priv_precision = 40 / 50
    dis_precision = 10 / 12
    assert value == priv_precision - dis_precision


def test_group_keys_recovered_from_metrics():
    store = build_store(n=1)
    analysis = ImpactAnalysis(store)
    impacts = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert [impact.group_key for impact in impacts] == ["sex"]
    assert analysis.configuration_impacts(
        "missing_values", "PP", intersectional=True
    ) == []


def test_shrinking_gap_classified_better():
    analysis = ImpactAnalysis(build_store(improvement=True))
    (impact,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert impact.fairness_impact is Impact.BETTER
    assert impact.mean_clean_fairness < impact.mean_dirty_fairness


def test_growing_gap_classified_worse():
    analysis = ImpactAnalysis(build_store(improvement=False))
    (impact,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert impact.fairness_impact is Impact.WORSE


def test_identical_scores_classified_insignificant():
    store = ResultStore()
    for repetition in range(8):
        counts = ((50, 10, 5, 40), (50, 10, 5, 40))
        store.add(make_record(repetition, counts, counts, 0.7, 0.7))
    analysis = ImpactAnalysis(store)
    (impact,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert impact.fairness_impact is Impact.INSIGNIFICANT
    assert impact.accuracy_impact is Impact.INSIGNIFICANT


def test_dataset_and_model_filters():
    analysis = ImpactAnalysis(build_store())
    assert (
        analysis.configuration_impacts(
            "missing_values", "PP", intersectional=False, datasets=("adult",)
        )
        == []
    )
    assert (
        analysis.configuration_impacts(
            "missing_values", "PP", intersectional=False, models=("knn",)
        )
        == []
    )
    assert (
        len(
            analysis.configuration_impacts(
                "missing_values",
                "PP",
                intersectional=False,
                datasets=("german",),
                models=("log_reg",),
            )
        )
        == 1
    )


def test_n_runs_recorded():
    analysis = ImpactAnalysis(build_store(n=7))
    (impact,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert impact.n_runs == 7


def test_reused_analysis_sees_records_added_between_calls():
    """No memo may survive a call: the second query sees the new record."""
    store = build_store(n=3)
    analysis = ImpactAnalysis(store)
    (before,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    counts = ((50, 10, 5, 40), (50, 10, 5, 40))
    store.add(make_record(3, counts, counts, 0.7, 0.7))
    (after,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert (before.n_runs, after.n_runs) == (3, 4)


def test_reused_analysis_reads_bonferroni_divisor_per_call(monkeypatch):
    """A patched divisor (the Bonferroni ablation) applies to the next call."""
    store = ResultStore()
    gains = (0.02, 0.01, 0.0, 0.015, 0.03, 0.005)  # paired p ~ .029
    counts = ((50, 10, 5, 40), (50, 10, 5, 40))
    for repetition, gain in enumerate(gains):
        store.add(make_record(repetition, counts, counts, 0.7, 0.7 + gain))
    analysis = ImpactAnalysis(store)

    def accuracy_impact():
        (impact,) = analysis.configuration_impacts(
            "missing_values", "PP", intersectional=False
        )
        return impact.accuracy_impact

    assert accuracy_impact() is Impact.INSIGNIFICANT  # .029 >= .05 / 6
    monkeypatch.setattr(
        impact_module,
        "HYPOTHESES_PER_ERROR_TYPE",
        {**impact_module.HYPOTHESES_PER_ERROR_TYPE, "missing_values": 1},
    )
    assert accuracy_impact() is Impact.BETTER  # .029 < .05


def test_classify_splits_one_pass_over_metric_and_group_kind():
    store = build_store(n=4)
    analysis = ImpactAnalysis(store)
    lists = analysis.classify("missing_values")
    assert sorted(lists) == [("EO", False), ("EO", True), ("PP", False), ("PP", True)]
    for (metric_name, intersectional), impacts in lists.items():
        assert impacts == analysis.configuration_impacts(
            "missing_values", metric_name, intersectional
        )
