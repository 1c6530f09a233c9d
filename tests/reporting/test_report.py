"""Tests for the markdown study-report builder."""

import pytest

from repro.benchmark import ExperimentRunner, ResultStore, StudyConfig
from repro.reporting import build_study_report
from repro.reporting.report import study_impacts
from repro.stats import impact as impact_module


@pytest.fixture(scope="module")
def mini_store():
    store = ResultStore()
    runner = ExperimentRunner(StudyConfig.smoke_scale(), store)
    runner.run_dataset_error("german", "missing_values", models=("log_reg",))
    return store


def test_report_contains_expected_sections(mini_store):
    report = build_study_report(mini_store, title="Smoke study")
    assert report.startswith("# Smoke study")
    assert "## Table II" in report
    assert "## Table IV" in report  # intersectional groups exist on german
    assert "## Table XIV" in report
    assert "Headline:" in report


def test_report_skips_absent_error_types(mini_store):
    report = build_study_report(mini_store)
    assert "## Table VI:" not in report  # no outlier runs in the store
    assert "## Table X:" not in report


def test_report_mentions_store_size(mini_store):
    report = build_study_report(mini_store)
    assert f"{len(mini_store)} run records" in report


def test_empty_store_report():
    report = build_study_report(ResultStore(), title="Empty")
    assert report.startswith("# Empty")
    assert "## Table" not in report


def test_report_classifies_each_configuration_once(mini_store, monkeypatch):
    configurations = sum(len(impacts) for *_, impacts in study_impacts(mini_store))
    calls = []
    original = impact_module.paired_t_test

    def counted(baseline, treated):
        calls.append(1)
        return original(baseline, treated)

    monkeypatch.setattr(impact_module, "paired_t_test", counted)
    build_study_report(mini_store)
    # one fairness and one accuracy test per configuration; Table XIV
    # reuses the single-attribute classifications
    assert len(calls) == 2 * configurations
