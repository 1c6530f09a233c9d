"""Impact analysis: from run records to the paper's 3x3 matrices.

A *configuration* is a (dataset, sensitive-group definition, fairness
metric, model, error type, detection, repair) tuple. For each
configuration we collect the paired score vectors of the dirty
baseline and the cleaned variant over all runs, classify the impact on
accuracy and on fairness with paired t-tests (Bonferroni-adjusted),
and aggregate configurations into the fairness-impact × accuracy-impact
contingency matrices of Tables II–XIII.

One pass per error type classifies every configuration for every
fairness metric and group kind at once (:meth:`ImpactAnalysis.classify`);
the per-table queries filter its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

import numpy as np

from repro.benchmark.results import ResultStore, RunRecord
from repro.fairness.confusion import (
    confusion_from_store_keys,
    group_key_fragments,
    group_keys_in_metrics,
)
from repro.fairness.metrics import FAIRNESS_METRICS, FairnessMetric
from repro.stats.impact import Impact, classify_impact

#: Number of simultaneous (detection, repair) hypotheses per error type,
#: used as the Bonferroni divisor (CleanML's multiple-testing protocol).
HYPOTHESES_PER_ERROR_TYPE = {
    "missing_values": 6,
    "outliers": 9,
    "mislabels": 1,
}

_IMPACT_ORDER = (Impact.WORSE, Impact.INSIGNIFICANT, Impact.BETTER)


def fairness_value(
    record: RunRecord, technique: str, group_key: str, metric: FairnessMetric
) -> float:
    """Evaluate a fairness metric from a record's stored counts."""
    priv_fragment, dis_fragment = group_key_fragments(group_key)
    privileged = confusion_from_store_keys(record.metrics, technique, priv_fragment)
    disadvantaged = confusion_from_store_keys(record.metrics, technique, dis_fragment)
    if privileged is None or disadvantaged is None:
        return float("nan")
    return metric(privileged, disadvantaged)


@dataclass(frozen=True)
class ConfigurationImpact:
    """Classified impact of one configuration.

    Attributes:
        dataset, group_key, metric_name, model, error_type, detection,
            repair: The configuration coordinates.
        fairness_impact: Impact of cleaning on the fairness metric.
        accuracy_impact: Impact of cleaning on test accuracy.
        n_runs: Number of paired runs behind the classification.
        mean_dirty_fairness / mean_clean_fairness: Mean |disparity|.
        mean_dirty_accuracy / mean_clean_accuracy: Mean accuracies.
    """

    dataset: str
    group_key: str
    metric_name: str
    model: str
    error_type: str
    detection: str
    repair: str
    fairness_impact: Impact
    accuracy_impact: Impact
    n_runs: int
    mean_dirty_fairness: float
    mean_clean_fairness: float
    mean_dirty_accuracy: float
    mean_clean_accuracy: float

    @property
    def intersectional(self) -> bool:
        """Whether the group definition is intersectional."""
        return "_x_" in self.group_key


@dataclass
class ImpactMatrix:
    """A 3x3 fairness-impact × accuracy-impact contingency matrix."""

    counts: dict[tuple[Impact, Impact], int] = field(
        default_factory=lambda: {
            (f, a): 0 for f in _IMPACT_ORDER for a in _IMPACT_ORDER
        }
    )

    @classmethod
    def from_impacts(cls, impacts: list[ConfigurationImpact]) -> "ImpactMatrix":
        """The matrix counting each classified configuration once."""
        matrix = cls()
        for impact in impacts:
            matrix.add(impact.fairness_impact, impact.accuracy_impact)
        return matrix

    def add(self, fairness: Impact, accuracy: Impact) -> None:
        """Count one configuration."""
        self.counts[(fairness, accuracy)] += 1

    @property
    def total(self) -> int:
        """Total configurations counted."""
        return sum(self.counts.values())

    def count(self, fairness: Impact, accuracy: Impact) -> int:
        """Count in one cell."""
        return self.counts[(fairness, accuracy)]

    def fairness_marginal(self, fairness: Impact) -> int:
        """Row total for a fairness impact."""
        return sum(self.counts[(fairness, a)] for a in _IMPACT_ORDER)

    def accuracy_marginal(self, accuracy: Impact) -> int:
        """Column total for an accuracy impact."""
        return sum(self.counts[(f, accuracy)] for f in _IMPACT_ORDER)

    def fraction(self, fairness: Impact, accuracy: Impact) -> float:
        """Cell share of the total (NaN when empty)."""
        if self.total == 0:
            return float("nan")
        return self.counts[(fairness, accuracy)] / self.total


class ImpactAnalysis:
    """Classifies configurations and aggregates them into matrices.

    Holds no state between calls: every query streams the store afresh
    and reads the Bonferroni divisors when it runs.
    """

    def __init__(self, store: ResultStore, alpha: float = 0.05) -> None:
        self.store = store
        self.alpha = alpha

    def classify(
        self,
        error_type: str,
        datasets: tuple[str, ...] | None = None,
        models: tuple[str, ...] | None = None,
    ) -> dict[tuple[str, bool], list[ConfigurationImpact]]:
        """Classify every configuration of one error type in one pass.

        Streams the error type's records once, one (dataset,
        error_type) shard at a time, grouped by (detection, repair,
        model). Returns one list per (metric name, intersectional) pair,
        holding configurations in order of first appearance in store key
        order, then group keys in sorted order; runs pair in key order.
        """
        n_hypotheses = HYPOTHESES_PER_ERROR_TYPE.get(error_type, 1)
        impacts: dict[tuple[str, bool], list[ConfigurationImpact]] = {
            (metric_name, intersectional): []
            for intersectional in (False, True)
            for metric_name in FAIRNESS_METRICS
        }
        shards = groupby(
            self.store.records(error_type=error_type), key=attrgetter("dataset")
        )
        for dataset, shard in shards:
            if datasets is not None and dataset not in datasets:
                continue
            configurations: dict[tuple[str, str, str], list[RunRecord]] = {}
            for record in shard:
                if models is None or record.model in models:
                    key = (record.detection, record.repair, record.model)
                    configurations.setdefault(key, []).append(record)
            for records in configurations.values():
                first = records[0]
                for group_key in group_keys_in_metrics(first.metrics, first.repair):
                    for metric_name in FAIRNESS_METRICS:
                        impact = self._classify(
                            records, group_key, metric_name, n_hypotheses
                        )
                        impacts[(metric_name, impact.intersectional)].append(impact)
        return impacts

    def configuration_impacts(
        self,
        error_type: str,
        metric_name: str,
        intersectional: bool,
        datasets: tuple[str, ...] | None = None,
        models: tuple[str, ...] | None = None,
    ) -> list[ConfigurationImpact]:
        """Classify every configuration for one error type and metric.

        Args:
            error_type: The error type to analyse.
            metric_name: Key into the fairness-metric registry
                (``PP`` or ``EO``).
            intersectional: Use intersectional group definitions
                instead of single-attribute ones.
            datasets / models: Optional filters.
        """
        return self.classify(error_type, datasets, models)[
            (metric_name, intersectional)
        ]

    def matrix(
        self,
        error_type: str,
        metric_name: str,
        intersectional: bool,
        datasets: tuple[str, ...] | None = None,
        models: tuple[str, ...] | None = None,
    ) -> ImpactMatrix:
        """The 3x3 contingency matrix over all configurations."""
        return ImpactMatrix.from_impacts(
            self.configuration_impacts(
                error_type, metric_name, intersectional, datasets, models
            )
        )

    # -- internals ---------------------------------------------------------

    def _classify(
        self,
        records: list[RunRecord],
        group_key: str,
        metric_name: str,
        n_hypotheses: int,
    ) -> ConfigurationImpact:
        metric = FAIRNESS_METRICS[metric_name]
        first = records[0]
        repair = first.repair
        dirty_fairness = np.array(
            [fairness_value(r, "dirty", group_key, metric) for r in records]
        )
        clean_fairness = np.array(
            [fairness_value(r, repair, group_key, metric) for r in records]
        )
        dirty_accuracy = np.array(
            [float(r.metrics["dirty_test_acc"]) for r in records]
        )
        clean_accuracy = np.array(
            [float(r.metrics[f"{repair}_test_acc"]) for r in records]
        )
        fairness_impact = classify_impact(
            dirty_fairness,
            clean_fairness,
            higher_is_better=False,
            use_magnitude=True,
            alpha=self.alpha,
            n_hypotheses=n_hypotheses,
        )
        accuracy_impact = classify_impact(
            dirty_accuracy,
            clean_accuracy,
            higher_is_better=True,
            alpha=self.alpha,
            n_hypotheses=n_hypotheses,
        )
        return ConfigurationImpact(
            dataset=first.dataset,
            group_key=group_key,
            metric_name=metric_name,
            model=first.model,
            error_type=first.error_type,
            detection=first.detection,
            repair=repair,
            fairness_impact=fairness_impact,
            accuracy_impact=accuracy_impact,
            n_runs=len(records),
            mean_dirty_fairness=float(np.nanmean(np.abs(dirty_fairness)))
            if not np.isnan(dirty_fairness).all()
            else float("nan"),
            mean_clean_fairness=float(np.nanmean(np.abs(clean_fairness)))
            if not np.isnan(clean_fairness).all()
            else float("nan"),
            mean_dirty_accuracy=float(np.mean(dirty_accuracy)),
            mean_clean_accuracy=float(np.mean(clean_accuracy)),
        )
