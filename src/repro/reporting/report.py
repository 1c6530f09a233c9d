"""Full study report generation.

Builds a single markdown document from a populated result store: all
twelve impact matrices, the model table, the case analysis and the
technique analyses — the machine-written counterpart of the paper's
Section V and VI. Used by ``python -m repro`` consumers and the
EXPERIMENTS.md workflow.
"""

from __future__ import annotations

from repro.benchmark.deepdive import DeepDive
from repro.benchmark.impact import ConfigurationImpact, ImpactAnalysis, ImpactMatrix
from repro.benchmark.results import ResultStore
from repro.reporting.tables import (
    render_case_counts,
    render_impact_matrix,
    render_model_table,
)
from repro.stats.impact import Impact

#: (table number, error type, metric, intersectional) in paper order.
TABLE_PLAN: tuple[tuple[str, str, str, bool], ...] = (
    ("II", "missing_values", "PP", False),
    ("III", "missing_values", "EO", False),
    ("IV", "missing_values", "PP", True),
    ("V", "missing_values", "EO", True),
    ("VI", "outliers", "PP", False),
    ("VII", "outliers", "EO", False),
    ("VIII", "outliers", "PP", True),
    ("IX", "outliers", "EO", True),
    ("X", "mislabels", "PP", False),
    ("XI", "mislabels", "EO", False),
    ("XII", "mislabels", "PP", True),
    ("XIII", "mislabels", "EO", True),
)


def study_impacts(
    store: ResultStore,
) -> list[tuple[str, str, str, bool, list[ConfigurationImpact]]]:
    """Each :data:`TABLE_PLAN` row with its classified configurations.

    Runs one :meth:`ImpactAnalysis.classify` pass per error type and
    splits it over that error type's four tables, so no configuration
    is classified twice. Table XIV's impacts are the single-attribute
    rows concatenated in plan order.
    """
    analysis = ImpactAnalysis(store)
    error_types = dict.fromkeys(row[1] for row in TABLE_PLAN)
    folds = {error_type: analysis.classify(error_type) for error_type in error_types}
    # a plan row is (number, error type, metric, intersectional)
    return [(*row, folds[row[1]][row[2:]]) for row in TABLE_PLAN]


def model_choice_impacts(
    rows: list[tuple[str, str, str, bool, list[ConfigurationImpact]]],
) -> list[ConfigurationImpact]:
    """Table XIV's configurations: the single-attribute rows, in order."""
    return [
        impact
        for *_, intersectional, impacts in rows
        if not intersectional
        for impact in impacts
    ]


def _matrix_headline(matrix: ImpactMatrix) -> str:
    """One-sentence summary of a 3x3 matrix's fairness margins."""
    if matrix.total == 0:
        return "no configurations evaluated."
    worse = matrix.fairness_marginal(Impact.WORSE)
    better = matrix.fairness_marginal(Impact.BETTER)
    accuracy_worse = matrix.accuracy_marginal(Impact.WORSE)
    accuracy_better = matrix.accuracy_marginal(Impact.BETTER)
    return (
        f"fairness worse in {100 * worse / matrix.total:.1f}% / better in "
        f"{100 * better / matrix.total:.1f}% of configurations; accuracy "
        f"worse in {100 * accuracy_worse / matrix.total:.1f}% / better in "
        f"{100 * accuracy_better / matrix.total:.1f}%."
    )


def build_study_report(store: ResultStore, title: str = "Study report") -> str:
    """Render a complete markdown report from a result store."""
    sections = [f"# {title}", ""]
    sections.append(f"Result store: {len(store)} run records.")
    sections.append("")

    rows = study_impacts(store)
    for number, error_type, metric, intersectional, impacts in rows:
        matrix = ImpactMatrix.from_impacts(impacts)
        if matrix.total == 0:
            continue
        group = "intersectional" if intersectional else "single-attribute"
        sections.append(
            f"## Table {number}: {error_type}, {group} groups, {metric}"
        )
        sections.append("")
        sections.append("```")
        sections.append(
            render_impact_matrix(matrix, f"Table {number}")
        )
        sections.append("```")
        sections.append("")
        sections.append(f"Headline: {_matrix_headline(matrix)}")
        sections.append("")

    impacts = model_choice_impacts(rows)
    if impacts:
        deepdive = DeepDive(impacts)
        sections.append("## Table XIV: model choice")
        sections.append("")
        sections.append("```")
        sections.append(
            render_model_table(deepdive.model_summaries(), "Table XIV")
        )
        sections.append("```")
        sections.append("")
        sections.append("## Section VI deep dive")
        sections.append("")
        sections.append("```")
        sections.append(render_case_counts(deepdive.case_counts(), "Cases"))
        sections.append("```")
        sections.append("")
        dummy = deepdive.dummy_vs_mode_imputation()
        sections.append(
            f"- Categorical imputation: dummy improves fairness in "
            f"{dummy['dummy']} configurations vs {dummy['other']} for mode."
        )
        rates = deepdive.detection_worsening_rates()
        for name in ("outliers_sd", "outliers_iqr", "outliers_if"):
            if name in rates:
                sections.append(
                    f"- {name}: worsens fairness in {100 * rates[name]:.1f}% "
                    "of its configurations."
                )
        leaderboard = deepdive.accuracy_leaderboard()
        from collections import Counter

        winner_counts = Counter(leaderboard.values())
        ranked = ", ".join(
            f"{model} ({count})" for model, count in winner_counts.most_common()
        )
        sections.append(
            f"- Best-accuracy model per dataset/error pair: {ranked}."
        )
    return "\n".join(sections)
