"""The benchmark's workloads, driven through the program's public entry points.

Each workload has a one-time ``setup`` (dataset generation, input
store copy/migration), a ``run`` that does the measured work once
inside a fresh directory, and an untimed ``outcome`` that checks what
``run`` produced and returns an :class:`Outcome`: a digest of the
output, the operations attempted and failed, and the work items
processed (records written, table rows screened, records reported). ``--seed`` only reaches ``StudyConfig.generation_seed`` and
dataset generation; every other seed is fixed.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.benchmark import (
    DisparityAnalysis,
    ExecutorOptions,
    ResultStore,
    StudyConfig,
    parallel,
)
from repro.benchmark.runner import ERROR_TYPES
from repro.cleaning.mislabels import ConfidentLearningDetector
from repro.cleaning.repair import LabelFlipRepair
from repro.cleaning.strategies import (
    missing_value_repairs,
    outlier_detectors,
    outlier_repairs,
)
from repro.datasets import dataset_definition, load_dataset
from repro.ml import incremental
from repro.obs import audit
from repro.reporting import report
from repro.tabular import train_test_split_table
from repro.testing.fixtures import store_fingerprint

#: Opens a named span (the tracer's, or a no-op when untraced).
Span = Callable[[str], AbstractContextManager]


@dataclass(frozen=True)
class Outcome:
    """What one iteration produced.

    Attributes:
        digest: Hex digest of the iteration's output.
        attempted: Operations attempted (expected records, findings).
        failed: Attempted operations that failed or are missing.
        items: Work items processed (the throughput numerator).
        store_bytes: Bytes of the result store written (0 if none).
        poisoned: Work units the executor poisoned.
        violations: What ``ResultStore.verify`` reported (a poisoned
            unit is reported there too).
    """

    digest: str
    attempted: int
    failed: int
    items: int
    store_bytes: int = 0
    poisoned: int = 0
    violations: tuple[str, ...] = ()


def _sha256(parts: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


# -- grid workloads ---------------------------------------------------------


def expected_keys(
    config: StudyConfig,
    datasets: Iterable[str],
    error_types: Iterable[str],
    models: Iterable[str],
) -> set[str]:
    """Every record key a complete run of the grid slice must store."""
    keys: set[str] = set()
    for dataset in datasets:
        supported = dataset_definition(dataset).error_types
        for error_type in error_types:
            if error_type not in supported:
                continue
            for repetition in range(config.n_repetitions):
                for model in models:
                    for seed in range(config.n_tuning_seeds):
                        keys.update(
                            parallel.expected_cell_keys(
                                dataset, error_type, repetition, model, seed
                            )
                        )
    return keys


def poisoned_units(store: ResultStore) -> list[dict]:
    """Entries of the executor's ``{stem}.failures.jsonl`` sidecar."""
    sidecar = store.failures_path
    if sidecar is None or not sidecar.exists():
        return []
    return [json.loads(line) for line in sidecar.read_text().splitlines() if line]


def failed_records(expected: set[str], store: ResultStore) -> int:
    """Expected records that failed: absent from the store, or in a poisoned cell.

    Poisoned cells come from the executor's failures sidecar; a key
    counts once even when it is both absent and poisoned.
    """
    failed = {key for key in expected if key not in store}
    for unit in poisoned_units(store):
        for model, seed in unit["pending_cells"]:
            failed.update(
                key
                for key in parallel.expected_cell_keys(
                    unit["dataset"], unit["error_type"], unit["repetition"], model, seed
                )
                if key in expected
            )
    return len(failed)


@dataclass
class Grid:
    """A slice of the study grid through ``run_parallel_study``."""

    name: str
    datasets: tuple[str, ...]
    models: tuple[str, ...]
    n_sample: int
    n_repetitions: int
    dataset_sizes: dict[str, int]
    backend: str
    workers: int
    error_types: tuple[str, ...] = ERROR_TYPES
    options: ExecutorOptions | None = None

    @property
    def pool_workers(self) -> int:
        """Processes that execute work units concurrently."""
        return self.workers if self.backend == "process" else 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.config = StudyConfig(
            n_sample=self.n_sample,
            test_fraction=0.4,
            n_repetitions=self.n_repetitions,
            models=self.models,
            dataset_sizes=dict(self.dataset_sizes),
            generation_seed=seed,
        )
        # generation is timed as set-up here; the executor fills its own
        # per-process dataset cache during the untimed warm-up iteration
        for dataset in self.datasets:
            load_dataset(dataset, n_rows=self.config.dataset_size(dataset), seed=seed)
        self.expected = expected_keys(
            self.config, self.datasets, self.error_types, self.models
        )

    def run(self, workdir: Path, span: Span) -> Path:
        path = workdir / "study.json"
        options = self.options or ExecutorOptions(backend=self.backend)
        with span("parallel.run"):
            parallel.run_parallel_study(
                self.config,
                ResultStore(path),
                workers=self.workers,
                datasets=self.datasets,
                error_types=self.error_types,
                models=self.models,
                options=options,
            )
        return path

    def outcome(self, path: Path) -> Outcome:
        """Verify the saved store and digest its exact bytes."""
        store = ResultStore(path)
        violations = store.verify()
        fingerprint = store_fingerprint(path)
        parts = [name.encode() + b"\0" + body for name, body in sorted(fingerprint.items())]
        return Outcome(
            digest=_sha256(parts),
            attempted=len(self.expected),
            failed=failed_records(self.expected, store),
            items=len(store),
            store_bytes=sum(len(body) for body in fingerprint.values()),
            poisoned=len(poisoned_units(store)),
            violations=tuple(violations),
        )


# -- RQ1: detection disparities, repairs, featurisation ---------------------


@dataclass
class Detect:
    """Figures 1-2 on large generated tables, then every repair and featurize."""

    name: str
    tables: dict[str, int]
    pool_workers = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.inputs = [
            load_dataset(dataset, n_rows=n_rows, seed=seed)
            for dataset, n_rows in self.tables.items()
        ]

    def run(self, workdir: Path, span: Span) -> tuple[list[str], int]:
        lines: list[str] = []
        findings = 0
        for definition, table in self.inputs:
            analysis = DisparityAnalysis()
            found = analysis.single_attribute(definition, table)
            if definition.intersectional_specs:
                found += analysis.intersectional(definition, table)
            for f in found:
                lines.append(
                    f"{f.dataset}|{f.detector}|{f.group_key}|{f.privileged_flagged}|"
                    f"{f.privileged_total}|{f.disadvantaged_flagged}|"
                    f"{f.disadvantaged_total}|{f.test.statistic!r}|{f.test.p_value!r}"
                )
            findings += len(found)
            lines.extend(self._repair_and_featurize(definition, table))
        return lines, findings

    def outcome(self, result: tuple[list[str], int]) -> Outcome:
        lines, findings = result
        return Outcome(
            digest=_sha256(line.encode() for line in lines),
            attempted=findings,
            failed=0,
            items=sum(table.n_rows for _definition, table in self.inputs),
        )

    def _repair_and_featurize(self, definition, table) -> list[str]:
        """Every repair of the study, then featurize each repaired version.

        Mirrors the runner: missing-value repairs impute the incomplete
        split; outlier and mislabel repairs start from complete tuples.
        Each repaired version is featurized by patching its parent's
        artifacts where the program can, cold otherwise.
        """
        rng = np.random.default_rng(0)
        train, test = train_test_split_table(table, 0.3, rng)
        y_train = train.column(definition.label).astype(np.int64)
        train = train.drop_columns([definition.label])
        test = test.drop_columns([definition.label])
        columns = definition.feature_columns(train)
        lines = []

        def featurize(name, version, parent=None):
            """Featurize ``(train, labels, test)``, patching ``parent`` if given."""
            artifacts = None
            if parent is not None:
                parent_artifacts, *parent_version = parent
                delta = incremental.version_delta(*parent_version, *version)
                if delta is not None:
                    artifacts = incremental.incremental_featurize(
                        columns, parent_artifacts, delta, version[0], version[2]
                    )
            if artifacts is None:
                artifacts = incremental.featurize_version(columns, version[0], version[2])
            lines.append(
                f"{definition.name}|{name}|{artifacts.X_train.shape}|{artifacts.X_test.shape}"
            )
            return (artifacts, *version)

        first = None
        for name, repair in missing_value_repairs().items():
            repair.fit(train)
            featurized = featurize(
                name, (repair.transform(train), y_train, repair.transform(test)), first
            )
            first = first or featurized

        train_keep, test_keep = ~train.missing_mask(), ~test.missing_mask()
        c_train, c_labels, c_test = (
            train.mask_rows(train_keep),
            y_train[train_keep],
            test.mask_rows(test_keep),
        )
        dirty = featurize("dirty", (c_train, c_labels, c_test))
        for detector_name, detector in outlier_detectors().items():
            detector.fit(c_train)
            train_detection, test_detection = detector.apply(c_train), detector.apply(c_test)
            lines.append(
                f"{definition.name}|{detector_name}|{train_detection.n_flagged}|"
                f"{test_detection.n_flagged}"
            )
            for repair_name, repair in outlier_repairs().items():
                repair.fit(c_train, train_detection)
                version = (
                    repair.transform(c_train, train_detection),
                    c_labels,
                    repair.transform(c_test, test_detection),
                )
                featurize(f"{detector_name}/{repair_name}", version, dirty)
        detection = ConfidentLearningDetector().detect(
            dirty[0].X_train, c_labels
        )
        flipped = LabelFlipRepair().repair(c_labels, detection.row_mask)
        lines.append(f"{definition.name}|cleanlab|{int(detection.row_mask.sum())}")
        featurize("flip_labels", (c_train, flipped, c_test), dirty)
        return lines


# -- RQ2: report and audit over the committed paper-scale store -------------


@dataclass
class Report:
    """Tables II-XIII, the fairness audit and ``verify`` over a store copy."""

    name: str
    source: Path
    source_sha256: str
    n_records: int
    pool_workers = 1

    def setup(self, seed: int, workdir: Path) -> None:
        body = self.source.read_bytes()
        actual = hashlib.sha256(body).hexdigest()
        if actual != self.source_sha256:
            raise ValueError(
                f"{self.source}: input store digest {actual} is not the pinned "
                f"{self.source_sha256}; the workload's input changed"
            )
        self.path = workdir / "study.json"
        self.path.write_bytes(body)
        store = ResultStore(self.path)
        if store.is_legacy:
            store.save()  # migrate once; iterations read the sharded layout

    def run(self, workdir: Path, span: Span) -> tuple:
        store = ResultStore(self.path)
        rendered = report.build_study_report(store)
        fairness = audit.build_audit(store)
        return rendered, fairness, store.verify(), len(store)

    def outcome(self, result: tuple) -> Outcome:
        rendered, fairness, violations, n_records = result
        payload = json.dumps(fairness.to_json(), sort_keys=True)
        return Outcome(
            digest=_sha256([rendered.encode(), payload.encode()]),
            attempted=self.n_records,
            failed=max(self.n_records - n_records, 0),
            items=n_records,
            violations=tuple(violations),
        )


# -- the registry -----------------------------------------------------------

#: SHA-256 of ``benchmarks/_results/study.json``, the rq2-report input.
STUDY_STORE_SHA256 = "0d3c279173a9675080c7194c740b9a79a979a45b1c1fb758ab2ee8a4214c41cb"


def build(name: str, root: Path) -> Grid | Detect | Report:
    """The named workload, sized for one run of the benchmark."""
    if name == "grid-tune":
        return Grid(
            name,
            datasets=("credit",),
            models=("log_reg", "knn", "xgboost"),
            n_sample=400,
            n_repetitions=1,
            dataset_sizes={"credit": 5_000},
            backend="serial",
            workers=1,
        )
    if name == "grid-fanout-knn":
        return Grid(
            name,
            # many tiny units, so dispatch, journal and store save carry
            # a visible share next to the units' own work; credit is left
            # out because at this n_sample about 1% of its splits keep
            # fewer minority labels than the tuner's 3 folds need
            datasets=("adult", "folk", "german"),
            models=("knn",),
            error_types=("missing_values",),
            n_sample=100,
            n_repetitions=40,
            dataset_sizes=dict.fromkeys(("adult", "folk", "german"), 2_000),
            backend="process",
            workers=min(2, len(os.sched_getaffinity(0))),
        )
    if name == "rq1-detect":
        return Detect(name, tables={"adult": 10_000, "credit": 5_000})
    if name == "rq2-report":
        return Report(
            name,
            source=root / "benchmarks" / "_results" / "study.json",
            source_sha256=STUDY_STORE_SHA256,
            n_records=2_124,
        )
    raise ValueError(f"unknown workload {name!r}")
