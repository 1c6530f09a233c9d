"""Self-test of the benchmark's failure accounting.

Runs a tiny fan-out slice of the study grid on the process backend
twice: once clean, once with a :class:`repro.testing.FaultPlan` that
poisons exactly one work unit. ``failed_frac`` (failed records ÷
expected records, see :func:`workloads.failed_records`) must be exactly
0.0 for the clean run and exactly the poisoned unit's share for the
faulty one. It also checks that a traced run reproduces the untraced
store digest and that the layer fold attributes the run to units.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import run

POISONED = ("german", "outliers", 1)


def _tiny(options=None):
    from workloads import Grid

    return Grid(
        "selftest",
        datasets=("german",),
        models=("knn",),
        error_types=("missing_values", "outliers"),
        n_sample=300,
        n_repetitions=2,
        dataset_sizes={"german": 600},
        backend="process",
        workers=2,
        options=options,
    )


def _failed_frac(grid, workdir: Path, tracer=None):
    from layers import ROOT_SPAN, installed

    grid.setup(0, workdir)
    directory = workdir / "run"
    directory.mkdir()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with installed(tracer) if tracer is not None else nullcontext():
        with span(ROOT_SPAN):
            outcome = grid.outcome(grid.run(directory, span))
    return outcome.failed / outcome.attempted, outcome


def main() -> int:
    run._import_program()
    from repro.benchmark import ExecutorOptions, parallel
    from repro.testing import Fault, FaultPlan

    from layers import Tracer, fold

    errors = []
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        (workdir / "clean").mkdir()
        clean_frac, clean = _failed_frac(_tiny(), workdir / "clean")
        if clean_frac != 0.0 or clean.poisoned != 0:
            errors.append(f"clean run: failed_frac {clean_frac}, poisoned {clean.poisoned}")

        plan = FaultPlan(faults=(Fault("transient_error", *POISONED, at=0, attempts=99),))
        faulty_options = ExecutorOptions(max_retries=0, backoff_base=0.0, fault_plan=plan)
        (workdir / "faulty").mkdir()
        faulty_frac, faulty = _failed_frac(_tiny(faulty_options), workdir / "faulty")
        lost = len(parallel.expected_cell_keys(*POISONED, "knn", 0))
        expected_frac = lost / faulty.attempted
        if faulty_frac != expected_frac or faulty.poisoned != 1:
            errors.append(
                f"poisoned run: failed_frac {faulty_frac} (want {expected_frac}), "
                f"poisoned {faulty.poisoned} (want 1)"
            )

        (workdir / "spool").mkdir()
        (workdir / "traced").mkdir()
        tracer = Tracer(workdir / "spool")
        _frac, traced = _failed_frac(_tiny(), workdir / "traced", tracer)
        if traced.digest != clean.digest:
            errors.append("traced run changed the store digest")
        spans, _counts = tracer.collect()
        folded = fold(spans)
        if len(folded["unit_s"]) != 4 or folded["coverage_frac"] < 0.5:
            errors.append(
                f"trace fold: {len(folded['unit_s'])} units (want 4), "
                f"coverage {folded['coverage_frac']:.3f}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not run._stop_children():
            errors.append("a child process did not end")
    for error in errors:
        print(f"FAIL {error}")
    if not errors:
        print(f"ok: clean failed_frac 0.0, one poisoned unit failed_frac {expected_frac}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
