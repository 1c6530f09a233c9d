"""End-to-end study benchmark.

Runs one named workload through the program's public entry points for
``--seconds`` seconds of measured work and prints, as the last line of
standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-tune --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics (see ``perfbench/layers.py``) plus the tracing
overhead. Every iteration's output digest must equal every other's, and
the digest ``perfbench/manifest.json`` records for the seed when there
is one; otherwise the run prints ``"correct": false`` and exits 1.

End-to-end times (``wall_s``, ``items_per_s``, ``setup_s``) are in
nominal-speed seconds: measured times are scaled by the run's
machine-speed reference (``perfbench/calibrate.py``; read by a separate
interpreter before every timed iteration and set-up probe, mean
taken), so a busy neighbour on a shared host does not read as a
regression. Per-layer times are raw seconds.

The line before the result holds the raw measurements (wall times,
reference readings, set-up probes, and the unscaled medians of the
three times next to the scale applied), the output digest and the run's
environment stamp (cores, CPU, library versions, BLAS threading). The
benchmark sets no thread-count variable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from calibrate import NOMINAL_S, ReferenceProbe
from envstamp import environment_stamp
from layers import ROOT_SPAN, Tracer, fold, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MANIFEST = HERE / "manifest.json"

WORKLOADS = ("grid-tune", "grid-fanout-knn", "rq1-detect", "rq2-report")

#: Least timed iterations per untraced run, and least untraced/traced
#: pairs per traced run, however short ``--seconds`` is (each run also
#: makes one untimed warm-up iteration first).
MIN_ITERATIONS = 3
MIN_PAIRS = 2
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
#: How long to wait, on the way out, for child processes to end.
REAP_TIMEOUT_S = 30


def _import_program() -> None:
    """Put the checkout's ``src`` first and make sure ``repro`` comes from it."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def _setup(name: str, seed: int, workdir: Path):
    from workloads import build

    workload = build(name, ROOT)
    workload.setup(seed, workdir)
    return workload


def _probe_setup(name: str, seed: int) -> float:
    """Wall time of imports + set-up in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=PROBE_TIMEOUT_S,
    )
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    """Upper bound on the peak RSS of this process and its children, in MiB.

    The parent's peak plus the largest reaped child's peak. Pool workers
    are forked, so a worker's peak also counts the copy-on-write pages
    it shares with the parent, and the two peaks need not coincide: a
    change to the parent's heap can show up to twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _recorded_digest(name: str, seed: int) -> str | None:
    digests = json.loads(MANIFEST.read_text()).get("digests", {}).get(name, {})
    return digests.get("*", digests.get(str(seed)))


class _Iterations:
    """Runs and checks iterations of one workload in fresh directories."""

    def __init__(self, workload, workdir: Path, reference: Callable[[], float]) -> None:
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.outcomes = []
        #: (wall, reference, outcome) of the timed iterations, untraced
        #: and traced; the reference reading is taken right before
        self.timed = {False: [], True: []}
        self.folds = []
        self.warmup_s = 0.0
        self._count = 0

    def walls(self, traced: bool) -> list[float]:
        return [wall for wall, _reference, _outcome in self.timed[traced]]

    def references(self) -> list[float]:
        return [ref for side in (False, True) for _wall, ref, _outcome in self.timed[side]]

    def run(self, tracer=None, warmup: bool = False) -> None:
        """One iteration; a warm-up is checked but not timed."""
        self._count += 1
        directory = self.workdir / f"iteration-{self._count}"
        directory.mkdir()
        traced = tracer is not None
        reference = 0.0 if warmup else self.reference()
        guard = installed(tracer) if traced else nullcontext()
        span = tracer.span if traced else (lambda name: nullcontext())
        with guard:
            start = time.perf_counter()
            with span(ROOT_SPAN):
                result = self.workload.run(directory, span)
            wall = time.perf_counter() - start
        outcome = self.workload.outcome(result)
        self.outcomes.append(outcome)
        if warmup:
            self.warmup_s = wall
        else:
            self.timed[traced].append((wall, reference, outcome))
        if traced:
            spans, counts = tracer.collect()
            self.folds.append((fold(spans), counts, outcome))
        shutil.rmtree(directory)


def _layer_metrics(folds, workers: int) -> dict[str, tuple[float, str]]:
    """Median over traced iterations of every per-layer metric."""
    rows = []
    for folded, counts, outcome in folds:
        own = folded["self_s"]
        units = folded["unit_s"]
        busy = sum(units)
        capacity = workers * folded["executor_s"]
        attempts = {k: v for k, v in counts.items() if k.startswith("unit_attempts|")}
        cold = counts.get("featurize.cold", 0)
        patched = counts.get("featurize.patched", 0)
        tune_calls = {m: counts.get(f"ml.tune_calls.{m}", 0) for m in ("log_reg", "knn", "xgboost")}
        tail_pct, tail = _tail(units)
        row = {
            "cleaning.detect_s": (own.get("cleaning.detect", 0.0), "s"),
            "cleaning.repair_s": (own.get("cleaning.repair", 0.0), "s"),
            "ml.featurize_s": (own.get("ml.featurize", 0.0), "s"),
            "ml.featurize_patch_ratio": (patched / (cold + patched) if cold + patched else 0.0, "ratio"),
            "ml.predict_s": (own.get("ml.predict", 0.0), "s"),
            "ml.fits_per_record": (
                sum(tune_calls.values()) / outcome.items if outcome.items else 0.0,
                "ratio",
            ),
            "fairness.masks_s": (own.get("fairness.masks", 0.0), "s"),
            "fairness.confusion_s": (own.get("fairness.confusion", 0.0), "s"),
            "runner.units": (len(units), "count"),
            "runner.unit_s.p50": (_percentile(units, 50), "s"),
            "runner.unit_s.tail": (tail, "s"),
            "runner.unit_s.tail_pct": (tail_pct, "pct"),
            "runner.self_s": (own.get("runner.unit", 0.0), "s"),
            "parallel.plan_s": (own.get("parallel.plan", 0.0), "s"),
            "parallel.busy_frac": (busy / capacity if capacity else 0.0, "frac"),
            "parallel.idle_s": (max(capacity - busy, 0.0), "s"),
            "parallel.retries": (sum(attempts.values()) - len(attempts), "count"),
            "parallel.poisoned": (outcome.poisoned, "count"),
            "transport.ship_s": (own.get("transport.ship", 0.0), "s"),
            "results.journal_s": (own.get("results.journal", 0.0), "s"),
            "results.save_s": (own.get("results.save", 0.0), "s"),
            "results.store_bytes": (outcome.store_bytes, "bytes"),
            "results.load_s": (own.get("results.load", 0.0), "s"),
            "results.query_s": (own.get("results.query", 0.0), "s"),
            "results.verify_s": (own.get("results.verify", 0.0), "s"),
            "stats.ttest_s": (own.get("stats.ttest", 0.0), "s"),
            "stats.ttest_calls": (counts.get("stats.ttest_calls", 0), "count"),
            "stats.gtest_s": (own.get("stats.gtest", 0.0), "s"),
            "reporting.render_s": (own.get("reporting.render", 0.0), "s"),
            "obs.audit_s": (own.get("obs.audit", 0.0), "s"),
            "bench.coverage_frac": (folded["coverage_frac"], "frac"),
        }
        for model, calls in tune_calls.items():
            row[f"ml.tune_s.{model}"] = (own.get(f"ml.tune.{model}", 0.0), "s")
            row[f"ml.tune_calls.{model}"] = (calls, "count")
        rows.append(row)
    return {
        name: (statistics.median(row[name][0] for row in rows), unit)
        for name, (_value, unit) in rows[0].items()
    }


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * pct // 100))
    return values[int(rank) - 1]


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest whole percentile with at least 10 values beyond it.

    Returns ``(percentile, value)``. The tail is unavailable, and reads
    ``(0.0, 0.0)``, when that percentile is below 90 (fewer than 100
    values): it would then sit near the median and show no tail.
    """
    n = len(values)
    pct = 100 * (n - 10) // n if n else 0
    if pct < 90:
        return 0.0, 0.0
    return float(pct), _percentile(values, pct)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, report)``."""
    with ReferenceProbe() as probe:
        return _measure(name, seed, seconds, trace, probe.read)


def _measure(
    name: str, seed: int, seconds: float, trace: bool, reference: Callable[[], float]
) -> tuple[dict, dict]:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        tracer = None
        if trace:
            spool = workdir / "spool"
            spool.mkdir()
            tracer = Tracer(spool)
        with installed(tracer) if trace else nullcontext():
            workload = _setup(name, seed, workdir)
        generate_s = 0.0
        if trace:
            spans, _counts = tracer.collect()
            generate_s = sum(
                end - start for _sid, _parent, span, start, end in spans
                if span == "datasets.generate"
            )
        iterations = _Iterations(workload, workdir, reference)
        # lazy imports, first-call allocations and the executor's dataset
        # cache settle in an untimed first iteration
        iterations.run(warmup=True)
        measured = time.perf_counter()
        if trace:
            pairs = 0
            while pairs < MIN_PAIRS or time.perf_counter() - measured < seconds:
                # alternate which side goes first so drift hits both
                order = (None, tracer) if pairs % 2 == 0 else (tracer, None)
                for side in order:
                    iterations.run(side)
                pairs += 1
        else:
            while (
                len(iterations.timed[False]) < MIN_ITERATIONS
                or time.perf_counter() - measured < seconds
            ):
                iterations.run()
        peak_rss_mb = _peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = iterations.outcomes
    digests = sorted({outcome.digest for outcome in outcomes})
    recorded = _recorded_digest(name, seed)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    violations = sorted({v for outcome in outcomes for v in outcome.violations})
    correct = (
        len(digests) == 1
        and failed == 0
        and not violations
        and recorded in (None, digests[0])
    )
    untraced = iterations.walls(False)
    probes: list[tuple[float, float]] = []
    unscaled: dict[str, float] = {}
    scale = 1.0
    if trace:
        layer = _layer_metrics(iterations.folds, workload.pool_workers)
        layer["datasets.generate_s"] = (generate_s, "s")
        layer["bench.trace_overhead_frac"] = (
            statistics.median(iterations.walls(True)) / statistics.median(untraced) - 1.0,
            "frac",
        )
        layer["bench.reference_s"] = (statistics.fmean(iterations.references()), "s")
        metrics = layer
    else:
        for _ in range(SETUP_PROBES):
            reading = reference()
            probes.append((_probe_setup(name, seed), reading))
        # one machine-speed factor per run: single readings are noisy,
        # the drift it corrects lasts minutes
        scale = NOMINAL_S / statistics.fmean(
            iterations.references() + [ref for _probe, ref in probes]
        )
        unscaled = {
            "wall_s": statistics.median(untraced),
            "items_per_s": statistics.median(
                outcome.items / wall for wall, _ref, outcome in iterations.timed[False]
            ),
            "setup_s": statistics.median(probe for probe, _ref in probes),
        }
        metrics = {
            "wall_s": (unscaled["wall_s"] * scale, "s"),
            "items_per_s": (unscaled["items_per_s"] / scale, "1/s"),
            "setup_s": (unscaled["setup_s"] * scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "completed_frac": (1.0 - failed / attempted if attempted else 0.0, "frac"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in sorted(metrics.items())
        },
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "digest": digests[0] if len(digests) == 1 else digests,
        "recorded_digest": recorded,
        "violations": violations,
        "raw_s": {
            "warmup": iterations.warmup_s,
            "untraced": untraced,
            "traced": iterations.walls(True),
            "references": iterations.references(),
            "setup_probes": [probe for probe, _ref in probes],
            "setup_references": [ref for _probe, ref in probes],
            "nominal_reference": NOMINAL_S,
        },
        # the end-to-end times before scaling: metric = unscaled x scale
        # (items_per_s: unscaled / scale)
        "unscaled_median": unscaled,
        "scale": scale,
        "env": environment_stamp(),
    }
    return result, report


def _stop_children() -> bool:
    """Stop every child process this run started and wait for each to end.

    The pool, the set-up probes and the reference probe are waited for
    where they are used. The one child that outlives them is the
    ``multiprocessing`` resource tracker the shared-memory transport
    starts: it runs until this process closes its pipe, and would
    otherwise end only after this process has exited. Returns whether
    every child ended within ``REAP_TIMEOUT_S``.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.05)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    try:
        if args.setup_probe:
            WORK.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=WORK) as workdir:
                _setup(args.workload, args.seed, Path(workdir))
            return 0
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stopped = _stop_children()
    if not stopped:
        print("error: a child process did not end", file=sys.stderr)
        return 1
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
