"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``. Instead, :func:`installed` wraps
the public functions and methods each layer exposes *as the study code
looks them up* (module attributes such as
``repro.benchmark.runner.model_search`` and class attributes such as
``ExperimentRunner.run_repetition_cells``), records one span per call
and restores the originals on exit. Wrappers are installed before the
executor's worker pool forks, so forked workers inherit them; each
worker spills its spans to ``spans.<pid>.jsonl`` in the spool
directory whenever its outermost span closes, and the parent merges
the spool when the iteration ends.

A span is ``(id, parent id, layer name, start, end)``; ``perf_counter``
reads ``CLOCK_MONOTONIC`` on Linux, so spans of different processes
share one time base. A layer's self time is its span's duration minus
the time its child spans cover (:func:`fold`).
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Container spans: the iteration root and the executor call. They are
#: not layers, so they count towards neither coverage nor busy time.
ROOT_SPAN = "bench.iteration"
EXECUTOR_SPAN = "parallel.run"


class Tracer:
    """In-memory span and counter recorder, fork-aware."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self._owner = os.getpid()
        self._pid = self._owner
        self._spans: list[tuple] = []
        self._counts: dict[str, float] = {}
        self._stack: list[str] = []
        self._next = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # a forked child inherits the parent's buffers (and its open
        # spans): it starts from a clean slate
        self._pid = os.getpid()
        self._spans = []
        self._counts = {}
        self._stack = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self) -> tuple[str, str | None]:
        self._next += 1
        sid = f"{self._pid}:{self._next}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: str, parent: str | None, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self._spans.append((sid, parent, name, start, end))
        if not self._stack and self._pid != self._owner:
            self._spill()

    def count(self, name: str, amount: float = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def _spill(self) -> None:
        path = self.spool / f"spans.{self._pid}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps({"spans": self._spans, "counts": self._counts}) + "\n")
        self._spans = []
        self._counts = {}

    def collect(self) -> tuple[list[tuple], dict[str, float]]:
        """Drain this process's buffers plus every worker spill file."""
        spans, counts = self._spans, self._counts
        self._spans, self._counts = [], {}
        for path in sorted(self.spool.glob("spans.*.jsonl")):
            for line in path.read_text().splitlines():
                payload = json.loads(line)
                spans.extend(tuple(span) for span in payload["spans"])
                for name, amount in payload["counts"].items():
                    counts[name] = counts.get(name, 0) + amount
            path.unlink()
        return spans, counts


class _Span:
    """One open span (a plain class: cheaper than a generator context)."""

    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._close(self.sid, self.parent, self.name, self.start, end)


# -- wrappers ---------------------------------------------------------------


def _timed(tracer: Tracer, name: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)

    return wrapper


def _timed_generator(tracer: Tracer, name: str, func: Callable) -> Callable:
    """Span every ``next`` of a generator (lazy store scans)."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        iterator = func(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    return wrapper


def _model_search(tracer: Tracer, func: Callable) -> Callable:
    """Wrap each built search's ``fit`` (tune) and ``predict``."""

    @functools.wraps(func)
    def wrapper(name, *args, **kwargs):
        search = func(name, *args, **kwargs)
        fit, predict = search.fit, search.predict

        def traced_fit(*fit_args, **fit_kwargs):
            tracer.count(f"ml.tune_calls.{name}")
            with tracer.span(f"ml.tune.{name}"):
                return fit(*fit_args, **fit_kwargs)

        search.fit = traced_fit
        search.predict = _timed(tracer, "ml.predict", predict)
        return search

    return wrapper


def _counted(tracer: Tracer, name: str, counter: Callable, func: Callable) -> Callable:
    """Span a call and bump the counter ``counter(result)`` names."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        tracer.count(counter(result))
        return result

    return wrapper


def _unit(tracer: Tracer, func: Callable) -> Callable:
    """Span a work unit and count attempts per unit coordinates."""

    @functools.wraps(func)
    def wrapper(self, definition, table, error_type, repetition, *args, **kwargs):
        tracer.count(f"unit_attempts|{definition.name}|{error_type}|{repetition}")
        with tracer.span("runner.unit"):
            return func(self, definition, table, error_type, repetition, *args, **kwargs)

    return wrapper


def _targets(tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    """``(owner, attribute, wrapper)`` for every traced layer entry point.

    An entry point the program no longer has is skipped rather than
    failing the run; ``bench.coverage_frac`` shows the lost coverage.
    """
    from repro.benchmark import disparity, parallel, runner
    from repro.benchmark.results import JournalWriter, ResultStore
    from repro.benchmark.transport import ShmRegistry
    from repro.cleaning import detection, mislabels, repair
    from repro.datasets.definitions import DatasetDefinition
    from repro.ml import incremental
    from repro.obs import audit
    from repro.reporting import report
    from repro.stats import impact

    def timed(name):
        return lambda func: _timed(tracer, name, func)

    def counted(name, counter):
        return lambda func: _counted(tracer, name, counter, func)

    plan = [
        (DatasetDefinition, "generate", timed("datasets.generate")),
        (runner, "model_search", lambda func: _model_search(tracer, func)),
        (incremental, "featurize_version", counted("ml.featurize", lambda r: "featurize.cold")),
        (
            incremental,
            "incremental_featurize",
            counted(
                "ml.featurize",
                lambda r: "featurize.declined" if r is None else "featurize.patched",
            ),
        ),
        (runner, "group_masks", timed("fairness.masks")),
        (runner, "group_confusions_from_masks", timed("fairness.confusion")),
        (runner.ExperimentRunner, "run_repetition_cells", lambda func: _unit(tracer, func)),
        (parallel, "plan_work_units", timed("parallel.plan")),
        (ShmRegistry, "lease", timed("transport.ship")),
        (parallel, "attach_table", timed("transport.ship")),
        (JournalWriter, "write", timed("results.journal")),
        (ResultStore, "save", timed("results.save")),
        (ResultStore, "__init__", timed("results.load")),
        (ResultStore, "_shard_records", timed("results.load")),
        (ResultStore, "verify", timed("results.verify")),
        (ResultStore, "records", lambda func: _timed_generator(tracer, "results.query", func)),
        (ResultStore, "iter_records", lambda func: _timed_generator(tracer, "results.query", func)),
        (impact, "paired_t_test", counted("stats.ttest", lambda r: "stats.ttest_calls")),
        (disparity, "g_test_counts", timed("stats.gtest")),
        (report, "build_study_report", timed("reporting.render")),
        (audit, "build_audit", timed("obs.audit")),
        (mislabels.ConfidentLearningDetector, "detect", timed("cleaning.detect")),
        (detection.MissingValueDetector, "detect", timed("cleaning.detect")),
        (repair.LabelFlipRepair, "repair", timed("cleaning.repair")),
    ]
    for cls in (
        detection.SdOutlierDetector,
        detection.IqrOutlierDetector,
        detection.IsolationForestOutlierDetector,
    ):
        plan.extend((cls, attribute, timed("cleaning.detect")) for attribute in ("fit", "apply", "detect"))
    for cls in (repair.MissingValueRepair, repair.OutlierRepair):
        plan.extend((cls, attribute, timed("cleaning.repair")) for attribute in ("fit", "transform"))
    return [
        (owner, attribute, make(getattr(owner, attribute)))
        for owner, attribute, make in plan
        if hasattr(owner, attribute)
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper; restore the originals on exit."""
    targets = _targets(tracer)
    # an inherited method is wrapped on the subclass and deleted again
    # on exit; an own attribute is put back
    originals = [
        (owner, attribute, vars(owner).get(attribute)) for owner, attribute, _ in targets
    ]
    try:
        for owner, attribute, wrapper in targets:
            setattr(owner, attribute, wrapper)
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


# -- folding ----------------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def _clip(interval: tuple[float, float], window: tuple[float, float]) -> tuple[float, float]:
    return (max(interval[0], window[0]), min(interval[1], window[1]))


def fold(spans: list[tuple]) -> dict[str, Any]:
    """Fold one iteration's spans into per-layer self times.

    Returns ``self_s`` (layer name → summed self time), ``wall_s``
    (root span duration), ``coverage_frac`` (share of the root window
    covered by layer spans of any process), ``executor_s`` and the
    per-unit durations.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    self_s: dict[str, float] = {}
    root = executor = None
    units = []
    for sid, _parent, name, start, end in spans:
        own = (end - start) - _union(children.get(sid, []))
        self_s[name] = self_s.get(name, 0.0) + own
        if name == ROOT_SPAN:
            root = (start, end)
        elif name == EXECUTOR_SPAN:
            executor = (start, end)
        elif name == "runner.unit":
            units.append(end - start)
    if root is None:
        raise ValueError("no iteration root span")
    layer_intervals = [
        _clip((start, end), root)
        for _sid, _parent, name, start, end in spans
        if name not in (ROOT_SPAN, EXECUTOR_SPAN)
    ]
    wall = root[1] - root[0]
    return {
        "self_s": self_s,
        "wall_s": wall,
        "coverage_frac": _union([i for i in layer_intervals if i[1] > i[0]]) / wall,
        "executor_s": (executor[1] - executor[0]) if executor else 0.0,
        "unit_s": sorted(units),
    }
