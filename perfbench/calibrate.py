"""Machine-speed reference for normalising times on a shared host.

On a shared virtual machine the same iteration can run 1.8x slower for
tens of minutes while neighbours are busy (measured on the 2-core host
the first baseline ran on), and steal time does not show it. A fixed
reference kernel slows down by the same factor. It is read before every
timed iteration and set-up probe of a run, by a separate interpreter
(:class:`ReferenceProbe`), so no state the program leaves behind in the
benchmark process (heap, caches, pool teardown) enters the reading.
With the mean reading

    normalised seconds = measured seconds x NOMINAL_S / mean reading

is steady across those periods while a change to the program still
moves it in full. The host flips between a fast and a slow state
(about 1.4x apart) within seconds, so single kernel timings are
bimodal: their median snaps to one state, while their mean follows
the share of time spent in the slow one, which is what stretches an
iteration. A run therefore uses one factor, the mean of all its
readings, not one per iteration or a median.

The kernel is numpy work on arrays past the first cache levels
(stable argsorts, cumulative sums, gathers and a bincount over 200,000
values, and sort-and-accumulate passes over a 2,000 x 40 block), the
kind of vectorised work the study's booster split search and
featurisation do; it uses no BLAS call, whose thread count would tie
the reading to the program's threads. It imports nothing from the
program. On that host, over seven-minute stretches of back-to-back
iterations of each workload with both kernels read before every
iteration, its readings tracked iteration walls better than an
earlier Python-heavy kernel (JSON, zlib, dict loops) did on all four
workloads (correlation 0.29-0.54 against 0.20-0.53), and six-iteration
medians divided by the mean reading spread 4-10% (IQR / median)
against 8-15% unscaled.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Fastest reading seen on the baseline host (s).
NOMINAL_S = 0.028
#: Kernel runs per reference reading; the reading is their mean.
SAMPLES = 5


def _inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    return rng.random(200_000), rng.random((2_000, 40))


def _kernel(values: np.ndarray, block: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    sums = np.cumsum(values[order])
    picked = order[::7]
    bins = np.bincount(
        (values[picked] * 64).astype(np.int64), weights=sums[picked], minlength=64
    )
    for _ in range(6):
        rows = np.argsort(block[:, 0], kind="stable")
        block = np.cumsum(block[rows], axis=0)
        block = block / block[-1]
    return float(bins.sum() + block.sum())


def reference_s() -> float:
    """One reference reading: mean wall time of the kernel."""
    inputs = _inputs()
    timings = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel(*inputs)
        timings.append(time.perf_counter() - start)
    return statistics.fmean(timings)


class ReferenceProbe:
    """Takes reference readings in a separate interpreter, on request.

    The interpreter is started before the program runs and only ever
    runs the kernel, so no state the program leaves behind in the
    benchmark process reaches a reading. Use it as a context manager;
    leaving the context stops the interpreter and waits for it.
    """

    def __enter__(self) -> "ReferenceProbe":
        self._process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._process.stdout.readline()  # warmed up and idle
        return self

    def read(self) -> float:
        """One reference reading (see :func:`reference_s`)."""
        self._process.stdin.write("read\n")
        self._process.stdin.flush()
        return float(self._process.stdout.readline())

    def __exit__(self, *exc) -> None:
        try:
            self._process.stdin.write("stop\n")
            self._process.stdin.close()
            self._process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._process.kill()
            self._process.wait()


def _serve() -> None:
    """Answer each ``read`` line on stdin with a reading, until ``stop``."""
    _kernel(*_inputs())
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "read":
            break
        print(repr(reference_s()), flush=True)


if __name__ == "__main__":
    _serve()
