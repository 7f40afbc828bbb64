"""Host-speed calibration: a fixed kernel timed between the operations.

On a shared host the speed available to one process moves, by up to 2x, with
what the neighbours run, and holds each level for seconds to minutes.  Times
from runs minutes apart then spread more than a change to the program would
move them.  So each pass times a fixed kernel, which shares no code with the
package, in slices before, between and after its operations, taking a fixed
share of the run.  The kernel's mean time in the slices around an operation,
against its time on the reference host when idle (:data:`REFERENCE_S`), is the
operation's slowdown; the end-to-end times are divided by it.  They read as
seconds on the reference host at its quiet speed.  The wall times stay in the
run record.

The kernel has one part for each kind of work the package does, timed apart:

* ``interpreter``: interpreted Python (subset loops, scalar closed forms);
* ``small_arrays``: numpy calls on 16-element arrays (per-call overhead, as in
  small evaluations and the optimizer);
* ``dense``: reductions over a dense 531,441-cell array, the size of the
  L = 5 joint (marginalization).

Contention does not slow the three alike: interpreted code slows most, dense
reductions least.  A workload is therefore scaled by the parts its operations
spend their time in (``workloads.CALIBRATION``).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

PARTS = ("interpreter", "small_arrays", "dense")

# Seconds each part takes on the reference host when idle: an Intel Xeon VM
# with 2 vCPUs, Python 3.11, numpy 2.4, BLAS pinned to one thread.  These are
# the lowest times seen there over 7,000 slices, rounded.
REFERENCE_S = {"interpreter": 0.0022, "small_arrays": 0.0021, "dense": 0.0016}

INTERPRETER_STEPS = 9000
SMALL_ARRAYS = 500
DENSE_SHAPE = (3,) * 12
DENSE_AXES = ((9, 10, 11), (0, 6), (1, 3, 5), (0, 1, 2))


def _step(i: int, x: float) -> float:
    return x * 0.5 + math.sqrt(i + 1.0)


def interpreter_part(n: int) -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0.0) + _step(i, acc) * 1e-3
        acc = (acc + table[key]) % 97.0
    return acc


def small_array_part(arrays: list[np.ndarray]) -> float:
    acc = 0.0
    for a in arrays:
        b = np.log1p(a) * a
        acc += float(b.sum() - np.dot(a, b) + b.max())
    return acc


def dense_part(dense: np.ndarray) -> float:
    return sum(float(dense.sum(axis=axes).max()) for axes in DENSE_AXES)


class Calibrator:
    """Times slices of the kernel; owns the kernel's inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.inputs = (INTERPRETER_STEPS, [rng.random(16) for _ in range(SMALL_ARRAYS)], rng.random(DENSE_SHAPE))
        self.expected = None

    def slice(self) -> tuple[float, float, float]:
        """One run of the kernel: the seconds each part took, in PARTS order."""
        times, result = [], []
        for part, arg in zip((interpreter_part, small_array_part, dense_part), self.inputs):
            start = time.perf_counter()
            result.append(part(arg))
            times.append(time.perf_counter() - start)
        if self.expected is None:
            self.expected = result
        elif result != self.expected:
            raise RuntimeError(f"calibration kernel gave {result}, not {self.expected}")
        return tuple(times)


def slowdown(slices: list[tuple[float, float, float]], parts: tuple[str, ...] = PARTS) -> float:
    """How much slower than on the reference host the given parts ran in
    these slices.  Their mean, not their median: an operation's time sums
    its bursts of contention too."""
    index = [PARTS.index(p) for p in parts]
    measured = statistics.fmean(sum(s[i] for i in index) for s in slices)
    return measured / sum(REFERENCE_S[p] for p in parts)
