"""A fixed reference task that gauges the host's speed over time.

On a shared host the same code runs at 1.0 to 1.6 times its best time,
in phases of seconds to minutes.  The benchmark times the reference task
between ops, and reports each op's time scaled to the reference speed,
at which the task takes REFERENCE_S:

    reported = measured * REFERENCE_S / reference time near the op

"Near" is the median of the reference times taken within the op's own
duration (and at least MARGIN_S) of its start or end: the references
right before and after a short op, and a wider span of them around a
long one, whose edges alone say little about the seconds in between.
A slow phase of the host stretches both times alike, so it cancels; a
slower or faster package changes only the op's time, so it shows.  The
task shares no code with the package and mixes the two kinds of work the
package does: a pure-Python bit loop over integers and a few in-place
passes of numpy over arrays larger than the CPU caches (8 MB together,
which count in the worker's peak RSS).
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

# About the median time of one task on a 2-vCPU Intel Xeon host (Python
# 3.11, numpy 2.4) in a fast phase; a fixed constant, so that scaled
# times read close to seconds there.
REFERENCE_S = 0.010
SAMPLES = 5
MARGIN_S = 0.1

_RNG = random.Random(1)
_VALUES = [_RNG.getrandbits(32) | 1 for _ in range(3000)]
_ARRAY = np.arange(1 << 19, dtype=np.int64)
_SCRATCH = np.empty_like(_ARRAY)


def task() -> int:
    """Find each value's lowest suffix balance bit by bit, then sum
    transformed copies of the array; returns a total, so nothing is
    elided."""
    total = 0
    for v in _VALUES:
        bal = low = 0
        while v:
            bal += 1 if v & 1 else -1
            if bal < low:
                low = bal
            v >>= 1
        total += low
    for _ in range(2):
        np.multiply(_ARRAY, 3, out=_SCRATCH)
        np.add(_SCRATCH, 1, out=_SCRATCH)
        np.right_shift(_SCRATCH, 1, out=_SCRATCH)
        total += int(_SCRATCH.sum())
    return total


def measure() -> float:
    """Median time of SAMPLES runs of the task, in seconds."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Gauge:
    """The reference times taken in one process, each with the clock
    reading at its middle."""

    def __init__(self) -> None:
        measure()  # warm-up
        self.samples: list[tuple[float, float]] = []

    def take(self) -> None:
        start = time.perf_counter()
        duration = measure()
        self.samples.append(((start + time.perf_counter()) / 2, duration))

    def scale(self, measured: float, start: float, end: float) -> float:
        """`measured` seconds of the interval [start, end] at the
        reference speed."""
        reach = max(end - start, MARGIN_S)
        near = [d for t, d in self.samples if start - reach <= t <= end + reach]
        if not near:
            middle = (start + end) / 2
            near = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return measured * REFERENCE_S / statistics.median(near)

    def speed(self) -> float:
        """The host's median speed over every sample, as a share of the
        reference speed."""
        return REFERENCE_S / statistics.median(d for _, d in self.samples)
