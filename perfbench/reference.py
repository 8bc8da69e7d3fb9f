"""Reference kernel: a fixed piece of CPU work that measures the host's speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent from one minute to the next, and a run's op times drift with
it.  Timing this kernel between ops, in the same process and the same
window, measures that drift, and dividing an op time by the kernel's
median time cancels it.  The kernel uses only the standard library and
numpy, never the program, so a change to the program cannot move it:
a slower program still reads slower.

Its mix follows the program's: interpreter work on small objects
(dicts, sorts, attribute access, string building) and many small numpy
ops of the size of a GA population (a 64 x 4 dominance matrix).
Garbage collection is off while it runs, so the size of the program's
heap does not leak into it.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def _interpreter_work() -> int:
    rng = random.Random(7)
    points = [_Point(rng.random(), rng.random()) for _ in range(3000)]
    buckets: dict[tuple[int, int], float] = {}
    for i, point in enumerate(points):
        key = (i % 97, int(point.a * 16))
        buckets[key] = buckets.get(key, 0.0) + point.b
    best, front = -1.0, []
    for point in sorted(points, key=lambda p: (p.a, -p.b)):
        if point.b > best:
            best = point.b
            front.append(point)
    text = "".join(format(i, "x") for i in range(3000))
    return len(buckets) + len(front) + len(text)


def _array_work() -> float:
    values = np.random.default_rng(7).random((64, 4))
    total = 0.0
    for _ in range(60):
        lower = values[:, None, :] <= values[None, :, :]
        strict = values[:, None, :] < values[None, :, :]
        dominates = lower.all(-1) & strict.any(-1)
        total += float(dominates.sum()) + float(np.argsort(values[:, 0], kind="stable")[0])
    return total


def reference_seconds() -> float:
    """Wall time of one run of the kernel (20-35 ms on a shared 2.1 GHz Xeon vCPU)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _interpreter_work()
        _array_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
