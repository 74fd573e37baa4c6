"""Timing that allows for the host's speed at the moment of each call.

The benchmark runs on shared machines whose speed drifts by half or more
over tens of seconds (frequency changes, load on sibling cores).  A drift
that lasts a whole run moves a plain wall-clock time as much as a real
change would.  So every timed call is bracketed by a fixed reference
kernel -- plain interpreter work that belongs to this directory, not to
chainforge, so no change to chainforge can speed it up -- and the call's
time is scaled by REFERENCE_S over the kernel's time around it.  The
result is the call's time in seconds on a host where the kernel takes
REFERENCE_S; the raw wall-clock time is kept next to it.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: Fixes the unit of every time metric: seconds on a host where
#: `kernel_time()` reads this.  On the shared 2.1 GHz x86 host the benchmark
#: was written on it read 3 to 7 ms, depending on the moment.
REFERENCE_S = 0.0025

_DATA = list(range(256))


def _mix(x: int) -> int:
    return (x * 7 + 3) & 255


def reference_kernel(n: int = 20000) -> int:
    """List indexing, dict updates, calls and integer arithmetic: the
    operations a pure-Python solver spends its time on."""
    counts: dict[int, int] = {}
    acc = 0
    data = _DATA
    for i in range(n):
        j = data[(i + acc) & 255]
        counts[j] = counts.get(j, 0) + 1
        acc += _mix(j)
    return acc + len(counts)


def kernel_time(repeats: int = 3) -> float:
    """Best of `repeats` kernel runs, so one interrupt does not count."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    def __init__(self):
        gc.collect()
        self._last = kernel_time()

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Run `fn` after a garbage collection, and time it together with
        a collection of the garbage it leaves behind; returns its result,
        its raw time and its time scaled to the reference speed.  What was
        alive before the call is frozen during it, so no collection, the
        final one or one `fn` triggers, walks the benchmark's own objects.
        If `fn` raises, the exception propagates and the clock stays
        usable."""
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        try:
            out = fn()
            gc.collect()
            raw = time.perf_counter() - t0
        finally:
            gc.unfreeze()
            before, self._last = self._last, kernel_time()
        return out, raw, raw * REFERENCE_S * 2 / (before + self._last)
