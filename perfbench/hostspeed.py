"""Host speed reference for the benchmark's timings.

The machines this benchmark runs on share their CPUs with other tenants,
and the speed of a pure-Python program drifts by up to 2x over tens of
seconds (measured on a 2-CPU VM). A fixed reference, timed between the
program's operations, drifts with it. So the benchmark times the
reference every TICK_EVERY_NS of work (about 5% of a run) and reports
each timing scaled by NOMINAL_NS / (reference time around it), that is,
as it would read on a host running the reference at its nominal speed.

No single loop tracks the program well: one that stays in the CPU's
caches slows more than the program when the other tenants compete for
execution units, and one that chases pointers through a large heap slows
more when they compete for memory. The reference is the geometric mean
of one of each. In a two-minute trial under shifting load, alternating
the two loops (then twice their present length) with HIQ queries, the
ratio of query time to that mean stayed within 3% of its median while
the raw query time moved by 60%; against either loop alone it moved by
10% or more. Scaled this way, the benchmark's metrics spread by 2-15% of
their median over five to ten runs, against 10-40% unscaled.

Both loops are benchmark code and never call the program, so a change to
the program cannot move them. They allocate no object the garbage
collector tracks, so ticks do not shift the program's collections.
"""

from __future__ import annotations

import math
import statistics
import time
from functools import lru_cache

TICK_EVERY_NS = 50_000_000
# A timing is scaled by the median of the ticks within SMOOTH segments of
# it, so that one disturbed tick does not move its neighbours' samples.
SMOOTH = 2
# The reference's time, run between the program's operations, on a 2-CPU
# VM (Python 3.11) in its fast phases.
NOMINAL_NS = 1_400_000


def compute_kernel():
    """Dict updates and float math on a few hundred keys: stays in cache."""
    counts = {}
    acc = 0.0
    for i in range(2000):
        key = (i * 7919) % 389
        n = counts.get(key, 0) + 1
        counts[key] = n
        acc += math.log(1.0 + n) / (1.0 + key)
    return acc


@lru_cache(maxsize=1)
def _reference_heap():
    return [{(j * 2654435761 + i * 40503) % 5000: 1 + (i + j) % 4 for j in range(12)}
            for i in range(40000)]


def heap_kernel():
    """Reads 750 dicts spread over a heap of about 40 MB."""
    heap = _reference_heap()
    n = len(heap)
    acc = 0.0
    out = []
    for i in range(750):
        d = heap[(i * 7919) % n]
        for word, tf in d.items():
            acc += tf / (1.0 + word)
        out.append(acc)
    return out


class HostSpeed:
    """Reference timings taken along a run. The run is cut into segments
    at each tick; segment ``s`` lies between ticks ``s`` and ``s + 1``."""

    def __init__(self):
        _reference_heap()           # built before the first tick times it
        self.ref_ns = []
        self.overhead_ns = 0        # time spent in ticks
        self._last = 0
        self.tick()

    @property
    def segment(self):
        return len(self.ref_ns) - 1

    def maybe_tick(self):
        if time.perf_counter_ns() - self._last >= TICK_EVERY_NS:
            self.tick()

    def tick(self):
        start = time.perf_counter_ns()
        compute_kernel()
        mid = time.perf_counter_ns()
        heap_kernel()
        self._last = time.perf_counter_ns()
        self.ref_ns.append(math.sqrt((mid - start) * (self._last - mid)))
        self.overhead_ns += self._last - start

    def factor(self, first, last):
        """NOMINAL_NS over the reference time of segments first..last:
        the median of the ticks that bound them and SMOOTH more each side."""
        window = self.ref_ns[max(0, first - SMOOTH):last + 2 + SMOOTH]
        return NOMINAL_NS / statistics.median(window)
