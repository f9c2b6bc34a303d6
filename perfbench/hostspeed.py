"""Correct timings for the speed of a shared host.

On a shared VM the speed of a vCPU swings by up to 2x within minutes, as
co-tenants load the machine, and the process's CPU time swings with it:
the vCPU is slowed, not descheduled.  No choice of sample inside one run
removes a swing that lasts longer than the run.  So the worker runs a short
fixed probe at points spread over its run and divides each timing by the
host's slowness while it was taken.

A probe times four fixed kinds of work that cobar spends its time on: a
pure-Python loop, many small numpy calls, a small matrix product and a sum
over a 16 MB array.  A probe's slowness is the geometric
mean of the four times, each over its time on the reference host.  The
slowness during an interval is the geometric mean of the probes made in
it and of the probes right before and after it.  A single probe follows
the host only loosely, but averaged over a few seconds the probes and
cobar's own layers move together (correlation 0.8-0.9 on the reference
host).  The probe's code is fixed, so a change to cobar moves a corrected
time as much as it moves the wall time.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

PROBE_REPEATS = 2          # each part of a probe is the fastest of these passes

_RNG = np.random.default_rng(0)
_ROWS = _RNG.random((8, 10))
_VEC = _RNG.random(10)
_MAT = _RNG.random((150, 150))
_BIG = _RNG.random(2_000_000)        # 16 MB


def _python_loop():
    s = 0
    for i in range(40_000):
        s += i * i


def _numpy_calls():
    x = 0.0
    for i in range(4_000):
        x += float(_ROWS[i & 7] @ _VEC)


def _matrix_product():
    for _ in range(8):
        _MAT @ _MAT


def _memory_sweep():
    for _ in range(3):
        _BIG.sum()


# each part with its median time, in seconds, on the reference host: the
# 2-vCPU x86 VM (2.1 GHz) the benchmark was written on
PARTS = ((_python_loop, 0.00361), (_numpy_calls, 0.00782), (_matrix_product, 0.00154), (_memory_sweep, 0.00302))


def _fastest(part) -> float:
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        part()
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Probes of the host along one process's timeline."""

    def __init__(self):
        self.starts: list[float] = []   # when each probe began
        self.ends: list[float] = []     # when each probe ended
        self.probes: list[float] = []   # each probe's slowness

    def mark(self) -> None:
        """Probe the host now."""
        start = time.perf_counter()
        logs = [math.log(_fastest(part) / reference) for part, reference in PARTS]
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.probes.append(math.exp(sum(logs) / len(logs)))

    def slowness(self, start: float = -math.inf, end: float = math.inf) -> float:
        """The host's slowness during [start, end], 1 on the reference host:
        the geometric mean of the probes from the last one that ended by
        `start` to the first one that began at or after `end`."""
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        chosen = self.probes[first: bisect.bisect_left(self.starts, end) + 1]
        if not chosen:
            raise RuntimeError("no probe of the host near the interval")
        return math.exp(sum(math.log(p) for p in chosen) / len(chosen))

    def probe_time(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent inside probes."""
        return sum(max(0.0, min(e, end) - max(s, start)) for s, e in zip(self.starts, self.ends))
