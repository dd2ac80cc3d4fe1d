"""Scaling measured times to a reference host speed.

On a shared virtual machine the speed of a vCPU drifts with the load of
its neighbours: a fixed pure-Python loop takes anywhere from 0.37 s to
0.67 s from one second to the next, and the exact-search median latency
moves by 20–30 % between runs of identical code. Most of the drift is a
common factor, so most of it cancels in a ratio: the benchmark times a
fixed calibration kernel next to the measured work, and reports every
time as

    raw_time × REFERENCE_S / median(kernel times taken around that work)

that is, in seconds at the speed where the kernel takes ``REFERENCE_S``.
The kernel is benchmark code, so a change to the program under test
cannot change it; a program that gets 2× faster reports 2× shorter times.

The search workloads run the kernel on their measuring thread, between
queries and before each set-up repeat, outside the timers, so the program
is idle while it runs and its samples time the host, not the program's own
use of the CPUs. Raw times and the factors are printed next to each result.

The offline workload reports raw times. Its build spends most of its time
in Spark's multi-threaded JVM and Python workers, whose slowdowns on this
host the kernel does not see: timed while Spark was idle, between the
build's stages, the kernel's factor stayed within 0.95–1.15 while the same
build took from 57 s to 73 s. (Sampled during the build instead, it would
time the program's own load as well as the host.)
"""
from __future__ import annotations

import statistics
import time

REFERENCE_S = 2.0e-3  # kernel time at the reference speed (about a 2 GHz Xeon vCPU)


def kernel() -> int:
    s = 0
    for i in range(20_000):
        s += i * i
    return s


class Meter:
    """Kernel timings taken around one measured phase.

    ``tick`` between operations samples the kernel at most every
    ``interval`` seconds; ``burst`` samples it ``n`` times in a row, for
    the edges of a phase.
    """

    def __init__(self, interval: float = 0.1):
        self.samples: list[float] = []
        self.interval = interval
        self._due = 0.0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._due = t1 + self.interval

    def tick(self) -> None:
        if time.perf_counter() >= self._due:
            self._sample()

    def burst(self, n: int = 10) -> None:
        for _ in range(n):
            self._sample()

    def factor(self) -> float:
        """Multiply a raw time by this to get reference-speed time."""
        return REFERENCE_S / statistics.median(self.samples)

