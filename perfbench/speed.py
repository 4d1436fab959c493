"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed moves by 10-70%
over seconds to minutes, as other tenants load the host (a fixed loop timed
for ten minutes on the 2-core Xeon VM where the benchmark was written went
from 7 to 11 ms and back).  Medians over a 30 s run average the fast swings
but not the slow drift, which then sets the spread between runs.

So a run also times a fixed calibration kernel between its operations, on
the same CPU as the operations and their child processes (``pin_cpu``), and
reports every time in *reference seconds*: the measured time multiplied by
``REFERENCE_S / median kernel time`` of the kernel samples nearest to it in
time, which follows both the drift and the swings within a run.  The kernel
does the two kinds of work the package does, a scalar Python loop and a
NumPy array expression; over 30 s windows the ratio of an operation's time
to the kernel's stayed within 2-4% (interquartile range over median) while
the raw times spread 8-12%.  A change to twistkick does not touch the
kernel, so a program that gets 10% faster reads 10% faster.  The raw times
and the scale are printed with every result.
"""

from __future__ import annotations

import math
import os
import statistics
from time import perf_counter

import numpy

# the kernel's median time on the 2-core Xeon VM the benchmark was written on,
# so that reference seconds read about like seconds there
REFERENCE_S = 0.007
# least wall time between two kernel samples during operations
SAMPLE_EVERY_S = 0.25
# kernel samples whose median scales one interval
NEAREST = 10


def kernel() -> float:
    s = 0.0
    for k in range(1, 15000):
        s += math.sin(k * 1e-3) / k
    x = numpy.linspace(0.0, 50.0, 100_000)
    return s + float(numpy.sum(numpy.cos(x) * numpy.exp(-x * 1e-2)))


def pin_cpu() -> int | None:
    """Pin this process, and so every child it starts, to one CPU, so that
    the kernel measures the CPU the timed work runs on.  Returns the CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """Kernel samples taken through one phase of a run."""

    def __init__(self):
        kernel()  # first call pays allocation and dispatch warm-up
        self.midpoints: list[float] = []
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.last = perf_counter()
        self.midpoints.append(0.5 * (t0 + self.last))
        self.samples.append(self.last - t0)

    def sample_if_due(self) -> None:
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from measured to reference seconds for work done between
        perf_counter values t0 and t1."""
        mid = 0.5 * (t0 + t1)
        order = sorted(range(len(self.samples)), key=lambda i: abs(self.midpoints[i] - mid))
        return REFERENCE_S / statistics.median(self.samples[i] for i in order[:NEAREST])
