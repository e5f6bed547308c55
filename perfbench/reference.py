"""Host-speed reference: times scaled to a fixed speed of the machine.

On a shared host the speed at which this process runs moves with other
tenants' load, for seconds to minutes at a time. On a 2-vCPU virtual
machine, the wall time of a fixed loop spread by up to 2.5x, because the
virtual CPU is taken away, and its CPU time (``request_clock``) by up to
~1.7x, because the CPU it gets is slower at times. The program and a fixed
piece of pure-Python work slow down nearly together: between the fastest
and the slowest quarter of a 150-s sample, CLI requests of the three
workloads slowed by 1.54x to 1.62x and the kernel below by 1.61x. So the
benchmark times the kernel next to every measured interval and scales the
interval by ``REFERENCE_S / kernel time``. A reported time is the CPU time
the interval would take on a host that runs the kernel in ``REFERENCE_S``.
The kernel is part of the benchmark, so a change to the program does not
change it. In fast stretches the kernel gains somewhat more than the
program's requests, so scaled times still drift by up to ~10% between
such stretches.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
from fractions import Fraction
from time import perf_counter, process_time

# Intervals are timed in CPU time of this process (user + system): a
# request is single-threaded and runs from memory and page cache, so its
# CPU time is the latency it would have on a core of its own.
request_clock = process_time

# The kernel's CPU time on this kind of host at its usual speed, so that
# scaled times read close to plain CPU seconds.
REFERENCE_S = 0.003

# The cold start is a process of its own and does other work than the
# kernel (exec, imports, page faults): its reference is a child that starts
# the interpreter and imports what the package imports, without the
# package. CHILD_S is that child's CPU time on this kind of host.
CHILD_ARGV = ["-c", "import argparse, dataclasses, fractions, itertools, json, math, typing, numpy"]
CHILD_S = 0.23

# A request longer than this is followed by a kernel of its own, so that
# the kernels scaling it are close to it in time.
LONG_REQUEST_S = 0.05
WINDOW_S = 1.5
MIN_KERNELS = 6


def kernel_time() -> float:
    """CPU time of one run of the kernel: rational sums and JSON, like the package.

    The collector is off while it runs, so the objects the program keeps
    alive do not slow the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = request_clock()
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(1, i)
        doc = {"values": [str(Fraction(i, 7)) for i in range(300)], "sum": str(total)}
        for _ in range(4):
            doc = json.loads(json.dumps(doc))
        return request_clock() - start
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Kernel times of one run, each with the wall-clock time it was taken.

    A measured interval is scaled by the median of the kernels taken within
    ``WINDOW_S`` of it, and by at least the ``MIN_KERNELS`` nearest ones:
    the host's speed drifts over seconds, and one kernel alone reads up to
    ~10% off.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.kernels.append(kernel_time())
            self.times.append(perf_counter())

    def after(self, elapsed: float) -> None:
        """A kernel after a long request, so that one is close to it in time."""
        if elapsed > LONG_REQUEST_S:
            self.sample()

    def scale(self, elapsed: float, start: float, end: float) -> float:
        """``elapsed`` of an interval from wall time ``start`` to ``end``, at reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_KERNELS and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return elapsed * REFERENCE_S / statistics.median(self.kernels[lo:hi])
