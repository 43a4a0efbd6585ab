"""Types, statistics and the host-speed gauge shared by the workloads and run.py.

The speed of this 2-core host swings by up to 2x within seconds, from load
the benchmark cannot see. So every reported time is in reference seconds:
host seconds times REFERENCE_S over the median time of a fixed pure-Python
kernel, sampled on a timer while the work runs (see Gauge). The swings
cancel, and a change to tradelab cannot move the kernel, which calls none of
it. At the speed where the kernel takes REFERENCE_S, reference seconds are
host seconds.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import os
import resource
import signal
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0125   # about the kernel's median time on this 2-core Xeon host
SAMPLE_EVERY_S = 0.25


@dataclass
class Outcome:
    """What one request did: its timed operations, checks and digest."""

    digest: str
    latencies: list          # host seconds, then reference seconds, per timed operation
    starts: list             # gauge clock at the start of each timed operation
    attempted: int
    failed: int
    failures: list = field(default_factory=list)
    artifact_bytes: int = 0
    labels: list = field(default_factory=list)   # (operation, shape) per latency


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with 10 samples beyond it.

    With 10 samples or fewer no such percentile exists and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def current_rss_mb() -> float:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kernel(scratch: bytearray) -> int:
    # Allocation-heavy like the program, on a small table, plus scattered
    # writes into a buffer larger than L2, so it also waits on memory.
    table = {}
    total = 0
    size, x = len(scratch), 12345
    for i in range(12500):
        key = i & 1023
        table[key] = (i, f"k{key}", [i, i + 1])
        total += table[key][2][1] - i
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        scratch[x % size] = (scratch[x % size] + 1) & 255
    return total


class Gauge:
    """Samples host speed on a timer while timed work runs.

    Every SAMPLE_EVERY_S of wall time a SIGALRM handler times the kernel (with
    the collector off, so the heap the program holds cannot change it).
    `clock()` leaves that time out, so work timed with it is not charged for
    the samples. Signal handlers run between bytecodes of the main thread,
    so a sample never lands inside a C call of the program.
    """

    def __init__(self) -> None:
        self.times: list[float] = []     # clock() at each sample
        self.samples: list[float] = []   # kernel host seconds
        self.paused = 0.0                # host seconds spent sampling
        self._scratch = bytearray(16 * 2**20)

    def clock(self) -> float:
        """Host seconds, less the time spent sampling."""
        return perf_counter() - self.paused

    def _sample(self, *_signal) -> None:
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _kernel(self._scratch)
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(start - self.paused)
        self.paused += perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        """Sample on a timer for the duration of the block, and at both its ends."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def reference(self, start: float, elapsed: float) -> float:
        """Reference seconds for `elapsed` host seconds of work begun at clock `start`.

        The speed is the median over the samples taken from one sampling
        interval before the work to one after it, or the nearest sample.
        """
        lo = bisect.bisect_left(self.times, start - SAMPLE_EVERY_S)
        hi = bisect.bisect_right(self.times, start + elapsed + SAMPLE_EVERY_S)
        window = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return elapsed * REFERENCE_S / median(window)

    def factor(self, since: float) -> float:
        """Reference seconds per host second over the samples since clock `since`."""
        return REFERENCE_S / median(self.samples[bisect.bisect_left(self.times, since):])
