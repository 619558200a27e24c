"""Timing at reference speed on a machine whose speed drifts.

The CPU speed of the shared virtual machine the baseline was measured on
drifts by up to a quarter over seconds to minutes (other tenants), and no run
length averages that out.  While a ``ReferenceClock`` is running, a SIGALRM
every ``PERIOD_S`` seconds runs a small fixed pure-Python kernel between two
bytecodes of whatever is executing, and records how long it took.  Those
samples are spread evenly over the measured stretch, so their mean tracks the
machine's speed during exactly that stretch.  Measured times exclude the time
spent in the kernel and are scaled by ``REF_NOMINAL_S / mean(samples)``: they
are seconds at the speed where the kernel takes ``REF_NOMINAL_S``, about its
median when interleaved with the workloads on the baseline machine (2-vCPU
Intel Xeon at 2.1 GHz).  The kernel is benchmark code, so a change to plurikp
moves scaled times as it moves raw ones.  Neither the kernel, the constant,
the period nor ``LOCAL_S`` may change without measuring the baseline again.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

REF_NOMINAL_S = 0.0014
PERIOD_S = 0.02
# Items are scaled by the samples within this distance: the machine's speed
# changes within a round, and a slow item should not be blamed on the program.
LOCAL_S = 0.1


def reference_kernel() -> float:
    """Seconds taken by fixed tuple, dict and float work, the interpreter
    paths plurikp spends its time in."""
    start = time.perf_counter()
    table: dict[tuple[int, ...], int] = {}
    total = 0.0
    for i in range(2500):
        point = (i % 7, i % 11, i % 13, 1)
        table[point] = table.get(point, 0) + 1
        total += math.log1p((i % 17) / 17.0) * 0.5
    return time.perf_counter() - start


class ReferenceClock:
    """Samples the reference kernel periodically while used as a context."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample_times: list[float] = []  # now() when each sample was taken
        self.paused = 0.0  # seconds spent in the handler so far
        self.on_pause = None  # called with each handler duration, if set
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.sample_times.append(start - self.paused)
            self.samples.append(reference_kernel())
            spent = time.perf_counter() - start
            self.paused += spent
            if self.on_pause is not None:
                self.on_pause(spent)
        finally:
            self._busy = False

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Monotonic seconds, not counting time spent in the kernel."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:  # no handler ran between the two reads
                return now - paused

    def factor(self, since: int = 0) -> float:
        """Raw-to-reference scale over the samples taken from index `since`."""
        recent = self.samples[since:]
        if not recent:
            raise RuntimeError("no reference sample in the measured stretch")
        return REF_NOMINAL_S / statistics.fmean(recent)

    def local_factor(self, start: float, end: float) -> float | None:
        """Raw-to-reference scale over the samples taken within LOCAL_S of the
        stretch [start, end] of now() time; None if there is none."""
        lo = bisect.bisect_left(self.sample_times, start - LOCAL_S)
        hi = bisect.bisect_right(self.sample_times, end + LOCAL_S)
        if lo == hi:
            return None
        return REF_NOMINAL_S / statistics.fmean(self.samples[lo:hi])
