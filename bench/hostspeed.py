"""A fixed reference loop, timed throughout a run to correct its times for
host speed.

On a shared VM the host's speed drifts: the same deterministic work can take
twice as long for seconds to minutes at a time, whatever the program does.
The benchmark times work in CPU seconds of the main thread, which leave out
the time the VM's CPU was taken away (steal), and corrects for the rest of
the drift with this module. A Sampler interrupts the measured thread at a
fixed interval and times a fixed loop (plain Python, which does not use
donorgate) on it, in the same CPU seconds, so the samples see the speed the
measured work saw. The benchmark subtracts the sampling time from what it
interrupted and divides the rest by how much slower than REFERENCE_PASS_S
the loop ran around it.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from contextlib import contextmanager

# seconds one pass takes on the unloaded 2-vCPU Intel Xeon VM this
# benchmark was written on; a corrected time is a time at that speed
REFERENCE_PASS_S = 0.65e-3
PASSES = 4
INTERVAL_S = 0.25
# an op is corrected by the samples taken while it ran and this long
# either side of it
WINDOW_S = 2.0


def _one_pass() -> int:
    total = 0
    seen = {}
    for i in range(6000):
        seen[i % 97] = total
        total += i * i % 7
    return total


def sample() -> float:
    """CPU seconds per pass of the reference loop, timed now over PASSES passes."""
    t0 = time.thread_time()
    for _ in range(PASSES):
        _one_pass()
    return (time.thread_time() - t0) / PASSES


def slowdown(samples) -> float:
    """How many times slower than REFERENCE_PASS_S the samples ran (median)."""
    return statistics.median(samples) / REFERENCE_PASS_S


def slowdown_around(start: float, end: float, at, per_pass) -> float:
    """Slowdown of the samples (taken at wall times `at`) from WINDOW_S
    before `start` to WINDOW_S after `end`, or of all of them if none fall
    there."""
    window = [p for t, p in zip(at, per_pass) if start - WINDOW_S <= t <= end + WINDOW_S]
    return slowdown(window or per_pass)


class Sampler:
    """Takes a sample every INTERVAL_S of wall time while running.

    Samples are taken in a SIGALRM handler, which Python runs on the main
    thread between bytecodes, never inside a C call. `at` holds each
    sample's wall time (perf_counter). `spent_wall` and `spent_cpu` are the
    total wall and CPU time the handler took, to be subtracted from the
    interval it fell in.
    """

    def __init__(self):
        self.at = array("d")
        self.per_pass = array("d")
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _take(self, signum, frame):
        t0 = time.perf_counter()
        c0 = time.thread_time()
        self.per_pass.append(sample())
        self.at.append(t0)
        self.spent_cpu += time.thread_time() - c0
        self.spent_wall += time.perf_counter() - t0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
