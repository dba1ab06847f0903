"""Routing time corrected for the speed of a shared host.

On a shared virtual machine the CPU time of the same Python work swings
by up to 1.4x within seconds and by up to 1.7x over minutes, as other
tenants load the physical cores.  Neither wall time nor CPU time of a
half-minute route can tell that drift from a change of the program.

:func:`timed` therefore measures a step's CPU time (which leaves out
time the process waits or is descheduled) and, interleaved with it, the
CPU time of a small fixed probe loop: once before the step, every
``PROBE_INTERVAL_S`` of process CPU time during it (``SIGPROF``), and
once after.  The probe does not touch the program, so its time moves
only with the host.  The step's time, less the probes run inside it,
is scaled by ``REFERENCE_PROBE_S`` / (mean probe time): seconds at the
host speed of a probe that takes ``REFERENCE_PROBE_S``.  A step that
does the same work reads nearly the same however busy the host is (the
probe catches about two thirds of a slowdown; a tight arithmetic loop
tracked the router better than pointer-chasing probes), and a program
change still moves it in full.

The CPU time is the calling thread's (the router starts no threads):
while ``ITIMER_PROF`` is armed Linux reads the process CPU clock from
tick-updated totals, which are milliseconds off on a short step.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean
from typing import Callable, List, NamedTuple, TypeVar

#: Process CPU seconds between two probes inside a step.
PROBE_INTERVAL_S = 0.1
#: Loop trips of one probe (about 2 ms of CPU on a 2.1 GHz Xeon, so the
#: probes add about 2 % to a step).
PROBE_TRIPS = 24_000
#: The probe time the reported seconds are scaled to.
REFERENCE_PROBE_S = 0.002

_TABLE = list(range(1024))

T = TypeVar("T")


class Timing(NamedTuple):
    """One timed step: scaled seconds, raw CPU and wall seconds, probes."""

    seconds: float
    cpu_s: float
    wall_s: float
    probes: int


def _probe() -> float:
    """CPU seconds of one fixed loop (no allocation of tracked objects)."""
    table = _TABLE
    total = 0
    start = time.thread_time()
    for index in range(PROBE_TRIPS):
        total = (total + table[index & 1023] * index) & 0xFFFF
    return time.thread_time() - start


class _Sampler:
    def __init__(self) -> None:
        self.samples: List[float] = []
        self.inside_s = 0.0
        self.busy = False

    def on_signal(self, _signum, _frame) -> None:
        if self.busy:
            return
        self.busy = True
        try:
            sample = _probe()
            self.samples.append(sample)
            self.inside_s += sample
        finally:
            self.busy = False


def timed(step: Callable[[], T]) -> "tuple[T, Timing]":
    """Run ``step`` once; return its result and its :class:`Timing`."""
    sampler = _Sampler()
    sampler.samples.append(_probe())
    previous = signal.signal(signal.SIGPROF, sampler.on_signal)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        wall = time.perf_counter()
        cpu = time.thread_time()
        result = step()
        cpu = time.thread_time() - cpu
        wall = time.perf_counter() - wall
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    sampler.samples.append(_probe())
    work_s = max(cpu - sampler.inside_s, 0.0)
    scaled = work_s * REFERENCE_PROBE_S / fmean(sampler.samples)
    return result, Timing(scaled, work_s, wall, len(sampler.samples))
