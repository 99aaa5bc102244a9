"""Host-speed calibration for timings taken on a shared, noisy machine.

The machines this benchmark runs on change speed by up to half over
minutes (neighbours on the same cores), which moves every wall time with
them.  :func:`speed` times a fixed pure-Python kernel shaped like the
library's hot loops (tuple keys, dict updates, ``Fraction`` arithmetic)
and returns how fast the host runs it now relative to a nominal host.  A
workload's *nominal seconds* are its wall seconds times that speed, read
while the timed interval runs, so a slow spell on the host moves the
nominal figure far less than the wall figure.  Both are recorded; the
nominal one is what the end-to-end metrics report.

The kernel uses nothing from the library under test, so a change to the
library cannot change the calibration.  :class:`Sampler` reads the speed
periodically *on the thread doing the work*, pausing it, so a reading
describes the core the work runs on; the pauses are taken out of the timed
intervals again.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

#: Kernel seconds on a nominal host (the 2-core x86-64 VM the benchmark was
#: defined on, in its fast state).  Only a scale: it cancels in any ratio of
#: two nominal timings.
NOMINAL_KERNEL_S = 0.004

#: Kernel repetitions per reading; the median is used.
REPEATS = 3


def _kernel() -> float:
    # The collector is paused so that a reading does not depend on the size
    # of the heap the workload has built (the kernel makes no cycles).
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        total = Fraction(0)
        for i in range(300):
            key = (i % 61, (i * 7) % 53, i & 7)
            table[key] = table.get(key, 0) + 1
            total += Fraction(i % 13 + 1, i % 7 + 1)
            sorted((value, key) for key, value in list(table.items())[:6])
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed() -> float:
    """Host speed now, relative to the nominal host (2.0 = twice as fast)."""
    return NOMINAL_KERNEL_S / statistics.median(_kernel() for _ in range(REPEATS))


class Sampler:
    """Reads :func:`speed` every ``period`` seconds from a SIGALRM handler.

    Python runs signal handlers in the main thread between bytecodes, so a
    reading interrupts the work running there (other threads of the process
    wait for the interpreter lock meanwhile).  Use as a context manager in
    the main thread.
    """

    def __init__(self, period: float = 0.25) -> None:
        self.period = period
        self.readings: List[Tuple[float, float, float]] = []  # (start, end, speed)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._read)
        self._read()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _read(self, *_signal: object) -> None:
        start = time.perf_counter()
        value = speed()
        self.readings.append((start, time.perf_counter(), value))

    def mean_speed(self, start: float, end: float) -> float:
        """Mean reading inside ``[start, end]`` (``perf_counter`` times),
        else the nearest reading."""
        inside = [r[2] for r in self.readings if start <= r[0] and r[1] <= end]
        if inside:
            return statistics.mean(inside)
        return min(self.readings, key=lambda r: abs(r[0] - (start + end) / 2))[2]

    def interval(self, start: float, end: float) -> Tuple[float, float]:
        """``(wall, nominal)`` seconds of work done on this thread in
        ``[start, end]``, without the pauses the readings took."""
        paused = sum(r[1] - r[0] for r in self.readings if start <= r[0] and r[1] <= end)
        wall = (end - start) - paused
        return wall, wall * self.mean_speed(start, end)
