"""Reference-core time: wall time corrected for the speed of the core.

The benchmark runs on a shared machine whose core speed drifts by up to
a factor of two, within a second as well as over minutes, and process
CPU time drifts with it.  A ``RefClock`` therefore measures the speed
of the core all the time it runs: every ``INTERVAL_S`` a timer signal
interrupts the timed work to run a fixed calibration unit, a short piece
of small-rational arithmetic of the kind loopwitt's scalars do.  Each
stretch of work between two samples counts as its wall time times
``REFERENCE_UNIT_S`` over the unit's time at its two ends (the mean of
the two speeds).  The sum reads as the time the work would take on a
core where the unit takes ``REFERENCE_UNIT_S``.  The time spent in the
samples is left out.

The unit uses only builtins and ``math``, so no change to loopwitt can
speed it up or slow it down, and it imports nothing that set-up would
otherwise pay for; the collector is off while it runs, so the size of
the program's heap does not change it either.

    clock = RefClock()
    clock.start()
    work()
    ref_s, wall_s = clock.stop()
"""

from __future__ import annotations

import gc
import signal
import time
from math import gcd

# Seconds the unit takes on the reference core.  Roughly its time on an
# idle core of the 2-core VM the baseline was measured on, so that
# reference-core seconds read close to wall seconds there.
REFERENCE_UNIT_S = 0.0007
INTERVAL_S = 0.02

_sampling_s = 0.0  # wall seconds spent in samples, by every clock so far


def work_clock() -> float:
    """``time.perf_counter`` less the time spent in samples, for timing
    spans inside work that a RefClock measures."""
    return time.perf_counter() - _sampling_s


def _mul(a, b):
    n, d = a[0] * b[0], a[1] * b[1]
    g = gcd(n, d)
    return n // g, d // g


def _add(a, b):
    n, d = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    g = gcd(n, d)
    return n // g, d // g


def calibration_unit() -> float:
    """Seconds the calibration unit takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(1, 1000):
            x = _add(_mul((i, i + 1), (i + 2, i + 3)), (1, i))
            acc += x[0] % 7
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Samples the core speed while it runs; one clock at a time, in the
    main thread, since it owns SIGALRM."""

    def __init__(self):
        self.samples = 0
        self._running = False

    def _on_alarm(self, *_):
        if self._running:
            self._sample()

    def _sample(self):
        global _sampling_s
        t0 = time.perf_counter()
        speed = 1.0 / calibration_unit()
        t1 = time.perf_counter()
        _sampling_s += t1 - t0
        work = t0 - self._last
        self.wall_s += work
        self.ref_s += work * REFERENCE_UNIT_S * (self._speed + speed) / 2
        self._speed, self._last = speed, t1
        self.samples += 1

    def start(self) -> None:
        self.ref_s = self.wall_s = 0.0
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._speed = 1.0 / calibration_unit()
        self._running = True
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Ends the measurement; returns reference-core seconds and wall
        seconds of the work since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False
        self._sample()
        signal.signal(signal.SIGALRM, self._old)
        return self.ref_s, self.wall_s
