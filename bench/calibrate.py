"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by up to
2.5x within minutes, in regimes lasting seconds, so a bare timing mostly
measures the neighbours.  A calibration loop run before or after a sample
misses the regime the sample ran in.  Here it runs *during* the sample: the
benchmark process and its children are pinned to one CPU, and a low-priority
thread of the benchmark repeats a fixed kernel (small numpy products plus a
Python loop, the mix nlqm spends its time on) while the child runs.  The
scheduler interleaves the two at millisecond granularity, so the kernel's
rate per CPU second over the child's lifetime is the speed the child saw.

A child's cost is then its CPU seconds (user + system, from ``wait4``)
scaled to a host on which the kernel runs at ``REFERENCE_RATE``:

    normalised seconds = child CPU seconds * measured rate / REFERENCE_RATE

The child is single-threaded and does no waiting worth counting (BLAS runs
one thread, and its files sit in the page cache), so on an idle host at the
reference speed this equals its wall time.
"""
from __future__ import annotations

import os
import threading
from time import perf_counter, thread_time

import numpy as np

# Kernel blocks per CPU second on the 2-vCPU VM the bounds were set on, at
# its usual speed; it only sets the scale, so normalised seconds read close
# to the wall seconds measured there.
REFERENCE_RATE = 1600.0
# The calibration thread's nice value: it takes about a tenth of the CPU, so
# the child runs a little longer in wall time but its CPU time is unchanged.
NICE = 10
MIN_POINTS = 8

_H = np.diag([0.3, -0.1, 0.7, -0.4]).astype(complex) + 0.05


def _block() -> int:
    """One unit of calibration work (about 0.6 ms at the reference rate)."""
    s = 0
    for _ in range(5):
        psi = np.full(4, 0.5, dtype=complex)
        for _ in range(10):
            e = np.vdot(psi, _H @ psi).real
            psi = psi - 0.01j * (_H @ psi + 0.1 * e * psi)
        for i in range(300):
            s += (i * 7) % 13
    return s


class Calibrator:
    """Measures the speed of the CPU a child runs on, while it runs.

    Use as a context manager; ``measure(fn)`` calls ``fn`` with the kernel
    running beside it and returns ``(fn's result, rate)``, where the rate is
    kernel blocks per CPU second of the calibration thread.
    """

    def __init__(self):
        self._points = []                     # (wall clock, thread CPU clock)
        self._active = threading.Event()
        self._stop = False
        self._thread = threading.Thread(target=self._loop, name="calibrate", daemon=True)

    def __enter__(self):
        # Children inherit the affinity: they, this process and the kernel
        # share one CPU and so one host-speed regime.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop = True
        self._active.set()
        self._thread.join()

    def _loop(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), NICE)
        while True:
            self._active.wait()
            if self._stop:
                return
            _block()
            self._points.append((perf_counter(), thread_time()))

    def measure(self, fn):
        self._points.clear()
        self._active.set()
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            t1 = perf_counter()
            self._active.clear()
        points = [p for p in list(self._points) if t0 <= p[0] <= t1]
        if len(points) < MIN_POINTS or points[-1][1] <= points[0][1]:
            raise RuntimeError(f"calibration saw {len(points)} kernel blocks in "
                               f"{t1 - t0:.3f} s; too few to measure the host's speed")
        return result, (len(points) - 1) / (points[-1][1] - points[0][1])


def normalise(cpu_s: float, rate: float) -> float:
    """CPU seconds measured at ``rate`` as seconds at ``REFERENCE_RATE``."""
    return cpu_s * rate / REFERENCE_RATE
