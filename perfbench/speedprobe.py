"""An in-process probe of how fast the machine runs while a workload is measured.

On a 2-vCPU virtual machine shared with other tenants the same code runs up
to about 2x slower for periods from half a second to over a minute.  CPU
time slows as much as wall time (the slowdown is not time spent
descheduled), and the machine exposes no hardware counters, so neither
helps.  Instead, while the probe is on, SIGALRM every ``INTERVAL_S`` of wall
time runs a fixed kernel twice inside the measured process and records how
long the second call took.  The kernel mixes what the workloads do: a
Python-level loop over 4x4 complex matrices and a batched ``eigh`` and
``einsum`` over an array of them.  ``adjusted(t0, t1)`` converts the wall
interval ``[t0, t1]``, less the probe's own time, into seconds at the speed
at which one kernel takes ``REF_KERNEL_S``.

The handler runs between bytecodes of the main thread, so a long call into
numpy delays the next probe until it returns; each stretch between probes is
scaled by the median of the probe that ends it and its two neighbours.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
# The timed kernel's duration inside a running workload on a 2-vCPU Intel
# Xeon at 2.0 GHz in its faster state (numpy 2.4, OpenBLAS, one thread), so adjusted
# seconds read close to wall seconds there.  It is only a unit: adjusted
# times stay comparable whatever it is.
REF_KERNEL_S = 5.4e-4
SMALL_STEPS = 40
BATCH = 96

_rng = np.random.default_rng(20240601)
_m = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_M = _m / np.linalg.norm(_m, 2)
_b = _rng.normal(size=(BATCH, 4, 4)) + 1j * _rng.normal(size=(BATCH, 4, 4))
_H = _b + _b.conj().transpose(0, 2, 1)
_EYE = np.eye(4, dtype=complex)


def kernel() -> float:
    """Fixed work that does not depend on the program under test."""
    u = _EYE
    x = 0.0
    for k in range(SMALL_STEPS):
        u = u @ _M
        x += math.sin(0.1 * k) * float(u[0, 0].real)
    w, v = np.linalg.eigh(_H)
    p = np.einsum("nij,nj,nkj->nik", v, np.exp(-0.1j * w), v.conj())
    return x + float(p[0, 0, 0].real)


kernel()  # first-call set-up stays out of the samples


class SpeedProbe:
    """Samples the kernel's duration on a wall-clock timer while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # a probe's first and last instant
        self.ends: list[float] = []
        self.durations: list[float] = []  # its timed kernel
        self._previous = None
        self._busy = False

    def _handler(self, signum, frame) -> None:
        # A probe delayed past the next tick would otherwise nest inside
        # itself and record its starts out of order.
        if self._busy:
            return
        self._busy = True
        try:
            # The untimed first call brings the kernel's code and data back
            # into cache, so that the timed one does not depend on how much
            # the program under test evicted.
            start = time.perf_counter()
            kernel()
            timed = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.durations.append(end - timed)
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds the probe itself took inside [t0, t1]."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return math.fsum(self.ends[k] - self.starts[k] for k in range(i, j))

    def adjusted(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed, probe time excluded."""
        n = len(self.starts)
        if n == 0:
            return math.nan

        def kernel_s(k: int) -> float:
            k = min(k, n - 1)
            return statistics.median(self.durations[max(0, k - 1) : k + 2])

        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        total, seg_start = 0.0, t0
        for k in range(i, j):
            total += (self.starts[k] - seg_start) / kernel_s(k)
            seg_start = self.ends[k]
        total += (t1 - seg_start) / kernel_s(j)
        return total * REF_KERNEL_S
