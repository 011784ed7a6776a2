"""Reference-speed clock for the end-to-end times.

Two kinds of noise from a shared host reach the wall clock: the process is
descheduled for a while (spikes of tens of milliseconds in one operation),
and the core runs slower or faster for seconds at a time (tens of percent).
The benchmark therefore measures process CPU time, which leaves out the
first, and divides out the second with a fixed numpy kernel (no robustpl
code) timed between operations, at most every SAMPLE_EVERY_S.  Each stretch
of work is scaled by the speed of the last WINDOW kernel samples:

    time at reference speed = CPU time * REFERENCE_KERNEL_S / median kernel time

A change to the program moves the work and not the kernel, so it shows in
full.  The load is one thread, so CPU time is the time the work took while
it ran.  Raw wall-clock throughput is printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.process_time

# median kernel CPU time over the reference runs (2-core VM, Python 3.11.7,
# numpy 2.4.6)
REFERENCE_KERNEL_S = 1.6e-3
SAMPLE_EVERY_S = 0.1
WINDOW = 3

_rng = np.random.default_rng(7)
_MATS = [(lambda a: a + a.conj().T)(_rng.standard_normal((3, 3))
                                    + 1j * _rng.standard_normal((3, 3)))
         for _ in range(50)]


def _kernel() -> float:
    acc = 0.0
    for a in _MATS:
        w, v = np.linalg.eigh(a)
        acc += float(np.sum(np.exp(-np.abs(w)))) + float(np.abs(v @ a @ v.conj().T).sum())
    return acc


def kernel_seconds() -> float:
    """CPU time of 50 small Hermitian eigendecompositions with products and
    exponentials, the kind of work a solve does between Python calls; timed
    on a second pass so that caches are warm."""
    _kernel()
    t0 = clock()
    _kernel()
    return clock() - t0


class SpeedProbe:
    """Splits a timed interval into stretches of work separated by kernel
    samples.  ``scaled_s`` is the CPU time of the work at reference speed and
    ``wall_s`` its wall time; kernel time is in neither."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample  # called with the wall time of each sample
        self.samples = []
        self.scaled_s = self.wall_s = 0.0
        self._mark = self._wall_mark = None

    def start(self):
        self._take()

    def sample(self):
        """Call between operations; takes a kernel sample when due."""
        if clock() - self._mark >= SAMPLE_EVERY_S:
            self._close()
            self._take()

    def stop(self):
        self._close()

    def scale(self) -> float:
        """Factor that turns CPU time now into reference-speed time."""
        return REFERENCE_KERNEL_S / float(np.median(self.samples[-WINDOW:]))

    def _close(self):
        self.scaled_s += (clock() - self._mark) * self.scale()
        self.wall_s += time.perf_counter() - self._wall_mark

    def _take(self):
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self._mark, self._wall_mark = clock(), time.perf_counter()
        if self.on_sample:
            self.on_sample(self._wall_mark - t0)
