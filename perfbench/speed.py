"""Machine-speed probe: turns measured seconds into calibrated seconds.

The benchmark runs on shared machines whose cores slow down by up to ~1.8x
for seconds at a time when a neighbour is busy (measured on a shared 2-core
Xeon VM: one fixed kernel took 90-180 ms in phases lasting 5-10 s,
with no steal time and no run-queue pressure).  Raw wall times of a 30 s run
then differ by 20-40 % from run to run.  A fixed kernel of small FFTs, timed
every ``INTERVAL_S`` inside the measured process itself, slows down with the
code under test; dividing each measured interval by the mean slowdown over
it (``NOMINAL_S`` / kernel time) removed most of that variation in trials:
the coefficient of variation of repeated runs fell from 23 % to 2 %
(Strichartz scans), 14 % to 4 % (resolvent scans) and 8 % to 2 %
(low-spectrum scans).  Pure-Python and BLAS kernels tracked worse.

A calibrated second is a second at the speed where the kernel takes
``NOMINAL_S``, about its time on an unloaded core of that VM.
The kernel calls numpy directly, through references taken before any
tracing is installed, and touches no package code, so a faster program
reads faster.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

perf = time.perf_counter
_fftn, _ifftn = np.fft.fftn, np.fft.ifftn
_VECTOR = np.random.default_rng(0).standard_normal(256) + 0j

NOMINAL_S = 120e-6   # kernel time on an unloaded reference core
INTERVAL_S = 0.025   # ~0.6 % of the measured time goes to probing


def kernel() -> float:
    """Seconds taken by six 256-point FFT pairs."""
    t0 = perf()
    x = _VECTOR
    for _ in range(6):
        x = _ifftn(_fftn(x) * 0.5)
    return perf() - t0


def speed_now(repeats: int = 5) -> tuple[float, float]:
    """(relative speed from the median of ``repeats`` kernels, seconds spent)."""
    t0 = perf()
    kernel()    # the first FFT of a size also builds its plan
    speed = NOMINAL_S / statistics.median(kernel() for _ in range(repeats))
    return speed, perf() - t0


class SpeedProbe:
    """Samples the kernel from SIGALRM every ``INTERVAL_S`` while started.

    ``on_probe(seconds)`` is told how long each probe took, so a tracer can
    keep probe time out of its frames.
    """

    def __init__(self, on_probe=None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self.on_probe = on_probe

    def _handler(self, _signum, _frame):
        t0 = perf()
        self.kernel_s.append(kernel())
        t1 = perf()
        self.starts.append(t0)
        self.ends.append(t1)
        if self.on_probe is not None:
            self.on_probe(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrate(self, a: float, b: float) -> tuple[float, float]:
        """(raw, calibrated) seconds of the interval [a, b] of ``perf()``,
        both without the time spent probing."""
        inside = [i for i, t in enumerate(self.starts) if a <= t < b]
        raw = (b - a) - sum(self.ends[i] - self.starts[i] for i in inside)
        if len(inside) < 3:    # short interval: use the nearest probes
            mid = 0.5 * (a + b)
            inside = sorted(range(len(self.starts)),
                            key=lambda i: abs(self.starts[i] - mid))[:3]
        if not inside:
            return raw, raw
        speed = statistics.fmean(NOMINAL_S / self.kernel_s[i] for i in inside)
        return raw, raw * speed
