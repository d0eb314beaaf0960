"""Machine-speed references for the end-to-end times.

On a 2-core x86 box shared with other work the speed drifts by tens of
percent over tens of seconds, which moves raw wall times more than the
bounds allow.  So fixed references that never touch mrhydro are timed
alongside the work, and each end-to-end time is reported in seconds at
the speed where its reference takes its nominal time:

- pass and operation times use a kernel timed every SAMPLE_PERIOD_S from
  a timer signal: measured time x NOMINAL_KERNEL_S / mean kernel time
  over the same interval.  The kernel's own time is excluded from the
  measured intervals.  The signal handler pauses the program's main
  thread; a sample is skipped when any other thread or process of the
  program is running, so the kernel never shares a core with program
  work and a program that uses more cores does not slow it down.
- set-up times use a fresh interpreter importing numpy and scipy.linalg,
  timed before and after each set-up probe: measured time x
  NOMINAL_IMPORT_S / mean reference time.  Start-up and imports dominate
  set-up and react to the box differently from computation.
"""
from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from proctree import others_running

SAMPLE_PERIOD_S = 0.1
NOMINAL_KERNEL_S = 2.0e-3   # kernel time on a 2-core x86 box in a quiet phase
MIN_SAMPLES = 10
WINDOW_S = 0.5              # samples this close to an operation scale it
NOMINAL_IMPORT_S = 0.5      # import reference on the same box in a quiet phase
IMPORT_REFERENCE = "import numpy, scipy.linalg"

_A = np.eye(7) * (3.0 + 1.0j) + 0.1
_B = np.ones(7)


def kernel():
    """Scalar tuple arithmetic and small complex solves, like the program's loops."""
    x = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    for _ in range(750):
        k = tuple(0.5 * x[j] - 0.1 * x[j - 1] for j in range(7))
        x = tuple(x[j] + 1e-4 * k[j] for j in range(7))
    for _ in range(100):
        np.linalg.solve(_A, _B)
    return x


def time_kernel(n: int) -> list:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def time_import_reference() -> float:
    """Seconds for a fresh interpreter to run IMPORT_REFERENCE and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_REFERENCE], check=True, timeout=60)
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor from measured seconds to seconds at nominal speed."""
    return NOMINAL_KERNEL_S / statistics.fmean(samples)


class SpeedSampler:
    """Times the kernel from a periodic timer signal while entered.

    clock() is a perf_counter that stops while the kernel runs, so the
    intervals it measures hold only the work.  Each sample is stamped
    with clock() when it starts.  skipped counts the timer ticks that
    found other program work running.
    """

    def __init__(self):
        self.samples = []
        self.stamps = []
        self.skipped = 0
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def scale_near(self, start: float, end: float) -> float:
        """Scale from the samples within WINDOW_S of [start, end], or all."""
        near = [d for s, d in zip(self.stamps, self.samples)
                if start - WINDOW_S <= s <= end + WINDOW_S]
        return scale(near if len(near) >= MIN_SAMPLES // 2 else self.samples)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        if others_running():
            self.skipped += 1
        else:
            self.stamps.append(t0 - self._spent)
            t1 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t1)
        self._spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:  # after the work, when it is quiet
            self.stamps.append(self.clock())
            self.samples += time_kernel(1)
