"""Job times corrected for the speed of the machine.

The machine the benchmark was written on changes speed by up to 1.7x, for
seconds to minutes at a time, because other tenants share its cores; CPU
time tracks wall time, so the process is slowed, not descheduled.  Raw
wall times of identical work spread by 25-40% between runs (NOTES.md).

A SpeedClock samples that speed while a job runs.  An interval timer
interrupts the job every PERIOD_S, on the job's own thread, and times a
fixed reference kernel that contains no ptml code: arithmetic on mpmath's
low-level floats, like ptml's high-precision paths, then complex matrix
products in numpy, like its dense paths, about half the time each.  A
stretch of the job then counts for its wall time scaled by REFERENCE_S
over the kernel's median time in the nearby samples, and the samples
themselves count for nothing.  Corrected times read in seconds at the
reference speed, which is about the machine's usual speed; on a steady
machine they equal wall time less the sampling.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

PERIOD_S = 0.25
# Kernel time at the reference speed (about its median on a 2-vCPU x86-64
# cloud VM).  A constant, so corrected times compare across runs and
# commits.
REFERENCE_S = 0.0075
# Each stretch uses the median kernel time of this many samples around it.
WINDOW = 3

_PREC = 200  # bits, about ptml's default working precision
_THIRD = mpf_div(from_int(1), from_int(3), _PREC, round_nearest)
_MATRIX = ((np.arange(96 * 96).reshape(96, 96) % 7 - 3) * (1 + 1j)) / 96


def _kernel():
    acc = from_int(0)
    for i in range(500):
        term = mpf_mul(_THIRD, from_int(i), _PREC, round_nearest)
        acc = mpf_add(acc, term, _PREC, round_nearest)
    for _ in range(18):
        _MATRIX @ _MATRIX


class SpeedClock:
    def __init__(self):
        self.starts = []  # time.monotonic() at the start of each sample
        self.ends = []

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self):
        start = time.monotonic()
        _kernel()
        self.starts.append(start)
        self.ends.append(time.monotonic())

    def factors(self) -> list:
        """REFERENCE_S over the windowed median kernel time, per sample."""
        took = [e - s for s, e in zip(self.starts, self.ends)]
        half = WINDOW // 2
        return [REFERENCE_S / statistics.median(took[max(0, k - half):k + half + 1])
                for k in range(len(took))]

    def corrected(self, a: float, b: float, factors: list) -> float:
        """Seconds at the reference speed spent in [a, b] outside samples.

        The gap after sample k runs at the speed of sample k; time before
        the first sample runs at the speed of the first.
        """
        total = _overlap(a, b, -math.inf, self.starts[0]) * factors[0]
        for k in range(max(bisect.bisect_right(self.ends, a) - 1, 0),
                       len(self.starts)):
            if self.ends[k] >= b:
                break
            nxt = self.starts[k + 1] if k + 1 < len(self.starts) else math.inf
            total += _overlap(a, b, self.ends[k], nxt) * factors[k]
        return total


def _overlap(a, b, lo, hi) -> float:
    return max(0.0, min(b, hi) - max(a, lo))
