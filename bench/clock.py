"""Speed-normalized timing for a shared host whose speed drifts.

On the 2-vCPU host this benchmark was written on, the same code runs up to
2x slower for stretches of seconds to minutes: other tenants contend for the
core, and the VM sees no steal time, so CPU time drifts exactly like wall
time.  A short reference computation, owned by the benchmark and independent
of adiabatz, is timed every ``INTERVAL_S`` from a SIGALRM handler while the
jobs run.  The normalized length of an interval is its wall time, minus the
reference runs inside it, times ``NOMINAL_S`` over the mean reference time
around it: the time the interval would have taken at the reference speed.
Over 10 s windows this cut the spread of a fixed workload from 15-19% to
2-5% there.  Raw wall times are kept next to the normalized ones.

Set-up is timed in a fresh process before numpy is imported, so it is
normalized with a pure-interpreter loop timed in that process right before
and right after it.  This module imports numpy only when a probe is made.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.1
# the references' times at full speed on the host the benchmark was tuned on
NOMINAL_S = 1.1e-3
NOMINAL_PYTHON_S = 0.87e-3


def python_reference():
    """Pure-interpreter loop, about 1 ms."""
    s = 0
    for i in range(9000):
        s += i * i % 7
    return s


def python_rate(runs):
    """NOMINAL_PYTHON_S over the harmonic-mean time of the loop: the speed
    of this process relative to the nominal one."""
    total = 0.0
    for _ in range(runs):
        t0 = time.perf_counter()
        python_reference()
        total += 1.0 / (time.perf_counter() - t0)
    return NOMINAL_PYTHON_S * total / runs


class SpeedProbe:
    """Times the reference periodically; normalizes intervals with it."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._vector = np.random.default_rng(0).standard_normal((2048, 2, 2))
        self.starts = []
        self.ends = []

    def reference(self):
        """Interpreter loop plus small-array numpy work, 1-2 ms."""
        python_reference()
        for _ in range(3):
            self._np.exp(1j * self._vector[:, 0, 0])
            self._vector @ self._vector

    def sample(self):
        t0 = time.perf_counter()
        self.reference()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        """Sample every INTERVAL_S from now on, until stop()."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, a, b):
        """Normalized length of the interval [a, b] of perf_counter time."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        busy = (b - a) - sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        # the samples inside the interval, widened by the nearest one on
        # each side, so a short job between two samples gets both
        near = range(max(lo - 1, 0), min(hi + 1, len(self.starts)))
        if not near:
            raise RuntimeError("no reference sample to normalize with")
        mean_rate = sum(1.0 / (self.ends[k] - self.starts[k]) for k in near) / len(near)
        return busy * NOMINAL_S * mean_rate
