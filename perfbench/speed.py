"""Machine-speed reference, sampled throughout a pass.

The boxes this benchmark runs on are shared: the speed of the same code
drifts by +-15% over tens of seconds to minutes, and CPU time drifts with
it.  Measured on the 2-core box this benchmark was defined on, the time of
a fixed dunkl_lab task, averaged over 10-30 s windows, had a quartile
spread of 12-15%; the ratio of that time to the time of this module's
reference kernel, run alternately, had a spread of about 2.3%.

So a pass keeps a SIGALRM interval timer running: every INTERVAL_S the
handler times one `reference_kernel()` call (fixed work that does not
import or call dunkl_lab, so program changes do not move it).  The time the
handler takes is removed from the pass, and the remainder is rescaled to
the kernel's nominal speed:

    normalised = (measured - handler time) * NOMINAL / mean(kernel time)

with wall-clock kernel times for wall time and CPU kernel times for CPU
time.  The result is seconds at the box's nominal speed; raw values are
reported alongside.  run.py rescales set-up time by the wall factor of the
passes it runs between its set-up samples.
"""

from __future__ import annotations

import signal
import time

import numpy as np
# bound here, not looked up in the handler: numpy loads `polynomial` lazily,
# and a handler that triggers that import while the interrupted code is
# itself importing it recurses without end
from numpy.polynomial.polynomial import polyval

INTERVAL_S = 0.1
# median seconds of one reference_kernel() call on the defining box
# (1000 calls, thread variables pinned to 1)
NOMINAL_WALL_S = 0.0023
NOMINAL_CPU_S = 0.0023

# A frozen copy of the arithmetic of one Gauss-Jacobi translation sweep
# (48 nodes x 60 points of a cubic times a Gaussian), the program's hottest
# path, on fixed data.  It tracked the speed of besov.omega more closely
# (ratio spread 2.3% over 10-20 s windows) than a generic numpy and
# dict-loop mix did (5-6%).
_XJ = np.cos(np.linspace(0.05, 3.09, 48))
_WJ = np.linspace(0.5, 1.5, 48) / 48.0
_YS = np.linspace(-3.0, 3.0, 60)
_CF = np.array([1.0, 1.0, 0.0, 1.0])
_XS = (0.3, -0.7, 1.1, 1.9, -2.4, 0.05) * 2


def reference_kernel():
    acc = 0.0
    for x in _XS:
        ay = np.abs(_YS)
        lo, hi = (abs(x) - ay) ** 2, (abs(x) + ay) ** 2
        nz = _YS != 0.0
        r = np.where(nz, 0.5 * (hi - lo), 1.0)
        u = 0.5 * (lo + hi)[:, None] + r[:, None] * _XJ[None, :]
        z = np.sqrt(u)
        fz = polyval(z, _CF) * np.exp(-0.5 * z * z)
        fmz = polyval(-z, _CF) * np.exp(-0.5 * z * z)
        yv = np.where(nz, _YS, 1.0)[:, None]
        b0 = 1.0 - (x * x + yv * yv - u) / (2.0 * x * yv)
        s = (fz + fmz) * b0 + (fz - fmz) / z
        acc += float((r ** 1.5 * (s @ _WJ)).sum())
    return acc


# one call at import, so that whatever the kernel loads lazily is loaded
# before the handler can run it
reference_kernel()


class SpeedSampler:
    """Times reference_kernel() every INTERVAL_S of wall time while running."""

    def __init__(self):
        self.samples = []       # (start, wall seconds, cpu seconds)
        self._previous = None
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:          # a tick that lands inside a sample is dropped
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def _sample(self):
        w0, c0 = time.perf_counter(), time.process_time()
        reference_kernel()
        self.samples.append((w0, time.perf_counter() - w0,
                             time.process_time() - c0))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _within(self, t0, t1):
        return [s for s in self.samples if t0 <= s[0] < t1]

    def normalised_wall(self, t0, t1):
        """(normalised, raw minus handler time) wall seconds of [t0, t1)."""
        inside = self._within(t0, t1)
        raw = (t1 - t0) - sum(s[1] for s in inside)
        if not inside:
            return raw, raw
        return raw * NOMINAL_WALL_S / (sum(s[1] for s in inside) / len(inside)), raw

    def normalised_cpu(self, cpu_total):
        """(normalised, raw minus handler time) CPU seconds of the process."""
        raw = cpu_total - sum(s[2] for s in self.samples)
        if not self.samples:
            return raw, raw
        mean = sum(s[2] for s in self.samples) / len(self.samples)
        return raw * NOMINAL_CPU_S / mean, raw
