"""Machine-speed reference for the timed phase.

The shared machine the benchmark runs on changes speed by up to a factor
of two over tens of seconds to minutes, while the work of a run stays the
same.  A fixed kernel that does not touch the library (small numpy arrays
in a Python loop, a Gauss-Legendre panel sum, `scipy.integrate.quad` and
`brentq` on Python callables: the same mix of work as the library's
quadrature) is timed between the benchmark's items.  A timed interval is
then scaled by REF_S over the median kernel time around it, which reads
it in seconds of a machine on which the kernel takes REF_S.  A change to
the library moves the intervals but not the kernel, so it shows in full.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import integrate, optimize

REF_S = 0.009        # median kernel time on the 2-vCPU Xeon the benchmark was defined on
EVERY_S = 0.25       # one kernel sample per EVERY_S of wall time ...
BURST = 8            # ... taken up to BURST at a time after a long item
WINDOW_S = 5.0       # samples within WINDOW_S of an interval's midpoint scale it
MIN_SAMPLES = 5      # or else the MIN_SAMPLES nearest samples

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _density(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be positive")
    ph = x * np.exp(-x)
    re = 0.3 - x + 0.05 * np.log1p(x) * np.sqrt(x)
    return ph / (re * re + (math.pi * 0.01 * ph) ** 2)


def kernel():
    """One sample: seconds the fixed kernel takes now."""
    start = time.perf_counter()
    acc = 0j
    for k in range(30):
        x = (0.05 * k + 0.1 + 0.02 * (1.0 + _GL_X[None, :])
             + 0.04 * np.arange(8)[:, None]).ravel()
        v = _density(x) * np.exp(3j * x)
        acc += complex((v.reshape(8, 16) @ _GL_W).sum())
    acc += integrate.quad(lambda u: float(_density(u)), 0.01, 5.0,
                          points=[0.3], limit=200)[0]
    acc += optimize.brentq(
        lambda u: float(0.3 - u + 0.05 * np.log1p(u) * np.sqrt(u)), 0.01, 2.0)
    if not math.isfinite(abs(acc)):
        raise RuntimeError("reference kernel gave a non-finite result")
    return time.perf_counter() - start


class Reference:
    """Kernel samples (wall-clock time, seconds) taken between items."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self, force=False):
        """Sample once per EVERY_S since the last call (at least once if
        `force`), so that long items are covered as densely as short ones."""
        now = time.perf_counter()
        n = int(min((now - self._last) / EVERY_S, BURST))
        for _ in range(max(n, int(force))):
            self.samples.append((time.perf_counter(), kernel()))
        if n or force:
            self._last = time.perf_counter()

    def scaled(self, start, end):
        """Seconds of the interval [start, end] at the reference speed."""
        mid = 0.5 * (start + end)
        near = sorted(self.samples, key=lambda s: abs(s[0] - mid))
        times = [d for t, d in near if abs(t - mid) <= WINDOW_S]
        if len(times) < MIN_SAMPLES:
            times = [d for _, d in near[:MIN_SAMPLES]]
        return (end - start) * REF_S / statistics.median(times)
