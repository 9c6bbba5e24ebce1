"""Correction of task times for the machine's current speed.

The benchmark was sized on a shared machine whose speed drifted by up to
1.8x over minutes, as other tenants' load came and went.  That drift, not
the program, then decided most of the run-to-run spread of raw times.  So
the timed run also times a fixed reference kernel about every
SAMPLE_INTERVAL_S between tasks.  The kernel is pure Python and never
calls k3cone.  Each task's time is scaled by REFERENCE / (the median
kernel time around that task), and so reads as the time the task would
take with the kernel at its reference time.

The drift moved interpreter-bound code (Fraction and float arithmetic
written in Python) by up to 2x, but the bigint gcd at the core of the
elliptic scan far less.  So the kernel has one part of each kind, timed
separately, and a task is scaled by the part that matches its kind.  A
change to k3cone moves the scaled times exactly as it moves the raw ones,
since the kernel does not run k3cone code.  Raw times are printed next to
the scaled ones.
"""

import bisect
import math
import statistics
import time
from fractions import Fraction

# kernel part times on the sizing machine; a scaled time reads as if the
# kernel had taken these
REFERENCE_INTERP_S = 5.0e-4
REFERENCE_BIGINT_S = 3.5e-4
SAMPLE_INTERVAL_S = 0.1
WINDOW_S = 0.25  # kernel samples this close to a task set its scale

_A, _B = 7 ** 3550 + 1, 11 ** 2880 + 3  # about 3000 digits each
_GRAM = ((0.0, 1.0, 0.0, 0.5), (1.0, 0.0, 0.25, 0.0), (0.0, 0.25, -4.0, 0.0),
         (0.5, 0.0, 0.0, -4.0))


def interp_kernel():
    """Interpreter-bound work: Fraction sums and float bilinear forms
    written like `models.inner_f`."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    x = 0.0
    for k in range(60):
        v = (1.0 + k, 2.0, -0.5, 0.25 * k)
        x += sum(v[i] * _GRAM[i][j] * v[j] for i in range(4) for j in range(4))
    return total, x


def bigint_kernel():
    """A gcd of two 3000-digit integers."""
    return math.gcd(_A, _B)


def _timed(fn):
    fn()  # untimed: warm the caches the last task left cold
    t0 = time.perf_counter()
    fn()
    return t0, time.perf_counter() - t0


class SpeedLog:
    """Kernel timings taken during a run, and the scales they imply."""

    def __init__(self):
        self.times = []  # increasing
        self.interp = []
        self.bigint = []

    def sample(self, count=1):
        for _ in range(count):
            t0, interp = _timed(interp_kernel)
            _, bigint = _timed(bigint_kernel)
            self.times.append(t0)
            self.interp.append(interp)
            self.bigint.append(bigint)

    def maybe_sample(self):
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= SAMPLE_INTERVAL_S:
            self.sample()

    def scale(self, start, end, bigint=False):
        """Reference over the median kernel part time near [start, end]."""
        costs, ref = ((self.bigint, REFERENCE_BIGINT_S) if bigint
                      else (self.interp, REFERENCE_INTERP_S))
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = costs[lo:hi]
        if not near:  # no sample in the window: take the closest one after
            near = [costs[min(lo, len(costs) - 1)]]
        return ref / statistics.median(near)

    def median_scale(self, bigint=False):
        if bigint:
            return REFERENCE_BIGINT_S / statistics.median(self.bigint)
        return REFERENCE_INTERP_S / statistics.median(self.interp)
