"""Machine-speed probe, so that times from a shared, drifting host compare.

On a host shared with other tenants the speed of the same single-threaded
code drifts by up to 2x over tens of seconds to minutes, which no amount of
repetition within one run averages away. So every end-to-end time is measured
together with a probe: a fixed ~1 ms mix of interpreter and small-array work,
written here and sharing no code with symfd, run before, after and (on a timer
signal) every 0.1 s during the measured work. A time is then reported at the
reference speed, the speed at which the probe takes REFERENCE_S seconds:

    rescaled = (measured - time spent in the probe) * REFERENCE_S / mean(probe)

A change to symfd moves the measured time and leaves the probe alone, so it
shows in full. The raw times and probe means are printed alongside.
"""

import math
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1.0e-3
INTERVAL_S = 0.1
_REPS = 30
_N = 101
_X = np.linspace(0.0, 1.0, _N)


def probe():
    """Seconds for a fixed mix like symfd's per-step work, repeated _REPS times:
    small-array numpy arithmetic and slicing, a list round trip, a pure-Python
    tridiagonal elimination and scalar math calls."""
    t0 = perf_counter()
    for _ in range(_REPS):
        band = np.full(_N - 1, 1.0 / 6.0)
        rhs = np.empty_like(_X)
        rhs[1:-1] = (_X[2:] - _X[:-2]) * 0.5
        rhs[0] = rhs[-1] = 1.0
        lower, diag, d = band.tolist(), [2.0 / 3.0] * _N, rhs.tolist()
        for i in range(1, _N):
            w = lower[i - 1] / diag[i - 1]
            diag[i] -= w * lower[i - 1]
            d[i] -= w * d[i - 1]
        out = np.array(d) - 0.1 * np.exp(-_X * _X)
        np.isfinite(out).all()
        for i in range(20):
            math.exp(-0.01 * i * i)
    return perf_counter() - t0


class SpeedProbe:
    """Probes the machine's speed around and during a measurement.

    Used as a context manager: one probe on entry and one on exit, outside the
    measured region, and one more from a SIGALRM handler every INTERVAL_S
    seconds inside it. `spent` is the time those in-region probes took, which
    the measured time includes.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [probe()], 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())

    @property
    def mean(self):
        return statistics.fmean(self.samples)

    def rescale(self, measured):
        """The measured seconds at the reference speed."""
        return (measured - self.spent) * REFERENCE_S / self.mean
