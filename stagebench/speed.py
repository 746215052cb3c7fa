"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the same call on the same input runs up to 1.6x
slower for seconds to minutes at a time.  Per-thread CPU time swings just as
much, so the time is not lost to descheduling but to contention inside the
machine, and no clock of the process can leave it out.  The benchmark
therefore times a fixed calibration loop at most every ``PERIOD_S`` between
calls and scales each call's time by ``REFERENCE_S`` over the mean of the
two calibrations around it: timings read as they would on a machine where
the loop takes ``REFERENCE_S``.

The loop shares no code with rootradii, so no change to the program moves
it.  Its two halves follow the program's two kinds of hot loop, without
numba: Python-level loops over small numpy arrays (index arithmetic,
gathers, ``exp2`` scaling, sums, ``frexp``), as in the float Graeffe step,
and error-free double-double arithmetic on numpy scalars, as in the
double-double Graeffe step.
"""

import math
import statistics
import time

import numpy as np

# calibration loop time at the usual speed of a 2-core 2.1 GHz Xeon VM with
# numpy 2.4; it only fixes the scale of the reported timings
REFERENCE_S = 0.013
PERIOD_S = 0.25
_REPEATS = 4

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal(65) + 1j * _rng.standard_normal(65)
_E = _rng.integers(-40, 40, size=65)
_S = _rng.standard_normal(768)
_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    t = _SPLITTER * a
    ahi = t - (t - a)
    t = _SPLITTER * b
    bhi = t - (t - b)
    return p, ((ahi * bhi - p) + ahi * (b - bhi) + (a - ahi) * bhi) + (a - ahi) * (b - bhi)


def _double_double_sweep():
    hi = lo = 0.0
    n = len(_S)
    for i in range(n):
        ph, pl = _two_prod(_S[i], _S[n - 1 - i])
        hi, err = _two_sum(hi, math.ldexp(ph, i % 7 - 3))
        lo += err + pl
    return hi + lo


def _convolution_sweep():
    n = len(_M) - 1
    half = n // 2
    acc = 0
    for j in range(n + 1):
        a = np.arange(max(0, j - half), min(j, half) + 1)
        tm = np.concatenate((_M[a] * _M[j - a], -_M[a] * _M[j - a]))
        te = np.concatenate((_E[a] + _E[j - a], _E[a] - _E[j - a]))
        s = (tm * np.exp2((te - te.max()).astype(np.float64))).sum()
        acc += math.frexp(abs(s))[1]
    return acc


def calibration_loop():
    """The fixed unit of work whose time measures the machine's current speed."""
    return sum(_convolution_sweep() + _double_double_sweep() for _ in range(_REPEATS))


class Speed:
    """Calibration samples taken during a run, and the scale they give each call."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self):
        """Time the calibration loop now; return the sample's index."""
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1
        return len(self.samples) - 1

    def tick(self):
        """Sample if ``PERIOD_S`` has passed since the last one; return the latest index."""
        if time.perf_counter() - self._last >= PERIOD_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, i):
        """Factor for a time measured between samples ``i`` and ``i + 1``."""
        return REFERENCE_S / statistics.fmean(self.samples[i:i + 2])

    def summary(self):
        q = statistics.quantiles(self.samples, n=4)
        return {"samples": len(self.samples), "reference_s": REFERENCE_S,
                "median_s": statistics.median(self.samples), "q1_s": q[0], "q3_s": q[2]}
