"""Times scaled to a fixed speed of a library-free reference call.

The benchmark was tuned on a shared 2-core x86 VM whose speed drifts with
the load of other tenants: a fixed call's 30-s minimum moved between 0.40
and 0.65 ms over six minutes, and whole 30-s runs of predict_serve ran up
to 45% slower than others.  A statistic taken within one run cannot
remove a drift that lasts longer than the run.  So every timed sample is
scaled by ``REF_S / r``, where ``r`` is the mean of the median times of a
reference call measured right before and right after the sample.  Over
eight predict_serve runs, this cut the spread (interquartile range over
median) of single-point latency between runs from 0.32 to 0.08, and that
of batch time from 0.21 to 0.04.

The reference mixes small numpy calls with a Python loop, as the library
does, and never calls hetrvm, so no change to the library moves it.  A
scaled time is the time the operation would take on a machine where one
reference call takes ``REF_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 30e-6      # nominal seconds of one reference call, near its median
                   # on the 2-core VM the benchmark was tuned on
REF_CALLS = 100    # calls per reference measurement, about 3 ms

_rng = np.random.default_rng(0)
_CENTERS = _rng.standard_normal(100)
_WEIGHTS = _rng.standard_normal(100)
_COV = _rng.standard_normal((100, 100)) / 10.0
_NODES, _NODE_WEIGHTS = np.polynomial.hermite.hermgauss(32)


def reference() -> float:
    """One fixed call: a kernel row, a quadratic form, a 32-node
    quadrature and a short Python loop."""
    k = np.exp(-0.5 * (0.3 - _CENTERS) ** 2)
    mean, var = k @ _WEIGHTS, k @ _COV @ k
    quad = np.tanh(mean + np.sqrt(abs(var)) * _NODES) @ _NODE_WEIGHTS
    total = 0
    for i in range(300):
        total += i * i
    return float(quad) + total


def reference_s() -> float:
    """Median seconds of one reference call over ``REF_CALLS`` calls."""
    times = []
    for _ in range(REF_CALLS):
        t = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Gauge:
    """Scale factors for the intervals between calls of :meth:`scale`."""

    def __init__(self):
        self.refs = [reference_s()]

    def scale(self) -> float:
        """Factor for the time taken since the previous measurement."""
        self.refs.append(reference_s())
        return 2.0 * REF_S / (self.refs[-2] + self.refs[-1])
