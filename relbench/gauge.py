"""Speed gauge: a fixed piece of the benchmark's own work, timed on the wall
clock, that tells how fast the host runs right now.

The host's speed drifts by up to 2x in phases lasting seconds, and
interpreter work and BLAS work slow down by about the same share. The gauge
mixes both kinds: an interpreter loop with a small numpy dot product every
few steps, and row updates on a float matrix of a few megabytes, like the
SGD loop's. The ratio of its reference duration to its current duration
rescales a wall-clock interval into reference seconds. It imports nothing
from the program under test, so no change to that program can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Gauge duration at the host's undisturbed speed (a fast reading on a 2-core
# x86-64 host, Python 3.11, numpy 2.4, one BLAS thread). It only fixes the
# unit: a reference second is about a wall second at that speed.
REFERENCE_S = 2.2e-3

_LOOP = 3000
_ROWS = 400
_A = np.linspace(-1.0, 1.0, 32)
_B = np.linspace(0.5, -0.5, 32)
_gen = np.random.default_rng(0)
_M = _gen.uniform(-0.1, 0.1, (20000, 16))
_I = _gen.integers(0, 20000, _ROWS).tolist()
_J = _gen.integers(0, 20000, _ROWS).tolist()


def _work() -> float:
    acc = 0.0
    x = 1
    for i in range(_LOOP):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if i & 7 == 0:
            acc += float(_A @ _B) * (x & 3)
    m = _M
    for i, j in zip(_I, _J):
        v1, v2 = m[i], m[j]
        e = 1.0 / (1.0 + math.exp(-float(v1 @ v2)))
        # equal and opposite steps keep the matrix unchanged over time
        m[i] += 1e-3 * e * v2
        m[i] -= 1e-3 * e * v2
    return acc


def read(passes: int = 4) -> float:
    """Mean wall time of ``passes`` gauge passes, in seconds. The mean of a
    few passes tracks the host's speed better than their median: on this
    host, medians of 15 s of gauge-scaled calls spread 1.7-4% with the mean
    of four passes before and after each call, 6-7% with the median of three,
    and 23-31% unscaled."""
    t0 = time.perf_counter()
    for _ in range(passes):
        _work()
    return (time.perf_counter() - t0) / passes


def timed(fn, *args, **kwargs):
    """Run ``fn`` and return (result, reference seconds): its wall time
    scaled by gauges read just before and just after it."""
    g0 = read()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return result, wall * REFERENCE_S / ((g0 + read()) / 2.0)
