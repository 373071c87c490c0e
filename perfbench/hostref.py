"""Host-speed reference: a fixed computation timed between operations.

The host's speed drifts by tens of percent over seconds to minutes, in
CPU time as well as wall time, so a raw timing says as much about the
host as about the program.  Between every two operations the benchmark
times the same small computation, which imports nothing from
``orlicz_lab``: seven solves of one fixed 12 x 16 LP through scipy's
HiGHS wrapper.  Like the library's operations, that is Python wrapper
code, small NumPy arrays and compiled solver code.  (Of the candidates
tried, an interpreter loop and a run of small-array NumPy calls tracked
the operations less well; see the README.)  An operation's corrected
time is its raw time multiplied by ``NOMINAL_S`` over the median of the
reference samples nearest to it, so a corrected second is a second of a
host on which the reference takes ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.optimize import linprog

#: Reference time, in seconds, that defines a host-corrected second.
NOMINAL_S = 0.018
#: Samples taken on each side of an operation for its correction.
WINDOW = 3
SOLVES = 7

_RNG = np.random.default_rng(20161027)
_A = _RNG.uniform(-1.0, 1.0, (12, 16))
_B = _RNG.uniform(0.5, 1.0, 12)
_C = _RNG.uniform(-1.0, 0.0, 16)


def reference() -> float:
    return sum(linprog(_C, A_ub=_A, b_ub=_B, bounds=[(0, 1)] * 16,
                       method="highs").fun for _ in range(SOLVES))


class HostReference:
    """Reference samples of one process, in the order they were taken."""

    def __init__(self):
        self.ends = []     # perf_counter at the end of each sample
        self.seconds = []  # duration of each sample

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.seconds.append(t1 - t0)

    def factor(self, t: float) -> float:
        """``NOMINAL_S`` over the median of the ``WINDOW`` samples taken
        before ``t`` and the ``WINDOW`` taken after it."""
        i = bisect.bisect_left(self.ends, t)
        return NOMINAL_S / statistics.median(self.seconds[max(0, i - WINDOW):i + WINDOW])

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.seconds)
