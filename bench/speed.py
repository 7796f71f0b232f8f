"""The machine's current speed, from a fixed slice of work timed between operations.

This benchmark's host shares its two CPUs with other machines. In 2-second
windows a fixed pure-Python loop ran anywhere between 48 and 76 iterations
per second. The same CLI operation took up to 1.8 times as long from one
minute to the next, with process CPU time growing as much as wall time:
the machine itself got slower, rather than the run waiting. Raw times
therefore spread more between runs than any regression bound could allow.

So a run also times a slice of fixed work between its operations. The slice
is the benchmark's own code: complex-step derivatives of a small CES
function, a mix of interpreter and small-array numpy work like the planner's
residuals. Time metrics are reported at the reference speed, at which one
slice takes ``REFERENCE_SLICE_S``: the measured time multiplied by
``REFERENCE_SLICE_S`` over the median slice time. No change to the program
moves the slice, so a faster program still reads faster.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median slice time on the reference machine (bench/README.md)
REFERENCE_SLICE_S = 0.005
# operation time between two slices
EVERY_S = 0.25

# The slice has its own CES code, apart from reference.py, so that a change
# to the checks cannot move the reference speed.
_POINT = [np.array([v]) for v in (1.03, 0.23, 1.1, 0.68)]


def _ces(share, x, y, rho):
    return (share * x**rho + (1.0 - share) * y**rho) ** (1.0 / rho)


def _output(l_c, l_m, k, ai):
    return _ces(0.5, _ces(0.4, k, l_c, -1.0), _ces(0.4, 0.1 * ai, l_m, -1.0), 0.5)


def slice_seconds() -> float:
    """Wall time of the fixed slice of work."""
    start = time.perf_counter()
    for _ in range(40):
        for i in range(4):
            args = [v.astype(complex) for v in _POINT]
            step = 1e-20 * _POINT[i]
            args[i] = args[i] + 1j * step
            np.imag(_output(*args)) / step
    return time.perf_counter() - start


class Speed:
    """Slices timed during one phase of a run."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def sample(self) -> None:
        self.slices.append(slice_seconds())

    def scale(self) -> float:
        """Factor that turns a time measured now into one at the reference speed."""
        return REFERENCE_SLICE_S / statistics.median(self.slices)
