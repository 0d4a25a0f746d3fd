"""Machine-speed reference for the end-to-end timings.

On a shared machine the same code runs up to about 1.6x slower for
stretches of a few seconds to about a minute, whenever a neighbour loads the
core; CPU time slows down with wall time, so it does not help, and a whole
run can sit in one slow stretch.  While it measures, the benchmark therefore
samples a fixed reference computation (small Hermitian eigensolves and a
pure-Python loop, the mix the package itself runs) at most every
``INTERVAL_S``, and scales each measured time by ``NOMINAL_S`` over the mean
of the reference samples taken just before and just after it.  A scaled
time is the time the operation would take on a machine where the reference
takes ``NOMINAL_S``; the raw times are printed alongside.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

INTERVAL_S = 0.5
# about the reference's median time on the 2-core Xeon this benchmark was tuned on
NOMINAL_S = 1.5e-3

_G = np.random.default_rng(0).standard_normal((6, 12)).view(np.complex128)
_H = _G + _G.conj().T


def _reference_run() -> float:
    t0 = time.perf_counter()
    for _ in range(100):
        np.linalg.eigvalsh(_H)
    total = 0
    for k in range(10_000):
        total += k
    return time.perf_counter() - t0


class SpeedReference:
    """Reference samples of one measurement loop."""

    def __init__(self):
        self.samples: list[float] = []
        self._taken_at = -math.inf

    def sample(self) -> int:
        """Take a sample (median of three runs); returns its index."""
        self.samples.append(statistics.median(_reference_run() for _ in range(3)))
        self._taken_at = time.perf_counter()
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of the latest sample, taking a new one if it is stale."""
        if time.perf_counter() - self._taken_at >= INTERVAL_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor for a time measured after sample ``before``, using that
        sample and the next one if it exists yet."""
        return NOMINAL_S / statistics.fmean(self.samples[before:before + 2])
