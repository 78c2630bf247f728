"""Gauge of how fast a shared machine runs one thread, independent of letcc.

On the 2-vCPU machine this benchmark was written on, a single thread runs
at full speed only part of the time: for stretches of milliseconds to
minutes it runs 1.2 to 1.7 times slower, alike for interpreter-bound Python
and for LAPACK, while the kernel reports almost no steal time.  Wall-clock
medians of one workload moved by up to 30% between runs a minute apart.

The gauge is a fixed computation that mixes, in about equal shares, the
three kinds of work letcc does: dense Cholesky factor and solve, small
numpy array operations, and plain Python.  Sampled between operations, its
median time over a run measures how much slower than full speed the machine
ran; the benchmark scales its throughput and set-up time by that factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Time of one sample at full speed on the reference machine: Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS on 1 thread.
# It sets the unit of the scaled figures; comparisons between commits on
# one machine do not depend on it.
REFERENCE_S = 6.7e-3


class Gauge:
    """Collects timed samples of the fixed computation."""

    def __init__(self):
        m = np.random.default_rng(0).normal(size=(200, 200))
        self._matrix = m @ m.T + 200.0 * np.eye(200)
        self._rhs = np.ones((200, 8))
        self._x = np.linspace(0.0, 1.0, 64)
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(8):
            cho_solve(cho_factor(self._matrix), self._rhs)
        x = self._x
        for _ in range(600):
            x = np.sqrt(x * x + 1.0) - 1.0
        total = 0
        for i in range(30000):
            total += i * i
        self.samples.append(time.perf_counter() - start)

    def slowdown(self) -> float:
        """Median sample time over the full-speed time: 1.0 at full speed."""
        return statistics.median(self.samples) / REFERENCE_S
