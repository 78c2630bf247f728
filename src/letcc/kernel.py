"""Kernel-form second-order smoothing spline (reference implementation).

Solves the same objective as :mod:`letcc.spline` through the reproducing
kernel of the space of functions on (-1, 1) vanishing together with their
first derivative at -1:

    r0(t, s) = integral_{-1}^{min(t,s)} (t - x) (s - x) dx,

with closed form via the antiderivative of ``(t-x)(s-x)``.  The fitted
function is  u(x) = d0 + d1*x + sum_v c_v * r0(x, t_v),  obtained from the
saddle-point system

    [[Sigma + n*lam*I, T], [T^T, 0]] [c; d] = [y; 0],

where Sigma_ij = r0(t_i, t_j), T = [1, t_i], and the data term carries the
same 1/n mean-squared-error normalization as the production path (hence the
``n*lam``).  At lam = 0 the system reduces to the minimum-roughness
interpolation conditions, so both routes return the natural-spline
interpolant.  This module exists to cross-check the cardinal-basis route
and is not used by the pipeline itself.

It is an oracle for lam >= 1e-8, and at lam = 0 on quasi-uniform knots
only: at lam = 0 nothing regularises the nearly singular Gram matrix
Sigma, and on 58 knots whose gaps alternate 1 and 1e4 the knot values miss
the natural interpolant by ~1e-2 for N(0,1) data.  Tests use
``scipy.interpolate.CubicSpline(bc_type="natural")`` as the lam = 0 oracle
on uneven knots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = ["sobolev_kernel", "KernelFit", "kernel_fit"]


def sobolev_kernel(t, s) -> np.ndarray:
    """r0(t, s), broadcasting over array arguments.

    Symmetric, positive semidefinite on (-1, 1], and identically zero when
    either argument equals -1 (empty integration range).
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    a = np.minimum(t, s)

    def antideriv(x):
        return t * s * x - (t + s) * x**2 / 2.0 + x**3 / 3.0

    return antideriv(a) - antideriv(-1.0)


@dataclass(frozen=True, eq=False)
class KernelFit:
    """Kernel-expansion smoothing spline: u(x) = d0 + d1*x + sum c_v r0(x, t_v)."""

    nodes: np.ndarray
    c: np.ndarray
    d: np.ndarray
    lam: float
    _scalar: bool = field(default=False, repr=False)

    def evaluate(self, query) -> np.ndarray:
        x = np.atleast_1d(np.asarray(query, dtype=float))
        if not np.all(np.isfinite(x)):
            raise ValueError("query contains non-finite values")
        k = sobolev_kernel(x[:, None], self.nodes[None, :])
        out = self.d[0] + np.outer(x, self.d[1]) + k @ self.c
        return out[:, 0] if self._scalar else out


def kernel_fit(t, y, lam: float) -> KernelFit:
    """Fit the kernel-form smoothing spline; mirrors :func:`letcc.spline.fit`."""
    t = np.ascontiguousarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    if scalar:
        y = y[:, None]
    if t.ndim != 1 or y.shape[0] != t.size:
        raise ValueError("t must be 1-D with one row of y per node")
    if not np.all(np.isfinite(t)) or not np.all(np.isfinite(y)):
        raise ValueError("non-finite values in fit inputs")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be a finite nonnegative real, got {lam}")
    n = t.size
    if n == 0:
        raise ValueError("cannot fit on zero points")
    if n > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("t must be strictly increasing")

    m = y.shape[1]
    if n == 1:
        d = np.zeros((2, m))
        d[0] = y[0]
        return KernelFit(t, np.zeros((1, m)), d, float(lam), _scalar=scalar)

    sigma = sobolev_kernel(t[:, None], t[None, :])
    tt = np.column_stack([np.ones(n), t])
    system = np.zeros((n + 2, n + 2))
    system[:n, :n] = sigma + n * float(lam) * np.eye(n)
    system[:n, n:] = tt
    system[n:, :n] = tt.T
    rhs = np.zeros((n + 2, m))
    rhs[:n] = y
    sol = scipy.linalg.solve(system, rhs, assume_a="sym")
    return KernelFit(t, sol[:n], sol[n:], float(lam), _scalar=scalar)
