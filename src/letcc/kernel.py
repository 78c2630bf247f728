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
and is not used by the pipeline itself.  The solve factors the system in
double precision and refines its solution with residuals computed in
double-double arithmetic (error-free sums and products of float64 values),
so its accuracy does not depend on the platform's ``np.longdouble``.  The
Gram product Sigma c of a residual runs through four prefix sums: for
t_j <= t_i, r0(t_i, t_j) = u_i u_j^2 / 2 - u_j^3 / 6 with u = t + 1, and
symmetrically above, so it takes O(n) memory and time per column.

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

from .points import _query

__all__ = ["sobolev_kernel", "KernelFit", "kernel_fit"]

# refinement steps of the saddle-point solve, and the columns of the Gram
# matrix computed at once (bounds its temporaries)
_REFINEMENT_STEPS = 3
_GRAM_COLS = 64
# Dekker's splitter 2**27 + 1: a double times it splits into two 26-bit halves
_SPLIT = 134217729.0


def sobolev_kernel(t, s) -> np.ndarray:
    """r0(t, s), broadcasting over array arguments.

    Symmetric, positive semidefinite on (-1, 1], and identically zero when
    either argument equals -1 (empty integration range).  With
    u = min(t, s) + 1 the integral is u^2 (|t - s| / 2 + u / 3), a product
    of nonnegative terms on (-1, 1] that cancels nothing.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    u = np.minimum(t, s) + 1.0
    return u * u * (np.abs(t - s) / 2.0 + u / 3.0)


@dataclass(frozen=True, eq=False)
class KernelFit:
    """Kernel-expansion smoothing spline: u(x) = d0 + d1*x + sum c_v r0(x, t_v)."""

    nodes: np.ndarray
    c: np.ndarray
    d: np.ndarray
    lam: float
    _scalar: bool = field(default=False, repr=False)

    def evaluate(self, query) -> np.ndarray:
        """Values at ``query``, a scalar or 1-D array (see :func:`letcc.points._query`)."""
        x = _query(query)
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

    lamn = n * float(lam)
    rhs = np.zeros((n + 2, m))
    rhs[:n] = y
    # the F-ordered system is factored in place: the fit holds one dense copy
    lu = scipy.linalg.lu_factor(_system(t, lamn), overwrite_a=True, check_finite=False)
    sol = scipy.linalg.lu_solve(lu, rhs)
    # Iterative refinement with the residual in double-double: the double
    # rounding of Sigma limits the plain solve (on gaps 1165, 1, 1 at
    # lam = 1e-8 it misses the banded spline by 1.5e-6).  A residual of the
    # rounded system itself does not help.
    for _ in range(_REFINEMENT_STEPS):
        sol = sol + scipy.linalg.lu_solve(lu, _residual(t, lamn, rhs, sol))
    return KernelFit(t, sol[:n], sol[n:], float(lam), _scalar=scalar)


def _system(t: np.ndarray, lamn: float) -> np.ndarray:
    """The saddle-point matrix [[Sigma + lamn I, T], [T^T, 0]], rounded to float64."""
    n = t.size
    system = np.zeros((n + 2, n + 2), order="F")
    # Sigma is symmetric, so columns are filled: contiguous in Fortran order
    for start in range(0, n, _GRAM_COLS):
        cols = slice(start, min(start + _GRAM_COLS, n))
        system[:n, cols] = sobolev_kernel(t[:, None], t[None, cols])
    system[np.arange(n), np.arange(n)] += lamn
    system[:n, n] = system[n, :n] = 1.0
    system[:n, n + 1] = system[n + 1, :n] = t
    return system


def _residual(t: np.ndarray, lamn: float, rhs: np.ndarray, sol: np.ndarray) -> np.ndarray:
    """rhs - A sol for the saddle-point matrix A on knots ``t``.

    A is exact here: Sigma's entries are never rounded, and A sol runs in
    double-double, so the residual is within about one rounding of its
    exact value.  ``lamn`` is n * lam, added to Sigma's diagonal.
    """
    n = t.size
    c, d = sol[:n], sol[n:]
    c = (c, np.zeros_like(c))
    u = tuple(part[:, None] for part in _two_sum(t, 1.0))
    u2 = _mul(u, u)
    u3 = _mul(u2, u)
    # (Sigma c)_i = (u_i A_i + u_i^2 C_i) / 2 - (B_i + u_i^3 D_i) / 6, with A, B
    # the sums over j <= i of u_j^2 c_j and u_j^3 c_j, C, D over j > i of
    # u_j c_j and c_j
    (sum_a, _), (sum_b, _) = _prefix_sums(_mul(u2, c)), _prefix_sums(_mul(u3, c))
    (_, sum_c), (_, sum_d) = _prefix_sums(_mul(u, c)), _prefix_sums(c)
    halves = _add(_mul(u, sum_a), _mul(u2, sum_c))
    product = _add((halves[0] / 2.0, halves[1] / 2.0),
                   _div(_add(sum_b, _mul(u3, sum_d)), -6.0))
    for term in (_two_prod(lamn, c[0]), (np.broadcast_to(d[0], c[0].shape), 0.0),
                 _two_prod(t[:, None], d[1])):
        product = _add(product, term)
    residual = np.empty_like(sol)
    residual[:n] = (rhs[:n] - product[0]) - product[1]
    for row, terms in ((n, c), (n + 1, _two_prod(t[:, None], c[0]))):
        (total, error), _ = _prefix_sums(terms)
        residual[row] = -(total[-1] + error[-1])
    return residual


# Double-double arithmetic: a value is a pair (hi, lo) of float64 arrays
# whose exact sum it is (Dekker 1971; Knuth, TAOCP vol. 2, 4.2.2).


def _two_sum(a, b):
    """fl(a + b) and its rounding error: a + b = s + e exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """fl(a * b) and its rounding error: a * b = p + e exactly."""
    p = a * b
    a_hi = _SPLIT * a
    a_hi = a_hi - (a_hi - a)
    b_hi = _SPLIT * b
    b_hi = b_hi - (b_hi - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _two_sum(s, e + (x[1] + y[1]))


def _mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _div(x, b: float):
    """x / b for a double-double x and a double b."""
    q = x[0] / b
    p, e = _two_prod(q, b)
    return _two_sum(q, ((x[0] - p) - e + x[1]) / b)


def _prefix_sums(x):
    """Sums of the rows j <= i of a double-double array, and of the rows j > i.

    ``np.cumsum`` adds the high parts in turn; each of its additions is
    followed by its rounding error, and the errors and low parts, which
    are ~2**-53 of the sums, are summed in float64.
    """
    hi, lo = x
    total = np.cumsum(hi, axis=0)
    before = np.zeros_like(total)
    before[1:] = total[:-1]
    step, err = _two_sum(before, hi)
    # step equals total where cumsum adds in turn; a difference is exact
    upto = _two_sum(total, np.cumsum(err + (step - total) + lo, axis=0))
    above = _add((upto[0][-1:], upto[1][-1:]), (-upto[0], -upto[1]))
    return upto, above
