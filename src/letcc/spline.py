"""Second-order (natural cubic) smoothing splines for vector-valued data.

A fit minimizes, over natural cubic splines ``u`` with knots at the data
sites ``t_1 < ... < t_n``,

    (1/n) * sum_i ||u(t_i) - y_i||^2  +  lam * sum_j integral (u_j''(t))^2 dt

Note the 1/n factor on the data term: the objective is a *mean* squared
error.  The normal equations therefore carry ``n * lam`` where texts that
use an unnormalized sum would carry ``lam`` alone; grids of good ``lam``
values shift by a factor of n between the two conventions.

Representation: the cardinal natural-spline basis, where the coefficient
vector is simply the fitted values at the knots.  With ``g`` the knot
values and ``gam`` the second derivatives at the interior knots, a natural
cubic spline satisfies  Q^T g = R gam  where Q and R are the classical
banded matrices built from knot spacings, and the roughness penalty is
exactly ``gam^T R gam``.  Eliminating the constraint gives the fitted
values directly:

    (R + n*lam * Q^T Q) gam = Q^T y,      g = y - n*lam * Q gam.

This solve is algebraically identical to the dense normal equations
``(N^T N + n*lam*Phi) xi = N^T y`` for the cardinal basis (where N is the
identity and Phi = Q R^{-1} Q^T), but is far better conditioned: affine
data gives Q^T y = 0, hence gam = 0 and exact reproduction for every lam.
Vector-valued data reuses one factorization for all output dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "DegenerateBasisError",
    "NumericalFitError",
    "NaturalSplineBasis",
    "SplineFit",
    "fit",
]


class DegenerateBasisError(ValueError):
    """Fewer than three knots: the natural cubic basis does not exist."""


class NumericalFitError(RuntimeError):
    """The smoothing system could not be factorized."""


class NaturalSplineBasis:
    """Cardinal natural-cubic-spline basis on a strictly increasing knot set.

    Basis function ``b_i`` is the natural cubic spline taking value 1 at
    knot i and 0 at every other knot, so ``basis_dim`` equals the number of
    knots and the design matrix at the knots is the identity.  Each ``b_i``
    is linear beyond the boundary knots (second derivative zero there and
    outside).
    """

    kind = "natural-cubic"

    def __init__(self, knots):
        knots = np.ascontiguousarray(knots, dtype=float)
        if knots.ndim != 1:
            raise ValueError("knots must be one-dimensional")
        if knots.size < 3:
            raise DegenerateBasisError(
                f"natural cubic basis needs >= 3 knots, got {knots.size}"
            )
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots contain non-finite values")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")

        self.knots = knots
        n = knots.size
        h = np.diff(knots)

        # Q (n x n-2) and R (n-2 x n-2): second-difference operator and the
        # Gram matrix of the interior second-derivative hat functions.
        q = np.zeros((n, n - 2))
        cols = np.arange(n - 2)
        q[cols, cols] = 1.0 / h[:-1]
        q[cols + 1, cols] = -1.0 / h[:-1] - 1.0 / h[1:]
        q[cols + 2, cols] = 1.0 / h[1:]

        r = np.zeros((n - 2, n - 2))
        r[cols, cols] = (h[:-1] + h[1:]) / 3.0
        r[cols[:-1], cols[:-1] + 1] = h[1:-1] / 6.0
        r[cols[:-1] + 1, cols[:-1]] = h[1:-1] / 6.0

        self._h = h
        self._q = q
        self._r = r
        self._qtq = q.T @ q
        self._chol_r = cho_factor(r, lower=True)
        self._penalty = None

    @property
    def basis_dim(self) -> int:
        return self.knots.size

    def interior_second_derivs(self, values: np.ndarray) -> np.ndarray:
        """Second derivatives at interior knots of the natural interpolant."""
        return cho_solve(self._chol_r, self._q.T @ values)

    def penalty_matrix(self) -> np.ndarray:
        """Gram matrix Phi of basis second derivatives, Phi_ij = int b_i'' b_j''.

        Exact for the piecewise-linear second derivatives of the basis:
        Phi = Q R^{-1} Q^T.  Symmetric positive semidefinite with null space
        spanned by the knot values of affine functions.
        """
        if self._penalty is None:
            phi = self._q @ cho_solve(self._chol_r, self._q.T)
            self._penalty = (phi + phi.T) / 2.0
        return self._penalty

    def basis_matrix(self, x) -> np.ndarray:
        """Evaluate all basis functions at ``x``: returns (len(x), n)."""
        n = self.basis_dim
        ident = np.eye(n)
        gam = np.zeros((n, n))
        gam[1:-1] = self.interior_second_derivs(ident)
        return _evaluate_natural(self.knots, ident, gam,
                                 np.atleast_1d(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class SplineFit:
    """A fitted vector-valued smoothing spline.

    ``coefficients`` holds the fitted values at the knots, one column per
    output dimension (the cardinal-basis coefficients).  ``second_derivs``
    are the spline's second derivatives at the knots (zero at and beyond the
    boundary).  Evaluation outside the knot range extrapolates linearly,
    matching the natural boundary conditions.

    Fits on fewer than three points degrade gracefully: two points give the
    exact affine interpolant, one point a constant; such fits are flagged
    ``degenerate`` and have zero roughness.
    """

    knots: np.ndarray
    coefficients: np.ndarray
    second_derivs: np.ndarray
    lam: float
    degenerate: bool = False
    basis: NaturalSplineBasis | None = field(default=None, repr=False)
    _scalar: bool = field(default=False, repr=False)

    @property
    def out_dim(self) -> int:
        return self.coefficients.shape[1]

    def evaluate(self, query) -> np.ndarray:
        """Values at ``query``; shape (q, m), or (q,) if fitted on 1-D data."""
        x = np.atleast_1d(np.asarray(query, dtype=float))
        if not np.all(np.isfinite(x)):
            raise ValueError("query contains non-finite values")
        if self.knots.size == 1:
            out = np.broadcast_to(self.coefficients[0], (x.size, self.out_dim)).copy()
        else:
            out = _evaluate_natural(self.knots, self.coefficients, self.second_derivs, x)
        return out[:, 0] if self._scalar else out

    def roughness(self) -> float:
        """Total penalty sum_j integral (u_j''(t))^2 dt; zero iff affine."""
        if self.basis is None:
            return 0.0
        gam = self.second_derivs[1:-1]
        return float(np.sum(gam * (self.basis._r @ gam)))


def fit(t, y, lam: float) -> SplineFit:
    """Fit a smoothing spline with knots ``t`` to data ``y``.

    Parameters
    ----------
    t : array, shape (n,)
        Strictly increasing knot locations.
    y : array, shape (n,) or (n, m)
        Data values; columns are fitted independently but share one
        factorization.
    lam : float
        Smoothing weight (>= 0) on the mean-squared-error objective
        described in the module docstring.  ``lam = 0`` interpolates.
    """
    t = np.ascontiguousarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    if scalar:
        y = y[:, None]
    if t.ndim != 1:
        raise ValueError("t must be one-dimensional")
    if y.shape[0] != t.size:
        raise ValueError(f"y has {y.shape[0]} rows for {t.size} knots")
    if not np.all(np.isfinite(t)) or not np.all(np.isfinite(y)):
        raise ValueError("non-finite values in fit inputs")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be a finite nonnegative real, got {lam}")
    n = t.size
    if n == 0:
        raise ValueError("cannot fit on zero points")
    if n > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("t must be strictly increasing")

    if n < 3:
        # Penalty null space: exact interpolation (affine for n=2, constant
        # for n=1) regardless of lam.
        gam = np.zeros_like(y)
        return SplineFit(t, y.copy(), gam, float(lam), degenerate=True,
                         basis=None, _scalar=scalar)

    basis = NaturalSplineBasis(t)
    lamn = n * float(lam)
    if lamn == 0.0:
        g = y.copy()
        gam_int = basis.interior_second_derivs(g)
    else:
        m = basis._r + lamn * basis._qtq
        try:
            chol = cho_factor(m, lower=True)
        except np.linalg.LinAlgError as exc:  # distinct knots make this unreachable
            raise NumericalFitError("smoothing system is not positive definite") from exc
        gam_int = cho_solve(chol, basis._q.T @ y)
        g = y - lamn * (basis._q @ gam_int)
    gam = np.zeros_like(g)
    gam[1:-1] = gam_int
    return SplineFit(t, g, gam, float(lam), degenerate=False,
                     basis=basis, _scalar=scalar)


def _evaluate_natural(knots, values, second_derivs, x):
    """Piecewise-cubic evaluation with linear extrapolation beyond the ends.

    Works for any n >= 2; with all-zero second derivatives this is plain
    piecewise-linear interpolation, which is exactly the degenerate n=2
    fallback.
    """
    n = knots.size
    out = np.empty((x.size, values.shape[1]))

    left = x < knots[0]
    right = x > knots[-1]
    mid = ~(left | right)

    if np.any(mid):
        xm = x[mid]
        idx = np.clip(np.searchsorted(knots, xm, side="right") - 1, 0, n - 2)
        h = (knots[idx + 1] - knots[idx])[:, None]
        a = (knots[idx + 1] - xm)[:, None] / h
        b = (xm - knots[idx])[:, None] / h
        out[mid] = (
            a * values[idx]
            + b * values[idx + 1]
            + ((a**3 - a) * second_derivs[idx] + (b**3 - b) * second_derivs[idx + 1])
            * h**2
            / 6.0
        )
    if np.any(left):
        h = knots[1] - knots[0]
        slope = (values[1] - values[0]) / h - h * (
            2.0 * second_derivs[0] + second_derivs[1]
        ) / 6.0
        out[left] = values[0] + (x[left] - knots[0])[:, None] * slope
    if np.any(right):
        h = knots[-1] - knots[-2]
        slope = (values[-1] - values[-2]) / h + h * (
            second_derivs[-2] + 2.0 * second_derivs[-1]
        ) / 6.0
        out[right] = values[-1] + (x[right] - knots[-1])[:, None] * slope
    return out
