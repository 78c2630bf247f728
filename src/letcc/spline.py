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
cubic spline satisfies  Q^T g = R gam,  where Q (n x n-2, three nonzero
diagonals) and R (n-2 x n-2, tridiagonal) are the classical matrices
built from the knot spacings (Reinsch 1967; Green & Silverman 1994,
ch. 2), and the roughness penalty is exactly ``gam^T R gam``.  The fit
satisfies

    g + n*lam * Q gam = y,      Q^T g - R gam = 0,

which is algebraically the dense normal equations ``(I + n*lam*Phi) g = y``
of the cardinal basis, with Phi = Q R^{-1} Q^T.  Only band diagonals are
stored: the two equations, with g and gam interleaved, form one band
system of bandwidth three, solved by banded LU in O(n) time and memory
per output dimension (:meth:`NaturalSplineBasis.smooth`); ``lam = 0``
keeps g = y and solves the tridiagonal R for gam.  No n x n array is
formed.  Affine data gives Q^T y = 0, hence gam = 0 and exact
reproduction for every lam.  Vector-valued data reuses one factorization
for all output dimensions.  The dense ``Phi`` and basis matrix are built
only on request, as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

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
        h = np.diff(knots)
        if not np.all(h > 0):
            raise ValueError("knots must be strictly increasing")

        self.knots = knots
        # Column j of Q (n x n-2) holds qa[j], qb[j], qc[j] in rows j, j+1,
        # j+2: the second-difference operator on the knot values.
        self._h = h
        self._qa = 1.0 / h[:-1]
        self._qc = 1.0 / h[1:]
        self._qb = -self._qa - self._qc

    @property
    def basis_dim(self) -> int:
        return self.knots.size

    def apply_qt(self, values: np.ndarray) -> np.ndarray:
        """Q^T @ values for values of shape (n,) or (n, m)."""
        col = (slice(None),) + (None,) * (values.ndim - 1)
        return (self._qa[col] * values[:-2] + self._qb[col] * values[1:-1]
                + self._qc[col] * values[2:])

    def _r_band(self) -> np.ndarray:
        """Upper band of the tridiagonal R in ``solveh_banded`` layout.

        Three rows with a zero top row: scipy's two-row (tridiagonal) path
        rejects the 1 x 1 system of three knots.
        """
        h = self._h
        band = np.zeros((3, h.size - 1))
        band[2] = (h[:-1] + h[1:]) / 3.0
        band[1, 1:] = h[1:-1] / 6.0
        return band

    def interior_second_derivs(self, values: np.ndarray) -> np.ndarray:
        """Second derivatives at interior knots of the natural interpolant."""
        rhs = self.apply_qt(np.asarray(values, dtype=float))
        return solveh_banded(self._r_band(), rhs, overwrite_ab=True)

    def smooth(self, y: np.ndarray, lamn: float) -> tuple[np.ndarray, np.ndarray]:
        """Fitted knot values and interior second derivatives for ``lamn > 0``.

        Solves the equations of the fit,  g + lamn * Q gam = y  and
        Q^T g - R gam = 0,  as one band system in the interleaved unknowns
        (g_0, g_1, gam_1, g_2, ..., gam_{n-2}, g_{n-1}) by banded LU with
        partial pivoting; the bandwidth is 3 on both sides.  Eliminating g
        instead leaves the Reinsch system (R + lamn Q^T Q) gam = Q^T y,
        which squares the conditioning: on meshes whose gaps alternate
        between 1 and 1e4 its Cholesky solution misses the exact fit by up
        to 8e-5 for unit-scale data, where this solve stays below 1e-10.
        """
        n = self.basis_dim
        qa, qb, qc = self._qa, self._qb, self._qc
        r = self._r_band()
        # Entry (row, col) of the system sits at band[3 + row - col, col];
        # g_i is unknown max(2i - 1, 0) and gam_j (interior knot j + 1) is
        # unknown 2j + 2.
        band = np.zeros((7, 2 * n - 2))
        band[3, 0] = band[3, 1::2] = 1.0                  # g_i in its own row
        band[1, 2], band[0, 4::2] = lamn * qa[0], lamn * qa[1:]  # lamn Q, g rows
        band[2, 2::2] = lamn * qb
        band[4, 2::2] = lamn * qc
        band[5, 0], band[6, 1:-4:2] = qa[0], qa[1:]       # Q^T, gam rows
        band[4, 1:-2:2] = qb
        band[2, 3::2] = qc
        band[3, 2::2] = -r[2]                             # -R, gam rows
        band[1, 4::2] = band[5, 2:-3:2] = -r[1, 1:]
        rhs = np.zeros((2 * n - 2,) + y.shape[1:])
        rhs[0], rhs[1::2] = y[0], y[1:]
        try:
            sol = solve_banded((3, 3), band, rhs, overwrite_ab=True, overwrite_b=True)
        except np.linalg.LinAlgError as exc:  # distinct knots make this unreachable
            raise NumericalFitError("smoothing system is singular") from exc
        return np.concatenate((sol[:1], sol[1::2])), sol[2:-1:2]

    def roughness(self, gam: np.ndarray) -> float:
        """gam^T R gam summed over columns, for interior second derivatives gam."""
        band = self._r_band()
        col = (slice(None),) + (None,) * (gam.ndim - 1)
        return float(np.sum(band[2][col] * gam * gam)
                     + 2.0 * np.sum(band[1, 1:][col] * gam[:-1] * gam[1:]))

    def penalty_matrix(self) -> np.ndarray:
        """Gram matrix Phi of basis second derivatives, Phi_ij = int b_i'' b_j''.

        Exact for the piecewise-linear second derivatives of the basis:
        Phi = Q R^{-1} Q^T.  Symmetric positive semidefinite with null space
        spanned by the knot values of affine functions.  Dense (n x n) and
        built on each call; a test oracle, not used by fitting.
        """
        ident = np.eye(self.basis_dim)
        phi = self.apply_qt(ident).T @ self.interior_second_derivs(ident)
        return (phi + phi.T) / 2.0

    def basis_matrix(self, x) -> np.ndarray:
        """Evaluate all basis functions at ``x``: returns (len(x), n).

        Dense and built on each call; a test oracle, not used by fitting.
        """
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
        return self.basis.roughness(self.second_derivs[1:-1])


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
        g, gam_int = basis.smooth(y, lamn)
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
