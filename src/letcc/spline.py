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
system of bandwidth three, solved by LAPACK's banded LU in O(n) time and
memory per output dimension (:meth:`NaturalSplineBasis.smooth`); ``lam = 0``
keeps g = y and solves the tridiagonal R for gam.  No n x n array is
formed.  Affine data gives Q^T y = 0, hence gam = 0 and exact
reproduction for every lam.  Vector-valued data reuses one factorization
for all output dimensions.  The dense ``Phi`` and basis matrix are built
only on request, as test oracles.

Evaluation at q query points runs in two steps.  The first depends only on
the knots and the queries (:func:`evaluation_weights`): for each query row
it finds the knot interval and four weights, on the values and on the
second derivatives at the interval's two ends; rows beyond the end knots
get the weights of the linear extension instead, so no row takes a
separate branch.  The second (:meth:`EvaluationWeights.apply`) is four
weighted row gathers of the knot values and second derivatives, O(q m)
for m output dimensions.  Spline fits evaluate through both steps; a
caller that evaluates many splines on the same knots at the same queries
keeps the weights and repeats only the second step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dgbsv

__all__ = [
    "DegenerateBasisError",
    "NumericalFitError",
    "NaturalSplineBasis",
    "SplineFit",
    "EvaluationWeights",
    "evaluation_weights",
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
        if not np.isfinite(knots).all():
            raise ValueError("knots contain non-finite values")
        h = knots[1:] - knots[:-1]
        if not (h > 0).all():
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
        partial pivoting (LAPACK ``dgbsv``); the bandwidth is 3 on both
        sides.  Eliminating g instead leaves the Reinsch system
        (R + lamn Q^T Q) gam = Q^T y, which squares the conditioning: on
        meshes whose gaps alternate between 1 and 1e4 its Cholesky solution
        misses the exact fit by up to 8e-5 for unit-scale data, where this
        solve stays below 1e-10.
        """
        n = self.basis_dim
        qa, qb, qc = self._qa, self._qb, self._qc
        # |qb| = 1/h[:-1] + 1/h[1:] is the largest entry of Q, so this bounds
        # every lamn-scaled entry of the band (in Python floats, which
        # overflow to inf without a warning)
        q_max = float(-qb.min())
        if not math.isfinite(lamn * q_max):
            raise ValueError(f"lam too large for these knots: n*lam = {lamn} times "
                             f"the largest 1/h weight {q_max} overflows")
        r = self._r_band()
        # Entry (row, col) of the system sits at band[6 + row - col, col]; the
        # top three rows hold the fill-in of the pivoting LU.  g_i is unknown
        # max(2i - 1, 0) and gam_j (interior knot j + 1) is unknown 2j + 2.
        band = np.zeros((10, 2 * n - 2))
        band[6, 0] = band[6, 1::2] = 1.0                  # g_i in its own row
        band[4, 2], band[3, 4::2] = lamn * qa[0], lamn * qa[1:]  # lamn Q, g rows
        band[5, 2::2] = lamn * qb
        band[7, 2::2] = lamn * qc
        band[8, 0], band[9, 1:-4:2] = qa[0], qa[1:]       # Q^T, gam rows
        band[7, 1:-2:2] = qb
        band[5, 3::2] = qc
        band[6, 2::2] = -r[2]                             # -R, gam rows
        band[4, 4::2] = band[8, 2:-3:2] = -r[1, 1:]
        rhs = np.zeros((2 * n - 2,) + y.shape[1:], order="F")
        rhs[0], rhs[1::2] = y[0], y[1:]
        _, _, sol, info = dgbsv(3, 3, band, rhs, overwrite_ab=True, overwrite_b=True)
        if info:  # > 0 singular, which distinct knots rule out; < 0 a bad argument
            raise NumericalFitError(f"smoothing system not solved: dgbsv info {info}")
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
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return evaluation_weights(self.knots, x).apply(ident, gam)


@dataclass(frozen=True, eq=False)
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
        if not np.isfinite(x).all():
            raise ValueError("query contains non-finite values")
        out = evaluation_weights(self.knots, x).apply(self.coefficients,
                                                      self.second_derivs)
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
    if not np.isfinite(t).all() or not np.isfinite(y).all():
        raise ValueError("non-finite values in fit inputs")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be a finite nonnegative real, got {lam}")
    n = t.size
    if n == 0:
        raise ValueError("cannot fit on zero points")
    if n > 1 and not (t[1:] > t[:-1]).all():
        raise ValueError("t must be strictly increasing")

    if n < 3:
        # Penalty null space: exact interpolation (affine for n=2, constant
        # for n=1) regardless of lam.
        gam = np.zeros_like(y)
        return SplineFit(t, y.copy(), gam, float(lam), degenerate=True,
                         basis=None, _scalar=scalar)

    lamn = n * float(lam)
    if not math.isfinite(lamn):
        raise ValueError(f"lam = {lam} overflows: n*lam is not finite for n = {n} knots")
    basis = NaturalSplineBasis(t)
    if lamn == 0.0:
        g = y.copy()
        gam_int = basis.interior_second_derivs(g)
    else:
        g, gam_int = basis.smooth(y, lamn)
    gam = np.zeros_like(g)
    gam[1:-1] = gam_int
    return SplineFit(t, g, gam, float(lam), degenerate=False,
                     basis=basis, _scalar=scalar)


@dataclass(frozen=True, eq=False)
class EvaluationWeights:
    """Where each query row of a spline evaluation reads, and with what weight.

    For knot values ``v`` and knot second derivatives ``s``, query row r is

        weights[0, r] v[lo[r]] + weights[1, r] v[hi[r]]
          + weights[2, r] s[lo[r]] + weights[3, r] s[hi[r]].

    The weights depend on the knots and the queries only, so one instance
    evaluates every spline on those knots at those queries.
    """

    lo: np.ndarray
    hi: np.ndarray
    weights: np.ndarray

    def apply(self, values: np.ndarray, second_derivs: np.ndarray) -> np.ndarray:
        """The (q, m) values at the queries of the spline with these knot rows.

        ``values`` and ``second_derivs`` are (n, m), or stacks (..., n, m) of
        splines on the same knots, which give (..., q, m); each spline of a
        stack gets the same arithmetic as on its own.
        """
        out = np.take(values, self.lo, axis=-2)
        out *= self.weights[0, :, None]
        term = np.empty_like(out)
        for w, rows, idx in ((self.weights[1], values, self.hi),
                             (self.weights[2], second_derivs, self.lo),
                             (self.weights[3], second_derivs, self.hi)):
            # indices are in range by construction; "clip" lets take write
            # into ``term`` without the buffering its "raise" mode needs
            np.take(rows, idx, axis=-2, out=term, mode="clip")
            term *= w[:, None]
            out += term
        return out


def evaluation_weights(knots: np.ndarray, x: np.ndarray) -> EvaluationWeights:
    """Evaluation weights of natural cubic splines on ``knots`` at queries ``x``.

    A query in [knots[i], knots[i+1]] with a = (knots[i+1] - x) / h and
    b = (x - knots[i]) / h takes weights a, b, (a^3 - a) h^2/6 and
    (b^3 - b) h^2/6, the cubic of Press et al. (Numerical Recipes, 3.3).
    Beyond the ends the spline continues along its end tangent, which in
    the same a and b of the end interval is -b h^2/3 and -b h^2/6 on the
    left and -a h^2/6 and -a h^2/3 on the right.  All-zero second
    derivatives give piecewise-linear interpolation, the degenerate fit on
    two knots; on one knot every query reads that knot's value.  Queries
    need not be sorted.
    """
    n = knots.size
    if n == 1:
        lo = np.zeros(x.size, dtype=np.intp)
        weights = np.zeros((4, x.size))
        weights[0] = 1.0
        return EvaluationWeights(lo, lo, weights)
    # the number of interior knots at or left of x is the interval index,
    # 0 left of the first knot and n - 2 from the last knot on
    lo = np.searchsorted(knots[1:-1], x, side="right")
    hi = lo + 1
    k_lo, k_hi = knots[lo], knots[hi]
    h = k_hi - k_lo
    weights = np.empty((4, x.size))
    a, b = weights[0], weights[1]
    np.subtract(k_hi, x, out=a)
    a /= h
    np.subtract(x, k_lo, out=b)
    b /= h
    h2_6 = h * h / 6.0
    left, right = x < knots[0], x > knots[-1]
    np.multiply(np.where(left, -2.0 * b, np.where(right, -a, a**3 - a)), h2_6,
                out=weights[2])
    np.multiply(np.where(left, -b, np.where(right, -2.0 * a, b**3 - b)), h2_6,
                out=weights[3])
    return EvaluationWeights(lo, hi, weights)
