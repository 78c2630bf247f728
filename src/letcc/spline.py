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
stored: the two equations, with g and gam interleaved and each gam
equation ahead of the g equation of its knot, form one band system with
two diagonals below the main one and three above, solved by LAPACK's
banded LU in O(n) time and memory per output dimension; ``lam = 0``
keeps g = y and solves the tridiagonal R for gam.  No n x n array is
formed.  Affine data gives Q^T y = 0, hence gam = 0 and exact
reproduction for every lam.  Vector-valued data reuses one factorization
for all output dimensions.

One body, ``_fit_stack``, builds every fit: of a (T, n) stack of knot
sets of one size, such as the survivor knots of T Monte-Carlo trials, to
(T, n, m) data at L weights, one knot set being the stack T = 1.  It
computes the spacings and Q's three diagonals once.  Most entries of the
band (the ones of the g rows, Q^T and -R) do not depend on lam: they are
built once, every weight but the last fills a reused copy with its four
lam-scaled rows of Q and runs one LU, and the last fills and solves the
lam-free band itself.  The bands of all sets, side by side, are the band
of one block-diagonal system: one LAPACK call per weight solves every
set, and each set's fit equals its own fit bit for bit.  :func:`fit` is
the one public fit, of one knot set at one weight; the decoder fits T
sets at several weights through the same body.  Every fit has one form,
made in that body alone: one C-ordered (L, T, 2, n, m) stack, each fit a
(2, n, m) array of its knot values above its second derivatives, so no
product or sum over a fit rounds by the path that built it.  The body
checks no knots: they are checked once, where they enter, as
:func:`fit`'s ``t``, :class:`SplineFit`'s knots, the grid's points or
the survivor indices of :func:`letcc.coding.normalize_survivors`.  A fit
keeps no basis: its roughness is computed from its own knots.

Evaluation at q query points runs in two steps.  The first depends only on
the knots and the queries (:func:`evaluation_weights`): for each query row
it finds the knot interval and four weights, on the values and on the
second derivatives at the interval's two ends; rows beyond the end knots
get the weights of the linear extension instead, so no row takes a
separate branch.  The second (:meth:`EvaluationWeights.apply`) reads
the four terms of every query row from the fit's one array of knot
values and second derivatives in one gather, weights them in one
product and adds them in a fixed order along an outer axis, O(q m) for
m output dimensions.  Spline fits evaluate through both steps; a
caller that evaluates many splines on the same knots at the same queries
keeps the weights and repeats only the second step.  The weights of a
stack of knot sets evaluate one spline per set in the same two steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dgbsv

from .points import _check_points, _query, _real

__all__ = [
    "NumericalFitError",
    "SplineFit",
    "EvaluationWeights",
    "evaluation_weights",
    "fit",
]


class NumericalFitError(RuntimeError):
    """The smoothing system could not be factorized, or its solution is not finite."""


def _r_band(h: np.ndarray) -> np.ndarray:
    """Upper band of each tridiagonal R in ``solveh_banded`` layout, (3, T, n-2).

    ``h`` holds the (T, n-1) knot spacings of T knot sets.  Three rows with
    a zero top row: scipy's two-row (tridiagonal) path rejects the 1 x 1
    system of three knots.
    """
    band = np.zeros((3, h.shape[0], h.shape[1] - 1))
    band[2] = (h[:, :-1] + h[:, 1:]) / 3.0
    band[1, :, 1:] = h[:, 1:-1] / 6.0
    return band


@dataclass(frozen=True, eq=False)
class SplineFit:
    """A fitted vector-valued smoothing spline.

    ``knot_data`` (2, n, m) holds the fitted values at the knots above the
    spline's second derivatives there, one column per output dimension.
    Its halves are ``coefficients``, the cardinal-basis coefficients, and
    ``second_derivs`` (zero at and beyond the boundary).  Evaluation
    outside the knot range extrapolates linearly, matching the natural
    boundary conditions.

    Fits on fewer than three points degrade gracefully: two points give the
    exact affine interpolant, one point a constant; such fits are
    ``degenerate`` and have zero roughness.  The knots must be finite and
    strictly increasing, and ``knot_data`` (2, n, m) with m >= 1 and zero
    second derivatives at the end knots, as :meth:`roughness` assumes;
    both are kept as float arrays.
    """

    knots: np.ndarray
    knot_data: np.ndarray
    lam: float
    _scalar: bool = field(default=False, repr=False)

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=float)
        _check_points("knots", knots)
        data = np.asarray(self.knot_data, dtype=float)
        if data.ndim != 3 or data.shape[:2] != (2, knots.size) or not data.shape[2]:
            raise ValueError(f"knot_data must be (2, {knots.size}, m) with m >= 1, "
                             f"got shape {data.shape}")
        if np.count_nonzero(data[1, ::max(knots.size - 1, 1)]):  # its first and last knot
            raise ValueError("knot_data must have zero second derivatives at the end knots, "
                             "as a natural spline has")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "knot_data", data)

    @property
    def degenerate(self) -> bool:
        """Whether the fit has fewer than three knots: the penalty null space."""
        return self.knots.size < 3

    @property
    def coefficients(self) -> np.ndarray:
        """The fitted values at the knots, (n, m)."""
        return self.knot_data[0]

    @property
    def second_derivs(self) -> np.ndarray:
        """The second derivatives at the knots, (n, m)."""
        return self.knot_data[1]

    def evaluate(self, query) -> np.ndarray:
        """Values at ``query``; shape (q, m), or (q,) if fitted on 1-D data.

        ``query`` is a scalar or a 1-D array of q points
        (:func:`letcc.points._query`).
        """
        out = evaluation_weights(self.knots, _query(query)).apply(self.knot_data)
        return out[:, 0] if self._scalar else out

    def roughness(self) -> float:
        """Total penalty sum_j integral (u_j''(t))^2 dt; zero iff affine.

        gam^T R gam summed over columns, for the interior second
        derivatives gam and the R of the fit's own knots.
        """
        if self.degenerate:
            return 0.0
        band = _r_band(np.diff(self.knots)[None])[:, 0]
        gam = self.second_derivs[1:-1]
        return float(np.sum(band[2][:, None] * gam * gam)
                     + 2.0 * np.sum(band[1, 1:][:, None] * gam[:-1] * gam[1:]))


def fit(t, y, lam: float) -> SplineFit:
    """Fit a smoothing spline with knots ``t`` to data ``y``.

    Parameters
    ----------
    t : array, shape (n,)
        Strictly increasing finite knot locations, at least one.
    y : array, shape (n,) or (n, m)
        Data values; columns are fitted independently but share one
        factorization.
    lam : float
        Smoothing weight (>= 0) on the mean-squared-error objective
        described in the module docstring.  ``lam = 0`` interpolates.
    """
    t = np.ascontiguousarray(t, dtype=float)
    _check_points("t", t)
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError("y must be (n,) or (n, m)")
    scalar = y.ndim == 1
    if scalar:
        y = y[:, None]
    if y.shape[0] != t.size:
        raise ValueError(f"y has {y.shape[0]} rows for {t.size} knots")
    if not y.shape[1]:
        raise ValueError(f"y must have at least one column, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("non-finite values in fit inputs")
    lam = _real(lam, "lam")
    knot_data = _fit_stack(t[None], y[None], [lam])[0, 0]
    if not np.isfinite(knot_data).all():
        raise NumericalFitError("fit not representable: non-finite knot values or second "
                                f"derivatives on {t.size} knots at lam = {lam}")
    return SplineFit(t, knot_data, lam, _scalar=scalar)


def _fit_stack(t: np.ndarray, y: np.ndarray, lams: list[float]) -> np.ndarray:
    """Fits of each knot set of a (T, n) stack to its data (T, n, m), at each weight.

    The knots and data are checked by the caller, each of ``lams`` by
    :func:`letcc.points._real`.  Gives the knot values and second
    derivatives of all sets at the L weights as one C-ordered (L, T, 2, n, m)
    stack, allocated here with the data as knot values above zero second
    derivatives and filled in place, each set with the arithmetic of a fit
    on its own.  Fewer than three knots fit the penalty null space exactly
    (affine for n=2, constant for n=1) regardless of lam; such a fit is
    degenerate.  At lam = 0 the knot values are the data, and the second
    derivatives those of the natural interpolant: R gam = Q^T y, all sets
    in one ``solveh_banded`` call, which at kd = 2 stays on LAPACK's
    unblocked ``dpbtf2`` (as ``dgbsv`` below stays on ``dgbtf2``).

    At each other weight, with ``lamn`` = n * lam finite and > 0, the body
    solves the equations of the fit, g + lamn * Q gam = y  and
    Q^T g - R gam = 0,  as one band system in the interleaved unknowns
    (g_0, g_1, gam_1, g_2, ..., gam_{n-2}, g_{n-1}) by banded LU with
    partial pivoting, straight into that weight's slot of the stack.  One
    LAPACK ``dgbsv`` call per weight solves all T sets as one
    block-diagonal band, with each set's bits: the band slots outside a
    set's own rows hold zeros, so the pivot search never picks another
    set's row and every update across a set's edge adds an exact zero; and
    kl = 2 is below LAPACK's block size, so the LU stays on the unblocked
    ``dgbtf2`` for any T.

    The equations run g_0, gam_1, g_1, gam_2, g_2, ..., gam_{n-2},
    g_{n-2}, g_{n-1}: each interior g_i equation one row below its knot's
    gam equation.  The band then reaches two diagonals below the main one
    and three above (three below in the unknowns' own order), so LAPACK
    factors 8 band rows, not 10, with the same bits: partial pivoting
    picks the same equation in either order, so the LU applies the same
    operations to the same values, save for exact ties in magnitude
    (LAPACK takes the first row, so meshes of equal gaps may pivot and
    round otherwise) and the sign of an exactly zero fitted value.

    Eliminating g leaves the Reinsch system (R + lamn Q^T Q) gam = Q^T y,
    which squares the conditioning: on gaps alternating 1 and 1e4 its
    Cholesky solution misses the exact fit by up to 8e-5 for unit-scale
    data, and this solve by less than 1e-10.

    The lam-free entries of the bands (the g rows, Q^T and -R) are built
    once per call.  Every weight but the last is solved in one work copy
    of them, and the last in place: two bands of T sets at most.
    """
    n = t.shape[1]
    fits = np.zeros((len(lams),) + y.shape[:1] + (2,) + y.shape[1:])
    fits[:, :, 0] = y
    if n < 3:
        return fits
    for lam in lams:
        if not math.isfinite(n * lam):
            raise ValueError(f"lam = {lam} overflows: n*lam is not finite for n = {n} knots")
    count, m = y.shape[0], y.shape[2]
    # Column j of Q (n x n-2) holds qa[j], qb[j], qc[j] in rows j, j+1,
    # j+2: the second-difference operator on the knot values.  One row
    # per knot set.
    h = t[:, 1:] - t[:, :-1]
    qa = 1.0 / h[:, :-1]
    qc = 1.0 / h[:, 1:]
    qb = -qa - qc
    r = _r_band(h)
    lamns = [n * lam for lam in lams if lam]
    if lamns:
        # bounds every lamn-scaled entry of a set's band (in Python floats,
        # which overflow to inf without a warning); the first set that
        # overflows is named, as a loop of single fits would
        q_maxes = (-qb.min(axis=1)).tolist()
        for lamn in lamns:
            if not (math.isfinite(lamn) and lamn > 0):
                raise ValueError(f"smoothing weight n*lam must be finite and > 0, got {lamn}")
            for q_max in q_maxes:
                if not math.isfinite(lamn * q_max):
                    raise ValueError(f"lam too large for these knots: n*lam = {lamn} times "
                                     f"the largest 1/h weight {q_max} overflows")
        # the sets' (8, 2n-2) bands are transposed C-ordered (2n-2, 8) slices
        # of one array: side by side, the Fortran-ordered (8, T(2n-2)) band of
        # their block-diagonal system, which LAPACK takes without a copy.  A
        # set's entry (row, col) sits at [5 + row - col, col]; the top two
        # rows hold the fill-in of the pivoting LU.  g_i is unknown
        # max(2i - 1, 0) and gam_j (interior knot j + 1) is unknown 2j + 2.
        # The g_0 and g_{n-1} equations are rows 0 and 2n-3, gam_j's is row
        # 2j + 1 and g_i's row 2i between them: two rows below, three above.
        lam_free = np.zeros((count, 2 * n - 2, 8)).transpose(0, 2, 1)
        lam_free[:, 5, 0] = lam_free[:, 6, 1:-2:2] = lam_free[:, 5, -1] = 1.0  # g_i in its row
        lam_free[:, 6, 0], lam_free[:, 7, 1:-4:2] = qa[:, 0], qa[:, 1:]        # Q^T, gam rows
        lam_free[:, 5, 1:-2:2] = qb
        lam_free[:, 3, 3::2] = qc
        lam_free[:, 4, 2::2] = -r[2]                                          # -R, gam rows
        lam_free[:, 2, 4::2] = lam_free[:, 6, 2:-3:2] = -r[1, :, 1:]
        work = np.empty_like(lam_free) if len(lamns) > 1 else None
        rhs = np.empty((count * (2 * n - 2), m), order="F")
        b = rhs.reshape(count, -1, m)  # each set's (2n-2, m) rows, set after set
        slots = [slot for slot, lam in zip(fits, lams) if lam]
        for i, (lamn, slot) in enumerate(zip(lamns, slots)):
            band = lam_free  # the last weight overwrites the lam-free entries
            if i < len(lamns) - 1:
                band = work
                np.copyto(band, lam_free)
            band[:, 3, 2::2], band[:, 5, 2::2] = lamn * qa, lamn * qb      # lamn Q, g rows
            band[:, 7, 2:-3:2], band[:, 6, -2] = lamn * qc[:, :-1], lamn * qc[:, -1]
            b[:, 0], b[:, 2:-1:2], b[:, -1], b[:, 1:-1:2] = y[:, 0], y[:, 1:-1], y[:, -1], 0.0
            _, _, sol, info = dgbsv(2, 3, band.transpose(0, 2, 1).reshape(-1, 8).T, rhs,
                                    overwrite_ab=True, overwrite_b=True)
            if info:  # > 0 singular, which distinct knots rule out; < 0 a bad argument
                raise NumericalFitError(f"smoothing system not solved: dgbsv info {info}")
            sol = sol.reshape(b.shape)
            slot[:, 0, 0], slot[:, 0, 1:] = sol[:, 0], sol[:, 1::2]
            slot[:, 1, 1:-1] = sol[:, 2:-1:2]
    if len(lamns) < len(lams):
        # R gam = Q^T y, the last read of r, which solveh_banded may overwrite;
        # R is finite on checked knots, and the callers refuse a non-finite gam
        qt_y = qa[..., None] * y[:, :-2] + qb[..., None] * y[:, 1:-1] + qc[..., None] * y[:, 2:]
        fits[[not lam for lam in lams], :, 1, 1:-1] = solveh_banded(
            r.reshape(3, -1), qt_y.reshape(-1, m), overwrite_ab=True,
            check_finite=False).reshape(qt_y.shape)
    return fits


@dataclass(frozen=True, eq=False)
class EvaluationWeights:
    """Where each query row of a spline evaluation reads, and with what weight.

    A spline's knot data is one (2, n, m) array, its knot values ``v``
    above its knot second derivatives ``s`` (:attr:`SplineFit.knot_data`).
    For the knot interval [lo[r], hi[r]] of query row r, the row is

        ((weights[0, r] v[lo[r]] + weights[1, r] v[hi[r]])
          + weights[2, r] s[lo[r]]) + weights[3, r] s[hi[r]].

    ``index`` picks those four knot rows of every query row from the
    knot data's (2, n) axes, in that order: the halves (4, 1) [0, 0, 1, 1]
    and the knots (4, q) [lo, hi, lo, hi] (on one knot, lo = hi).  The
    index arrays broadcast against each other.  The weights depend on the
    knots and the queries only, so one instance evaluates every spline on
    those knots at those queries.  Weights of a (T, n) stack of knot sets
    have (T, q) rows and read a (T, 2, n, m) stack, one spline per set:
    their ``index`` leads with the (T, 1) set of each row, and its knots
    are (4, T, q).
    """

    index: tuple[np.ndarray, ...]
    weights: np.ndarray

    def apply(self, knot_data: np.ndarray) -> np.ndarray:
        """The (q, m) values at the queries of the spline with this (2, n, m) knot data.

        ``knot_data`` may be a stack (..., 2, n, m) of splines on the same
        knots, which gives (..., q, m).  Weights of a stack of knot sets
        take one spline per set, (..., T, 2, n, m), and give (..., T, q, m).
        One gather reads the four terms of every row into (P, 4, [T,] q, m)
        for the P splines of the stack, one product weights them, and three
        adds along that outer axis of four sum them in the order of the
        class docstring, elementwise, so the CPU dispatch cannot reorder the
        sum and each spline of a stack gets the same arithmetic as on its
        own.  The splines are an index of the gather too: after sliced
        axes, numpy lays an index's result out in another memory order,
        which every reduction over the values downstream would follow.
        """
        lead = knot_data.shape[:knot_data.ndim - len(self.index) - 1]
        knot_data = knot_data.reshape((-1,) + knot_data.shape[len(lead):])
        splines = np.arange(len(knot_data)).reshape((-1,) + (1,) * self.weights.ndim)
        terms = knot_data[(splines,) + self.index]
        terms *= self.weights[..., None]
        out = terms[:, 0] + terms[:, 1]
        out += terms[:, 2]
        out += terms[:, 3]
        return out.reshape(lead + out.shape[1:])


# the knot data half and the interval end that each of a query row's four
# terms reads: v[lo], v[hi], s[lo], s[hi]
_HALVES = np.array([0, 0, 1, 1])
_ENDS = np.array([0, 1, 0, 1])


def evaluation_weights(knots: np.ndarray, x: np.ndarray) -> EvaluationWeights:
    """Evaluation weights of natural cubic splines on ``knots`` at queries ``x``.

    A query in [knots[i], knots[i+1]] with a = (knots[i+1] - x) / h and
    b = (x - knots[i]) / h takes weights a, b, (a^3 - a) h^2/6 and
    (b^3 - b) h^2/6, the cubic of Press et al. (Numerical Recipes, 3.3).
    Beyond the ends the spline continues along its end tangent, which in
    the same a and b of the end interval is -b h^2/3 and -b h^2/6 on the
    left and -a h^2/6 and -a h^2/3 on the right: every row takes the
    in-range weights, and the rows beyond an end alone are then
    overwritten.  All-zero second derivatives give piecewise-linear
    interpolation, the degenerate fit on two knots; on one knot every
    query reads that knot's value.  Queries need not be sorted.  ``knots``
    may be a (T, n) stack of knot sets, each evaluated at the same queries
    with the arithmetic of the set alone.
    """
    n = knots.shape[-1]
    # the number of interior knots at or left of x is the interval index,
    # 0 left of the first knot and n - 2 from the last knot on (0 for n < 3)
    if knots.ndim == 1:
        sets, lo = (), np.searchsorted(knots[1:-1], x, side="right")
    else:  # the set of each row, then the interval in it
        sets = (np.arange(len(knots))[:, None],)
        if len(knots) == 1:
            # a single decode: no per-set loop (~4 us against ~12 us for the
            # loop at 448 knots and 32 queries, on a 2-core Xeon)
            lo = np.searchsorted(knots[0, 1:-1], x, side="right")[None]
        else:
            lo = np.array([np.searchsorted(k[1:-1], x, side="right") for k in knots])
    terms = (4,) + (1,) * lo.ndim
    halves = _HALVES.reshape(terms)
    if n == 1:
        weights = np.zeros((4,) + lo.shape)
        weights[0] = 1.0
        return EvaluationWeights(sets + (halves, lo), weights)
    hi = lo + 1
    k_lo, k_hi = knots[sets + (lo,)], knots[sets + (hi,)]
    h = k_hi - k_lo
    weights = np.empty((4,) + lo.shape)
    a, b = weights[0], weights[1]
    np.subtract(k_hi, x, out=a)
    a /= h
    np.subtract(x, k_lo, out=b)
    b /= h
    h2_6 = h * h / 6.0
    # cubes as products: np.power's float64 bits follow numpy's CPU dispatch
    np.multiply(a * a * a - a, h2_6, out=weights[2])
    np.multiply(b * b * b - b, h2_6, out=weights[3])
    left = x < knots[..., :1]
    if np.count_nonzero(left):  # along the left end tangent
        b_left, h2_6_left = b[left], h2_6[left]
        weights[2][left] = -2.0 * b_left * h2_6_left
        weights[3][left] = -b_left * h2_6_left
    right = x > knots[..., -1:]
    if np.count_nonzero(right):  # along the right end tangent
        a_right, h2_6_right = a[right], h2_6[right]
        weights[2][right] = -a_right * h2_6_right
        weights[3][right] = -2.0 * a_right * h2_6_right
    return EvaluationWeights(sets + (halves, lo + _ENDS.reshape(terms)), weights)
