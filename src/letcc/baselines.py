"""Berrut (BACC) and Lagrange (LCC) coded-computing baselines.

BACC runs the same three-layer pipeline with Berrut's first rational
barycentric form replacing both regression fits.  With alternating sign
weights on sorted nodes the interpolant has no real poles and reproduces
the node values exactly, but it is rational rather than polynomial: it
reproduces constants, not general affine functions.

LCC encodes along the degree-(K-1) interpolating polynomial through the
data.  For a polynomial computing function of degree deg(f) the worker
outputs lie on a polynomial of degree D = (K-1)*deg(f), so any D+1
survivors recover it exactly; this needs N >= (K-1)*deg(f) + S + 1 workers
to tolerate S stragglers.  Below that, we fit the highest degree the
survivors support, as a flagged approximation.  The decoder fits in the
Chebyshev basis, which stays well conditioned on the Chebyshev worker
points at the degrees LCC needs; a monomial-basis fit does not (at K=16
and cubic f, degree 45, its mean squared error is near 1e-3).

:class:`BerrutInterpolant` and :class:`LagrangePolynomial` share one
barycentric body and take their weights from their nodes alone: Berrut's
(-1)^j, Lagrange's 1 / prod_{j != i} (x_i - x_j), on first use.  Both
encoders check the dataset once and apply the grid's cached barycentric
map of those weights from the alphas to the betas.

Both decoders run through one body on a stack of T trials' survivors, all
of one count.  Berrut's takes every trial to the alphas with one
barycentric map on the T node sets; Lagrange's solves the T least-squares
fits with one stacked QR factorisation of the augmented matrices [V | Y]
and one stacked triangular solve.  It builds all T of them with one row
gather from the grid's cached basis at the betas, stored with zero
columns for the outputs, and one write of the outputs into those
columns.  The bodies give arrays only (lcc's also its Chebyshev
coefficients and degraded flag); the Monte-Carlo harness hands its own
stacked survivors to them directly.
:func:`bacc_decode` and :func:`lcc_decode`, one trial each, are the
entries for outside callers and the only places a
:class:`~letcc.coding.DecodeResult` and a :class:`BerrutInterpolant`
decoder are built.  Each trial's estimates equal its own one-trial decode
bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .coding import (
    CodedBatch,
    Dataset,
    DecodeResult,
    _check_rows,
    _rows,
    normalize_survivors,
)
from .points import InterpolationGrid, _check_points, _integer, _query

__all__ = [
    "BerrutInterpolant",
    "LagrangePolynomial",
    "LagrangeCodec",
    "bacc_encode",
    "bacc_decode",
    "lcc_encode",
    "lcc_decode",
]

_NODE_HIT_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class _BarycentricMap:
    """Barycentric evaluation at fixed queries as a linear map of node values.

    Row r of the result is (ratios[r] @ values) / den[r], with ratios the
    weights over (query - node); a query on a node (within
    ``_NODE_HIT_TOL``) reads that node's value instead.  ``nodes`` may be a
    (T, v) stack of node sets: then ``ratios`` is (T, q, v), one map per
    set, and ``hit`` holds the set and the query row of each node hit.
    """

    ratios: np.ndarray
    den: np.ndarray
    hit: tuple[np.ndarray, ...]
    hit_nodes: np.ndarray

    @classmethod
    def build(cls, nodes, weights, query) -> "_BarycentricMap":
        """The map of ``weights`` over (query - node) in one (..., q, v) buffer.

        The differences are tested for node hits, then divided into in place.
        The hit rows and their first hit nodes come from the flat positions
        of the hits, which are in row order.
        """
        x = np.atleast_1d(np.asarray(query, dtype=float))
        diff = x[:, None] - nodes[..., None, :]
        # |diff| < tol, without an array for |diff|
        flat = np.flatnonzero(np.less(diff, _NODE_HIT_TOL) & (diff > -_NODE_HIT_TOL))
        count = diff.shape[-1]
        rows, first = np.unique(flat // count, return_index=True)
        hit = np.unravel_index(rows, diff.shape[:-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.divide(weights, diff, out=diff)
            den = ratios.sum(axis=-1, keepdims=True)
        return cls(ratios, den, hit, flat[first] % count)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Values (n, m), or a stack (..., n, m), at the queries.

        A map of T node sets takes one value set per node set, (..., T, n,
        m).  A stacked matmul runs each set's product on its own, so a set
        gets the same bits in a stack as alone.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.matmul(self.ratios, values) / self.den
        if self.hit_nodes.size:
            *sets, rows = self.hit
            out[(..., *sets, rows, slice(None))] = values[(..., *sets, self.hit_nodes,
                                                           slice(None))]
        return out


def _berrut_weights(nodes: np.ndarray) -> np.ndarray:
    """Berrut's alternating weights (-1)^j for (..., n) sorted nodes: one set of n."""
    weights = np.ones(nodes.shape[-1])
    weights[1::2] = -1.0
    return weights


def _lagrange_weights(nodes: np.ndarray) -> np.ndarray:
    """True barycentric weights 1 / prod_{j != i} (nodes[i] - nodes[j])."""
    return np.array([1.0 / np.prod(np.delete(node - nodes, i)) for i, node in enumerate(nodes)])


@dataclass(frozen=True, eq=False)
class _Barycentric:
    """Barycentric interpolant of ``values`` on strictly increasing ``nodes``.

    ``values`` are read as :func:`letcc.coding._rows` reads outputs at
    points, naming the nodes as the class's ``_what``.  The weights are the
    class's ``_weights_of(nodes)``, computed on first use: no caller gives them.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        _check_points("nodes", nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", _rows(self.values, nodes.size, self._what))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The barycentric weights of the nodes."""
        return self._weights_of(self.nodes)

    def evaluate(self, query) -> np.ndarray:
        """Values at ``query``, a scalar or 1-D array (see :func:`letcc.points._query`)."""
        return _BarycentricMap.build(self.nodes, self.weights, _query(query)).apply(self.values)


class BerrutInterpolant(_Barycentric):
    """Berrut first rational form on strictly increasing nodes with weights (-1)^j."""

    _what = "Berrut nodes"
    _weights_of = staticmethod(_berrut_weights)


class LagrangePolynomial(_Barycentric):
    """Interpolating polynomial on strictly increasing nodes, barycentric second form."""

    _what = "Lagrange nodes"
    _weights_of = staticmethod(_lagrange_weights)


_INTERPOLANTS = {"bacc": BerrutInterpolant, "lcc": LagrangePolynomial}


def _encoder(grid: InterpolationGrid, scheme: str) -> _BarycentricMap:
    """The grid's cached "bacc" or "lcc" encoder: interpolation at the betas."""
    return grid._cached((scheme, None), lambda: _BarycentricMap.build(
        grid.alphas, _INTERPOLANTS[scheme]._weights_of(grid.alphas), grid.betas))


def _encode(data: Dataset, grid: InterpolationGrid, scheme: str) -> CodedBatch:
    """The coded batch of ``scheme``'s cached encoder, with the interpolant of the data."""
    _check_rows(data, grid)
    return CodedBatch(coded=_encoder(grid, scheme).apply(data.inputs),
                      encoder_fit=_INTERPOLANTS[scheme](grid.alphas, data.inputs), grid=grid)


def _nonnegative(value, what: str) -> int:
    """``value`` named ``what`` as an int by :func:`letcc.points._integer`; negative raises."""
    number = _integer(value, what)
    if number < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {number}")
    return number


@dataclass(frozen=True)
class LagrangeCodec:
    """Degree bookkeeping for Lagrange coded computing: integers k >= 1, f_degree >= 0."""

    k: int
    f_degree: int

    def __post_init__(self):
        k = _integer(self.k, "k")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "f_degree", _nonnegative(self.f_degree, "f_degree"))

    @property
    def target_degree(self) -> int:
        return (self.k - 1) * self.f_degree

    def recovery_threshold(self, s: int) -> int:
        """Minimum worker count N for exact recovery with S >= 0 stragglers."""
        return self.target_degree + _nonnegative(s, "s") + 1

    @property
    def min_survivors(self) -> int:
        """Survivor count needed to pin down the target polynomial."""
        return self.target_degree + 1


def bacc_encode(data: Dataset, grid: InterpolationGrid) -> CodedBatch:
    """Berrut interpolant through (alphas, inputs), evaluated at betas.

    Applies the grid's cached Berrut encoder (see :mod:`letcc.coding`).
    """
    return _encode(data, grid, "bacc")


def bacc_decode(survivors, grid: InterpolationGrid) -> DecodeResult:
    """Berrut interpolant through surviving (beta, output) pairs, at alphas.

    A stack of one trial of the decode body, after
    :func:`letcc.coding.normalize_survivors`.
    """
    indices, outputs = normalize_survivors(survivors, grid.n)
    estimates = _bacc_decode_stack(grid, indices[None], outputs[None])
    return DecodeResult(estimates=estimates[0],
                        decoder_fit=BerrutInterpolant(grid.betas[indices], outputs),
                        survivor_count=indices.size)


def _bacc_decode_stack(grid: InterpolationGrid, indices: np.ndarray,
                       outputs: np.ndarray) -> np.ndarray:
    """Berrut estimates (T, K, m) of T trials' checked (T, v) indices and (T, v, m) outputs.

    One barycentric map on the T node sets takes every trial to the alphas.
    """
    knots = grid.betas[indices]
    return _BarycentricMap.build(knots, _berrut_weights(knots), grid.alphas).apply(outputs)


def lcc_encode(data: Dataset, grid: InterpolationGrid) -> CodedBatch:
    """Degree-(K-1) interpolating polynomial through the data, at betas.

    Applies the grid's cached Lagrange encoder (see :mod:`letcc.coding`).
    """
    return _encode(data, grid, "lcc")


def _chebyshev_vandermonde(x: np.ndarray, deg: int) -> np.ndarray:
    """T_0 .. T_deg at the points ``x`` in [-1, 1], one C-ordered row per point.

    By the three-term recurrence T_j = 2x T_{j-1} - T_{j-2}, in correctly
    rounded products and differences: its bits do not follow numpy's CPU
    dispatch, as cos(j arccos x) does, and it is the more accurate of the two.
    """
    return np.ascontiguousarray(chebvander(np.clip(x, -1.0, 1.0), deg))


def lcc_decode(survivors, grid: InterpolationGrid, f_degree: int) -> DecodeResult:
    """Polynomial decode: exact once survivors reach (K-1)*deg(f)+1.

    Least squares in the Chebyshev basis, solved through a QR factorisation;
    ``decoder_fit`` holds the Chebyshev coefficients, one column per output.
    Below the threshold it fits the highest degree the survivor count
    supports and flags the result as degraded.  ``f_degree`` must be a
    nonnegative integer.  A stack of one trial of the decode body, after
    :func:`letcc.coding.normalize_survivors`.
    """
    degree = _nonnegative(f_degree, "f_degree")
    indices, outputs = normalize_survivors(survivors, grid.n)
    estimates, coef, degraded = _lcc_decode_stack(grid, indices[None], outputs[None], degree)
    return DecodeResult(estimates=estimates[0], decoder_fit=coef[0],
                        survivor_count=indices.size, degraded=degraded)


def _lcc_decode_stack(grid: InterpolationGrid, indices: np.ndarray, outputs: np.ndarray,
                      f_degree: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Lagrange decodes of T trials' checked (T, v) indices and (T, v, m) outputs.

    Gives the (T, K, m) estimates, the (T, deg + 1, m) Chebyshev
    coefficients and whether the fits are degraded, below the survivor
    count that pins down the target degree.

    The least-squares fit of each trial's outputs Y on its Chebyshev
    Vandermonde V comes from one QR factorisation of [V | Y]: the top-right
    block of its R is Q^T Y, so Q is never formed, and the coefficients
    solve the (deg + 1)-square triangular block against it.  The stacked
    ``qr``, ``solve`` and ``matmul`` each run per trial, so a trial gets the
    same bits in a batch of any size.  The basis at every beta, followed by
    m zero columns, and the basis at the alphas are kept on the grid, by
    degree and output width m, beside its encoders: the whole stack's
    [V | Y] is one gather of its survivors' rows, with each trial's
    outputs written into the last m columns.
    """
    codec = LagrangeCodec(grid.k, f_degree)
    count, width = indices.shape[1], outputs.shape[-1]
    deg = min(codec.target_degree, count - 1)
    augmented, at_alphas = grid._cached(("lcc_decode", deg, width), lambda: (
        np.concatenate([_chebyshev_vandermonde(grid.betas, deg), np.zeros((grid.n, width))],
                       axis=1),
        _chebyshev_vandermonde(grid.alphas, deg)))
    stack = augmented[indices]
    stack[..., deg + 1:] = outputs
    r = np.linalg.qr(stack, mode="r")
    coef = np.linalg.solve(r[:, :deg + 1, :deg + 1], r[:, :deg + 1, deg + 1:])
    return np.matmul(at_alphas, coef), coef, count < codec.min_survivors
