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

Both decoders run through one body on a stack of T trials' survivors, all
of one count.  Berrut's takes every trial to the alphas with one
barycentric map on the T node sets; Lagrange's solves the T least-squares
fits with one stacked QR factorisation of the augmented matrices [V | Y]
and one stacked triangular solve.  The bodies give arrays only (lcc's
also its Chebyshev coefficients and degraded flag); the Monte-Carlo
harness hands its own stacked survivors to them directly.
:func:`bacc_decode` and :func:`lcc_decode`, one trial each, are the
entries for outside callers and the only places a
:class:`~letcc.coding.DecodeResult` and a :class:`BerrutInterpolant`
decoder are built.  Each trial's estimates equal its own one-trial decode
bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .coding import (
    CodedBatch,
    Dataset,
    DecodeResult,
    _rows,
    normalize_survivors,
)
from .points import InterpolationGrid

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

    weights: np.ndarray
    ratios: np.ndarray
    den: np.ndarray
    hit: tuple[np.ndarray, ...]
    hit_nodes: np.ndarray

    @classmethod
    def build(cls, nodes, weights, query) -> "_BarycentricMap":
        x = np.atleast_1d(np.asarray(query, dtype=float))
        diff = x[:, None] - nodes[..., None, :]
        hits = np.abs(diff) < _NODE_HIT_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = weights / diff
            den = ratios.sum(axis=-1, keepdims=True)
        hit = np.nonzero(hits.any(axis=-1))
        return cls(weights, ratios, den, hit, np.argmax(hits[hit], axis=-1))

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


def _berrut_weights(n: int) -> np.ndarray:
    """Berrut's alternating weights (-1)^j for n sorted nodes."""
    return (-1.0) ** np.arange(n)


def _lagrange_weights(nodes: np.ndarray) -> np.ndarray:
    """True barycentric weights 1 / prod_{j != i} (nodes[i] - nodes[j])."""
    w = np.ones(nodes.size)
    for i in range(nodes.size):
        w[i] = 1.0 / np.prod(np.delete(nodes[i] - nodes, i)) if nodes.size > 1 else 1.0
    return w


def _encoder(grid: InterpolationGrid, scheme: str) -> _BarycentricMap:
    """The grid's cached "bacc" or "lcc" encoder: interpolation at the betas."""
    def build():
        alphas = grid.alphas
        weights = (_berrut_weights(alphas.size) if scheme == "bacc"
                   else _lagrange_weights(alphas))
        return _BarycentricMap.build(alphas, weights, grid.betas)
    return grid._cached((scheme, None), build)


@dataclass(frozen=True, eq=False)
class BerrutInterpolant:
    """Berrut first rational form on distinct nodes with weights (-1)^j.

    ``values`` are read as :func:`letcc.coding._rows` reads outputs at points.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        if nodes.size == 0:
            raise ValueError("Berrut interpolant needs at least one node")
        values = _rows(self.values, nodes.size, "Berrut nodes")
        if nodes.size > 1 and not (nodes[1:] > nodes[:-1]).all():
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def weights(self) -> np.ndarray:
        return _berrut_weights(self.nodes.size)

    def evaluate(self, query) -> np.ndarray:
        return _BarycentricMap.build(self.nodes, self.weights, query).apply(self.values)


@dataclass(frozen=True, eq=False)
class LagrangePolynomial:
    """Interpolating polynomial in barycentric second form (true weights).

    ``values`` are read as :func:`letcc.coding._rows` reads outputs at points.
    """

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", _rows(self.values, nodes.size, "Lagrange nodes"))

    @classmethod
    def through(cls, nodes, values) -> "LagrangePolynomial":
        """The interpolant of ``values`` at ``nodes``, with its barycentric weights."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
        return cls(nodes, values, _lagrange_weights(nodes))

    def evaluate(self, query) -> np.ndarray:
        return _BarycentricMap.build(self.nodes, self.weights, query).apply(self.values)


@dataclass(frozen=True)
class LagrangeCodec:
    """Degree bookkeeping for Lagrange coded computing."""

    k: int
    f_degree: int

    @property
    def target_degree(self) -> int:
        return (self.k - 1) * self.f_degree

    def recovery_threshold(self, s: int) -> int:
        """Minimum worker count N for exact recovery with S stragglers."""
        return self.target_degree + s + 1

    @property
    def min_survivors(self) -> int:
        """Survivor count needed to pin down the target polynomial."""
        return self.target_degree + 1


def bacc_encode(data: Dataset, grid: InterpolationGrid) -> CodedBatch:
    """Berrut interpolant through (alphas, inputs), evaluated at betas.

    Applies the grid's cached Berrut encoder (see :mod:`letcc.coding`).
    """
    if data.k != grid.k:
        raise ValueError(f"dataset has {data.k} rows but grid has {grid.k} alphas")
    return CodedBatch(coded=_encoder(grid, "bacc").apply(data.inputs),
                      encoder_fit=BerrutInterpolant(grid.alphas, data.inputs), grid=grid)


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
    return _BarycentricMap.build(grid.betas[indices], _berrut_weights(indices.shape[1]),
                                 grid.alphas).apply(outputs)


def lcc_encode(data: Dataset, grid: InterpolationGrid) -> CodedBatch:
    """Degree-(K-1) interpolating polynomial through the data, at betas.

    Applies the grid's cached Lagrange encoder (see :mod:`letcc.coding`).
    """
    if data.k != grid.k:
        raise ValueError(f"dataset has {data.k} rows but grid has {grid.k} alphas")
    encoder = _encoder(grid, "lcc")
    return CodedBatch(coded=encoder.apply(data.inputs),
                      encoder_fit=LagrangePolynomial(grid.alphas, data.inputs,
                                                     encoder.weights),
                      grid=grid)


def _chebyshev_vandermonde(x: np.ndarray, deg: int) -> np.ndarray:
    """T_0 .. T_deg at the points ``x`` in [-1, 1], as cos(j arccos x)."""
    return np.cos(np.arccos(np.clip(x, -1.0, 1.0))[:, None] * np.arange(deg + 1))


def _checked_degree(f_degree) -> int:
    """``f_degree`` as an int; a boolean, fractional, non-finite or negative one raises."""
    if (isinstance(f_degree, (bool, np.bool_)) or not isinstance(f_degree, numbers.Real)
            or not float(f_degree).is_integer() or f_degree < 0):
        raise ValueError(f"f_degree must be a nonnegative integer, got {f_degree!r}")
    return int(f_degree)


def lcc_decode(survivors, grid: InterpolationGrid, f_degree: int) -> DecodeResult:
    """Polynomial decode: exact once survivors reach (K-1)*deg(f)+1.

    Least squares in the Chebyshev basis, solved through a QR factorisation;
    ``decoder_fit`` holds the Chebyshev coefficients, one column per output.
    Below the threshold it fits the highest degree the survivor count
    supports and flags the result as degraded.  ``f_degree`` must be a
    nonnegative integer.  A stack of one trial of the decode body, after
    :func:`letcc.coding.normalize_survivors`.
    """
    degree = _checked_degree(f_degree)
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
    same bits in a batch of any size.  The basis at every beta and at the
    alphas is kept on the grid, by degree, beside its encoders: a trial's V
    is the rows of its survivors, gathered for the whole stack at once.
    """
    codec = LagrangeCodec(grid.k, f_degree)
    count = indices.shape[1]
    deg = min(codec.target_degree, count - 1)
    at_betas, at_alphas = grid._cached(("lcc_decode", deg), lambda: (
        _chebyshev_vandermonde(grid.betas, deg), _chebyshev_vandermonde(grid.alphas, deg)))
    r = np.linalg.qr(np.concatenate([at_betas[indices], outputs], axis=-1), mode="r")
    coef = np.linalg.solve(r[:, :deg + 1, :deg + 1], r[:, :deg + 1, deg + 1:])
    return np.matmul(at_alphas, coef), coef, count < codec.min_survivors
