"""Encoder and decoder layers of the spline-based coded-computing pipeline.

Encoding fits a vector-valued smoothing spline through ``(alpha_k, x_k)``
and evaluates it at the worker points ``beta_n``; every coded vector is a
weighted combination of all inputs.  Decoding fits a smoothing spline
through the surviving ``(beta_v, output_v)`` pairs and evaluates it at the
``alpha_k`` to estimate ``f(x_k)``.

The encoder is linear in the data.  Its fit to the K x K identity gives
matrices G and Gamma, kept as one (2, K, K) array, whose products with
the inputs X are the knot values and second derivatives of the encoder
fitted to X, and the evaluation weights of the alphas at the betas
(:func:`letcc.spline.evaluation_weights`) turn those into the coded
batch.  Both are computed once per grid object and encoder weight
``lambda_e`` and kept on the grid, in O(N + K^2) memory, plus N x K once
an input at least K wide is encoded; later encodes on the same grid
object cost one stacked product of the (2, K, K) array with X and
either one weighted gather of four N x d terms or one (N, K) x (K, d)
product.
The gather makes eleven memory-bound passes over N x d; the product is
one BLAS call.  The dense map E of the product is the gather applied
once to G and Gamma, a gather of d = K columns, so for d >= K building E
costs no more than the gather it replaces: the first wide encode on a
grid pays at most one extra product, and every later one saves the
gather.  So inputs with d >= K are coded as E X, and narrower inputs,
such as the Monte-Carlo harness's scalar ones on a fresh grid per sweep
point, keep the gather and never build E.  The rule reads only (K, d),
so a set codes to the same bits alone or in a stack.  The cache is the
grid's (:meth:`letcc.points.InterpolationGrid._cached`) and also holds
the Berrut and Lagrange encoders of :mod:`letcc.baselines`, keyed by
scheme, so each of the three schemes encodes through one fixed linear
map per grid, and the Lagrange decoder's Chebyshev bases at the betas
and the alphas, keyed by degree.  Reuse the grid object to benefit: an
equal but separately built grid starts without encoders and computes the
same ones, so its coded batches are identical.
A cached encoder also applies to a stack (T, K, d) of T input sets at
once, with the same arithmetic per set as on its own.

Every decode runs through one body on a stack of T trials' survivors,
all of one count (uniform and fixed stragglers both leave N - S), at L
decoder weights.  It builds the T interleaved band systems of a weight in
one set of array operations and solves them as one block-diagonal band,
one LAPACK call per weight, with each trial's bits (the one fit body,
:func:`letcc.spline._fit_stack`, on a (T, v) knot stack); the weights
share the knot spacings and the lambda-free band entries, and one set of
stacked evaluation weights takes all L x T fits to the alphas, for one
weight or many.  The body checks no knots: the survivor knots are grid
points at indices already checked, so a decode checks its knots once, in
its :class:`letcc.spline.SplineFit`, and a Monte-Carlo chunk not at
all.  The body gives arrays only: the (L, T, K, m) estimates and the
fits' knot values and second derivatives, one (L, T, 2, v, m) stack.
The Monte-Carlo harness hands its own stacked survivors to it directly;
:func:`decode`, one trial at one weight, is the one entry for outside
callers and the only place a :class:`DecodeResult` and its
:class:`letcc.spline.SplineFit` are built; its survivors, pairs or
``indices`` and ``outputs`` arrays alike, take the one check and sort of
:func:`normalize_survivors`.  Each trial's estimates at
each weight equal its own :func:`decode` bit for bit: every operation is
elementwise across trials and weights, or runs per trial, or is the band
solve, where no entry of one trial's block reaches another's.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import spline
from .points import InterpolationGrid, _integral_indices, _real

__all__ = [
    "DecodeFailure",
    "Dataset",
    "CodedBatch",
    "DecodeResult",
    "encode",
    "encoder_training_error",
    "decode",
    "normalize_survivors",
]


class DecodeFailure(RuntimeError):
    """No survivor outputs to decode from."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """K input vectors of dimension d, stored as a (K, d) array.

    A 1-D array is one row: ``Dataset(np.zeros(3))`` holds a single
    3-dimensional input, not three scalars.  Pass K scalars as shape (K, 1).
    The inputs are kept as a read-only float copy, so a later write into
    the caller's array does not change them.
    """

    inputs: np.ndarray

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=float, ndmin=2)
        inputs.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        if inputs.ndim != 2 or inputs.shape[0] < 1 or inputs.shape[1] < 1:
            raise ValueError("inputs must be a (K, d) matrix with K, d >= 1")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("inputs contain non-finite values")

    @property
    def k(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True, eq=False)
class CodedBatch:
    """The N coded vectors dispatched to workers, plus the fitted encoder."""

    coded: np.ndarray
    encoder_fit: object
    grid: InterpolationGrid

    @property
    def n(self) -> int:
        return self.coded.shape[0]


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Estimates of f at the K inputs, plus the fitted decoder."""

    estimates: np.ndarray
    decoder_fit: object
    survivor_count: int
    degraded: bool = False


@dataclass(frozen=True, eq=False)
class _LinearEncoder:
    """The encoder of one grid at one ``lambda_e`` as a linear map.

    ``unit`` (2, K, K) is the knot data of the encoder fitted to the K x K
    identity: its knot values G above its second derivatives Gamma, which
    map inputs X to the encoder fit of X.  ``at_betas`` evaluates any
    spline on the alphas at the betas.
    """

    unit: np.ndarray
    at_betas: spline.EvaluationWeights

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """The (N, K) coded batch of the identity: coded = dense @ X."""
        return self.at_betas.apply(self.unit)

    def apply(self, inputs: np.ndarray):
        """Coded values and the (2, K, d) knot data of the encoder fitted to ``inputs``.

        ``inputs`` is (K, d), or a stack (..., K, d) that gives stacks of
        both; one stacked matmul gives the knot values and second
        derivatives of every set, each product on its own.  Inputs at least
        K wide are coded through :attr:`dense`, narrower ones by the
        weighted gather of their knot data (see the module docstring).
        """
        knot_data = np.matmul(self.unit, inputs[..., None, :, :])
        if inputs.shape[-1] >= inputs.shape[-2]:
            coded = np.matmul(self.dense, inputs)
        else:
            coded = self.at_betas.apply(knot_data)
        return coded, knot_data


def _linear_encoder(grid: InterpolationGrid, lambda_e: float) -> _LinearEncoder:
    """The grid's letcc encoder for a checked ``lambda_e``, built and kept on first use."""
    return grid._cached(("letcc", lambda_e), lambda: _LinearEncoder(
        spline.fit(grid.alphas, np.eye(grid.k), lambda_e).knot_data,
        spline.evaluation_weights(grid.alphas, grid.betas)))


def encode(data: Dataset, grid: InterpolationGrid, lambda_e: float) -> CodedBatch:
    """Fit the encoder spline through (alphas, inputs) and evaluate at betas.

    The fit is G @ inputs and Gamma @ inputs for the grid's cached linear
    encoder (see the module docstring).  With ``lambda_e = 0``, G is the
    identity and the encoder interpolates the inputs exactly, so its
    training error vanishes.
    """
    _check_rows(data, grid)
    lam = _real(lambda_e, "lambda_e")
    coded, knot_data = _linear_encoder(grid, lam).apply(data.inputs)
    return CodedBatch(coded=coded, encoder_fit=spline.SplineFit(grid.alphas, knot_data, lam),
                      grid=grid)


def _check_rows(data: Dataset, grid: InterpolationGrid) -> None:
    """Refuse ``data`` unless it has one row per alpha of ``grid``."""
    if data.k != grid.k:
        raise ValueError(f"dataset has {data.k} rows but grid has {grid.k} alphas")


def encoder_training_error(batch: CodedBatch, data: Dataset) -> float:
    """Mean squared encoder residual, (1/K) sum_k ||u_enc(alpha_k) - x_k||^2.

    Any scheme's encoder fit is evaluated at the alphas: a spline gives
    its knot values exactly there, and the Berrut and Lagrange
    interpolants their node values, so theirs is 0.0.  ``data`` must have
    the batch's K rows and d columns.
    """
    _check_rows(data, batch.grid)
    fitted = batch.encoder_fit.evaluate(batch.grid.alphas)
    if fitted.shape[1] != data.d:
        raise ValueError(f"dataset has {data.d} columns but batch has {fitted.shape[1]}")
    return float(np.mean(np.sum((fitted - data.inputs) ** 2, axis=1)))


def _rows(values, count: int, what: str) -> np.ndarray:
    """Outputs ``values`` at ``count`` points as an array of ``count`` rows.

    A 1-D array is one value per point, or the values of the one point
    when ``count`` is 1; any other array keeps its rows.  Another row count
    raises, naming the ``count`` points as ``what``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim < 2:
        values = values.reshape((1, -1) if count == 1 else (-1, 1))
    if values.shape[0] != count:
        raise ValueError(f"{count} {what} for {values.shape[0]} output rows")
    return values


def normalize_survivors(survivors, n: int):
    """Sort survivor (beta_index, output) pairs by index; drop duplicates.

    Accepts an iterable of pairs, read first as indices and rows, or an
    object exposing ``indices`` and ``outputs`` arrays.  Outputs become a
    2-D (count, m) array by the one rule of :func:`_rows`: a 1-D
    ``outputs`` array is one value per survivor, as scalar pair values are.
    Duplicate indices keep the first occurrence and emit a warning.  The
    indices pass :func:`letcc.points._integral_indices` with ``n``: each an
    integer in [0, n), or an integral float, and not a boolean.
    """
    if hasattr(survivors, "indices") and hasattr(survivors, "outputs"):
        indices, rows = survivors.indices, survivors.outputs
    else:
        pairs = list(survivors)
        indices = [i for i, _ in pairs]
        rows = [np.ravel(np.asarray(v, dtype=float)) for _, v in pairs]
    indices = _integral_indices(indices, "survivor index", n)
    count = indices.size
    if not count:
        raise DecodeFailure("no survivor outputs to decode from")
    rows = _rows(rows, count, "survivor indices")
    if not rows.size:
        raise ValueError("survivor outputs must have at least one column")

    if (indices[1:] > indices[:-1]).all():
        # sorted and unique already, as workers report: every row in place
        outputs = rows.reshape(count, -1).copy()
    else:
        unique, first = np.unique(indices, return_index=True)
        for idx in np.delete(indices, first):
            warnings.warn(f"duplicate survivor index {idx}; keeping first report",
                          stacklevel=3)
        indices, outputs = unique, rows[first].reshape(unique.size, -1)
    if not np.isfinite(outputs).all():
        raise ValueError("survivor outputs contain non-finite values")
    return indices, outputs


def decode(survivors, grid: InterpolationGrid, lambda_d: float) -> DecodeResult:
    """Fit the decoder spline through surviving (beta, output) pairs.

    Fewer than three survivors degrade to the penalty null space (affine
    through two points, constant through one); the result is flagged.  Zero
    survivors raise :class:`DecodeFailure`.  A stack of one trial at one
    weight of the decode body, after :func:`normalize_survivors`.
    """
    lam = _real(lambda_d, "lambda_d")
    indices, outputs = normalize_survivors(survivors, grid.n)
    estimates, fits, degraded = _decode_stack(grid, indices[None], outputs[None], (lam,))
    fit = spline.SplineFit(grid.betas[indices], fits[0, 0], lam)
    return DecodeResult(estimates=estimates[0, 0], decoder_fit=fit,
                        survivor_count=indices.size, degraded=degraded)


def _decode_stack(grid: InterpolationGrid, indices: np.ndarray, outputs: np.ndarray,
                  lambdas) -> tuple[np.ndarray, np.ndarray, bool]:
    """Decodes of T trials' checked survivors at each weight of ``lambdas``.

    ``indices`` (T, v) are sorted, unique and in range, and ``outputs``
    (T, v, m) finite, as :func:`normalize_survivors` or a Monte-Carlo
    chunk gives them; each weight is a float checked by
    :func:`letcc.points._real`.  The T fits at a weight share one set of
    band operations (:func:`letcc.spline._fit_stack`), and one set of
    evaluation weights takes all fits to the alphas.  Gives the (L, T, K, m)
    estimates, the fits' knot values and second derivatives as one
    (L, T, 2, v, m) stack, and whether the fits are degraded: fewer than
    three survivors fit the penalty null space.
    """
    knots = grid.betas[indices]
    fits = spline._fit_stack(knots, outputs, lambdas)
    estimates = spline.evaluation_weights(knots, grid.alphas).apply(fits)
    return estimates, fits, indices.shape[1] < 3
