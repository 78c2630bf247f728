"""Encoder and decoder layers of the spline-based coded-computing pipeline.

Encoding fits a vector-valued smoothing spline through ``(alpha_k, x_k)``
and evaluates it at the worker points ``beta_n``; every coded vector is a
weighted combination of all inputs.  Decoding fits a smoothing spline
through the surviving ``(beta_v, output_v)`` pairs and evaluates it at the
``alpha_k`` to estimate ``f(x_k)``.

The encoder is linear in the data.  Its fit to the K x K identity gives
matrices G and Gamma whose products with the inputs X are the knot values
and second derivatives of the encoder fitted to X, and the evaluation
weights of the alphas at the betas (:func:`letcc.spline.evaluation_weights`)
turn those into the coded batch.  Both are computed once per grid object
and encoder weight ``lambda_e`` and kept on the grid, in O(N + K^2)
memory, plus N x K once an input at least K wide is encoded; later
encodes on the same grid object cost two K x K products and either one
weighted gather of four N x d terms or one (N, K) x (K, d) product.
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
one set of array operations and solves them one LAPACK call per trial
(:func:`letcc.spline.NaturalSplineBasis` on a (T, n) knot stack); the
weights share the basis and its lambda-free band entries, and one set of
stacked evaluation weights takes all L x T fits to the alphas, for one
weight or many.  The body gives arrays only: the (L, T, K, m) estimates
and the (L, T, v, m) knot values and second derivatives.  The
Monte-Carlo harness hands its own stacked survivors to it directly;
:func:`decode`, one trial at one weight, is the one entry for outside
callers and the only place a :class:`DecodeResult` and its
:class:`letcc.spline.SplineFit` are built; its survivors, pairs or
``indices`` and ``outputs`` arrays alike, take the one check and sort of
:func:`normalize_survivors`.  Each trial's estimates at
each weight equal its own :func:`decode` bit for bit: every operation is
elementwise across trials and weights, or runs per trial.
"""

from __future__ import annotations

import functools
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import spline
from .points import InterpolationGrid

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
    """

    inputs: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
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

    ``unit`` is the encoder fitted to the K x K identity: its coefficients
    G and second derivatives Gamma map inputs X to the encoder fit of X.
    ``at_betas`` evaluates any spline on the alphas at the betas.
    """

    unit: spline.SplineFit
    at_betas: spline.EvaluationWeights

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """The (N, K) coded batch of the identity: coded = dense @ X."""
        return self.at_betas.apply(self.unit.coefficients, self.unit.second_derivs)

    def apply(self, inputs: np.ndarray):
        """Coded values, knot values and knot second derivatives of the encoder.

        ``inputs`` is (K, d), or a stack (..., K, d) that gives stacks of
        each; a stacked matmul runs the product of each set on its own.
        Inputs at least K wide are coded through :attr:`dense`, narrower
        ones by the weighted gather of their knot values and second
        derivatives (see the module docstring).
        """
        values = np.matmul(self.unit.coefficients, inputs)
        second_derivs = np.matmul(self.unit.second_derivs, inputs)
        if inputs.shape[-1] >= inputs.shape[-2]:
            coded = np.matmul(self.dense, inputs)
        else:
            coded = self.at_betas.apply(values, second_derivs)
        return coded, values, second_derivs


def _linear_encoder(grid: InterpolationGrid, lambda_e: float) -> _LinearEncoder:
    """The grid's letcc encoder for ``lambda_e``, built and kept on first use."""
    lam = float(lambda_e)
    return grid._cached(("letcc", lam), lambda: _LinearEncoder(
        spline.fit(grid.alphas, np.eye(grid.k), lam),
        spline.evaluation_weights(grid.alphas, grid.betas)))


def encode(data: Dataset, grid: InterpolationGrid, lambda_e: float) -> CodedBatch:
    """Fit the encoder spline through (alphas, inputs) and evaluate at betas.

    The fit is G @ inputs and Gamma @ inputs for the grid's cached linear
    encoder (see the module docstring).  With ``lambda_e = 0``, G is the
    identity and the encoder interpolates the inputs exactly, so its
    training error vanishes.
    """
    if data.k != grid.k:
        raise ValueError(f"dataset has {data.k} rows but grid has {grid.k} alphas")
    encoder = _linear_encoder(grid, lambda_e)
    coded, values, second_derivs = encoder.apply(data.inputs)
    enc = replace(encoder.unit, coefficients=values, second_derivs=second_derivs)
    return CodedBatch(coded=coded, encoder_fit=enc, grid=grid)


def encoder_training_error(batch: CodedBatch, data: Dataset) -> float:
    """Mean squared encoder residual, (1/K) sum_k ||u_enc(alpha_k) - x_k||^2.

    Any scheme's encoder fit is evaluated at the alphas: a spline gives
    its knot values exactly there, and the Berrut and Lagrange
    interpolants their node values, so theirs is 0.0.
    """
    fitted = batch.encoder_fit.evaluate(batch.grid.alphas)
    return float(np.mean(np.sum((fitted - data.inputs) ** 2, axis=1)))


def _integral_indices(values, what: str = "survivor index", n: int | None = None) -> np.ndarray:
    """Worker indices from outside, ``values``, as a new int array: their one check.

    An index is an integer, or an integral float (not NaN or inf), and
    never a boolean: a mask read as indices 0 and 1 would pick the wrong
    workers.  A list or tuple is checked item by item, as numpy reads
    ``[True, 2]`` as ``[1, 2]``; a nested sequence raises, so a caller
    asking for one integer passes a list of one.  An array of indices is
    one-dimensional: a column or a 0-d array raises.  Given ``n``, every
    index must lie in [0, n).  ``what`` names the value in the error.
    """
    if isinstance(values, (list, tuple)):
        for kind in set(map(type, values)):
            if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
                raise ValueError(f"{what} must be an integer, got {kind.__name__}")
    indices = np.asarray(values)
    if indices.ndim != 1:
        raise ValueError(f"{what} array must be one-dimensional, got shape {indices.shape}")
    if indices.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be an integer, got {indices.dtype} values")
    if indices.dtype.kind == "f":
        integral = np.isfinite(indices) & (np.floor(indices) == indices)
        if not integral.all():
            raise ValueError(f"{what} {indices[~integral][0]} is not an integer")
    indices = indices.astype(int)
    if n is not None:
        outside = (indices < 0) | (indices >= n)
        if outside.any():
            raise ValueError(f"{what} {indices[outside][0]} outside [0, {n})")
    return indices


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
    indices pass :func:`_integral_indices` with ``n``: each an integer in
    [0, n), or an integral float, and not a boolean.
    """
    if hasattr(survivors, "indices") and hasattr(survivors, "outputs"):
        indices, rows = survivors.indices, survivors.outputs
    else:
        pairs = list(survivors)
        indices = [i for i, _ in pairs]
        rows = [np.ravel(np.asarray(v, dtype=float)) for _, v in pairs]
    indices = _integral_indices(indices, n=n)
    count = indices.size
    if not count:
        raise DecodeFailure("no survivor outputs to decode from")
    rows = _rows(rows, count, "survivor indices")

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
    indices, outputs = normalize_survivors(survivors, grid.n)
    estimates, (values, second_derivs), degraded = _decode_stack(
        grid, indices[None], outputs[None], (lambda_d,))
    fit = spline.SplineFit(grid.betas[indices], values[0, 0], second_derivs[0, 0],
                           float(lambda_d), degenerate=degraded)
    return DecodeResult(estimates=estimates[0, 0], decoder_fit=fit,
                        survivor_count=indices.size, degraded=degraded)


def _decode_stack(grid: InterpolationGrid, indices: np.ndarray, outputs: np.ndarray,
                  lambdas) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], bool]:
    """Decodes of T trials' checked survivors at each weight of ``lambdas``.

    ``indices`` (T, v) are sorted, unique and in range, and ``outputs``
    (T, v, m) finite, as :func:`normalize_survivors` or a Monte-Carlo
    chunk gives them.  The T fits at a weight share one set of band
    operations (:func:`letcc.spline._fit_stack`), and one set of
    evaluation weights takes all fits to the alphas.  Gives the (L, T, K, m)
    estimates, the (L, T, v, m) knot values and second derivatives, and
    whether the fits are degraded: fewer than three survivors fit the
    penalty null space.
    """
    knots = grid.betas[indices]
    fits = spline._fit_stack(knots, outputs, spline._checked_lams(lambdas))
    estimates = spline.evaluation_weights(knots, grid.alphas).apply(*fits)
    return estimates, fits, indices.shape[1] < 3
