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
memory; later encodes on the same grid object cost two K x K products and
one O(N d) weighted gather.  The same cache holds the Berrut and Lagrange
encoders of :mod:`letcc.baselines`, keyed by scheme, so each of the three
schemes encodes through one fixed linear map per grid.  Reuse the grid
object to benefit: an equal but separately built grid starts without
encoders and computes the same ones, so its coded batches are identical.
A cached encoder also applies to a stack (T, K, d) of T input sets at
once, with the same arithmetic per set as on its own.

Decoding the same survivors at several decoder weights (the lambda_d grid
of a cross-validation) shares everything that does not depend on the
weight: :func:`decode_lambdas` normalizes the survivors once, fits every
weight on one spline basis (:func:`letcc.spline.fit_lambdas`) and
evaluates the stacked fits at the alphas through one set of evaluation
weights.  Each weight's estimates equal a :func:`decode` at that weight,
bit for bit, as both fit through the same spline code.
"""

from __future__ import annotations

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
    "decode_lambdas",
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

    def apply(self, inputs: np.ndarray):
        """Coded values, knot values and knot second derivatives of the encoder.

        ``inputs`` is (K, d), or a stack (..., K, d) that gives stacks of
        each; a stacked matmul runs the product of each set on its own.
        """
        values = np.matmul(self.unit.coefficients, inputs)
        second_derivs = np.matmul(self.unit.second_derivs, inputs)
        return self.at_betas.apply(values, second_derivs), values, second_derivs


def _cached_encoder(grid: InterpolationGrid, key, build):
    """The encoder kept on ``grid`` under ``key``, built by ``build()`` on first use."""
    encoder = grid._encoders.get(key)
    if encoder is None:
        encoder = grid._encoders[key] = build()
    return encoder


def _linear_encoder(grid: InterpolationGrid, lambda_e: float) -> _LinearEncoder:
    """The grid's letcc encoder for ``lambda_e``, built and kept on first use."""
    lam = float(lambda_e)
    return _cached_encoder(grid, ("letcc", lam), lambda: _LinearEncoder(
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

    A spline's values at its knots are its coefficients.
    """
    fitted = batch.encoder_fit.coefficients
    return float(np.mean(np.sum((fitted - data.inputs) ** 2, axis=1)))


def normalize_survivors(survivors, n: int):
    """Sort survivor (beta_index, output) pairs by index; drop duplicates.

    Accepts an iterable of pairs or an object exposing ``indices`` and
    ``outputs`` arrays.  Outputs are coerced to a 2-D (count, m) array.
    Duplicate indices keep the first occurrence and emit a warning.
    """
    if hasattr(survivors, "indices") and hasattr(survivors, "outputs"):
        indices = np.asarray(survivors.indices)
        rows = np.atleast_2d(np.asarray(survivors.outputs, dtype=float))
        if indices.size and indices.size != rows.shape[0]:
            raise ValueError(f"{indices.size} survivor indices for "
                             f"{rows.shape[0]} output rows")
        count = indices.size
    else:
        pairs = [(int(i), np.atleast_1d(np.asarray(v, dtype=float))) for i, v in survivors]
        indices = np.array([i for i, _ in pairs], dtype=int)
        rows = [v for _, v in pairs]
        count = len(pairs)
    if not count:
        raise DecodeFailure("no survivor outputs to decode from")

    outside = ~((indices >= 0) & (indices < n))
    if outside.any():
        raise ValueError(f"survivor index {indices[outside.argmax()]} outside [0, {n})")
    unique, first = np.unique(indices, return_index=True)
    if unique.size < count:
        for idx in np.delete(indices, first):
            warnings.warn(f"duplicate survivor index {idx}; keeping first report",
                          stacklevel=3)

    if isinstance(rows, list):
        outputs = np.vstack([np.ravel(rows[p]) for p in first])
    else:
        outputs = rows[first].reshape(first.size, -1)
    if not np.isfinite(outputs).all():
        raise ValueError("survivor outputs contain non-finite values")
    return unique.astype(int), outputs


def decode(survivors, grid: InterpolationGrid, lambda_d: float) -> DecodeResult:
    """Fit the decoder spline through surviving (beta, output) pairs.

    Fewer than three survivors degrade to the penalty null space (affine
    through two points, constant through one); the result is flagged.  Zero
    survivors raise :class:`DecodeFailure`.
    """
    # one fit and its own evaluation, so that a profile (bench/spans.py)
    # sees the decode's spline.fit and SplineFit.evaluate calls
    indices, outputs = normalize_survivors(survivors, grid.n)
    dec = spline.fit(grid.betas[indices], outputs, lambda_d)
    estimates = dec.evaluate(grid.alphas)
    return DecodeResult(
        estimates=estimates,
        decoder_fit=dec,
        survivor_count=indices.size,
        degraded=dec.degenerate,
    )


def decode_lambdas(survivors, grid: InterpolationGrid, lambdas) -> list[DecodeResult]:
    """:func:`decode` of the same survivors at each weight of ``lambdas``, in order.

    The survivors are normalized once (a duplicate index warns once per
    call), the fits share one basis, and one set of evaluation weights
    takes the stacked fits to the alphas.
    """
    indices, outputs = normalize_survivors(survivors, grid.n)
    knots = grid.betas[indices]
    fits = spline.fit_lambdas(knots, outputs, lambdas)
    estimates = spline.evaluation_weights(knots, grid.alphas).apply(
        np.stack([dec.coefficients for dec in fits]),
        np.stack([dec.second_derivs for dec in fits]))
    return [DecodeResult(estimates=est, decoder_fit=dec, survivor_count=indices.size,
                         degraded=dec.degenerate)
            for est, dec in zip(estimates, fits)]
