"""Encoder and decoder layers of the spline-based coded-computing pipeline.

Encoding fits a vector-valued smoothing spline through ``(alpha_k, x_k)``
and evaluates it at the worker points ``beta_n``; every coded vector is a
weighted combination of all inputs.  Decoding fits a smoothing spline
through the surviving ``(beta_v, output_v)`` pairs and evaluates it at the
``alpha_k`` to estimate ``f(x_k)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Dataset:
    """K input vectors of dimension d, stored as a (K, d) array."""

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


@dataclass(frozen=True)
class CodedBatch:
    """The N coded vectors dispatched to workers, plus the fitted encoder."""

    coded: np.ndarray
    encoder_fit: object
    grid: InterpolationGrid

    @property
    def n(self) -> int:
        return self.coded.shape[0]


@dataclass(frozen=True)
class DecodeResult:
    """Estimates of f at the K inputs, plus the fitted decoder."""

    estimates: np.ndarray
    decoder_fit: object
    survivor_count: int
    degraded: bool = False


def encode(data: Dataset, grid: InterpolationGrid, lambda_e: float) -> CodedBatch:
    """Fit the encoder spline through (alphas, inputs) and evaluate at betas.

    With ``lambda_e = 0`` the encoder interpolates the inputs exactly, so
    its training error vanishes.
    """
    if data.k != grid.k:
        raise ValueError(f"dataset has {data.k} rows but grid has {grid.k} alphas")
    enc = spline.fit(grid.alphas, data.inputs, lambda_e)
    coded = enc.evaluate(grid.betas)
    return CodedBatch(coded=coded, encoder_fit=enc, grid=grid)


def encoder_training_error(batch: CodedBatch, data: Dataset) -> float:
    """Mean squared encoder residual, (1/K) sum_k ||u_enc(alpha_k) - x_k||^2."""
    fitted = batch.encoder_fit.evaluate(batch.grid.alphas)
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
    if not np.all(np.isfinite(outputs)):
        raise ValueError("survivor outputs contain non-finite values")
    return unique.astype(int), outputs


def decode(survivors, grid: InterpolationGrid, lambda_d: float) -> DecodeResult:
    """Fit the decoder spline through surviving (beta, output) pairs.

    Fewer than three survivors degrade to the penalty null space (affine
    through two points, constant through one); the result is flagged.  Zero
    survivors raise :class:`DecodeFailure`.
    """
    indices, outputs = normalize_survivors(survivors, grid.n)
    dec = spline.fit(grid.betas[indices], outputs, lambda_d)
    estimates = dec.evaluate(grid.alphas)
    return DecodeResult(
        estimates=estimates,
        decoder_fit=dec,
        survivor_count=indices.size,
        degraded=dec.degenerate,
    )
