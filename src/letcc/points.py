"""Interpolation grids on [-1, 1] and their mesh statistics.

The pipeline fixes two ordered point sets inside the unit interval: the
encoder points ``alphas`` (one per input vector) and the worker points
``betas`` (one per worker).  Chebyshev points of the first and second kind
are the defaults; both generators return ascending arrays so downstream
spline code can assume sorted knots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InterpolationGrid",
    "MeshStats",
    "chebyshev_first",
    "chebyshev_second",
    "chebyshev_grid",
    "mesh_stats",
]


def chebyshev_first(k: int) -> np.ndarray:
    """Chebyshev points of the first kind, cos((2i-1)*pi/(2k)), ascending.

    Computed through ``sin`` of a signed argument so the set is exactly
    symmetric about 0 (odd ``k`` contains an exact 0.0).  The points lie
    strictly inside (-1, 1).
    """
    if k < 1:
        raise ValueError(f"need at least one point, got k={k}")
    i = np.arange(1, k + 1)
    return np.sin(np.pi * (2 * i - 1 - k) / (2 * k))


def chebyshev_second(n: int) -> np.ndarray:
    """Chebyshev points of the second kind, cos((i-1)*pi/(n-1)), ascending.

    Includes both endpoints -1 and 1 exactly.  Same symmetric-``sin``
    evaluation as :func:`chebyshev_first`.
    """
    if n < 3:
        raise ValueError(f"need at least three points, got n={n}")
    i = np.arange(n)
    return np.sin(np.pi * (2 * i - (n - 1)) / (2 * (n - 1)))


@dataclass(frozen=True, eq=False)
class InterpolationGrid:
    """Encoder points ``alphas`` (K of them) and worker points ``betas`` (N).

    Both arrays must be strictly increasing and confined to [-1, 1].  The
    worker grid may include the endpoints (the second-kind Chebyshev grid
    does); the spline machinery is well defined on the closed interval.

    A grid also holds the maps built on it (:meth:`_cached`): encoders per
    scheme and smoothing weight (see :mod:`letcc.coding`) and Lagrange
    decoder bases per degree.  Its points are read-only copies, so those
    maps cannot go stale.  Grids compare by identity, like the maps.
    """

    alphas: np.ndarray
    betas: np.ndarray
    _encoders: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=float, ndmin=1)
        betas = np.array(self.betas, dtype=float, ndmin=1)
        alphas.flags.writeable = betas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        _check_points("alphas", alphas, minimum=1)
        _check_points("betas", betas, minimum=3)

    def _cached(self, key, build):
        """The map kept under ``key``, built by ``build()`` on first use."""
        value = self._encoders.get(key)
        if value is None:
            value = self._encoders[key] = build()
        return value

    @property
    def k(self) -> int:
        return self.alphas.size

    @property
    def n(self) -> int:
        return self.betas.size


def chebyshev_grid(k: int, n: int) -> InterpolationGrid:
    """Standard grid: first-kind alphas, second-kind betas."""
    return InterpolationGrid(chebyshev_first(k), chebyshev_second(n))


@dataclass(frozen=True)
class MeshStats:
    """Largest and smallest consecutive gaps of a point set in (-1, 1).

    ``delta_max`` includes the two boundary gaps (the set is padded with
    -1 on the left and 1 on the right); ``delta_min`` ranges over interior
    gaps only.
    """

    delta_max: float
    delta_min: float

    @property
    def ratio(self) -> float:
        return self.delta_max / self.delta_min


def mesh_stats(points, domain=(-1.0, 1.0)) -> MeshStats:
    """Mesh statistics of ascending ``points`` within ``domain``.

    Requires at least two points (otherwise there is no interior gap).
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    _check_points("points", pts, minimum=2, lo=domain[0], hi=domain[1])
    interior = np.diff(pts)
    padded = np.concatenate(([domain[0]], pts, [domain[1]]))
    return MeshStats(
        delta_max=float(np.diff(padded).max()),
        delta_min=float(interior.min()),
    )


def _check_points(name: str, pts: np.ndarray, minimum: int, lo=-1.0, hi=1.0) -> None:
    if pts.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if pts.size < minimum:
        raise ValueError(f"{name} needs at least {minimum} points, got {pts.size}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} contains non-finite values")
    if pts.size > 1 and not np.all(np.diff(pts) > 0):
        raise ValueError(f"{name} must be strictly increasing (duplicates rejected)")
    if pts[0] < lo or pts[-1] > hi:
        raise ValueError(f"{name} must lie within [{lo}, {hi}]")
