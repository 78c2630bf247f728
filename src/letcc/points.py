"""Interpolation grids on [-1, 1], their mesh statistics, and the input rules.

The pipeline fixes two ordered point sets inside the unit interval: the
encoder points ``alphas`` (one per input vector) and the worker points
``betas`` (one per worker).  Chebyshev points of the first and second kind
are the defaults; both generators return ascending arrays so downstream
spline code can assume sorted knots.

The module also owns the four rules for input from outside: every count
or index passes :func:`_integral_indices` (:func:`_integer` for one), each
caller keeping its own minimum; every real parameter (a smoothing weight,
a noise level, a scale or ratio) passes :func:`_real`; every point set
:func:`_check_points`; and every seed entry :func:`_seed`, the integer
rule without its int64 limit.
"""

from __future__ import annotations

import math
import numbers
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
    k = _integer(k, "k")
    if k < 1:
        raise ValueError(f"need at least one point, got k={k}")
    i = np.arange(1, k + 1)
    return np.sin(np.pi * (2 * i - 1 - k) / (2 * k))


def chebyshev_second(n: int) -> np.ndarray:
    """Chebyshev points of the second kind, cos((i-1)*pi/(n-1)), ascending.

    Includes both endpoints -1 and 1 exactly.  Same symmetric-``sin``
    evaluation as :func:`chebyshev_first`.
    """
    n = _integer(n, "n")
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
        _check_points("alphas", alphas, domain=(-1.0, 1.0))
        _check_points("betas", betas, minimum=3, domain=(-1.0, 1.0))

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
    _check_points("points", pts, minimum=2, domain=domain)
    interior = np.diff(pts)
    padded = np.concatenate(([domain[0]], pts, [domain[1]]))
    return MeshStats(
        delta_max=float(np.diff(padded).max()),
        delta_min=float(interior.min()),
    )


def _check_points(name: str, pts: np.ndarray, minimum: int = 1, domain=None,
                  stack: bool = False) -> None:
    """Check ``pts``, one point set or with ``stack`` a (T, n) stack, named ``name``.

    Each set has ``minimum`` points or more, finite, strictly increasing
    and, given a ``domain`` (lo, hi), inside it.
    """
    if pts.ndim not in ((1, 2) if stack else (1,)):
        raise ValueError(f"{name} must be one-dimensional"
                         + (", or a (T, n) stack of point sets" if stack else ""))
    if pts.shape[-1] < minimum:
        raise ValueError(f"{name} needs at least {minimum} points, got {pts.shape[-1]}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contains non-finite values")
    if not (pts[..., 1:] > pts[..., :-1]).all():
        raise ValueError(f"{name} must be strictly increasing")
    if domain is not None and not (domain[0] <= pts.min() and pts.max() <= domain[1]):
        raise ValueError(f"{name} must lie within [{domain[0]}, {domain[1]}]")


def _integral_indices(values, what: str, n: int | None = None) -> np.ndarray:
    """Integers from outside, ``values``, named ``what``, as a new int array.

    Each is an int or an integral float (not NaN or inf), never a boolean
    (a mask read as indices 0 and 1 picks the wrong workers) or a string.
    A list or tuple of ints and numpy signed integers that numpy reads as
    signed integers is read through one array; any other is read item by
    item by :func:`_integer`, exactly, as numpy reads ``[True, 2]`` as
    ``[1, 2]`` and a numpy uint64 among ints through float64.  An array
    must be one-dimensional.  Every value lies in [0, n) given ``n``, else
    in the int64 range.
    """
    indices = None
    if isinstance(values, (list, tuple)):
        if all(kind is int or issubclass(kind, np.signedinteger)
               for kind in set(map(type, values))):
            indices = np.array(values)
        if indices is None or indices.dtype.kind != "i":
            return np.array([_integer(v, what, n) for v in values], dtype=int)
    else:
        indices = np.asarray(values)
    if indices.ndim != 1:
        raise ValueError(f"{what} array must be one-dimensional, got shape {indices.shape}")
    if indices.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be an integer, got {indices.dtype} values")
    if indices.dtype.kind == "f":
        integral = np.isfinite(indices) & (np.floor(indices) == indices)
        if not integral.all():
            raise ValueError(f"{what} {indices[~integral][0]} is not an integer")
    if n is not None or indices.dtype.kind != "i":
        # checked before the cast, which wraps values beyond int64 around
        lo, hi = (0, n) if n is not None else (-2**63, 2**63)
        outside = (indices < lo) | (indices >= hi)
        if outside.any():
            raise _outside(what, indices[outside][0], n)
    return indices.astype(int)


def _integer(value, what: str, n: int | None = None) -> int:
    """One integer from outside as an int, by the rule of :func:`_integral_indices`."""
    exact = value
    if type(value) is not int:  # a plain int, the common case, needs no type check
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
        if isinstance(value, numbers.Integral):
            exact = int(value)
        elif float(value).is_integer():
            exact = float(value)
        else:
            raise ValueError(f"{what} {value} is not an integer")
    lo, hi = (0, n) if n is not None else (-2**63, 2**63)
    if not lo <= exact < hi:
        raise _outside(what, value, n)
    return int(exact)


def _outside(what: str, value, n: int | None) -> ValueError:
    """The refusal of ``value``, not in [0, n) given ``n``, else not in the int64 range."""
    bounds = f"[0, {n})" if n is not None else "the int64 range"
    return ValueError(f"{what} {value} outside {bounds}")


def _seed(value, what: str) -> int:
    """One seed entry from outside, ``value`` named ``what``, as an int.

    An integer that is not a boolean is taken whole, as numpy's seeding
    takes ints of any size; anything else takes the rule of
    :func:`_integer`.  Either is at least 0, as numpy's seeding needs.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        seed = int(value)
    else:
        seed = _integer(value, what)
    if seed < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {seed}")
    return seed


def _real(value, what: str) -> float:
    """One real parameter from outside, ``value`` named ``what``, as a float.

    It is an int or a float, numpy scalars included, finite and
    nonnegative; never a boolean (``True`` would run as 1.0), a string or
    None.
    """
    real = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int beyond every float
            pass
    if not (math.isfinite(real) and real >= 0):
        raise ValueError(f"{what} must be a finite nonnegative real, got {value!r}")
    return real
