"""Interpolation grids on [-1, 1], their mesh statistics, and the input rules.

The pipeline fixes two ordered point sets inside the unit interval: the
encoder points ``alphas`` (one per input vector) and the worker points
``betas`` (one per worker).  Chebyshev points of the first and second kind
are the defaults; both generators return ascending arrays so downstream
spline code can assume sorted knots.

The module also owns the rules for input from outside: every count or
index passes :func:`_integral_indices` (:func:`_integer` for one), each
caller keeping its own minimum; every real parameter (a smoothing weight,
a noise level, a scale or ratio) passes :func:`_real`; every point set
:func:`_check_points`; every query of a fitted interpolant's ``evaluate``
:func:`_query`; every seed entry :func:`_seed`, the integer rule without
its int64 limit; every name :func:`_string`; and every list of names,
counts or reals :func:`_items`, each item by its own rule.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
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
    decoder bases per degree and output width.  Its points are read-only
    copies, so those maps cannot go stale.  Grids compare by identity,
    like the maps.
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


# 2**-1023, the largest gap h for which 1/h + 1/h overflows: above it a
# spline's 1/h weights and the sums of two neighbours' are finite
_MIN_GAP = 2.0 / np.finfo(float).max


def _check_points(name: str, pts: np.ndarray, minimum: int = 1, domain=None) -> None:
    """Check the point set ``pts``, named ``name``.

    It is one-dimensional, with ``minimum`` points or more, finite,
    strictly increasing with no gap of ``_MIN_GAP`` or less, where a
    spline's 1/h weights overflow, and, given a ``domain`` (lo, hi),
    inside it.
    """
    if pts.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if pts.size < minimum:
        raise ValueError(f"{name} needs at least {minimum} points, got {pts.size}")
    if np.count_nonzero(np.isfinite(pts)) < pts.size:  # a third of the cost of .all()
        raise ValueError(f"{name} contains non-finite values")
    # exact near _MIN_GAP and 0 only between equal points; a gap past the
    # largest float is inf, wide enough, with numpy's overflow warning
    gaps = pts[1:] - pts[:-1]
    if np.count_nonzero(gaps <= _MIN_GAP):
        if np.count_nonzero(gaps <= 0.0):
            raise ValueError(f"{name} must be strictly increasing")
        raise ValueError(f"{name} has a gap of at most {_MIN_GAP:.3g}, where 1/gap weights "
                         "overflow")
    if domain is not None and not (domain[0] <= pts.min() and pts.max() <= domain[1]):
        raise ValueError(f"{name} must lie within [{domain[0]}, {domain[1]}]")


def _query(query) -> np.ndarray:
    """The points of ``query``, a scalar or a 1-D array, as a 1-D float array.

    A scalar is one point.  Any other shape, or a non-finite point, raises
    ``ValueError`` naming the query.
    """
    x = np.atleast_1d(np.asarray(query, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"query must be a scalar or a 1-D array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("query contains non-finite values")
    return x


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


def _string(value, what: str) -> str:
    """One name from outside, ``value`` named ``what``: a str, never a number or a list."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _items(values, what: str, rule) -> tuple:
    """A list from outside, ``values`` named ``what``, as a tuple of its items by ``rule``.

    A sequence or a one-dimensional array; never a string, whose characters
    would be read as items, or a number.  Each item passes ``rule(item, what)``.
    """
    if (isinstance(values, (str, bytes))
            or not (isinstance(values, Sequence)
                    or isinstance(values, np.ndarray) and values.ndim == 1)):
        raise ValueError(f"{what} must be a list, got {values!r}")
    return tuple(rule(value, what) for value in values)
