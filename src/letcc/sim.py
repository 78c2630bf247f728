"""Monte-Carlo harness: stragglers, worker noise, trials, and metrics.

A trial runs in two halves, and the harness runs both on chunks of
trials held as stacked arrays.  The first half, independent of the
decoder weight lambda_d, draws the data, encodes, samples the stragglers
and runs the workers; :func:`monte_carlo_lambdas` prepares all trials of
a call together, in as few chunks as a bound on their values allows,
of even sizes.  Each trial draws on its own streams: a chunk takes its
trials' random draws, stacked, from :mod:`letcc.streams`.  Given or
``identity`` inputs are one set for the whole chunk, encoded and run
through f once, and its truth, through-encoder values and l_enc are
broadcast to every trial.  A worker function not declared
elementwise is called once on each of a trial's row sets and never on
the rows of several trials; an elementwise one runs once per row set of
the chunk.  Everything else runs once per chunk: the encode (one stacked
product through the grid's cached encoder), the straggler mask, the
survivor gather, the noise's scaling and add, the finiteness check of
survivor outputs, truth and through-encoder values, and l_enc.  A chunk
is (T, N - S) survivor indices, (T, N - S, m) outputs, (T, K, m) truth
and, for letcc, (T, K, m) through-encoder values and (T,) l_enc.  The
second half decodes and scores: those arrays
go straight into each scheme's decode body (``coding._decode_stack``,
letcc's, at every weight of the call; ``baselines._bacc_decode_stack``
and ``_lcc_decode_stack`` at none), which gives (L, T, K, m) estimates
at the call's L weights, and the whole stack is scored at once into
(L, T) metric arrays.  After the last chunk a call joins each chunk's
arrays once, reads every weight's :class:`TrialColumns` off the joined
rows, and reduces every weight's rows into its :class:`MonteCarloResult`
in one pass, the one aggregation path that :func:`aggregate` takes too:
no per-trial object is built between a decode body and the aggregate.
The public one-trial :func:`sample_stragglers` and :func:`apply_workers`
take one trial's draw as its stream's row returns it to a chunk, and
:func:`run_trial` is a chunk of one at one weight, decoded as any chunk
(letcc's through one :func:`letcc.coding.decode` call), its
:class:`TrialMetrics` the one row of its columns.
:func:`monte_carlo` is the call at the setup's own lambda_d.  Every step
does the same arithmetic on a trial's values alone as in any batch, so a
trial's metrics are bit-identical whether it runs through
:func:`run_trial` or inside any Monte-Carlo call, at any weights.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from itertools import chain
from math import sqrt
from typing import Callable, Iterator, Sequence

import numpy as np

from . import baselines, coding, streams
from .coding import CodedBatch, Dataset
from .points import InterpolationGrid, _choice, _integer, _integral_indices, _real

__all__ = [
    "RiskBoundViolation",
    "StragglerModel",
    "NoiseModel",
    "WorkerFunction",
    "WorkerReturns",
    "TrialMetrics",
    "TrialColumns",
    "TrialSetup",
    "MonteCarloResult",
    "sample_stragglers",
    "apply_workers",
    "run_trial",
    "monte_carlo",
    "monte_carlo_lambdas",
    "aggregate",
    "relacc",
    "make_worker",
    "WORKER_FUNCTIONS",
    "SCHEMES",
    "DATA_RULES",
]

SCHEMES = ("letcc", "bacc", "lcc")
DATA_RULES = ("uniform", "identity")

# Values per trial and decoder weight (N x input dimension coded values;
# N x max(input dimension, K) for bacc, whose batched decode holds (K, N)
# barycentric weights; N x max(input dimension, deg + 1 + output dimension)
# for lcc, whose batched decode factors each trial's augmented Chebyshev
# Vandermonde) prepared and decoded together at most, unless one trial
# alone has more: bounds the memory of a batch.
_CHUNK_VALUES = 2**16


class RiskBoundViolation(ArithmeticError):
    """A letcc trial's risk exceeds its l_dec + l_enc bound.

    The bound holds for every trial in exact arithmetic, so this signals a
    numerical fault, never a property of the data.
    """


@dataclass(frozen=True)
class StragglerModel:
    """Straggler draw for N workers: at most (exactly) S fail per trial.

    Without ``fixed_stragglers`` a trial samples exactly S stragglers
    uniformly over all C(N, S) subsets.  With them, every trial erases
    that declared index set, exactly S distinct indices, which pairs
    schemes against identical failure patterns.  N, S and these indices
    are integers, or integral floats kept as ints, never booleans, and S
    and the indices lie in [0, N): :func:`letcc.points._integral_indices`.
    """

    n: int
    s: int
    fixed_stragglers: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "StragglerModel n"))
        object.__setattr__(self, "s", _integer(self.s, "StragglerModel s", self.n))
        if self.fixed_stragglers is not None:
            idx = tuple(sorted(_integral_indices(self.fixed_stragglers,
                                                 "straggler index", self.n).tolist()))
            if len(set(idx)) != len(idx):
                raise ValueError("fixed_stragglers contains duplicates")
            if len(idx) != self.s:
                raise ValueError("fixed_stragglers size must equal S")
            object.__setattr__(self, "fixed_stragglers", idx)


def sample_stragglers(model: StragglerModel, rng: np.random.Generator | None) -> np.ndarray:
    """Sorted survivor indices for one trial.

    Without fixed stragglers they are drawn on ``rng``, which must be
    given: the stragglers row of :data:`letcc.streams._STREAMS` returns
    them, as for a trial of the harness's chunk.  With them, where ``rng``
    may be None, they are the survivors a chunk stacks for every trial.
    """
    if model.fixed_stragglers is not None:
        return streams._survivors(model.n, np.array([model.fixed_stragglers], dtype=int))[0]
    if rng is None:
        raise ValueError("uniform stragglers need an rng to draw them")
    return streams._STREAMS[streams._STRAGGLERS].trial(rng, model.n, model.s)


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean i.i.d. Gaussian noise per worker per output coordinate.

    ``sigma0`` is kept as a float, checked by :func:`letcc.points._real`.
    """

    sigma0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sigma0", _real(self.sigma0, "sigma0"))


@dataclass(frozen=True)
class WorkerFunction:
    """The computing function applied by every worker.

    ``fn`` maps a (q, d) batch to (q, m) outputs, one row per worker, and
    must be row-wise pure: row i of the output depends on row i of the
    input alone, and equal inputs give equal outputs.  The harness calls
    it on each trial's surviving coded rows, on its inputs and, for letcc,
    on the encoder's values at the alphas.  A function declared
    ``elementwise`` gives every value the same bits whatever the other
    rows of the call and their number, as a numpy ufunc applied value by
    value does: the harness calls it once on the stacked rows of all
    trials of a chunk.  Any other is called once per trial and never on
    the rows of several trials together: a BLAS product such as
    tanh_net's can round a row differently with the number of rows in the
    call, which would make a trial's bits depend on its batch.  The
    optional ``lipschitz`` bound is declared over [-2, 2]; ``degree`` is
    the polynomial degree used by the Lagrange baseline.  A 1-D result is
    read as :func:`letcc.coding._rows` reads outputs: q values of one
    column, or the one row's m values if q is 1.
    The dimensions ``in_dim`` (d) and ``out_dim`` (m) are counts of at
    least 1, by :func:`letcc.points._integer`.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int
    lipschitz: float | None = None
    degree: int | None = None
    elementwise: bool = False

    def __post_init__(self):
        for name in ("in_dim", "out_dim"):
            dim = _integer(getattr(self, name), name)
            if dim < 1:
                raise ValueError(f"{name} must be >= 1, got {dim}")
            object.__setattr__(self, name, dim)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            x = np.atleast_2d(x)
        if x.shape[1] != self.in_dim:
            raise ValueError(f"{self.name} expects inputs of dim {self.in_dim}, got {x.shape[1]}")
        out = np.asarray(self.fn(x), dtype=float)
        if out.ndim != 2:
            out = coding._rows(out, x.shape[0], f"{self.name} inputs")
        if out.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"{self.name} returned shape {out.shape}, "
                             f"expected {(x.shape[0], self.out_dim)}")
        return out


def _affine() -> WorkerFunction:
    # in both penalty null spaces: the pipeline recovers it exactly
    return WorkerFunction("affine", lambda x: 2.0 * x - 0.5, 1, 1,
                          lipschitz=2.0, degree=1, elementwise=True)


def _sin_pi() -> WorkerFunction:
    return WorkerFunction("sin_pi", lambda x: np.sin(np.pi * x), 1, 1,
                          lipschitz=np.pi, elementwise=True)


def _cubic() -> WorkerFunction:
    # |3x^2| <= 12 on [-2, 2].  Cubed by multiplication: correctly rounded
    # and exactly odd, where numpy's power takes a slow scalar path for
    # negative bases and its bits follow the CPU dispatch
    return WorkerFunction("cubic", lambda x: x * x * x, 1, 1,
                          lipschitz=12.0, degree=3, elementwise=True)


def _softplus() -> WorkerFunction:
    return WorkerFunction("softplus", lambda x: np.logaddexp(0.0, x), 1, 1,
                          lipschitz=1.0, elementwise=True)


def _tanh_net(d: int = 4, m: int = 3) -> WorkerFunction:
    """Fixed-weight 2-layer tanh network of 16 hidden units, softmax head over m >= 2 classes."""
    if d < 1:
        raise ValueError(f"tanh_net needs d >= 1 inputs, got d={d}")
    if m < 2:
        # a softmax over one class is the constant 1
        raise ValueError(f"tanh_net needs m >= 2 outputs, got m={m}")
    hidden = 16
    rng = np.random.default_rng([9141, d, m, hidden])
    w1 = rng.normal(0.0, 1.0 / sqrt(d), (d, hidden))
    b1 = rng.normal(0.0, 0.1, hidden)
    w2 = rng.normal(0.0, 1.0 / sqrt(hidden), (hidden, m))
    b2 = rng.normal(0.0, 0.1, m)

    def fn(x):
        z = np.tanh(x @ w1 + b1) @ w2 + b2
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    # softmax Jacobian has spectral norm <= 1/2, tanh is 1-Lipschitz
    q = 0.5 * np.linalg.norm(w1, 2) * np.linalg.norm(w2, 2)
    return WorkerFunction(f"tanh_net_{d}_{m}", fn, d, m, lipschitz=float(q))


_CONSTRUCTORS = {
    "affine": _affine,
    "sin_pi": _sin_pi,
    "cubic": _cubic,
    "softplus": _softplus,
    "tanh_net": _tanh_net,
}
WORKER_FUNCTIONS = tuple(_CONSTRUCTORS)


# the name rules, each called with a name and what to call it in errors
_worker_name = partial(_choice, choices=WORKER_FUNCTIONS, kind="worker function")
_scheme = partial(_choice, choices=SCHEMES, kind="scheme")
_data_rule = partial(_choice, choices=DATA_RULES, kind="data rule")


def make_worker(name: str, d: int | None = None, m: int | None = None) -> WorkerFunction:
    """The built-in worker ``name``, one of :data:`WORKER_FUNCTIONS`, named ``f`` in errors.

    A given ``d`` or ``m`` is an integer for every worker; they size tanh_net only.
    """
    dims = {key: _integer(dim, key) for key, dim in (("d", d), ("m", m)) if dim is not None}
    build = _CONSTRUCTORS[_worker_name(name, "f")]
    return build(**dims) if build is _tanh_net else build()


@dataclass(frozen=True, eq=False)
class WorkerReturns:
    """Survivor indices plus their (possibly noisy) outputs."""

    indices: np.ndarray
    outputs: np.ndarray


def apply_workers(func: WorkerFunction, batch: CodedBatch, noise: NoiseModel,
                  survivors: np.ndarray, rng: np.random.Generator | None) -> WorkerReturns:
    """Evaluate f on the surviving coded points and add worker noise.

    The survivors are checked by :func:`letcc.points._integral_indices`,
    in [0, N).  ``rng`` draws the noise, the normals the noise row of
    :data:`letcc.streams._STREAMS` returns, as for a trial of the harness's
    chunk workers; it must be given when ``noise.sigma0`` is above 0.
    """
    survivors = _integral_indices(survivors, "survivor index", batch.n)
    normals = None
    if noise.sigma0 > 0:
        if rng is None:
            raise ValueError("sigma0 > 0 needs an rng to draw the worker noise")
        normals = streams._STREAMS[streams._NOISE].trial(rng, survivors.size, func.out_dim)[None]
    outputs = _worker_stack(func, batch.coded, survivors[None], noise.sigma0, normals)[0]
    return WorkerReturns(indices=survivors, outputs=outputs)


def _worker_stack(func: WorkerFunction, coded: np.ndarray, indices: np.ndarray,
                  sigma0: float, normals: np.ndarray | None) -> np.ndarray:
    """Worker outputs (T, v, m) of T trials at their survivors, with noise.

    ``coded`` (T, N, d) holds each trial's coded rows, or (N, d) the rows
    all trials share, and ``indices`` (T, v) the trials' checked survivors.
    The rows of all trials are gathered at once and f runs on them by
    :func:`_evaluate_stack`.  ``normals`` (T, v, m) are the trials' standard
    normals, None when ``sigma0`` is 0; they are scaled into a new array,
    never written.
    """
    if coded.ndim == 2:  # the rows all trials share
        rows = coded[indices]
    else:
        rows = coded[np.arange(len(indices))[:, None], indices]
    outputs = _evaluate_stack(func, rows)
    if normals is not None:
        # what normal(0.0, sigma0, (v, m)) draws: 0.0 + sigma0 * z for each z
        noise = normals * sigma0
        noise += 0.0
        outputs += noise
    return outputs


def _evaluate_stack(func: WorkerFunction, rows: np.ndarray) -> np.ndarray:
    """f at the (T, q, d) rows of T trials, (T, q, m), or at one (q, d) row set, (q, m).

    An elementwise f runs once on all T * q rows, any other once per
    trial on exactly that trial's rows (see :class:`WorkerFunction`).
    """
    if rows.ndim == 2:
        return func.evaluate(rows)
    if func.elementwise:
        trials, count = rows.shape[:2]
        return func.evaluate(rows.reshape(trials * count, -1)).reshape(trials, count, -1)
    return np.array([func.evaluate(trial_rows) for trial_rows in rows])


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial metrics of one pipeline execution.

    ``empirical_risk`` is (1/K) sum_k ||fhat(x_k) - f(x_k)||^2 and ``rmse``
    its square root.  For the spline scheme, ``l_dec`` and ``l_enc`` are the
    two terms of the decomposition

        risk <= (2/K) sum ||u_dec(a_k) - f(u_enc(a_k))||^2   (l_dec)
              + (2/K) sum ||f(u_enc(a_k)) - f(x_k)||^2        (l_enc),

    which holds per trial; baselines report them as None.  ``relacc`` is
    the argmax agreement fraction, defined only for out_dim >= 2.
    """

    scheme: str
    empirical_risk: float
    l_dec: float | None
    l_enc: float | None
    rmse: float
    relacc: float | None
    survivor_count: int
    degraded: bool
    seed: tuple[int, ...]


@dataclass(frozen=True)
class TrialColumns:
    """The :class:`TrialMetrics` of a run of trials as columns, entry t for trial t.

    Every field but ``scheme`` is a tuple of Python values, one per trial,
    or None where the metric is None for every trial (``l_dec`` and
    ``l_enc`` of the baselines, ``relacc`` of 1-D outputs); ``==``
    compares every value.
    """

    scheme: str
    empirical_risk: tuple[float, ...]
    l_dec: tuple[float, ...] | None
    l_enc: tuple[float, ...] | None
    rmse: tuple[float, ...]
    relacc: tuple[float, ...] | None
    survivor_count: tuple[int, ...]
    degraded: tuple[bool, ...]
    seed: tuple[tuple[int, ...], ...]

    def rows(self) -> tuple[TrialMetrics, ...]:
        """Trial t's :class:`TrialMetrics` at index t, built on each call."""
        absent = (None,) * len(self.seed)
        return tuple(TrialMetrics(self.scheme, *row)
                     for row in zip(*(getattr(self, name) or absent for name in _COLUMNS)))


# the metrics of a trial, in the field order of both views
_COLUMNS = [f.name for f in fields(TrialMetrics) if f.name != "scheme"]


class _DeclaredDegree(int):
    """An lcc degree taken from the worker, which ``dataclasses.replace`` resolves again."""


@dataclass(frozen=True)
class TrialSetup:
    """Everything but the seed needed to run one trial.

    Every field is checked on construction; ``lambda_e`` and ``lambda_d``
    are kept as floats, checked by :func:`letcc.points._real`, and the
    names ``scheme`` and ``data_rule`` (``data`` in errors) are one of
    :data:`SCHEMES` and of :data:`DATA_RULES`, by :func:`letcc.points._choice`.
    ``f_degree``, given or, for lcc without one, the worker's declared
    degree, is resolved into that field once, here, as a nonnegative
    integer (``dataclasses.replace`` resolves it again).
    """

    scheme: str
    func: WorkerFunction
    grid: InterpolationGrid
    stragglers: StragglerModel
    noise: NoiseModel
    lambda_e: float = 0.0
    lambda_d: float = 0.0
    f_degree: int | None = None
    data: Dataset | None = None
    data_rule: str = "uniform"

    def __post_init__(self):
        _scheme(self.scheme, "scheme")
        if self.stragglers.n != self.grid.n:
            raise ValueError("straggler model N must match grid worker count")
        if self.data is not None:
            coding._check_rows(self.data, self.grid)
        if (_data_rule(self.data_rule, "data") == "identity" and self.data is None
                and self.func.in_dim != 1):
            raise ValueError("identity data rule requires a 1-D worker function")
        degree = None if type(self.f_degree) is _DeclaredDegree else self.f_degree
        if degree is not None:
            degree = baselines._nonnegative(degree, "f_degree")
        elif self.scheme == "lcc":
            if self.func.degree is None:
                raise ValueError("lcc needs a declared polynomial degree")
            degree = _DeclaredDegree(baselines._nonnegative(self.func.degree, "f_degree"))
        object.__setattr__(self, "f_degree", degree)
        object.__setattr__(self, "lambda_e", _real(self.lambda_e, "lambda_e"))
        object.__setattr__(self, "lambda_d", _real(self.lambda_d, "lambda_d"))


@dataclass(frozen=True, eq=False)
class _Chunk:
    """The lambda_d-independent half of T trials, everything up to decode, as stacks.

    ``indices`` (T, v) are each trial's sorted survivor indices and
    ``outputs`` (T, v, m) their noisy worker outputs; ``truth`` (T, K, m)
    is f at each trial's inputs.  For letcc, ``through_encoder`` (T, K, m)
    is f at the encoder's values at the alphas and ``l_enc`` (T,) the
    encoder term of each trial's risk bound; both are None for the
    baselines.  For given or identity inputs the three are read-only
    broadcasts of the one input set's.  All values are finite.
    """

    seeds: list[tuple[int, ...]]
    indices: np.ndarray
    outputs: np.ndarray
    truth: np.ndarray
    through_encoder: np.ndarray | None
    l_enc: np.ndarray | None


def _prepare(setup: TrialSetup, seeds, weights: int = 1) -> Iterator[_Chunk]:
    """The prepared trials of ``seeds``, in order, one :class:`_Chunk` at a time.

    A chunk holds at most ``_CHUNK_VALUES`` values of N x d per trial and
    each of the ``weights`` it is decoded at (N x max(d, K) for bacc, whose
    decode weights are K x N, and N x max(d, deg + 1 + m) for lcc, whose
    decode factors the survivors' augmented Vandermonde), or one trial.
    The trials split into as few chunks as that bound allows, whose sizes
    differ by at most one, the larger first: T trials at a bound of b make
    ceil(T / b) chunks, and no runt chunk of a few trials pays a chunk's
    fixed costs or falls below ``letcc.streams._VECTOR_DRAWS`` on its own.
    A chunk's random draws come from :func:`letcc.streams._chunk_draws`,
    read-only: drawn, or sliced from the memo of the chunk drawn last when
    that one, of another scheme or call, ran on the same seeds and drew the
    same streams.  The ``fixed`` survivors of :func:`sample_stragglers` are
    stacked here, one copy per trial.  The chunk encodes its trials' inputs
    in one product through the grid's cached encoder, gathers the
    survivors' rows, adds the noise, sigma0 times the normals plus 0.0
    (what ``normal(0.0, sigma0)`` computes), and checks every value of all
    its trials at once.  f runs by :func:`_evaluate_stack` on each row set:
    survivors, inputs and, for letcc, the encoder's values at the alphas.
    Given or ``identity`` inputs are one set for every trial: it is
    encoded once, f runs once on its inputs and encoder values, l_enc is
    computed once, and the chunk holds read-only broadcasts of them, one
    per trial, with the bits of each trial's own (a worker function gives
    equal outputs for equal rows); the survivor gather and the noise stay
    per trial.  A non-finite value raises
    ``ValueError`` naming which of the three it is.  Each seed is a tuple of
    ints, as :func:`letcc.streams._entropy` gives it.
    """
    grid, func = setup.grid, setup.func
    width = func.in_dim
    if setup.scheme == "bacc":
        width = max(width, grid.k)
    elif setup.scheme == "lcc":
        columns = baselines.LagrangeCodec(grid.k, setup.f_degree).target_degree + 1
        width = max(width, min(columns, grid.n) + func.out_dim)
    size = max(1, _CHUNK_VALUES // (grid.n * width * weights))
    count, start = -(-len(seeds) // size), 0  # as few chunks as the bound allows
    for c in range(count):
        trials = -(-(len(seeds) - start) // (count - c))  # sizes within one, larger first
        chunk = seeds[start:start + trials]
        start += trials
        draws = streams._chunk_draws(setup, chunk)
        inputs = draws.get(streams._DATA)
        shared = inputs is None
        if shared:  # given or identity inputs: one (K, d) set for every trial
            inputs = grid.alphas[:, None] if setup.data is None else setup.data.inputs
        indices = draws.get(streams._STRAGGLERS)
        if indices is None:  # fixed stragglers: the same survivors in every trial
            indices = np.stack([sample_stragglers(setup.stragglers, None)] * trials)
        normals = draws.get(streams._NOISE)
        knot_values = None
        if setup.scheme == "letcc":
            coded, knot_data = coding._linear_encoder(grid, setup.lambda_e).apply(inputs)
            knot_values = knot_data[..., 0, :, :]
        else:
            coded = baselines._encoder(grid, setup.scheme).apply(inputs)
        outputs = _worker_stack(func, coded, indices, setup.noise.sigma0, normals)
        truth = _evaluate_stack(func, inputs)
        through = l_enc = None
        if knot_values is not None:
            # the encoder's values at the alphas, its knots
            through = _evaluate_stack(func, knot_values)
        for values, name in ((outputs, "survivor outputs"),
                             (truth, "truth values f(x_k)"),
                             (through, "through-encoder values f(u_enc(alpha_k))")):
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"{name} contain non-finite values")
        if through is not None:  # of checked values: inf - inf would warn
            l_enc = 2.0 * _mean_sq_dist(through, truth)
        if shared:  # the one set's values, read-only, for every trial
            truth, through, l_enc = (None if a is None
                                     else np.broadcast_to(a, (trials,) + np.shape(a))
                                     for a in (truth, through, l_enc))
        yield _Chunk(chunk, indices, outputs, truth, through, l_enc)


def _mean_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/K) sum_k ||a_k - b_k||^2 over the rows of (K, m) arrays.

    A stack (..., K, m) gives one distance per array of the stack, each
    reduced exactly as on its own.  ``np.add.reduce`` is the reduction of
    ``np.sum`` and ``np.mean`` without their per-call Python wrappers.
    """
    return np.add.reduce(np.add.reduce((a - b) ** 2, axis=-1), axis=-1) / a.shape[-2]


def _decode_chunk(setup: TrialSetup, chunk: _Chunk,
                  lambdas: tuple[float, ...]) -> tuple[np.ndarray, bool]:
    """The (L, T, K, m) estimates of a chunk's trials at each weight of ``lambdas``.

    Every scheme decodes the whole chunk in one batch, its stacked
    survivors going straight into the scheme's decode body; bacc and lcc
    take one weight, which they ignore.  Also gives whether the decodes
    are degraded, which the survivor count alone decides.
    """
    grid, indices, outputs = setup.grid, chunk.indices, chunk.outputs
    if setup.scheme == "letcc":
        estimates, _, degraded = coding._decode_stack(grid, indices, outputs, lambdas)
        return estimates, degraded
    if setup.scheme == "bacc":
        return baselines._bacc_decode_stack(grid, indices, outputs)[None], False
    estimates, _, degraded = baselines._lcc_decode_stack(grid, indices, outputs,
                                                         setup.f_degree)
    return estimates[None], degraded


def _score(setup: TrialSetup, chunk: _Chunk, estimates: np.ndarray, degraded: bool) -> tuple:
    """The metrics of ``chunk``'s trials at L weights, from their (L, T, K, m) ``estimates``.

    Gives (L, T) risks, l_dec terms and class agreements, then the trials'
    (T,) l_enc terms, and lists of their survivor counts, degraded flags
    and seeds: the fields of :class:`TrialColumns` but ``rmse``, which
    :func:`_results` takes from the risks; l_dec and l_enc are None but
    for a chunk with through-encoder values (letcc's), and the agreements
    None for 1-D outputs.  The distances, bounds and class agreement of
    every trial at every weight run once on the stack, each reduced as on
    its own.  The first weight with a trial whose risk is not finite or,
    with through-encoder values, exceeds its decomposition bound
    raises: ValueError naming the first trial of the first kind, else
    :class:`RiskBoundViolation` for the first of the second.
    """
    risks = _mean_sq_dist(estimates, chunk.truth)
    bad = ~np.isfinite(risks)
    failed = bad.any(axis=1)
    l_decs = agreement = None
    if chunk.through_encoder is not None:
        l_decs = 2.0 * _mean_sq_dist(estimates, chunk.through_encoder)
        bounds = l_decs + chunk.l_enc
        over = risks > bounds + 1e-9 * (1.0 + bounds)
        failed |= over.any(axis=1)
    if failed.any():
        j = np.flatnonzero(failed)[0]  # the first weight, as a loop over weights finds it
        if bad[j].any():
            t = np.flatnonzero(bad[j])[0]
            raise ValueError(f"{setup.scheme} trial with seed {chunk.seeds[t]} has "
                             f"non-finite risk {float(risks[j, t])}")
        t = np.flatnonzero(over[j])[0]
        raise RiskBoundViolation(
            f"risk decomposition violated: {float(risks[j, t])} > "
            f"{float(l_decs[j, t])} + {float(chunk.l_enc[t])}")
    if estimates.shape[-1] >= 2:  # relacc is defined for vector outputs only
        agreement = _agreement(estimates, chunk.truth)
    trials = len(chunk.seeds)
    return (risks, l_decs, chunk.l_enc, agreement,
            [chunk.indices.shape[1]] * trials, [degraded] * trials, chunk.seeds)


def _results(scheme: str, scores: Sequence[tuple]) -> list[MonteCarloResult]:
    """The :class:`MonteCarloResult` at each weight, from the :func:`_score` of each chunk.

    Each part of the chunks' scores is joined once, in trial order, and
    every weight's :class:`TrialColumns` is read off the joined (L, T)
    rows, which :func:`_aggregate` reduces together.
    """
    parts = list(zip(*scores))
    risks, l_decs, l_enc, agreement = (None if part[0] is None
                                       else np.concatenate(part, axis=-1)
                                       for part in parts[:4])
    per_trial = [tuple(chain.from_iterable(part)) for part in parts[4:]]
    rmses = np.sqrt(risks)
    l_enc = None if l_enc is None else tuple(l_enc.tolist())
    rows = [[None] * len(risks) if stack is None else [tuple(row) for row in stack.tolist()]
            for stack in (risks, l_decs, rmses, agreement)]
    columns = [TrialColumns(scheme, risk, l_dec, l_enc, rmse, relacc, *per_trial)
               for risk, l_dec, rmse, relacc in zip(*rows)]
    return _aggregate(columns, risks, rmses, agreement)


def run_trial(setup: TrialSetup, seed) -> TrialMetrics:
    """Run the full encode/compute/decode pipeline once.

    ``seed`` (int or tuple of ints, by :func:`letcc.streams._entropy`)
    fully determines the trial: identical seeds give bit-identical
    metrics.  The trial is a chunk of one, decoded as any chunk is, but
    a letcc trial through one :func:`letcc.coding.decode` call, whose
    survivors expose ``indices`` and ``outputs``.
    """
    chunk, = _prepare(setup, [streams._entropy(seed)])
    if setup.scheme == "letcc":
        # bench/workloads.py::_capture_decode records this call; ROADMAP item 3 removes it
        result = coding.decode(WorkerReturns(chunk.indices[0], chunk.outputs[0]),
                               setup.grid, setup.lambda_d)
        decoded = result.estimates[None, None], result.degraded
    else:
        decoded = _decode_chunk(setup, chunk, (setup.lambda_d,))
    return _results(setup.scheme, [_score(setup, chunk, *decoded)])[0].metrics[0]


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate over trials with a normal-approximation 95% interval.

    ``columns`` keeps every trial's metrics, one tuple per metric in trial
    order (:class:`TrialColumns`): ``empirical_risk``, ``l_dec``,
    ``l_enc``, ``rmse``, ``relacc``, ``survivor_count``, ``degraded`` and
    ``seed``.  ``metrics`` gives them as :class:`TrialMetrics` rows.
    """

    mean_mse: float
    std_mse: float
    ci95_lo: float
    ci95_hi: float
    mean_rmse: float
    mean_relacc: float | None
    trials: int
    degenerate_ci: bool
    columns: TrialColumns

    @property
    def metrics(self) -> tuple[TrialMetrics, ...]:
        """Trial t's metrics at index t, equal to its :func:`run_trial` bit for bit."""
        return self.columns.rows()


def aggregate(columns: TrialColumns) -> MonteCarloResult:
    """Mean, spread and 95% interval of the trials in ``columns``, in their order."""
    rows = [columns.empirical_risk, columns.rmse]
    if columns.relacc is not None:
        rows.append(columns.relacc)
    return _aggregate([columns], *(np.array([row]) for row in rows))[0]


def _aggregate(columns: Sequence[TrialColumns], risks: np.ndarray, rmses: np.ndarray,
               agreement: np.ndarray | None = None) -> list[MonteCarloResult]:
    """The :func:`aggregate` of each of ``columns``, from their values as (L, T) rows.

    Row l of ``risks``, ``rmses`` and ``agreement`` holds the empirical
    risks, rmses and class agreements of ``columns[l]``; every row is
    reduced in one pass, each as on its own (a C-ordered row reduces as the
    1-D array of its values).
    """
    trials = risks.shape[1]
    if trials < 1:
        raise ValueError("need at least one trial")
    means = risks.mean(axis=1).tolist()
    # shifted by a sample, so identical trials give exactly zero spread even
    # when their mean rounds away from the common value
    stds = [0.0] * len(risks)
    if trials > 1:
        stds = (risks - risks[:, :1]).std(axis=1, ddof=1).tolist()
    mean_rmses = rmses.mean(axis=1).tolist()
    mean_relaccs = [None] * len(risks) if agreement is None else agreement.mean(axis=1).tolist()
    results = []
    for cols, mean, std, mean_rmse, mean_relacc in zip(columns, means, stds, mean_rmses,
                                                       mean_relaccs, strict=True):
        half = 1.96 * std / sqrt(trials)
        results.append(MonteCarloResult(
            mean_mse=mean,
            std_mse=std,
            ci95_lo=mean - half,
            ci95_hi=mean + half,
            mean_rmse=mean_rmse,
            mean_relacc=mean_relacc,
            trials=trials,
            degenerate_ci=trials == 1,
            columns=cols,
        ))
    return results


def monte_carlo(setup: TrialSetup, trials: int, master_seed: int) -> MonteCarloResult:
    """Run ``trials`` seeded trials in order and aggregate them.

    Trial t uses seed (master_seed, t), and ``metrics[t]`` equals
    ``run_trial(setup, (master_seed, t))`` bit for bit.
    """
    return monte_carlo_lambdas(setup, trials, master_seed, (setup.lambda_d,))[0]


def monte_carlo_lambdas(setup: TrialSetup, trials: int, master_seed,
                        lambdas) -> list[MonteCarloResult]:
    """:func:`monte_carlo` of ``setup`` at each decoder weight of ``lambdas``, in order.

    Result j equals ``monte_carlo(dataclasses.replace(setup, lambda_d=lambdas[j]),
    trials, master_seed)`` bit for bit, but each trial is prepared once and
    each chunk of trials decoded at every weight together (see the module
    docstring).  bacc and lcc have no decoder weight and take exactly one.
    Every weight is checked by :func:`letcc.points._real`, named
    ``lambda_d``, and the seed by :func:`letcc.streams._entropy`, before
    any trial runs.
    """
    lams = tuple(lambdas)
    if not lams:
        raise ValueError("need at least one decoder weight")
    if len(lams) > 1 and setup.scheme != "letcc":
        raise ValueError(f"{setup.scheme} has no decoder weight; "
                         f"give one lambda_d, not {len(lams)}")
    lams = tuple(_real(lam, "lambda_d") for lam in lams)
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    entropy = streams._entropy(master_seed)
    return _results(setup.scheme, [
        _score(setup, chunk, *_decode_chunk(setup, chunk, lams))
        for chunk in _prepare(setup, [entropy + (t,) for t in range(trials)], len(lams))])


def relacc(estimates: np.ndarray, truth: np.ndarray) -> float | None:
    """Fraction of rows whose argmax class agrees; None for 1-D outputs.

    Ties resolve toward the lowest index on both sides.
    """
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if estimates.shape != truth.shape:
        raise ValueError("estimates and truth must have matching shapes")
    if estimates.shape[1] < 2:
        return None
    return float(_agreement(estimates, truth))


def _agreement(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Argmax agreement fraction of (K, m) arrays, one per array of a (..., K, m) stack."""
    return np.mean(estimates.argmax(axis=-1) == truth.argmax(axis=-1), axis=-1)
