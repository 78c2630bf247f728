"""Monte-Carlo harness: stragglers, worker noise, trials, and metrics.

Randomness is organized as counter-based streams: every trial derives its
generators from ``(master_seed, trial_index, stream_tag)``, so two schemes
given the same seeds see identical straggler sets, data draws, and noise.
A generator a trial does not use (noise at sigma0 = 0, stragglers in
``fixed`` mode, data when it is given or ``identity``) is never built.

A trial runs in two halves.  The first, independent of the decoder
weight lambda_d, draws the data, encodes, samples the stragglers and runs
the workers; :func:`monte_carlo` and the cross-validation of
:mod:`letcc.experiments` prepare all trials of a call together, in chunks
of a bounded number of coded values, and encode each chunk in one stacked
product through the grid's cached encoder.  The second half decodes and
scores one trial at a time; the cross-validation decodes a trial at its
whole lambda_d grid in one :func:`letcc.coding.decode_lambdas` call and
scores each weight's result.  Every step does the same arithmetic on a
trial's values alone as in any batch, so a trial's metrics are
bit-identical whether it runs through :func:`run_trial` or inside any
Monte-Carlo call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Iterator, Sequence

import numpy as np

from . import baselines, coding
from .coding import CodedBatch, Dataset
from .points import InterpolationGrid

__all__ = [
    "RiskBoundViolation",
    "StragglerModel",
    "NoiseModel",
    "WorkerFunction",
    "WorkerReturns",
    "TrialMetrics",
    "TrialSetup",
    "MonteCarloResult",
    "sample_stragglers",
    "apply_workers",
    "run_trial",
    "monte_carlo",
    "aggregate",
    "relacc",
    "make_worker",
    "worker_for",
    "WORKER_FUNCTIONS",
    "trial_rng",
    "SCHEMES",
]

SCHEMES = ("letcc", "bacc", "lcc")

# Stream tags for per-trial substreams (arbitrary but fixed).
_STREAM_STRAGGLERS = 101
_STREAM_NOISE = 202
_STREAM_DATA = 303

# Coded values (N x input dimension per trial) prepared together at most,
# unless one trial alone has more: bounds the memory of a batch.
_CHUNK_VALUES = 2**16


class RiskBoundViolation(ArithmeticError):
    """A letcc trial's risk exceeds its l_dec + l_enc bound.

    The bound holds for every trial in exact arithmetic, so this signals a
    numerical fault, never a property of the data.
    """


def trial_rng(seed, stream: int) -> np.random.Generator:
    """Generator for one substream of one trial.

    ``seed`` may be an int or a sequence of ints (e.g. (master, trial)).
    """
    return np.random.default_rng([*_entropy(seed), stream])


def _entropy(seed) -> tuple[int, ...]:
    """``seed``, an int or a sequence of ints, as a tuple of ints."""
    return tuple(int(s) for s in (seed if isinstance(seed, tuple) else np.atleast_1d(seed)))


@dataclass(frozen=True)
class StragglerModel:
    """Straggler draw for N workers: at most (exactly) S fail per trial.

    ``uniform`` samples exactly S stragglers uniformly over all C(N, S)
    subsets.  ``fixed`` erases the same declared index set every trial,
    which pairs schemes against identical failure patterns.
    """

    n: int
    s: int
    mode: str = "uniform"
    fixed_stragglers: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0 <= self.s < self.n:
            raise ValueError(f"need 0 <= S < N, got S={self.s}, N={self.n}")
        if self.mode not in ("uniform", "fixed"):
            raise ValueError(f"unknown straggler mode {self.mode!r}")
        if self.mode == "fixed":
            if self.fixed_stragglers is None:
                raise ValueError("fixed mode requires fixed_stragglers")
            idx = tuple(sorted(int(i) for i in self.fixed_stragglers))
            if len(set(idx)) != len(idx):
                raise ValueError("fixed_stragglers contains duplicates")
            if idx and (idx[0] < 0 or idx[-1] >= self.n):
                raise ValueError("fixed_stragglers outside worker range")
            if len(idx) != self.s:
                raise ValueError("fixed_stragglers size must equal S")
            object.__setattr__(self, "fixed_stragglers", idx)


def sample_stragglers(model: StragglerModel, rng: np.random.Generator | None) -> np.ndarray:
    """Sorted survivor indices for one trial.

    ``rng`` is not used, and may be None, in ``fixed`` mode.
    """
    if model.mode == "fixed":
        stragglers = np.array(model.fixed_stragglers, dtype=int)
    else:
        stragglers = rng.choice(model.n, size=model.s, replace=False)
    mask = np.ones(model.n, dtype=bool)
    mask[stragglers] = False
    return np.flatnonzero(mask)


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean i.i.d. Gaussian noise per worker per output coordinate."""

    sigma0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma0) and self.sigma0 >= 0):
            raise ValueError(f"sigma0 must be a finite nonnegative real, got {self.sigma0}")


@dataclass(frozen=True)
class WorkerFunction:
    """The computing function applied by every worker.

    ``fn`` maps a (q, d) batch to (q, m) outputs, one row per worker, and
    must be row-wise pure: row i of the output depends on row i of the
    input alone, and equal inputs give equal outputs.  The harness calls
    it once per trial on that trial's surviving coded rows, once on its
    inputs and, for letcc, once on the encoder's values at the alphas, and
    never on the rows of several trials together: a BLAS product such as
    tanh_net's can round a row differently with the number of rows in the
    call, which would make a trial's bits depend on its batch.  The
    optional ``lipschitz`` and ``curvature`` bounds are declared over
    [-2, 2]; ``degree`` is the polynomial degree used by the Lagrange
    baseline.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int
    lipschitz: float | None = None
    curvature: float | None = None
    degree: int | None = None

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"{self.name} expects inputs of dim {self.in_dim}, got {x.shape[1]}")
        out = np.atleast_2d(np.asarray(self.fn(x), dtype=float))
        if out.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"{self.name} returned shape {out.shape}, "
                             f"expected {(x.shape[0], self.out_dim)}")
        return out


def _affine() -> WorkerFunction:
    # in both penalty null spaces: the pipeline recovers it exactly
    return WorkerFunction("affine", lambda x: 2.0 * x - 0.5, 1, 1,
                          lipschitz=2.0, curvature=0.0, degree=1)


def _sin_pi() -> WorkerFunction:
    return WorkerFunction("sin_pi", lambda x: np.sin(np.pi * x), 1, 1,
                          lipschitz=np.pi, curvature=np.pi**2)


def _cubic() -> WorkerFunction:
    # |3x^2| <= 12 and |6x| <= 12 on [-2, 2].
    return WorkerFunction("cubic", lambda x: x**3, 1, 1,
                          lipschitz=12.0, curvature=12.0, degree=3)


def _softplus() -> WorkerFunction:
    return WorkerFunction("softplus", lambda x: np.logaddexp(0.0, x), 1, 1,
                          lipschitz=1.0, curvature=0.25)


def _tanh_net(d: int = 4, m: int = 3, hidden: int = 16) -> WorkerFunction:
    """Fixed-weight 2-layer tanh network with a softmax head over m >= 2 classes."""
    if m < 2:
        # a softmax over one class is the constant 1
        raise ValueError(f"tanh_net needs m >= 2 outputs, got m={m}")
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


WORKER_FUNCTIONS = {
    "affine": _affine,
    "sin_pi": _sin_pi,
    "cubic": _cubic,
    "softplus": _softplus,
    "tanh_net": _tanh_net,
}


def make_worker(name: str, **kwargs) -> WorkerFunction:
    """Instantiate a built-in worker function by name."""
    if name not in WORKER_FUNCTIONS:
        raise ValueError(f"unknown worker function {name!r}; "
                         f"choices: {sorted(WORKER_FUNCTIONS)}")
    return WORKER_FUNCTIONS[name](**kwargs)


def worker_for(name: str, d: int, m: int) -> WorkerFunction:
    """Built-in worker ``name``; the dimensions ``d`` and ``m`` size tanh_net only."""
    if name == "tanh_net":
        return make_worker(name, d=d, m=m)
    return make_worker(name)


@dataclass(frozen=True, eq=False)
class WorkerReturns:
    """Survivor indices plus their (possibly noisy) outputs."""

    indices: np.ndarray
    outputs: np.ndarray


def apply_workers(func: WorkerFunction, batch: CodedBatch, noise: NoiseModel,
                  survivors: np.ndarray, rng: np.random.Generator | None) -> WorkerReturns:
    """Evaluate f on the surviving coded points and add worker noise.

    ``rng`` draws the noise; it is not used, and may be None, when
    ``noise.sigma0`` is 0.
    """
    survivors = np.asarray(survivors, dtype=int)
    if survivors.size and (survivors.min() < 0 or survivors.max() >= batch.n):
        raise ValueError("survivor indices outside worker range")
    clean = func.evaluate(batch.coded[survivors])
    if noise.sigma0 > 0:
        clean = clean + rng.normal(0.0, noise.sigma0, clean.shape)
    return WorkerReturns(indices=survivors, outputs=clean)


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
class TrialSetup:
    """Everything but the seed needed to run one trial."""

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
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choices: {SCHEMES}")
        if self.stragglers.n != self.grid.n:
            raise ValueError("straggler model N must match grid worker count")
        if self.data is not None and self.data.k != self.grid.k:
            raise ValueError("dataset K must match grid alpha count")
        if self.data is None and self.data_rule not in ("uniform", "identity"):
            raise ValueError(f"unknown data rule {self.data_rule!r}")
        if self.data is None and self.data_rule == "identity" and self.func.in_dim != 1:
            raise ValueError("identity data rule requires a 1-D worker function")
        if self.scheme == "lcc" and self.f_degree is None and self.func.degree is None:
            raise ValueError("lcc needs a declared polynomial degree")


def _trial_inputs(setup: TrialSetup, seed: tuple[int, ...]) -> np.ndarray:
    """The (K, d) inputs of one trial."""
    if setup.data is not None:
        return setup.data.inputs
    if setup.data_rule == "identity":
        return setup.grid.alphas[:, None]
    rng = trial_rng(seed, _STREAM_DATA)
    return rng.uniform(-1.0, 1.0, (setup.grid.k, setup.func.in_dim))


@dataclass(frozen=True, eq=False)
class _Prepared:
    """The lambda_d-independent half of a trial: everything up to decode."""

    returns: WorkerReturns
    truth: np.ndarray
    through_encoder: np.ndarray | None
    l_enc: float | None
    seed: tuple[int, ...]


def _prepare(setup: TrialSetup, seeds) -> Iterator[_Prepared]:
    """The prepared trials of ``seeds``, in order, made a chunk at a time.

    Each chunk stacks its trials' inputs and encodes them in one product
    through the grid's cached encoder; the straggler draw, the workers and
    the truth run per trial, on exactly that trial's rows.
    """
    grid, func = setup.grid, setup.func
    seeds = [_entropy(seed) for seed in seeds]
    size = max(1, _CHUNK_VALUES // (grid.n * func.in_dim))
    for start in range(0, len(seeds), size):
        chunk = seeds[start:start + size]
        inputs = np.stack([_trial_inputs(setup, seed) for seed in chunk])
        knot_values = None
        if setup.scheme == "letcc":
            coded, knot_values, _ = coding._linear_encoder(grid, setup.lambda_e).apply(inputs)
        else:
            coded = baselines._encoder(grid, setup.scheme).apply(inputs)
        for t, seed in enumerate(chunk):
            straggler_rng = (trial_rng(seed, _STREAM_STRAGGLERS)
                             if setup.stragglers.mode == "uniform" else None)
            noise_rng = trial_rng(seed, _STREAM_NOISE) if setup.noise.sigma0 > 0 else None
            returns = apply_workers(func, CodedBatch(coded[t], None, grid), setup.noise,
                                    sample_stragglers(setup.stragglers, straggler_rng),
                                    noise_rng)
            truth = func.evaluate(inputs[t])
            through = l_enc = None
            if knot_values is not None:
                # the encoder's values at the alphas, its knots
                through = func.evaluate(knot_values[t])
                l_enc = 2.0 * float(_mean_sq_dist(through, truth))
            yield _Prepared(returns, truth, through, l_enc, seed)


def _mean_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/K) sum_k ||a_k - b_k||^2 over the rows of (K, m) arrays.

    A stack (..., K, m) gives one distance per array of the stack, each
    reduced exactly as on its own.  ``np.add.reduce`` is the reduction of
    ``np.sum`` and ``np.mean`` without their per-call Python wrappers.
    """
    return np.add.reduce(np.add.reduce((a - b) ** 2, axis=-1), axis=-1) / a.shape[-2]


def _decode(setup: TrialSetup, prepared: _Prepared) -> coding.DecodeResult:
    """Decode one prepared trial with the setup's scheme and decoder weight."""
    grid = setup.grid
    if setup.scheme == "letcc":
        return coding.decode(prepared.returns, grid, setup.lambda_d)
    if setup.scheme == "bacc":
        return baselines.bacc_decode(prepared.returns, grid)
    degree = setup.f_degree if setup.f_degree is not None else setup.func.degree
    return baselines.lcc_decode(prepared.returns, grid, degree)


def _score(setup: TrialSetup, prepared: _Prepared,
           results: Sequence[coding.DecodeResult]) -> list[TrialMetrics]:
    """The metrics of one prepared trial for each of its decodes ``results``.

    The distances run once on the stack of all estimates.  A letcc result
    whose risk exceeds its decomposition bound raises.
    """
    estimates = np.array([result.estimates for result in results])
    risks = _mean_sq_dist(estimates, prepared.truth).tolist()
    l_enc = prepared.l_enc
    l_decs = [None] * len(results)
    if setup.scheme == "letcc":
        l_decs = (2.0 * _mean_sq_dist(estimates, prepared.through_encoder)).tolist()
        for risk, l_dec in zip(risks, l_decs):
            bound = l_dec + l_enc
            if risk > bound + 1e-9 * (1.0 + bound):
                raise RiskBoundViolation(
                    f"risk decomposition violated: {risk} > {l_dec} + {l_enc}"
                )

    return [TrialMetrics(
        scheme=setup.scheme,
        empirical_risk=risk,
        l_dec=l_dec,
        l_enc=l_enc,
        rmse=sqrt(risk),
        relacc=relacc(result.estimates, prepared.truth),
        survivor_count=result.survivor_count,
        degraded=result.degraded,
        seed=prepared.seed,
    ) for risk, l_dec, result in zip(risks, l_decs, results)]


def run_trial(setup: TrialSetup, seed) -> TrialMetrics:
    """Run the full encode/compute/decode pipeline once.

    ``seed`` (int or tuple of ints) fully determines the trial: identical
    seeds give bit-identical metrics.
    """
    prepared, = _prepare(setup, [seed])
    return _score(setup, prepared, [_decode(setup, prepared)])[0]


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate over trials with a normal-approximation 95% interval."""

    mean_mse: float
    std_mse: float
    ci95_lo: float
    ci95_hi: float
    mean_rmse: float
    mean_relacc: float | None
    trials: int
    degenerate_ci: bool
    metrics: tuple[TrialMetrics, ...]


def _trial_seeds(master_seed, trials: int) -> list[tuple[int, ...]]:
    """The seed (master_seed..., t) of each trial t < trials, in trial order."""
    entropy = _entropy(master_seed)
    return [entropy + (t,) for t in range(trials)]


def aggregate(metrics: Sequence[TrialMetrics]) -> MonteCarloResult:
    """Mean, spread and 95% interval of trial metrics, in the given order."""
    trials = len(metrics)
    if trials < 1:
        raise ValueError("need at least one trial")
    mses = np.array([m.empirical_risk for m in metrics])
    mean = float(mses.mean())
    # shifted by a sample, so identical trials give exactly zero spread even
    # when their mean rounds away from the common value
    std = float((mses - mses[0]).std(ddof=1)) if trials > 1 else 0.0
    half = 1.96 * std / sqrt(trials)
    relaccs = [m.relacc for m in metrics]
    mean_relacc = float(np.mean(relaccs)) if relaccs[0] is not None else None
    return MonteCarloResult(
        mean_mse=mean,
        std_mse=std,
        ci95_lo=mean - half,
        ci95_hi=mean + half,
        mean_rmse=float(np.mean([m.rmse for m in metrics])),
        mean_relacc=mean_relacc,
        trials=trials,
        degenerate_ci=trials == 1,
        metrics=tuple(metrics),
    )


def monte_carlo(setup: TrialSetup, trials: int, master_seed: int) -> MonteCarloResult:
    """Run ``trials`` seeded trials in order and aggregate them.

    Trial t uses seed (master_seed, t).  The trials are prepared together
    (data, a stacked encode, stragglers, workers) and decoded one by one;
    ``metrics[t]`` equals ``run_trial(setup, (master_seed, t))`` bit for bit.
    """
    return aggregate([_score(setup, prepared, [_decode(setup, prepared)])[0]
                      for prepared in _prepare(setup, _trial_seeds(master_seed, trials))])


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
    return float(np.mean(estimates.argmax(axis=1) == truth.argmax(axis=1)))
