"""Monte-Carlo harness: stragglers, worker noise, trials, and metrics.

Randomness is organized as counter-based streams: every trial derives its
generators from ``(master_seed, trial_index, stream_tag)`` so results are
independent of execution order and thread count, and two schemes given the
same seeds see identical straggler sets, data draws, and noise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from . import baselines, coding
from .coding import CodedBatch, Dataset
from .points import InterpolationGrid

__all__ = [
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
    "classification_accuracy",
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


def trial_rng(seed, stream: int) -> np.random.Generator:
    """Generator for one substream of one trial.

    ``seed`` may be an int or a sequence of ints (e.g. (master, trial)).
    """
    entropy = [int(s) for s in np.atleast_1d(seed)]
    return np.random.default_rng(entropy + [stream])


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


def sample_stragglers(model: StragglerModel, rng: np.random.Generator) -> np.ndarray:
    """Sorted survivor indices for one trial."""
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

    ``fn`` maps a (q, d) batch to (q, m) outputs and must be pure.  The
    optional ``lipschitz`` and ``curvature`` bounds are declared over
    ``bound_domain`` (inputs are expected to stay inside it); ``degree`` is
    the polynomial degree used by the Lagrange baseline.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int
    lipschitz: float | None = None
    curvature: float | None = None
    degree: int | None = None
    bound_domain: tuple[float, float] = (-2.0, 2.0)

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
    """Fixed-weight 2-layer tanh network with a softmax head."""
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


@dataclass(frozen=True)
class WorkerReturns:
    """Survivor indices plus their (possibly noisy) outputs."""

    indices: np.ndarray
    outputs: np.ndarray

    def as_pairs(self):
        return list(zip(self.indices.tolist(), self.outputs))


def apply_workers(func: WorkerFunction, batch: CodedBatch, noise: NoiseModel,
                  survivors: np.ndarray, rng: np.random.Generator) -> WorkerReturns:
    """Evaluate f on the surviving coded points and add worker noise."""
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


def _trial_data(setup: TrialSetup, seed) -> Dataset:
    if setup.data is not None:
        return setup.data
    if setup.data_rule == "identity":
        return Dataset(setup.grid.alphas[:, None].copy())
    rng = trial_rng(seed, _STREAM_DATA)
    return Dataset(rng.uniform(-1.0, 1.0, (setup.grid.k, setup.func.in_dim)))


@dataclass(frozen=True)
class _Prepared:
    """The lambda_d-independent half of a trial: everything up to decode."""

    returns: WorkerReturns
    truth: np.ndarray
    through_encoder: np.ndarray | None
    seed: tuple[int, ...]


def _prepare(setup: TrialSetup, seed) -> _Prepared:
    """Draw data, encode, sample stragglers and run the workers for one trial."""
    data = _trial_data(setup, seed)
    grid = setup.grid

    through_encoder = None
    if setup.scheme == "letcc":
        batch = coding.encode(data, grid, setup.lambda_e)
        through_encoder = setup.func.evaluate(batch.encoder_fit.evaluate(grid.alphas))
    elif setup.scheme == "bacc":
        batch = baselines.bacc_encode(data, grid)
    else:
        batch = baselines.lcc_encode(data, grid)

    survivors = sample_stragglers(setup.stragglers, trial_rng(seed, _STREAM_STRAGGLERS))
    returns = apply_workers(setup.func, batch, setup.noise, survivors,
                            trial_rng(seed, _STREAM_NOISE))
    return _Prepared(
        returns=returns,
        truth=setup.func.evaluate(data.inputs),
        through_encoder=through_encoder,
        seed=tuple(int(s) for s in np.atleast_1d(seed)),
    )


def _score(setup: TrialSetup, prepared: _Prepared, lambda_d: float) -> TrialMetrics:
    """Decode one prepared trial with decoder weight ``lambda_d`` and score it."""
    grid = setup.grid
    if setup.scheme == "letcc":
        result = coding.decode(prepared.returns, grid, lambda_d)
    elif setup.scheme == "bacc":
        result = baselines.bacc_decode(prepared.returns, grid)
    else:
        degree = setup.f_degree if setup.f_degree is not None else setup.func.degree
        if degree is None:
            raise ValueError("lcc needs a declared polynomial degree")
        result = baselines.lcc_decode(prepared.returns, grid, degree)

    truth = prepared.truth
    risk = float(np.mean(np.sum((result.estimates - truth) ** 2, axis=1)))

    l_dec = l_enc = None
    if setup.scheme == "letcc":
        through_encoder = prepared.through_encoder
        l_dec = 2.0 * float(np.mean(np.sum((result.estimates - through_encoder) ** 2, axis=1)))
        l_enc = 2.0 * float(np.mean(np.sum((through_encoder - truth) ** 2, axis=1)))
        bound = l_dec + l_enc
        if risk > bound + 1e-9 * (1.0 + bound):
            raise AssertionError(
                f"risk decomposition violated: {risk} > {l_dec} + {l_enc}"
            )

    return TrialMetrics(
        scheme=setup.scheme,
        empirical_risk=risk,
        l_dec=l_dec,
        l_enc=l_enc,
        rmse=sqrt(risk),
        relacc=relacc(result.estimates, truth),
        survivor_count=result.survivor_count,
        degraded=result.degraded,
        seed=prepared.seed,
    )


def run_trial(setup: TrialSetup, seed) -> TrialMetrics:
    """Run the full encode/compute/decode pipeline once.

    ``seed`` (int or tuple of ints) fully determines the trial: identical
    seeds give bit-identical metrics.
    """
    return _score(setup, _prepare(setup, seed), setup.lambda_d)


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


def _map_seeds(fn, master_seed, trials: int, threads: int = 1) -> list:
    """``fn`` of each trial seed (master_seed..., t) for t < trials, in trial
    order whatever ``threads`` (0 = one per core) is."""
    entropy = tuple(int(s) for s in np.atleast_1d(master_seed))
    seeds = [entropy + (t,) for t in range(trials)]
    if threads == 1 or trials <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=threads if threads > 0 else None) as pool:
        return list(pool.map(fn, seeds))


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


def monte_carlo(setup: TrialSetup, trials: int, master_seed: int,
                threads: int = 1) -> MonteCarloResult:
    """Run ``trials`` seeded trials and aggregate in fixed trial order.

    Trial t uses seed (master_seed, t); results are bit-identical for any
    ``threads``.
    """
    return aggregate(_map_seeds(lambda seed: run_trial(setup, seed), master_seed,
                                trials, threads))


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


def classification_accuracy(outputs: np.ndarray, labels: Sequence[int]) -> float:
    """Argmax accuracy against integer labels (for directional reporting)."""
    outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != outputs.shape[0]:
        raise ValueError("one label per output row required")
    return float(np.mean(outputs.argmax(axis=1) == labels))
