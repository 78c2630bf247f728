"""Benchmark workloads: inputs from a seed, one timed operation, output checks.

Every workload drives letcc through its public entry points only, on one
thread.  An *operation* is the unit the loop in ``run.py`` repeats: one
experiment call (``monte_carlo``, ``letcc.cli.main(["sweep", ...])``,
``crossval_lambda``) or one master-side codec batch.  Experiment calls take
their master seed from a fixed pool; ``refs/<workload>.json`` holds the
aggregates the reference commit produced for every seed of the pool, and
each call is checked against them.  The run's ``--seed`` picks where in the
pool the run starts, so different seeds give different inputs and no input
repeats within a run.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import letcc.coding
from letcc import cli, experiments, sim
from letcc.experiments import DEFAULT_LAMBDA_GRID, LAMBDA_RULES, MSE_FLOOR
from letcc.kernel import kernel_fit
from letcc.points import chebyshev_grid

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")
OUT = os.path.join(HERE, "out")

# Aggregates may move by roundoff, not more: relative tolerance plus an
# absolute slack of MSE_FLOOR (sqrt(MSE_FLOOR) for RMSE values).
REF_RTOL = 1e-6
# Largest allowed gap between a letcc estimate and the kernel-form oracle,
# relative to 1 + max |oracle|.  The oracle's dense saddle-point system loses
# accuracy as n*lambda -> 0: observed gaps are <= 3e-9 for the codec, sweep
# and Monte-Carlo points, and up to 2e-6 at lambda_d = 1e-13, N = 224.
KERNEL_TOL = 1e-4

# Fixed entropy tags, so that benchmark inputs never collide with seeds the
# test suite or a user would pick.
MC_TAG = 61001
SWEEP_SEED0 = 62000
CROSSVAL_SEED0 = 63000
CODEC_TAG = 64001
SAMPLE_TAG = 65001
# Master seed of warm-up calls: outside every pool.
WARM_KEY = 2**31 - 1


@dataclass
class Op:
    """One timed operation: trials scored, seconds timed, output until checked."""

    trials: int
    seconds: float
    key: int
    out: object = None
    timings: dict = field(default_factory=dict)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(ops) -> float:
    """Median over operations of trials scored per timed wall second."""
    return statistics.median(op.trials / op.seconds for op in ops)


def close(value, ref, floor) -> bool:
    return abs(value - ref) <= REF_RTOL * abs(ref) + floor


@contextmanager
def _capture_decode():
    """Record the arguments and result of every letcc decode in the block."""
    seen = []
    original = letcc.coding.decode

    def capture(survivors, grid, lambda_d):
        result = original(survivors, grid, lambda_d)
        seen.append((survivors, grid, lambda_d, result))
        return result

    letcc.coding.decode = capture
    try:
        yield seen
    finally:
        letcc.coding.decode = original


def kernel_gap(t, y, lam, query, estimates) -> float:
    """Gap between ``estimates`` and the kernel-form fit, relative to its scale."""
    oracle = kernel_fit(t, y, lam).evaluate(query)
    return float(np.max(np.abs(oracle - estimates)) / (1.0 + np.max(np.abs(oracle))))


def check_letcc_trial(setup, seed, expected_risk=None) -> list[str]:
    """Re-run one letcc trial and compare its decode against the kernel oracle."""
    with _capture_decode() as seen:
        metrics = sim.run_trial(setup, seed)
    problems = []
    if expected_risk is not None and not close(metrics.empirical_risk, expected_risk,
                                               MSE_FLOOR):
        problems.append(f"trial {seed}: rerun risk {metrics.empirical_risk!r} "
                        f"!= {expected_risk!r}")
    (survivors, grid, lam, result), = seen
    gap = kernel_gap(grid.betas[survivors.indices], survivors.outputs, lam,
                     grid.alphas, result.estimates)
    if not gap <= KERNEL_TOL:
        problems.append(f"trial {seed}: decode differs from kernel fit by {gap:.3g}")
    return problems


def _load_refs(name):
    with open(os.path.join(REFS, f"{name}.json")) as fh:
        return json.load(fh)


class PooledWorkload:
    """An experiment call repeated over a fixed pool of master seeds."""

    name = ""
    floor = MSE_FLOOR

    def __init__(self, seed: int, with_refs: bool = True):
        self.refs = _load_refs(self.name) if with_refs else None
        self.seed = seed

    def order(self) -> list[int]:
        """Pool indices in the order this run's seed visits them."""
        size = len(self.refs)
        start = np.random.default_rng([SAMPLE_TAG, self.seed]).integers(size)
        return ((start + np.arange(size)) % size).tolist()

    def check(self, op: Op) -> list[str]:
        values = self.aggregates(op.out)
        refs = self.refs[op.key]
        if len(values) != len(refs):
            return [f"pool seed {op.key}: {len(values)} aggregates, expected {len(refs)}"]
        problems = [f"pool seed {op.key}: aggregate {j} = {v!r}, reference {r!r}"
                    for j, (v, r) in enumerate(zip(values, refs))
                    if not close(v, r, self.floor)]
        rng = np.random.default_rng([SAMPLE_TAG, self.seed, op.key])
        return problems + self.check_sample(op, rng)

    def details(self, ops):
        return {}


class MonteCarlo(PooledWorkload):
    """``monte_carlo`` at K=8, N=64, S=8: ~1 ms trials, schemes interleaved."""

    name = "mc_small"
    schemes = ("letcc", "bacc", "lcc")
    trials = 50

    def __init__(self, seed: int, with_refs: bool = True):
        super().__init__(seed, with_refs)
        self.setups = {scheme: sim.TrialSetup(
            scheme=scheme,
            func=sim.make_worker("cubic"),
            grid=chebyshev_grid(8, 64),
            stragglers=sim.StragglerModel(64, 8),
            noise=sim.NoiseModel(0.1),
            lambda_e=0.0,
            lambda_d=64.0 ** -4,
            data_rule="uniform",
        ) for scheme in self.schemes}

    def warm_up(self):
        for setup in self.setups.values():
            sim.monte_carlo(setup, 3, (MC_TAG, WARM_KEY))

    def run(self, key: int) -> Op:
        """One call per scheme on the same master seed."""
        outs, timings = {}, {}
        for scheme, setup in self.setups.items():
            outs[scheme], timings[scheme] = _timed(sim.monte_carlo, setup, self.trials,
                                                   (MC_TAG, key))
        return Op(self.trials * len(outs), sum(timings.values()), key, outs, timings)

    def aggregates(self, out):
        return [out[scheme].mean_mse for scheme in self.schemes]

    def check_sample(self, op, rng):
        problems = []
        for scheme, setup in self.setups.items():
            t = int(rng.integers(self.trials))
            seed = (MC_TAG, op.key, t)
            expected = op.out[scheme].metrics[t].empirical_risk
            if scheme == "letcc":
                problems += check_letcc_trial(setup, seed, expected)
                continue
            risk = sim.run_trial(setup, seed).empirical_risk
            if not close(risk, expected, MSE_FLOOR):
                problems.append(f"{scheme} trial {seed}: rerun risk {risk!r} "
                                f"!= {expected!r}")
        return problems

    def details(self, ops):
        """Per-scheme median trial rates, in wall-clock seconds."""
        return {f"{scheme}_trials_per_s_wall":
                statistics.median(self.trials / op.timings[scheme] for op in ops)
                for scheme in self.schemes}


class SweepLarge(PooledWorkload):
    """``letcc sweep`` (n_sweep, letcc + bacc) in-process, N up to 4096."""

    name = "sweep_large"
    config = {
        "kind": "n_sweep", "schemes": ["letcc", "bacc"], "f": "sin_pi", "k": 16,
        "n_values": [1024, 2048, 4096], "s_ratio": 0.125, "sigma0": 0.1,
        "lambda_d_rule": "survivors**-0.8", "lambda_d_scale": 6e-4,
        "trials": 1, "data": "uniform",
    }

    def _sweep(self, config, key):
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(dict(config, seed=SWEEP_SEED0 + key), fh)
            code, seconds = _timed(cli.main, ["sweep", path, "--out", tmp])
            if code != 0:
                raise RuntimeError(f"letcc sweep exited with {code}")
            with open(os.path.join(tmp, "sweep.json")) as fh:
                report = json.load(fh)
        trials = len(config["schemes"]) * len(config["n_values"]) * config["trials"]
        return Op(trials, seconds, key, report)

    def warm_up(self):
        self._sweep(dict(self.config, n_values=[64, 128]), WARM_KEY)

    def run(self, key: int) -> Op:
        return self._sweep(self.config, key)

    @staticmethod
    def aggregates(out):
        return [row["mean_mse"] for row in out["rows"]]

    def check_sample(self, op, rng):
        # The kernel oracle is a dense O(N^3) solve, so the sampled trial
        # comes from the smallest N; the references cover every N.
        cfg = self.config
        n = cfg["n_values"][0]
        s = int(round(cfg["s_ratio"] * n))
        setup = sim.TrialSetup(
            scheme="letcc",
            func=sim.make_worker(cfg["f"]),
            grid=chebyshev_grid(cfg["k"], n),
            stragglers=sim.StragglerModel(n, s),
            noise=sim.NoiseModel(cfg["sigma0"]),
            lambda_e=0.0,
            lambda_d=cfg["lambda_d_scale"] * LAMBDA_RULES[cfg["lambda_d_rule"]](n, s),
            data_rule=cfg["data"],
        )
        t = int(rng.integers(cfg["trials"]))
        row, = [r for r in op.out["rows"] if r["scheme"] == "letcc" and r["N"] == n]
        expected = row["mean_mse"] if cfg["trials"] == 1 else None
        return check_letcc_trial(setup, (SWEEP_SEED0 + op.key, n, t), expected)


class CrossvalNoisy(PooledWorkload):
    """``crossval_lambda`` over the default 14-value lambda_d grid."""

    name = "crossval_noisy"
    floor = MSE_FLOOR ** 0.5

    def _config(self, key, trials=20):
        return experiments.CrossvalConfig(
            func="sin_pi", k=16, n=256, s=32, sigma0=0.1, trials=trials,
            master_seed=CROSSVAL_SEED0 + key, data_rule="uniform")

    def warm_up(self):
        experiments.crossval_lambda((0.0,), DEFAULT_LAMBDA_GRID[:2],
                                    self._config(WARM_KEY, trials=2))

    def run(self, key: int) -> Op:
        config = self._config(key)
        out, seconds = _timed(experiments.crossval_lambda, (0.0,), DEFAULT_LAMBDA_GRID,
                              config)
        return Op(len(DEFAULT_LAMBDA_GRID) * config.trials, seconds, key, out)

    @staticmethod
    def aggregates(out):
        return [row["mean_rmse"] for row in out.table]

    def check_sample(self, op, rng):
        config = self._config(op.key)
        lambda_d = DEFAULT_LAMBDA_GRID[int(rng.integers(len(DEFAULT_LAMBDA_GRID)))]
        setup = sim.TrialSetup(
            scheme="letcc",
            func=sim.make_worker(config.func),
            grid=chebyshev_grid(config.k, config.n),
            stragglers=sim.StragglerModel(config.n, config.s),
            noise=sim.NoiseModel(config.sigma0),
            lambda_e=0.0,
            lambda_d=lambda_d,
            data_rule=config.data_rule,
        )
        t = int(rng.integers(config.trials))
        return check_letcc_trial(setup, (config.master_seed, t))


class CodecBatch:
    """Master-side letcc encode and decode of fresh batches, timed per batch."""

    name = "codec_batch"
    k, d, n, s = 32, 64, 512, 64
    check_every = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([CODEC_TAG, seed])
        self.grid = chebyshev_grid(self.k, self.n)
        self.worker = sim.make_worker("tanh_net", d=self.d, m=10)
        self.stragglers = sim.StragglerModel(self.n, self.s)
        self.noise = sim.NoiseModel(0.0)
        self.lambda_d = float(self.n) ** -4

    def order(self):
        return range(10**9)

    def warm_up(self):
        warm = np.random.default_rng([CODEC_TAG, self.seed, 1])
        for _ in range(3):
            self._batch(warm)

    def _batch(self, rng):
        data = letcc.coding.Dataset(rng.uniform(-1.0, 1.0, (self.k, self.d)))
        survivors = sim.sample_stragglers(self.stragglers, rng)
        batch, t_enc = _timed(letcc.coding.encode, data, self.grid, 0.0)
        returns = sim.apply_workers(self.worker, batch, self.noise, survivors, rng)
        result, t_dec = _timed(letcc.coding.decode, returns, self.grid, self.lambda_d)
        out = (data.inputs, batch.coded, returns.indices, returns.outputs,
               result.estimates)
        return out, t_enc, t_dec

    def run(self, key: int) -> Op:
        out, t_enc, t_dec = self._batch(self.rng)
        kept = out if key % self.check_every == 0 else None
        return Op(1, t_enc + t_dec, key, kept, {"encode": t_enc, "decode": t_dec})

    def details(self, ops):
        """Per-batch latency of each step, with its sample count."""
        out = {"batches": len(ops)}
        for step in ("encode", "decode"):
            ms = [op.timings[step] * 1e3 for op in ops]
            out[f"{step}_ms_p50"] = statistics.median(ms)
            out[f"{step}_ms_p90"] = percentile(ms, 90)
        return out

    def check(self, op: Op) -> list[str]:
        if op.out is None:
            return []
        inputs, coded, indices, outputs, estimates = op.out
        grid = self.grid
        problems = []
        gap = kernel_gap(grid.alphas, inputs, 0.0, grid.betas, coded)
        if not gap <= KERNEL_TOL:
            problems.append(f"batch {op.key}: encode differs from kernel fit by {gap:.3g}")
        gap = kernel_gap(grid.betas[indices], outputs, self.lambda_d, grid.alphas,
                         estimates)
        if not gap <= KERNEL_TOL:
            problems.append(f"batch {op.key}: decode differs from kernel fit by {gap:.3g}")
        return problems


WORKLOADS = {
    "mc_small": MonteCarlo,
    "sweep_large": SweepLarge,
    "crossval_noisy": CrossvalNoisy,
    "codec_batch": CodecBatch,
}
