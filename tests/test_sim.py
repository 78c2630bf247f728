import tracemalloc

import numpy as np
import pytest

from letcc import sim
from letcc.coding import CodedBatch, Dataset
from letcc.points import chebyshev_grid
from letcc.sim import (
    NoiseModel,
    StragglerModel,
    TrialSetup,
    WorkerFunction,
    WorkerReturns,
    apply_workers,
    make_worker,
    monte_carlo,
    relacc,
    run_trial,
    sample_stragglers,
    trial_rng,
)


class TestStragglerModel:
    def test_s_equal_n_rejected(self):
        with pytest.raises(ValueError):
            StragglerModel(n=4, s=4)

    def test_zero_stragglers_keeps_everyone(self):
        model = StragglerModel(n=6, s=0)
        survivors = sample_stragglers(model, trial_rng(0, 1))
        assert survivors.tolist() == [0, 1, 2, 3, 4, 5]

    def test_survivor_count_is_exact(self):
        model = StragglerModel(n=10, s=3)
        for seed in range(20):
            survivors = sample_stragglers(model, trial_rng(seed, 1))
            assert survivors.size == 7
            assert np.all(np.diff(survivors) > 0)

    def test_marginal_straggle_frequency(self):
        # each of N=5 workers straggles with probability S/N = 0.4
        model = StragglerModel(n=5, s=2)
        rng = trial_rng(42, 1)
        draws = 100_000
        miss = np.zeros(5)
        for _ in range(draws):
            survivors = sample_stragglers(model, rng)
            mask = np.ones(5, dtype=bool)
            mask[survivors] = False
            miss += mask
        freq = miss / draws
        assert np.abs(freq - 0.4).max() < 0.01

    def test_fixed_mode_repeats_the_same_set(self):
        model = StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(1, 5))
        for seed in range(5):
            survivors = sample_stragglers(model, trial_rng(seed, 1))
            assert survivors.tolist() == [0, 2, 3, 4, 6, 7]

    def test_fixed_mode_validation(self):
        with pytest.raises(ValueError):
            StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(1,))
        with pytest.raises(ValueError):
            StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(1, 9))


class TestNoiseAndWorkers:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    def test_noiseless_outputs_bit_identical(self, rng):
        grid = chebyshev_grid(4, 8)
        batch = CodedBatch(coded=rng.uniform(-1, 1, (8, 1)), encoder_fit=None,
                           grid=grid)
        func = make_worker("sin_pi")
        survivors = np.array([0, 2, 5])
        a = apply_workers(func, batch, NoiseModel(0.0), survivors, trial_rng(1, 2))
        b = apply_workers(func, batch, NoiseModel(0.0), survivors, trial_rng(9, 2))
        assert np.array_equal(a.outputs, b.outputs)

    def test_noise_moments(self):
        n = 100_000
        grid = chebyshev_grid(1, 3)
        batch = CodedBatch(coded=np.zeros((n, 1)), encoder_fit=None, grid=grid)
        func = make_worker("softplus")
        clean = func.evaluate(batch.coded)
        returns = apply_workers(func, batch, NoiseModel(0.1), np.arange(n),
                                trial_rng(7, 2))
        eps = returns.outputs - clean
        assert abs(eps.mean()) < 0.002
        assert 0.0095 < eps.var() < 0.0105

    def test_constant_function_passes_through(self):
        grid = chebyshev_grid(1, 3)
        batch = CodedBatch(coded=np.linspace(-1, 1, 5)[:, None], encoder_fit=None,
                           grid=grid)
        func = make_worker("cubic")
        zeros = CodedBatch(coded=np.zeros((5, 1)), encoder_fit=None, grid=grid)
        returns = apply_workers(func, zeros, NoiseModel(0.0), np.arange(5),
                                trial_rng(0, 2))
        assert np.array_equal(returns.outputs, np.zeros((5, 1)))

    def test_builtin_functions_have_expected_shapes(self):
        x = np.linspace(-1, 1, 7)[:, None]
        for name in ("sin_pi", "cubic", "softplus"):
            func = make_worker(name)
            assert func.evaluate(x).shape == (7, 1)
        net = make_worker("tanh_net", d=3, m=4)
        out = net.evaluate(np.random.default_rng(0).uniform(-1, 1, (5, 3)))
        assert out.shape == (5, 4)
        assert out.sum(axis=1) == pytest.approx(np.ones(5))
        assert net.lipschitz is not None

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            make_worker("nope")

    @pytest.mark.parametrize("m", [0, 1])
    def test_tanh_net_needs_two_classes(self, m):
        with pytest.raises(ValueError, match="m >= 2"):
            make_worker("tanh_net", d=2, m=m)


def _setup(scheme="letcc", k=8, n=24, s=4, sigma0=0.0, lambda_e=0.0,
           lambda_d=0.0, func=None, data=None, data_rule="uniform", f_degree=None,
           **kw):
    return TrialSetup(
        scheme=scheme,
        func=func or make_worker("sin_pi"),
        grid=chebyshev_grid(k, n),
        stragglers=StragglerModel(n, s, **kw),
        noise=NoiseModel(sigma0),
        lambda_e=lambda_e,
        lambda_d=lambda_d,
        f_degree=f_degree,
        data=data,
        data_rule=data_rule,
    )


class TestRunTrial:
    def test_identity_function_near_machine_floor(self):
        ident = WorkerFunction("identity", lambda x: x, 1, 1, lipschitz=1.0,
                               curvature=0.0)
        metrics = run_trial(_setup(func=ident, s=0, data_rule="identity"), seed=3)
        assert metrics.empirical_risk <= 1e-12

    def test_lcc_without_degree_rejected_at_setup(self):
        with pytest.raises(ValueError, match="lcc needs a declared polynomial degree"):
            _setup(scheme="lcc")  # sin_pi declares no degree
        _setup(scheme="lcc", f_degree=3)
        _setup(scheme="lcc", func=make_worker("cubic"))

    def test_same_seed_bit_identical(self):
        a = run_trial(_setup(sigma0=0.1, lambda_d=1e-5), seed=11)
        b = run_trial(_setup(sigma0=0.1, lambda_d=1e-5), seed=11)
        assert a == b

    def test_lcc_exact_when_threshold_met(self):
        setup = _setup(scheme="lcc", func=make_worker("cubic"), k=3, n=10, s=2)
        metrics = run_trial(setup, seed=5)
        assert metrics.empirical_risk <= 1e-10
        assert metrics.l_dec is None and metrics.l_enc is None

    def test_letcc_reports_decomposition_terms(self):
        metrics = run_trial(_setup(sigma0=0.1, lambda_d=1e-4), seed=2)
        assert metrics.l_dec is not None and metrics.l_enc is not None
        assert metrics.empirical_risk <= metrics.l_dec + metrics.l_enc + 1e-9

    def test_bacc_trial_runs(self):
        metrics = run_trial(_setup(scheme="bacc"), seed=8)
        assert np.isfinite(metrics.empirical_risk)
        assert metrics.l_dec is None

    def test_exact_polynomial_recovery_gives_perfect_relacc(self):
        # vector quadratic decoded exactly by the polynomial scheme at its
        # threshold: matching argmax rows give relacc 1.0
        poly2 = WorkerFunction("vec_quad", lambda x: np.hstack([x**2, 1.0 - x**2]),
                               1, 2, degree=2)
        setup = _setup(scheme="lcc", func=poly2, k=3, n=12, s=3)
        metrics = run_trial(setup, seed=6)
        assert metrics.empirical_risk <= 1e-10
        assert metrics.relacc == 1.0

    def test_relacc_present_for_vector_outputs(self):
        setup = TrialSetup(
            scheme="letcc",
            func=make_worker("tanh_net", d=2, m=3),
            grid=chebyshev_grid(8, 24),
            stragglers=StragglerModel(24, 4),
            noise=NoiseModel(0.0),
            lambda_d=1e-6,
        )
        metrics = run_trial(setup, seed=4)
        assert 0.0 <= metrics.relacc <= 1.0


def test_letcc_trials_decode_once_each_through_coding_decode(monkeypatch):
    # one coding.decode(returns, grid, <float>) call per letcc trial: the
    # call a caller hooks to see every trial's decoder input and result
    calls = []
    original = sim.coding.decode

    def counted(survivors, grid, lambda_d):
        calls.append(lambda_d)
        return original(survivors, grid, lambda_d)

    monkeypatch.setattr(sim.coding, "decode", counted)
    setup = _setup(sigma0=0.1, lambda_d=1e-5)
    run_trial(setup, 3)
    monte_carlo(setup, 4, 7)
    assert calls == [1e-5] * 5
    assert all(type(lam) is float for lam in calls)


@pytest.mark.parametrize("worker", ["sin_pi", "tanh_net"])
def test_scores_of_a_decode_stack_equal_each_decode_alone(worker):
    # the reference reduces each decode's (K, m) rows on their own; K = 16
    # rows are enough that a reduction in another order rounds differently
    setup = _setup(k=16, n=64, s=5, sigma0=0.1, lambda_e=1e-3, func=make_worker(worker),
                   data_rule="uniform")
    prepared, = sim._prepare(setup, [(5, 1)])
    results = sim.coding.decode_lambdas(prepared.returns, setup.grid,
                                        (0.0, 1e-9, 1e-4, 1.0, 1e16))
    stacked = sim._score(setup, prepared, results)
    for result, metrics in zip(results, stacked):
        assert metrics == sim._score(setup, prepared, [result])[0]
        for value, target in ((metrics.empirical_risk, prepared.truth),
                              (metrics.l_dec / 2.0, prepared.through_encoder)):
            assert value == float(np.mean(np.sum((result.estimates - target) ** 2,
                                                 axis=1)))


class TestMonteCarlo:
    def test_single_trial_flagged_degenerate(self):
        agg = monte_carlo(_setup(), trials=1, master_seed=0)
        assert agg.degenerate_ci
        assert agg.std_mse == 0.0
        assert agg.ci95_lo == agg.ci95_hi == agg.mean_mse

    def test_deterministic_scheme_zero_std(self, rng):
        data = Dataset(rng.uniform(-1, 1, (8, 1)))
        setup = _setup(s=2, data=data, mode="fixed", fixed_stragglers=(3, 17))
        agg = monte_carlo(setup, trials=10, master_seed=1)
        assert agg.std_mse == 0.0

    def test_bit_exact_reproducibility(self):
        a = monte_carlo(_setup(sigma0=0.1), trials=20, master_seed=99)
        b = monte_carlo(_setup(sigma0=0.1), trials=20, master_seed=99)
        assert a.mean_mse == b.mean_mse
        assert a.metrics == b.metrics

    @pytest.mark.parametrize("chunk_values", [None, 3 * 23])
    @pytest.mark.parametrize("mode", ["uniform", "fixed"])
    @pytest.mark.parametrize("sigma0", [0.0, 0.1])
    @pytest.mark.parametrize("worker", sorted(sim.WORKER_FUNCTIONS))
    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    def test_each_trial_equals_run_trial_bit_for_bit(self, scheme, worker, sigma0, mode,
                                                     chunk_values, monkeypatch):
        # K = 5 and 19 survivors: row counts off every power-of-two block
        if chunk_values is not None:  # three trials per prepared chunk
            monkeypatch.setattr(sim, "_CHUNK_VALUES", chunk_values)
        func = make_worker(worker)
        kw = {"mode": "fixed", "fixed_stragglers": (0, 7, 8, 22)} if mode == "fixed" else {}
        # lcc needs a degree for the workers that declare none
        setup = _setup(scheme=scheme, k=5, n=23, s=4, sigma0=sigma0, lambda_d=1e-6,
                       lambda_e=1e-3, func=func,
                       f_degree=2 if func.degree is None else None, **kw)
        agg = monte_carlo(setup, 10, 31)
        for t, metrics in enumerate(agg.metrics):
            assert metrics == run_trial(setup, (31, t))

    def test_unused_generators_are_not_built(self, monkeypatch):
        calls = []
        original = sim.trial_rng

        def counted(seed, stream):
            calls.append(stream)
            return original(seed, stream)

        monkeypatch.setattr(sim, "trial_rng", counted)
        quiet = _setup(s=2, mode="fixed", fixed_stragglers=(3, 17), data_rule="identity")
        monte_carlo(quiet, 5, 0)
        assert calls == []
        monte_carlo(_setup(sigma0=0.1), 5, 0)
        assert sorted(calls) == sorted([sim._STREAM_DATA, sim._STREAM_STRAGGLERS,
                                        sim._STREAM_NOISE] * 5)

    def test_memory_at_65536_workers_does_not_grow_with_trials(self):
        # 8-dimensional inputs: 32 trials' coded values alone take 128 MB
        setup = _setup(k=8, n=65536, s=64, sigma0=0.1, lambda_d=65536.0 ** -4,
                       func=make_worker("tanh_net", d=8, m=2))
        peaks = []
        for trials in (1, 32):
            tracemalloc.start()
            try:
                monte_carlo(setup, trials, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_risk_trend_improves_with_fewer_stragglers(self):
        means = []
        for s in (32, 24, 16, 8, 0):
            setup = _setup(k=16, n=64, s=s, lambda_d=64.0**-4, data_rule="identity")
            agg = monte_carlo(setup, trials=200, master_seed=(77, s))
            means.append(agg.mean_mse)
        inversions = sum(b > a for a, b in zip(means, means[1:]))
        assert inversions <= 1


class TestRelacc:
    def test_perfect_agreement(self, rng):
        x = rng.uniform(0, 1, (10, 4))
        assert relacc(x, x) == 1.0

    def test_negation_breaks_agreement(self):
        truth = np.array([[3.0, 1.0, 2.0], [1.0, 5.0, 2.0]])
        assert relacc(-truth, truth) < 1.0

    def test_scalar_outputs_not_applicable(self):
        assert relacc(np.zeros((4, 1)), np.zeros((4, 1))) is None
