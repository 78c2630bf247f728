import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from letcc import sim, spline
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
    monte_carlo_lambdas,
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

    @pytest.mark.parametrize("kw, message", [
        ({"mode": "bursty"}, "unknown straggler mode 'bursty'"),
        ({"mode": "fixed"}, "fixed mode requires fixed_stragglers"),
        ({"mode": "fixed", "fixed_stragglers": (3, 3)}, "fixed_stragglers contains duplicates"),
    ])
    def test_mode_and_fixed_set_messages(self, kw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StragglerModel(n=8, s=2, **kw)

    @pytest.mark.parametrize("stragglers", [(0, 1), (0, 0, 0), ()])
    def test_fixed_stragglers_only_in_fixed_mode(self, stragglers):
        # uniform mode would draw its own stragglers and let these survive
        with pytest.raises(ValueError, match="fixed_stragglers given for mode 'uniform'"):
            StragglerModel(n=8, s=2, fixed_stragglers=stragglers)

    @pytest.mark.parametrize("bad", [0.7, 1.2, np.nan, np.inf])
    def test_fractional_fixed_stragglers_raise(self, bad):
        with pytest.raises(ValueError, match=f"straggler index {bad} is not an integer"):
            StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(bad, 3))

    def test_boolean_fixed_stragglers_raise(self):
        with pytest.raises(ValueError, match="straggler index must be an integer, got bool"):
            StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(True, False))

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_among_integer_fixed_stragglers_raises(self, flag):
        # numpy reads (True, 3) as (1, 3)
        with pytest.raises(ValueError, match="straggler index must be an integer, got bool"):
            StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(flag, 3))

    def test_column_of_fixed_stragglers_raises(self):
        with pytest.raises(ValueError, match=r"^straggler index array must be one-dimensional, "
                                             r"got shape \(2, 1\)$"):
            StragglerModel(8, 2, mode="fixed", fixed_stragglers=np.array([[1], [3]]))

    def test_fixed_stragglers_outside_workers_raise(self):
        with pytest.raises(ValueError, match=r"^straggler index 8 outside \[0, 8\)$"):
            StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(8, 3))
        with pytest.raises(ValueError, match=r"^straggler index -1 outside \[0, 8\)$"):
            StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(3, -1))

    @pytest.mark.parametrize("field, n, s", [("n", [8], 2), ("n", [8, 9], 2),
                                             ("n", np.array([8]), 2), ("s", 8, (2,))])
    def test_sequence_n_or_s_raise(self, field, n, s):
        # one integer each: a sequence, even of one, is not read as its item
        with pytest.raises(ValueError, match=f"StragglerModel {field} must be an integer"):
            StragglerModel(n, s)

    @pytest.mark.parametrize("n, s", [(4, 4), (4, 5), (4, -1), (0, 0)])
    def test_s_outside_workers_raise(self, n, s):
        with pytest.raises(ValueError, match=rf"^StragglerModel s {s} outside \[0, {n}\)$"):
            StragglerModel(n, s)

    @pytest.mark.parametrize("field, n, s", [("s", 8, 2.5), ("n", 8.5, 2),
                                             ("s", 8, np.nan), ("n", np.inf, 2),
                                             ("n", True, 0), ("s", 8, np.bool_(True))])
    def test_non_integer_n_or_s_raise(self, field, n, s):
        with pytest.raises(ValueError, match=f"StragglerModel {field} "):
            StragglerModel(n, s)

    def test_integral_float_n_and_s_are_those_integers(self):
        model = StragglerModel(8.0, np.float64(2.0))
        assert (model.n, model.s) == (8, 2)
        assert type(model.n) is int and type(model.s) is int
        assert sample_stragglers(model, trial_rng(3, 1)).size == 6

    def test_integral_float_fixed_stragglers_are_those_integers(self):
        model = StragglerModel(n=8, s=2, mode="fixed", fixed_stragglers=(5.0, np.float64(1.0)))
        assert model.fixed_stragglers == (1, 5)
        assert all(type(i) is int for i in model.fixed_stragglers)
        assert sample_stragglers(model, None).tolist() == [0, 2, 3, 4, 6, 7]


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

    def test_fractional_survivor_indices_raise(self):
        grid = chebyshev_grid(4, 9)
        batch = CodedBatch(coded=np.linspace(-1, 1, 9)[:, None], encoder_fit=None, grid=grid)
        func = make_worker("sin_pi")
        with pytest.raises(ValueError, match="survivor index 0.5 is not an integer"):
            apply_workers(func, batch, NoiseModel(0.0), [0.5, 1.7, 2.2], None)
        with pytest.raises(ValueError, match="survivor index must be an integer, got bool"):
            apply_workers(func, batch, NoiseModel(0.0), np.arange(9) < 3, None)
        returns = apply_workers(func, batch, NoiseModel(0.0), [0.0, 2.0, 5.0], None)
        assert returns.indices.dtype.kind == "i"
        assert np.array_equal(returns.indices, [0, 2, 5])

    def test_boolean_among_integer_survivors_raises(self):
        # numpy reads [True, 2, 3] as [1, 2, 3]
        grid = chebyshev_grid(4, 9)
        batch = CodedBatch(coded=np.linspace(-1, 1, 9)[:, None], encoder_fit=None, grid=grid)
        func = make_worker("sin_pi")
        with pytest.raises(ValueError, match="survivor index must be an integer, got bool"):
            apply_workers(func, batch, NoiseModel(0.0), [True, 2, 3], None)
        with pytest.raises(ValueError, match=r"^survivor index 9 outside \[0, 9\)$"):
            apply_workers(func, batch, NoiseModel(0.0), [0, 9], None)

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

    @pytest.mark.parametrize("d", [0, -1])
    def test_tanh_net_needs_an_input(self, d):
        # d = 0 would divide by zero and d < 0 fail inside numpy's seeding
        for build in (lambda: make_worker("tanh_net", d=d, m=3),
                      lambda: sim.worker_for("tanh_net", d, 3)):
            with pytest.raises(ValueError, match=rf"^tanh_net needs d >= 1 inputs, got d={d}$"):
                build()

    def test_evaluate_checks_input_dim_and_output_shape(self):
        net = make_worker("tanh_net", d=3, m=4)
        with pytest.raises(ValueError, match=r"^tanh_net_3_4 expects inputs of dim 3, got 2$"):
            net.evaluate(np.zeros((5, 2)))
        wide = WorkerFunction("wide", lambda x: np.hstack([x, x]), 1, 1)
        with pytest.raises(ValueError, match=r"^wide returned shape \(5, 2\), "
                                             r"expected \(5, 1\)$"):
            wide.evaluate(np.zeros((5, 1)))

    def test_flat_outputs_are_one_value_per_input(self):
        # the one rule for outputs at points: q > 1 flat values are a column,
        # and the flat values of one input are its row
        x = np.linspace(-1, 1, 6)[:, None]
        flat = WorkerFunction("flat", lambda x: np.sin(np.pi * x[:, 0]), 1, 1)
        assert np.array_equal(flat.evaluate(x), make_worker("sin_pi").evaluate(x))
        pair = WorkerFunction("pair", lambda x: np.array([1.0, 2.0]), 1, 2)
        assert pair.evaluate(np.zeros(1)).tolist() == [[1.0, 2.0]]  # a flat input is a row

    @pytest.mark.parametrize("fn, rows", [(lambda x: np.zeros(x.shape[0] - 1), 4),
                                          (lambda x: 0.0, 1)], ids=["short", "scalar"])
    def test_output_row_mismatch_raises_one_message(self, fn, rows):
        with pytest.raises(ValueError, match=rf"^5 bad inputs for {rows} output rows$"):
            WorkerFunction("bad", fn, 1, 1).evaluate(np.zeros((5, 1)))


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

    def test_mismatched_or_unknown_setup_fields_rejected(self):
        grid = chebyshev_grid(4, 12)
        base = dict(scheme="letcc", func=make_worker("sin_pi"), grid=grid,
                    stragglers=StragglerModel(12, 2), noise=NoiseModel(0.0))
        cases = [
            ({"stragglers": StragglerModel(13, 2)},
             "straggler model N must match grid worker count"),
            ({"data": Dataset(np.zeros((5, 1)))}, "dataset K must match grid alpha count"),
            ({"data_rule": "gaussian"}, "unknown data rule 'gaussian'"),
            ({"data_rule": "identity", "func": make_worker("tanh_net", d=2, m=3)},
             "identity data rule requires a 1-D worker function"),
        ]
        for change, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                TrialSetup(**dict(base, **change))

    def test_lcc_without_degree_rejected_at_setup(self):
        with pytest.raises(ValueError, match="lcc needs a declared polynomial degree"):
            _setup(scheme="lcc")  # sin_pi declares no degree
        _setup(scheme="lcc", f_degree=3)
        _setup(scheme="lcc", func=make_worker("cubic"))

    def test_f_degree_holds_the_resolved_degree(self):
        cubic = make_worker("cubic")
        assert _setup(scheme="lcc", func=cubic).f_degree == 3
        assert _setup(scheme="lcc", func=cubic, f_degree=2.0).f_degree == 2
        assert _setup(func=cubic).f_degree is None  # letcc resolves none
        assert _setup(func=cubic, f_degree=np.int64(1)).f_degree == 1
        assert [f.name for f in fields(TrialSetup) if "degree" in f.name] == ["f_degree"]

    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    @pytest.mark.parametrize("f_degree, message", [
        (True, "f_degree must be an integer, got bool"),
        (1.5, "f_degree 1.5 is not an integer"),
        (-1, "f_degree must be a nonnegative integer, got -1"),
        (np.nan, "f_degree nan is not an integer"),
    ])
    def test_bad_degree_rejected_at_setup(self, scheme, f_degree, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _setup(scheme=scheme, func=make_worker("cubic"), f_degree=f_degree)

    def test_bad_declared_degree_rejected_for_lcc(self):
        half = WorkerFunction("half_cubic", make_worker("cubic").fn, 1, 1, degree=1.5)
        with pytest.raises(ValueError, match="^f_degree 1.5 is not an integer$"):
            _setup(scheme="lcc", func=half)
        _setup(scheme="lcc", func=half, f_degree=3)

    def test_replace_resolves_the_lcc_degree_again(self):
        cubic = _setup(scheme="lcc", func=make_worker("cubic"))
        affine = replace(cubic, func=make_worker("affine"))
        assert run_trial(affine, 3) == run_trial(
            _setup(scheme="lcc", func=make_worker("affine")), 3)
        assert run_trial(replace(affine, f_degree=3), 3) == run_trial(
            _setup(scheme="lcc", func=make_worker("affine"), f_degree=3), 3)
        with pytest.raises(ValueError, match="lcc needs a declared polynomial degree"):
            replace(cubic, func=make_worker("sin_pi"))

    @pytest.mark.parametrize("weight", ["lambda_e", "lambda_d"])
    @pytest.mark.parametrize("value", [-1e-9, np.inf, np.nan])
    def test_bad_weight_rejected_at_setup(self, weight, value):
        with pytest.raises(ValueError, match=f"^{weight} must be a finite nonnegative real"):
            _setup(**{weight: value})

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


def test_letcc_trials_decode_once_each(monkeypatch):
    # run_trial makes one coding.decode(returns, grid, <float>) call per
    # letcc trial, the call a caller hooks to see a trial's decoder input
    # and result; monte_carlo decodes every trial exactly once, a chunk's
    # trials in one stacked decode at the setup's one weight
    singles, stacks = [], []
    decode, decode_stack = sim.coding.decode, sim.coding._decode_stack

    def counted(survivors, grid, lambda_d):
        singles.append(lambda_d)
        return decode(survivors, grid, lambda_d)

    def counted_stack(grid, indices, outputs, lambdas):
        (lambda_d,) = lambdas
        stacks.append((indices, outputs, lambda_d))
        return decode_stack(grid, indices, outputs, lambdas)

    monkeypatch.setattr(sim.coding, "decode", counted)
    monkeypatch.setattr(sim.coding, "_decode_stack", counted_stack)
    setup = _setup(sigma0=0.1, lambda_d=1e-5)
    run_trial(setup, 3)
    assert singles == [1e-5]
    assert [len(indices) for indices, _, _ in stacks] == [1]  # decode is a stack of one
    stacks.clear()
    monte_carlo(setup, 4, 7)
    assert singles == [1e-5]
    assert all(lam == 1e-5 for _, _, lam in stacks)
    assert all(type(lam) is float for lam in singles + [lam for _, _, lam in stacks])
    assert len(stacks) == 1  # one prepared chunk, one stacked decode
    (indices, outputs, _), = stacks
    assert len(indices) == len(outputs) == 4
    for t in range(4):  # in trial order, each its trial's survivors
        (alone,) = sim._prepare(setup, [(7, t)])
        assert np.array_equal(indices[t], alone.indices[0])
        assert np.array_equal(outputs[t], alone.outputs[0])


@pytest.mark.parametrize("worker", ["sin_pi", "tanh_net"])
def test_scores_of_a_decode_stack_equal_each_decode_alone(worker):
    # the reference reduces each decode's (K, m) rows on their own; K = 16
    # rows are enough that a reduction in another order rounds differently
    setup = _setup(k=16, n=64, s=5, sigma0=0.1, lambda_e=1e-3, func=make_worker(worker),
                   data_rule="uniform")
    (chunk,) = sim._prepare(setup, [(5, t) for t in range(4)])
    alone = [trial for t in range(4) for trial in sim._prepare(setup, [(5, t)])]
    lams = (0.0, 1e-9, 1e-4, 1.0, 1e16)
    estimates, degraded = sim._decode_chunk(setup, chunk, lams)
    for lam, at_weight in zip(lams, estimates, strict=True):
        stacked = sim._score(setup, chunk, at_weight, degraded)
        each = [sim._score(setup, alone[t], at_weight[t][None], degraded) for t in range(4)]
        assert stacked == sim.TrialColumns.concat(each)
        for t, metrics in enumerate(stacked.rows()):
            assert metrics == each[t].rows()[0]
            assert metrics.seed == (5, t) and metrics.survivor_count == 59
            decoded = sim.coding.decode(WorkerReturns(chunk.indices[t], chunk.outputs[t]),
                                        setup.grid, lam).estimates
            for value, target in ((metrics.empirical_risk, chunk.truth[t]),
                                  (metrics.l_dec / 2.0, chunk.through_encoder[t])):
                assert value == float(np.mean(np.sum((decoded - target) ** 2, axis=1)))


def _count_constructions(monkeypatch, classes) -> dict:
    """Count the instances of each of ``classes`` built while the patch holds."""
    counts = dict.fromkeys(classes, 0)
    for cls in classes:
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_monte_carlo_builds_no_per_trial_objects(monkeypatch):
    # from the stacked decode bodies to the aggregate, a chunk's trials are
    # arrays and columns only; the one-trial views are built on demand
    letcc = _setup(k=5, n=23, s=4, sigma0=0.1, lambda_e=1e-3, func=make_worker("tanh_net"))
    bacc = _setup("bacc", k=5, n=23, s=4, sigma0=0.1)
    lcc = _setup("lcc", k=5, n=23, s=4, sigma0=0.1, func=make_worker("cubic"))
    lams = (1e-8, 1e-6, 1e-4)
    for setup in (letcc, bacc, lcc):  # warm the grids' encoder caches
        monte_carlo(setup, 1, 0)
    classes = (spline.SplineFit, sim.coding.DecodeResult,
               sim.baselines.BerrutInterpolant, sim.TrialMetrics)
    none = dict.fromkeys(classes, 0)
    counts = _count_constructions(monkeypatch, classes)
    runs = [*zip((replace(letcc, lambda_d=lam) for lam in lams),
                 monte_carlo_lambdas(letcc, 6, 2, lams)),
            (bacc, monte_carlo(bacc, 6, 2)), (lcc, monte_carlo(lcc, 6, 2))]
    assert counts == none
    for setup, agg in runs:
        metrics = agg.metrics
        assert counts == {**none, sim.TrialMetrics: 6}
        assert metrics == tuple(run_trial(setup, (2, t)) for t in range(6))
        counts.update(none)


def test_risk_bound_violation_raises(understated_l_enc):
    setup = _setup(lambda_e=1e-2, lambda_d=1e-6)
    with pytest.raises(sim.RiskBoundViolation, match=r"risk decomposition violated: .* \+ 0\.0$"):
        run_trial(setup, 3)
    with pytest.raises(sim.RiskBoundViolation, match="risk decomposition violated"):
        monte_carlo(setup, 5, 1)
    with pytest.raises(sim.RiskBoundViolation, match="risk decomposition violated"):
        monte_carlo_lambdas(setup, 5, 1, (1e-6, 1e-3))


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

    def test_bacc_chunks_bound_its_decode_weights(self, monkeypatch):
        # bacc's batched decode holds (K, N) weights per trial, so its
        # chunks hold N x K values per trial where letcc's hold N x d
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * 23 * 5)
        for scheme, sizes in (("bacc", [2, 2, 1]), ("letcc", [5])):
            setup = _setup(scheme, k=5, n=23, s=4, sigma0=0.1)
            chunks = list(sim._prepare(setup, [(9, t) for t in range(5)]))
            assert [len(chunk.seeds) for chunk in chunks] == sizes
            for t, metrics in enumerate(monte_carlo(setup, 5, 9).metrics):
                assert metrics == run_trial(setup, (9, t))

    def test_lcc_chunks_bound_its_augmented_vandermonde(self, monkeypatch):
        # K = 5 and cubic f: lcc's batched decode factors a (19, 13 + 1)
        # augmented matrix per trial, so its chunks hold N x 14 values per trial
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * 23 * 14)
        sizes, decode_stack = [], sim.baselines._lcc_decode_stack

        def counted_stack(grid, indices, outputs, f_degree):
            sizes.append(len(indices))
            return decode_stack(grid, indices, outputs, f_degree)

        monkeypatch.setattr(sim.baselines, "_lcc_decode_stack", counted_stack)
        setup = _setup("lcc", k=5, n=23, s=4, sigma0=0.1, func=make_worker("cubic"))
        agg = monte_carlo(setup, 5, 9)
        assert sizes == [2, 2, 1]
        for t, metrics in enumerate(agg.metrics):
            assert metrics == run_trial(setup, (9, t))

    def test_unused_generators_are_not_built(self, monkeypatch):
        # the streams requested from the seeder, and the generators built
        rows, built = [], []
        states, pcg64 = sim._stream_states, np.random.PCG64

        def counted(entropy_rows):
            rows.extend(entropy_rows)
            return states(entropy_rows)

        def counted_pcg64(*args):
            built.append(args)
            return pcg64(*args)

        monkeypatch.setattr(sim, "_stream_states", counted)
        monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
        quiet = _setup(s=2, mode="fixed", fixed_stragglers=(3, 17), data_rule="identity")
        monte_carlo(quiet, 5, 0)
        assert rows == [] and built == []
        monte_carlo(_setup(sigma0=0.1), 5, 0)
        assert sorted(rows) == sorted((0, t, stream) for t in range(5)
                                      for stream in (sim._STREAM_DATA,
                                                     sim._STREAM_STRAGGLERS,
                                                     sim._STREAM_NOISE))
        assert len(built) == 1  # one generator serves every stream of the call

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


def test_aggregate_of_zero_trials_raises():
    empty = sim.TrialColumns("letcc", (), None, None, (), None, (), (), ())
    with pytest.raises(ValueError, match="^need at least one trial$"):
        sim.aggregate(empty)


class TestMonteCarloLambdas:
    LAMS = (0.0, 1e-9, 1e-5, 1.0)

    # one chunk, three trials a chunk, one trial a chunk
    @pytest.mark.parametrize("chunk_values", [None, 3 * 23 * 4, 1])
    @pytest.mark.parametrize("worker", ["sin_pi", "tanh_net"])
    @pytest.mark.parametrize("mode", ["uniform", "fixed"])
    def test_each_weight_equals_monte_carlo_at_that_weight(self, mode, worker, chunk_values,
                                                           monkeypatch):
        if chunk_values is not None:
            monkeypatch.setattr(sim, "_CHUNK_VALUES", chunk_values)
        kw = {"mode": "fixed", "fixed_stragglers": (0, 7, 8, 22)} if mode == "fixed" else {}
        setup = _setup(k=5, n=23, s=4, sigma0=0.1, lambda_e=1e-3, func=make_worker(worker),
                       **kw)
        aggs = monte_carlo_lambdas(setup, 7, 31, self.LAMS)
        assert len(aggs) == len(self.LAMS)
        for lam, agg in zip(self.LAMS, aggs):
            assert agg == monte_carlo(replace(setup, lambda_d=lam), 7, 31)

    @pytest.mark.parametrize("scheme", ["bacc", "lcc"])
    def test_baselines_take_one_weight(self, scheme):
        setup = _setup(scheme, k=5, n=23, s=4, sigma0=0.1, func=make_worker("cubic"))
        (agg,) = monte_carlo_lambdas(setup, 4, 2, (1e-3,))
        assert agg == monte_carlo(setup, 4, 2)
        with pytest.raises(ValueError, match="no decoder weight"):
            monte_carlo_lambdas(setup, 4, 2, (0.0, 1e-3))

    def test_weights_are_a_nonempty_sequence(self):
        with pytest.raises(ValueError, match="at least one"):
            monte_carlo_lambdas(_setup(), 2, 0, ())
        with pytest.raises(TypeError):
            monte_carlo_lambdas(_setup(), 2, 0, 1e-3)

    def test_zero_trials_raise(self):
        with pytest.raises(ValueError, match="^need at least one trial$"):
            monte_carlo_lambdas(_setup(), 0, 2, (1e-3,))

    @pytest.mark.parametrize("lams", [(1e-3, -1.0), (np.inf,), (np.nan, 0.0)])
    def test_bad_weight_raises_before_any_trial(self, lams, monkeypatch):
        monkeypatch.setattr(sim, "_prepare", lambda *a: pytest.fail("a trial was prepared"))
        with pytest.raises(ValueError, match="^lambda_d must be a finite nonnegative real"):
            monte_carlo_lambdas(_setup(), 2, 0, lams)

    def test_chunks_bound_the_values_of_every_weight(self, monkeypatch):
        # a decode at L weights holds L fits per trial: 2 trials of N x d
        # values at 5 weights fill a chunk
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * 23 * 5)
        sizes, decode_stack = [], sim.coding._decode_stack

        def counted_stack(grid, indices, outputs, lambdas):
            sizes.append((len(indices), len(lambdas)))
            return decode_stack(grid, indices, outputs, lambdas)

        monkeypatch.setattr(sim.coding, "_decode_stack", counted_stack)
        monte_carlo_lambdas(_setup(k=5, n=23, s=4, sigma0=0.1), 5, 9, (1e-6,) * 5)
        assert sizes == [(2, 5), (2, 5), (1, 5)]

    def test_memory_at_65536_workers_does_not_grow_with_trials(self):
        setup = _setup(k=8, n=65536, s=64, sigma0=0.1)
        lams = tuple(65536.0 ** -4 * 10.0 ** e for e in range(4))
        peaks = []
        for trials in (1, 8):
            tracemalloc.start()
            try:
                monte_carlo_lambdas(setup, trials, 5, lams)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]


class TestStreamSeeder:
    # one-word, word-boundary and multi-word entropy values: 2**32 and
    # 2**64 + 5 take two and three SeedSequence words, 0 takes one
    VALUES = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 101, 202, 303)

    @pytest.mark.parametrize("vector_rows", [1, 10**9])
    def test_states_and_draws_equal_trial_rng(self, vector_rows, monkeypatch):
        # every word count through the vectorised pass, or none of them
        monkeypatch.setattr(sim, "_VECTOR_ROWS", vector_rows)
        rng = np.random.default_rng(11)
        # and a row of 71 words, with its own table of hash constants
        rows = [(0,), (2**32 - 1,), (2**32,), (2**64 + 5,), (0,) * 6, (2**32,) * 3,
                (2**(32 * 70) + 9, 3)]
        for width in range(1, 7):
            for _ in range(30):
                rows.append(tuple(int(rng.choice(self.VALUES)) if rng.random() < 0.5
                                  else int(rng.integers(2**32)) for _ in range(width)))
        assert {len(sim._words(row)) for row in rows} >= set(range(1, 7))
        states = sim._stream_states(rows)  # all widths in one call
        gen = np.random.Generator(np.random.PCG64())
        for row, state in zip(rows, states, strict=True):
            reference = trial_rng(row[:-1], row[-1])
            assert state == reference.bit_generator.state
            gen.bit_generator.state = state
            assert np.array_equal(gen.random(4), reference.random(4))
            assert np.array_equal(gen.normal(size=3), reference.normal(size=3))

    def test_negative_entropy_raises_as_trial_rng(self, monkeypatch):
        with pytest.raises(ValueError) as reference:
            trial_rng((5, -1), 101)
        for vector_rows in (1, 10**9):
            monkeypatch.setattr(sim, "_VECTOR_ROWS", vector_rows)
            with pytest.raises(ValueError) as got:
                sim._stream_states([(7, 0, 303), (5, -1, 101)])
            assert str(got.value) == str(reference.value)
        with pytest.raises(ValueError) as got:
            monte_carlo(_setup(), 2, -3)
        assert str(got.value) == str(reference.value)

    @pytest.mark.parametrize("stragglers", [
        {"s": 4},
        {"s": 4, "mode": "fixed", "fixed_stragglers": (0, 7, 8, 22)},
        {"s": 0},
    ])
    @pytest.mark.parametrize("chunk_values", [None, 2 * 23])
    def test_trials_draw_their_own_streams(self, chunk_values, stragglers, monkeypatch):
        # a trial's data and stragglers are those of trial_rng on its seed,
        # whatever chunk it is prepared in
        if chunk_values is not None:  # two trials per prepared chunk
            monkeypatch.setattr(sim, "_CHUNK_VALUES", chunk_values)
        setup = _setup(k=5, n=23, sigma0=0.1, **stragglers)
        chunks = list(sim._prepare(setup, [(9, t) for t in range(5)]))
        assert [len(chunk.seeds) for chunk in chunks] == ([5] if chunk_values is None
                                                         else [2, 2, 1])
        trials = [(chunk, i) for chunk in chunks for i in range(len(chunk.seeds))]
        for t, (chunk, i) in enumerate(trials):
            inputs = trial_rng((9, t), sim._STREAM_DATA).uniform(-1.0, 1.0, (5, 1))
            survivors = sample_stragglers(setup.stragglers,
                                          trial_rng((9, t), sim._STREAM_STRAGGLERS))
            assert chunk.seeds[i] == (9, t)
            assert np.array_equal(chunk.indices[i], survivors)
            assert np.array_equal(chunk.truth[i], setup.func.evaluate(inputs))


class TestInputRules:
    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    @pytest.mark.parametrize("rule", ["uniform", "identity", "given"])
    def test_each_trial_sees_its_own_rows_and_equals_run_trial(self, scheme, rule):
        rows = []
        cubic = make_worker("cubic")
        func = WorkerFunction("counted_cubic", lambda x: rows.append(len(x)) or cubic.fn(x),
                              1, 1, degree=3)
        data = Dataset(np.linspace(-0.9, 0.8, 8)[:, None]) if rule == "given" else None
        setup = _setup(scheme, k=8, n=24, s=4, sigma0=0.1, lambda_e=1e-3, lambda_d=1e-5,
                       func=func, data=data,
                       data_rule="identity" if rule == "identity" else "uniform")
        agg = monte_carlo(setup, 5, 3)
        # per trial: f at its K inputs (and, for letcc, at the encoder's
        # knot values), then at its 20 survivors
        assert sorted(rows) == [8] * 5 * (2 if scheme == "letcc" else 1) + [20] * 5
        for t, metrics in enumerate(agg.metrics):
            assert metrics == run_trial(setup, (3, t))


class TestNonFiniteValues:
    # K = 8 first-kind alphas and N = 24 second-kind betas share no point,
    # so a cubic that is NaN at the alphas alone is finite at every coded value
    ALPHAS = chebyshev_grid(8, 24).alphas

    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    @pytest.mark.parametrize("where, message", [
        ("alphas", r"truth values f\(x_k\) contain"),
        ("elsewhere", "survivor outputs contain"),
    ])
    def test_monte_carlo_and_run_trial_raise(self, scheme, where, message):
        def fn(x):
            at_alphas = np.isin(x, self.ALPHAS)
            return np.where(at_alphas if where == "alphas" else ~at_alphas, np.nan, x**3)

        func = WorkerFunction("nan_cubic", fn, 1, 1, degree=3)
        setup = _setup(scheme, k=8, n=24, s=4, func=func, data_rule="identity")
        with pytest.raises(ValueError, match=message + " non-finite values"):
            monte_carlo(setup, 3, 0)
        with pytest.raises(ValueError, match=message + " non-finite values"):
            run_trial(setup, 0)

    def test_letcc_through_encoder_values_raise(self):
        # f is NaN at the smoothing encoder's values at the alphas alone,
        # finite at the inputs and at every coded value
        grid = chebyshev_grid(8, 24)
        data = Dataset(np.sin(3.0 * self.ALPHAS)[:, None])
        knots = sim.coding.encode(data, grid, 1e-3).encoder_fit.coefficients

        def fn(x):
            return np.where(np.isclose(x, knots.T, rtol=0.0, atol=1e-12).any(axis=1,
                                                                             keepdims=True),
                            np.nan, x**3)

        setup = _setup(k=8, n=24, s=4, lambda_e=1e-3, data=data,
                       func=WorkerFunction("nan_cubic", fn, 1, 1))
        message = r"through-encoder values f\(u_enc\(alpha_k\)\) contain non-finite values"
        with pytest.raises(ValueError, match=message):
            monte_carlo(setup, 3, 0)
        with pytest.raises(ValueError, match=message):
            run_trial(setup, 0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    def test_non_finite_risk_raises_naming_scheme_and_seed(self, scheme):
        # worker noise of 1e200 overflows the squared error to inf
        setup = _setup(scheme, sigma0=1e200, lambda_d=1e-6, func=make_worker("cubic"))
        with pytest.raises(ValueError, match=rf"^{scheme} trial with seed \(4,\) has "
                                             r"non-finite risk (inf|nan)$"):
            run_trial(setup, 4)
        with pytest.raises(ValueError, match=rf"^{scheme} trial with seed \(9, 0\) has "):
            monte_carlo(setup, 3, 9)


class TestRelacc:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="matching shapes"):
            relacc(np.zeros((4, 3)), np.zeros((4, 2)))

    def test_perfect_agreement(self, rng):
        x = rng.uniform(0, 1, (10, 4))
        assert relacc(x, x) == 1.0

    def test_negation_breaks_agreement(self):
        truth = np.array([[3.0, 1.0, 2.0], [1.0, 5.0, 2.0]])
        assert relacc(-truth, truth) < 1.0

    def test_scalar_outputs_not_applicable(self):
        assert relacc(np.zeros((4, 1)), np.zeros((4, 1))) is None
