import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import on_empty_memo, trial_setup, zero_worker
from letcc import sim, spline, streams
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
)
from letcc.streams import trial_rng


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
        model = StragglerModel(n=8, s=2, fixed_stragglers=(1, 5))
        for seed in range(5):
            survivors = sample_stragglers(model, trial_rng(seed, 1))
            assert survivors.tolist() == [0, 2, 3, 4, 6, 7]

    def test_fixed_mode_validation(self):
        with pytest.raises(ValueError):
            StragglerModel(n=8, s=2, fixed_stragglers=(1,))
        with pytest.raises(ValueError):
            StragglerModel(n=8, s=2, fixed_stragglers=(1, 9))

    @pytest.mark.parametrize("stragglers, message", [
        ((3, 3), "fixed_stragglers contains duplicates"),
        ((0, 0, 0), "fixed_stragglers contains duplicates"),
        ((), "fixed_stragglers size must equal S"),
        ((0, 1, 2), "fixed_stragglers size must equal S"),
    ])
    def test_fixed_set_messages(self, stragglers, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StragglerModel(n=8, s=2, fixed_stragglers=stragglers)

    def test_given_fixed_stragglers_are_the_stragglers_of_every_trial(self):
        # the set alone decides the draw: no rng is read, none is needed
        model = StragglerModel(8, 2, fixed_stragglers=(0, 1))
        assert sample_stragglers(model, None).tolist() == [2, 3, 4, 5, 6, 7]
        assert sample_stragglers(StragglerModel(8, 2), trial_rng(0, 1)).size == 6
        with pytest.raises(ValueError, match="^uniform stragglers need an rng to draw them$"):
            sample_stragglers(StragglerModel(8, 2), None)

    @pytest.mark.parametrize("bad", [0.7, 1.2, np.nan, np.inf])
    def test_fractional_fixed_stragglers_raise(self, bad):
        with pytest.raises(ValueError, match=f"straggler index {bad} is not an integer"):
            StragglerModel(n=8, s=2, fixed_stragglers=(bad, 3))

    def test_boolean_fixed_stragglers_raise(self):
        with pytest.raises(ValueError, match="straggler index must be an integer, got bool"):
            StragglerModel(n=8, s=2, fixed_stragglers=(True, False))

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_among_integer_fixed_stragglers_raises(self, flag):
        # numpy reads (True, 3) as (1, 3)
        with pytest.raises(ValueError, match="straggler index must be an integer, got bool"):
            StragglerModel(n=8, s=2, fixed_stragglers=(flag, 3))

    def test_column_of_fixed_stragglers_raises(self):
        with pytest.raises(ValueError, match=r"^straggler index array must be one-dimensional, "
                                             r"got shape \(2, 1\)$"):
            StragglerModel(8, 2, fixed_stragglers=np.array([[1], [3]]))

    def test_fixed_stragglers_outside_workers_raise(self):
        with pytest.raises(ValueError, match=r"^straggler index 8 outside \[0, 8\)$"):
            StragglerModel(n=8, s=2, fixed_stragglers=(8, 3))
        with pytest.raises(ValueError, match=r"^straggler index -1 outside \[0, 8\)$"):
            StragglerModel(n=8, s=2, fixed_stragglers=(3, -1))

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
        model = StragglerModel(n=8, s=2, fixed_stragglers=(5.0, np.float64(1.0)))
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

    def test_draws_without_an_rng_raise_naming_it(self):
        # uniform stragglers and noise above 0 are where a draw is needed
        with pytest.raises(ValueError, match="rng"):
            sample_stragglers(StragglerModel(8, 2), None)
        grid = chebyshev_grid(4, 9)
        batch = CodedBatch(coded=np.linspace(-1, 1, 9)[:, None], encoder_fit=None, grid=grid)
        with pytest.raises(ValueError, match="rng"):
            apply_workers(make_worker("sin_pi"), batch, NoiseModel(0.1), [0, 2, 5], None)

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

    def test_cubic_is_exactly_odd_and_cubes_by_multiplication(self):
        # numpy's power sends negative bases down another path than positive ones
        cubic = make_worker("cubic")
        x = np.random.default_rng(3).uniform(0.0, 1.0, (4096, 1))
        assert np.array_equal(cubic.evaluate(-x), -cubic.evaluate(x))
        stack = np.random.default_rng(4).uniform(-2.0, 2.0, (3, 700, 1))
        assert np.array_equal(sim._evaluate_stack(cubic, stack), stack * stack * stack)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            make_worker("nope")

    def test_built_in_workers_are_names_that_make_worker_builds(self):
        # a table of constructors let sim.WORKER_FUNCTIONS["tanh_net"](2.5, 3)
        # skip the integer rule of make_worker's d and m
        assert sim.WORKER_FUNCTIONS == ("affine", "sin_pi", "cubic", "softplus", "tanh_net")

    @pytest.mark.parametrize("m", [0, 1])
    def test_tanh_net_needs_two_classes(self, m):
        with pytest.raises(ValueError, match="m >= 2"):
            make_worker("tanh_net", d=2, m=m)

    @pytest.mark.parametrize("d", [0, -1])
    def test_tanh_net_needs_an_input(self, d):
        # d = 0 would divide by zero and d < 0 fail inside numpy's seeding
        for build in (lambda: make_worker("tanh_net", d=d, m=3),
                      lambda: make_worker("tanh_net", d)):
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


class TestRunTrial:
    def test_identity_function_near_machine_floor(self):
        ident = WorkerFunction("identity", lambda x: x, 1, 1, lipschitz=1.0,
                               curvature=0.0)
        metrics = run_trial(trial_setup(func=ident, s=0, data_rule="identity"), seed=3)
        assert metrics.empirical_risk <= 1e-12

    def test_mismatched_or_unknown_setup_fields_rejected(self):
        grid = chebyshev_grid(4, 12)
        base = dict(scheme="letcc", func=make_worker("sin_pi"), grid=grid,
                    stragglers=StragglerModel(12, 2), noise=NoiseModel(0.0))
        cases = [
            ({"stragglers": StragglerModel(13, 2)},
             "straggler model N must match grid worker count"),
            # the encoders' row rule and message, and the data rule checked
            # also beside given data
            ({"data": Dataset(np.zeros((5, 1)))}, "dataset has 5 rows but grid has 4 alphas"),
            ({"data_rule": "gaussian"}, "unknown data rule 'gaussian'"),
            ({"data": Dataset(np.zeros((4, 1))), "data_rule": "bogus"},
             "unknown data rule 'bogus'"),
            ({"data_rule": "identity", "func": make_worker("tanh_net", d=2, m=3)},
             "identity data rule requires a 1-D worker function"),
        ]
        for change, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                TrialSetup(**dict(base, **change))

    def test_lcc_without_degree_rejected_at_setup(self):
        with pytest.raises(ValueError, match="lcc needs a declared polynomial degree"):
            trial_setup(scheme="lcc")  # sin_pi declares no degree
        trial_setup(scheme="lcc", f_degree=3)
        trial_setup(scheme="lcc", func=make_worker("cubic"))

    def test_f_degree_holds_the_resolved_degree(self):
        cubic = make_worker("cubic")
        assert trial_setup(scheme="lcc", func=cubic).f_degree == 3
        assert trial_setup(scheme="lcc", func=cubic, f_degree=2.0).f_degree == 2
        assert trial_setup(func=cubic).f_degree is None  # letcc resolves none
        assert trial_setup(func=cubic, f_degree=np.int64(1)).f_degree == 1
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
            trial_setup(scheme=scheme, func=make_worker("cubic"), f_degree=f_degree)

    def test_bad_declared_degree_rejected_for_lcc(self):
        half = WorkerFunction("half_cubic", make_worker("cubic").fn, 1, 1, degree=1.5)
        with pytest.raises(ValueError, match="^f_degree 1.5 is not an integer$"):
            trial_setup(scheme="lcc", func=half)
        trial_setup(scheme="lcc", func=half, f_degree=3)

    def test_replace_resolves_the_lcc_degree_again(self):
        cubic = trial_setup(scheme="lcc", func=make_worker("cubic"))
        affine = replace(cubic, func=make_worker("affine"))
        assert run_trial(affine, 3) == run_trial(
            trial_setup(scheme="lcc", func=make_worker("affine")), 3)
        assert run_trial(replace(affine, f_degree=3), 3) == run_trial(
            trial_setup(scheme="lcc", func=make_worker("affine"), f_degree=3), 3)
        with pytest.raises(ValueError, match="lcc needs a declared polynomial degree"):
            replace(cubic, func=make_worker("sin_pi"))

    @pytest.mark.parametrize("weight", ["lambda_e", "lambda_d"])
    @pytest.mark.parametrize("value", [-1e-9, np.inf, np.nan])
    def test_bad_weight_rejected_at_setup(self, weight, value):
        with pytest.raises(ValueError, match=f"^{weight} must be a finite nonnegative real"):
            trial_setup(**{weight: value})

    def test_same_seed_bit_identical(self):
        a = run_trial(trial_setup(sigma0=0.1, lambda_d=1e-5), seed=11)
        b = run_trial(trial_setup(sigma0=0.1, lambda_d=1e-5), seed=11)
        assert a == b

    def test_lcc_exact_when_threshold_met(self):
        setup = trial_setup(scheme="lcc", func=make_worker("cubic"), k=3, n=10, s=2)
        metrics = run_trial(setup, seed=5)
        assert metrics.empirical_risk <= 1e-10
        assert metrics.l_dec is None and metrics.l_enc is None

    def test_letcc_reports_decomposition_terms(self):
        metrics = run_trial(trial_setup(sigma0=0.1, lambda_d=1e-4), seed=2)
        assert metrics.l_dec is not None and metrics.l_enc is not None
        assert metrics.empirical_risk <= metrics.l_dec + metrics.l_enc + 1e-9

    def test_bacc_trial_runs(self):
        metrics = run_trial(trial_setup(scheme="bacc"), seed=8)
        assert np.isfinite(metrics.empirical_risk)
        assert metrics.l_dec is None

    def test_exact_polynomial_recovery_gives_perfect_relacc(self):
        # vector quadratic decoded exactly by the polynomial scheme at its
        # threshold: matching argmax rows give relacc 1.0
        poly2 = WorkerFunction("vec_quad", lambda x: np.hstack([x**2, 1.0 - x**2]),
                               1, 2, degree=2)
        setup = trial_setup(scheme="lcc", func=poly2, k=3, n=12, s=3)
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
    setup = trial_setup(sigma0=0.1, lambda_d=1e-5)
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
    setup = trial_setup(k=16, n=64, s=5, sigma0=0.1, lambda_e=1e-3, func=make_worker(worker),
                   data_rule="uniform")
    (chunk,) = sim._prepare(setup, [(5, t) for t in range(4)])
    alone = [trial for t in range(4) for trial in sim._prepare(setup, [(5, t)])]
    lams = (0.0, 1e-9, 1e-4, 1.0, 1e16)
    estimates, degraded = sim._decode_chunk(setup, chunk, lams)
    scores = sim._score(setup, chunk, estimates, degraded)
    stacked = sim._results(setup.scheme, [scores])
    for j, (lam, result) in enumerate(zip(lams, stacked, strict=True)):
        # the (L, T) stack equals each weight alone, and each trial alone
        at_weight = sim._score(setup, chunk, estimates[j:j + 1], degraded)
        assert result == sim._results(setup.scheme, [at_weight])[0]
        each = [sim._score(setup, alone[t], estimates[j:j + 1, t:t + 1], degraded)
                for t in range(4)]
        for t in range(4):
            # risks, l_dec terms, l_enc terms and agreements, bit for bit
            for part, single in zip(scores[:4], each[t][:4], strict=True):
                if part is None:
                    assert single is None
                else:
                    index = (j, t) if part.ndim == 2 else (t,)
                    assert part[index].tobytes() == single.flat[0].tobytes()
        for t, metrics in enumerate(result.metrics):
            assert metrics == sim._results(setup.scheme, [each[t]])[0].metrics[0]
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
    letcc = trial_setup(k=5, n=23, s=4, sigma0=0.1, lambda_e=1e-3, func=make_worker("tanh_net"))
    bacc = trial_setup("bacc", k=5, n=23, s=4, sigma0=0.1)
    lcc = trial_setup("lcc", k=5, n=23, s=4, sigma0=0.1, func=make_worker("cubic"))
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
        assert metrics == tuple(on_empty_memo(run_trial, setup, (2, t)) for t in range(6))
        counts.update(none)


def test_risk_bound_violation_raises(understated_l_enc):
    setup = trial_setup(lambda_e=1e-2, lambda_d=1e-6)
    with pytest.raises(sim.RiskBoundViolation, match=r"risk decomposition violated: .* \+ 0\.0$"):
        run_trial(setup, 3)
    with pytest.raises(sim.RiskBoundViolation, match="risk decomposition violated"):
        monte_carlo(setup, 5, 1)
    with pytest.raises(sim.RiskBoundViolation, match="risk decomposition violated"):
        monte_carlo_lambdas(setup, 5, 1, (1e-6, 1e-3))


class TestMonteCarlo:
    def test_single_trial_flagged_degenerate(self):
        agg = monte_carlo(trial_setup(), trials=1, master_seed=0)
        assert agg.degenerate_ci
        assert agg.std_mse == 0.0
        assert agg.ci95_lo == agg.ci95_hi == agg.mean_mse

    def test_deterministic_scheme_zero_std(self, rng):
        data = Dataset(rng.uniform(-1, 1, (8, 1)))
        setup = trial_setup(s=2, data=data, fixed_stragglers=(3, 17))
        agg = monte_carlo(setup, trials=10, master_seed=1)
        assert agg.std_mse == 0.0

    def test_bit_exact_reproducibility(self):
        a = monte_carlo(trial_setup(sigma0=0.1), trials=20, master_seed=99)
        b = monte_carlo(trial_setup(sigma0=0.1), trials=20, master_seed=99)
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
        if chunk_values is not None:  # chunks of 3, 3, 2 and 2 trials
            monkeypatch.setattr(sim, "_CHUNK_VALUES", chunk_values)
        func = make_worker(worker)
        kw = {"fixed_stragglers": (0, 7, 8, 22)} if mode == "fixed" else {}
        # lcc needs a degree for the workers that declare none
        setup = trial_setup(scheme=scheme, k=5, n=23, s=4, sigma0=sigma0, lambda_d=1e-6,
                       lambda_e=1e-3, func=func,
                       f_degree=2 if func.degree is None else None, **kw)
        agg = monte_carlo(setup, 10, 31)
        for t, metrics in enumerate(agg.metrics):
            assert metrics == on_empty_memo(run_trial, setup, (31, t))

    @pytest.mark.parametrize("sigma0", [0.0, 0.1])
    @pytest.mark.parametrize("worker", sorted(sim.WORKER_FUNCTIONS))
    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    def test_vectorised_draws_at_every_chunk_size_equal_run_trial(self, scheme, worker, sigma0,
                                                                   monkeypatch):
        # chunks of 3, 3, 2 and 2 trials, each seeded and drawn vectorised
        monkeypatch.setattr(streams, "_VECTOR_DRAWS", 1)
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 3 * 23)
        func = make_worker(worker)
        setup = trial_setup(scheme=scheme, k=5, n=23, s=4, sigma0=sigma0, lambda_d=1e-6,
                            lambda_e=1e-3, func=func, f_degree=2 if func.degree is None else None)
        agg = monte_carlo(setup, 10, 31)
        monkeypatch.setattr(streams, "_VECTOR_DRAWS", 10**9)
        assert agg.columns == on_empty_memo(monte_carlo, setup, 10, 31).columns
        for t, metrics in enumerate(agg.metrics):
            assert metrics == on_empty_memo(run_trial, setup, (31, t))

    def test_bacc_chunks_bound_its_decode_weights(self, monkeypatch):
        # bacc's batched decode holds (K, N) weights per trial, so its
        # chunks hold N x K values per trial where letcc's hold N x d
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * 23 * 5)
        for scheme, sizes in (("bacc", [2, 2, 1]), ("letcc", [5])):
            setup = trial_setup(scheme, k=5, n=23, s=4, sigma0=0.1)
            chunks = list(sim._prepare(setup, [(9, t) for t in range(5)]))
            assert [len(chunk.seeds) for chunk in chunks] == sizes
            for t, metrics in enumerate(monte_carlo(setup, 5, 9).metrics):
                assert metrics == on_empty_memo(run_trial, setup, (9, t))

    def test_lcc_chunks_bound_its_augmented_vandermonde(self, monkeypatch):
        # K = 5 and cubic f: lcc's batched decode factors a (19, 13 + 1)
        # augmented matrix per trial, so its chunks hold N x 14 values per trial
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * 23 * 14)
        sizes, decode_stack = [], sim.baselines._lcc_decode_stack

        def counted_stack(grid, indices, outputs, f_degree):
            sizes.append(len(indices))
            return decode_stack(grid, indices, outputs, f_degree)

        monkeypatch.setattr(sim.baselines, "_lcc_decode_stack", counted_stack)
        setup = trial_setup("lcc", k=5, n=23, s=4, sigma0=0.1, func=make_worker("cubic"))
        agg = monte_carlo(setup, 5, 9)
        assert sizes == [2, 2, 1]
        for t, metrics in enumerate(agg.metrics):
            assert metrics == on_empty_memo(run_trial, setup, (9, t))

    def test_memory_at_65536_workers_does_not_grow_with_trials(self):
        # 8-dimensional inputs: 32 trials' coded values alone take 128 MB
        setup = trial_setup(k=8, n=65536, s=64, sigma0=0.1, lambda_d=65536.0 ** -4,
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
            setup = trial_setup(k=16, n=64, s=s, lambda_d=64.0**-4, data_rule="identity")
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

    # one chunk, chunks of 3, 2 and 2 trials, one trial a chunk
    @pytest.mark.parametrize("chunk_values", [None, 3 * 23 * 4, 1])
    @pytest.mark.parametrize("worker", ["sin_pi", "tanh_net"])
    @pytest.mark.parametrize("mode", ["uniform", "fixed"])
    def test_each_weight_equals_monte_carlo_at_that_weight(self, mode, worker, chunk_values,
                                                           monkeypatch):
        if chunk_values is not None:
            monkeypatch.setattr(sim, "_CHUNK_VALUES", chunk_values)
        kw = {"fixed_stragglers": (0, 7, 8, 22)} if mode == "fixed" else {}
        setup = trial_setup(k=5, n=23, s=4, sigma0=0.1, lambda_e=1e-3, func=make_worker(worker),
                       **kw)
        aggs = monte_carlo_lambdas(setup, 7, 31, self.LAMS)
        assert len(aggs) == len(self.LAMS)
        for lam, agg in zip(self.LAMS, aggs):
            assert agg == monte_carlo(replace(setup, lambda_d=lam), 7, 31)
            assert agg == sim.aggregate(agg.columns)  # the weights' one pass, each alone

    @pytest.mark.parametrize("scheme", ["bacc", "lcc"])
    def test_baselines_take_one_weight(self, scheme):
        setup = trial_setup(scheme, k=5, n=23, s=4, sigma0=0.1, func=make_worker("cubic"))
        (agg,) = monte_carlo_lambdas(setup, 4, 2, (1e-3,))
        assert agg == monte_carlo(setup, 4, 2)
        with pytest.raises(ValueError, match="no decoder weight"):
            monte_carlo_lambdas(setup, 4, 2, (0.0, 1e-3))

    def test_weights_are_a_nonempty_sequence(self):
        with pytest.raises(ValueError, match="at least one"):
            monte_carlo_lambdas(trial_setup(), 2, 0, ())
        with pytest.raises(TypeError):
            monte_carlo_lambdas(trial_setup(), 2, 0, 1e-3)

    def test_zero_trials_raise(self):
        with pytest.raises(ValueError, match="^need at least one trial$"):
            monte_carlo_lambdas(trial_setup(), 0, 2, (1e-3,))

    @pytest.mark.parametrize("lams", [(1e-3, -1.0), (np.inf,), (np.nan, 0.0)])
    def test_bad_weight_raises_before_any_trial(self, lams, monkeypatch):
        monkeypatch.setattr(sim, "_prepare", lambda *a: pytest.fail("a trial was prepared"))
        with pytest.raises(ValueError, match="^lambda_d must be a finite nonnegative real"):
            monte_carlo_lambdas(trial_setup(), 2, 0, lams)

    def test_chunks_bound_the_values_of_every_weight(self, monkeypatch):
        # a decode at L weights holds L fits per trial: 2 trials of N x d
        # values at 5 weights fill a chunk
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 2 * 23 * 5)
        sizes, decode_stack = [], sim.coding._decode_stack

        def counted_stack(grid, indices, outputs, lambdas):
            sizes.append((len(indices), len(lambdas)))
            return decode_stack(grid, indices, outputs, lambdas)

        monkeypatch.setattr(sim.coding, "_decode_stack", counted_stack)
        monte_carlo_lambdas(trial_setup(k=5, n=23, s=4, sigma0=0.1), 5, 9, (1e-6,) * 5)
        assert sizes == [(2, 5), (2, 5), (1, 5)]

    def test_memory_at_65536_workers_does_not_grow_with_trials(self):
        setup = trial_setup(k=8, n=65536, s=64, sigma0=0.1)
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


def _chunk_sizes(setup, trials, weights=1):
    return [len(chunk.seeds)
            for chunk in sim._prepare(setup, [(9, t) for t in range(trials)], weights)]


class TestChunkSplit:
    # a call's trials split into as few chunks as the bound allows, of
    # sizes within one of each other, the larger first

    def test_mc_small_lcc_call_splits_evenly(self):
        # K = 8 and cubic f: N x 23 values a trial, 44 trials a chunk at most
        setup = trial_setup("lcc", k=8, n=64, s=8, sigma0=0.1, func=make_worker("cubic"))
        assert _chunk_sizes(setup, 50) == [25, 25]
        for t, metrics in enumerate(monte_carlo(setup, 50, 9).metrics):
            assert metrics == on_empty_memo(run_trial, setup, (9, t))

    def test_crossval_noisy_call_splits_evenly(self):
        # N = 256 values a trial at each of 14 weights: 18 trials a chunk at most
        setup = trial_setup(k=16, n=256, s=32, sigma0=0.1)
        lams = tuple(10.0 ** -e for e in range(13, -1, -1))
        assert _chunk_sizes(setup, 20, len(lams)) == [10, 10]
        aggs = monte_carlo_lambdas(setup, 20, 9, lams)
        for lam, agg in zip(lams, aggs):
            at_weight = replace(setup, lambda_d=lam)
            for t, metrics in enumerate(agg.metrics):
                assert metrics == on_empty_memo(run_trial, at_weight, (9, t))

    def test_nine_trials_at_a_bound_of_eight(self, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 8 * 24)
        setup = trial_setup(sigma0=0.1)
        assert _chunk_sizes(setup, 9) == [5, 4]
        for t, metrics in enumerate(monte_carlo(setup, 9, 9).metrics):
            assert metrics == on_empty_memo(run_trial, setup, (9, t))

    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 8])
    def test_sizes_within_one_larger_first(self, bound, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK_VALUES", bound * 24)
        setup = trial_setup(s=2, fixed_stragglers=(3, 17), data_rule="identity")
        for trials in range(1, 18):
            sizes = _chunk_sizes(setup, trials)
            assert sum(sizes) == trials and len(sizes) == -(-trials // bound)
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


@pytest.mark.parametrize("func", [zero_worker(1), zero_worker(3), make_worker("tanh_net")],
                         ids=lambda func: func.name)
@pytest.mark.parametrize("sigma0", [1e-300, 0.1, 3.0])
def test_noise_adds_what_normal_draws(sigma0, func, rng):
    # chunks of one and nine trials, and apply_workers: f plus, bit for bit,
    # normal(0.0, sigma0) on the trial's noise stream
    setup = trial_setup(k=5, n=23, s=4, sigma0=sigma0, func=func)
    for trials in (1, 9):
        seeds = [(4, t) for t in range(trials)]
        chunk, = sim._prepare(setup, seeds)
        clean, = sim._prepare(replace(setup, noise=NoiseModel(0.0)), seeds)
        for seed, outputs, values in zip(seeds, chunk.outputs, clean.outputs, strict=True):
            noise = trial_rng(seed, streams._NOISE).normal(0.0, sigma0, (19, func.out_dim))
            assert outputs.tobytes() == (values + noise).tobytes()
    batch = CodedBatch(coded=rng.uniform(-1, 1, (16, func.in_dim)), encoder_fit=None,
                       grid=chebyshev_grid(4, 16))
    survivors = np.array([0, 3, 4, 9, 15])
    returns = apply_workers(func, batch, NoiseModel(sigma0), survivors,
                            trial_rng(4, streams._NOISE))
    noise = trial_rng(4, streams._NOISE).normal(0.0, sigma0, (5, func.out_dim))
    assert returns.outputs.tobytes() == (func.evaluate(batch.coded[survivors]) + noise).tobytes()


class TestStackedWorkers:
    def test_elementwise_builtins_stack_bit_for_bit(self):
        declared = {name for name in sim.WORKER_FUNCTIONS if make_worker(name).elementwise}
        assert declared == {"affine", "sin_pi", "cubic", "softplus"}
        rng = np.random.default_rng(6)
        for name in sorted(declared):
            func = make_worker(name)
            for rows in range(1, 71):
                for trials in (2, 3):
                    stack = rng.uniform(-2.5, 2.5, (trials, rows, func.in_dim))
                    stacked = sim._evaluate_stack(func, stack)
                    for t in range(trials):
                        assert np.array_equal(stacked[t], func.evaluate(stack[t]))

    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    def test_elementwise_worker_runs_once_per_row_set_of_a_chunk(self, scheme):
        rows = []
        cubic = make_worker("cubic")
        func = WorkerFunction("counted_cubic", lambda x: rows.append(len(x)) or cubic.fn(x),
                              1, 1, degree=3, elementwise=True)
        setup = trial_setup(scheme, k=8, n=24, s=4, sigma0=0.1, lambda_e=1e-3, func=func)
        agg = monte_carlo(setup, 5, 3)
        # survivors, inputs and, for letcc, the encoder's knot values
        assert sorted(rows) == sorted([5 * 20, 5 * 8] + ([5 * 8] if scheme == "letcc" else []))
        for t, metrics in enumerate(agg.metrics):
            assert metrics == on_empty_memo(run_trial, setup, (3, t))


class TestInputRules:
    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    @pytest.mark.parametrize("rule", ["uniform", "identity", "given"])
    def test_each_trial_sees_its_own_rows_and_equals_run_trial(self, scheme, rule):
        rows = []
        cubic = make_worker("cubic")
        func = WorkerFunction("counted_cubic", lambda x: rows.append(len(x)) or cubic.fn(x),
                              1, 1, degree=3)
        data = Dataset(np.linspace(-0.9, 0.8, 8)[:, None]) if rule == "given" else None
        setup = trial_setup(scheme, k=8, n=24, s=4, sigma0=0.1, lambda_e=1e-3, lambda_d=1e-5,
                       func=func, data=data,
                       data_rule="identity" if rule == "identity" else "uniform")
        agg = monte_carlo(setup, 5, 3)
        # per trial: f at its 20 survivors, and at its K inputs (and, for
        # letcc, at the encoder's knot values) when it draws them; the one
        # set of given or identity inputs runs once for the chunk
        sets = 5 if rule == "uniform" else 1
        assert sorted(rows) == [8] * sets * (2 if scheme == "letcc" else 1) + [20] * 5
        for t, metrics in enumerate(agg.metrics):
            assert metrics == on_empty_memo(run_trial, setup, (3, t))

    @pytest.mark.parametrize("scheme", sim.SCHEMES)
    @pytest.mark.parametrize("rule", ["identity", "given"])
    def test_one_input_set_runs_once_per_chunk(self, scheme, rule, monkeypatch):
        # a worker that is not elementwise, on 9 trials in several chunks:
        # f sees the truth rows (and, for letcc, the encoder's knot values)
        # once per chunk, the survivors once per trial, and every trial's
        # metrics are its own run_trial's; at N = 24 a trial holds N x 1
        # values for letcc, N x 8 for bacc and N x 23 for lcc: 4 a chunk
        width = {"letcc": 1, "bacc": 8, "lcc": 23}[scheme]
        monkeypatch.setattr(sim, "_CHUNK_VALUES", 4 * 24 * width)
        rows = []
        cubic = make_worker("cubic")
        func = WorkerFunction("counted_cubic", lambda x: rows.append(x.copy()) or cubic.fn(x),
                              1, 1, degree=3)
        data = Dataset(np.linspace(-0.9, 0.8, 8)[:, None]) if rule == "given" else None
        setup = trial_setup(scheme, k=8, n=24, s=4, sigma0=0.1, lambda_e=1e-3, func=func,
                            data=data, data_rule=rule if rule == "identity" else "uniform")
        chunks = _chunk_sizes(setup, 9)
        assert chunks == [3, 3, 3]
        rows.clear()
        agg = monte_carlo(setup, 9, 3)
        inputs = setup.grid.alphas[:, None] if data is None else data.inputs
        truth = [r for r in rows if np.array_equal(r, inputs)]
        assert len(truth) == len(chunks)
        assert sum(len(r) == 20 for r in rows) == 9
        assert len(rows) == 9 + len(chunks) * (2 if scheme == "letcc" else 1)
        for t, metrics in enumerate(agg.metrics):
            assert metrics == on_empty_memo(run_trial, setup, (3, t))

    def test_a_write_into_the_callers_array_leaves_the_trials(self):
        # a Dataset keeps a read-only copy, stacked into every chunk
        inputs = np.linspace(-0.5, 0.5, 6)[:, None]
        setup = trial_setup(k=6, n=23, sigma0=0.1, data=Dataset(inputs))
        before = monte_carlo(setup, 9, 4)
        inputs[2] = 0.9
        agg = monte_carlo(setup, 9, 4)
        unwritten = trial_setup(k=6, n=23, sigma0=0.1,
                                data=Dataset(np.linspace(-0.5, 0.5, 6)[:, None]))
        assert agg.columns == before.columns == on_empty_memo(monte_carlo, unwritten, 9, 4).columns
        assert not setup.data.inputs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            setup.data.inputs[2] = 0.9


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
        setup = trial_setup(scheme, k=8, n=24, s=4, func=func, data_rule="identity")
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

        setup = trial_setup(k=8, n=24, s=4, lambda_e=1e-3, data=data,
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
        setup = trial_setup(scheme, sigma0=1e200, lambda_d=1e-6, func=make_worker("cubic"))
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
