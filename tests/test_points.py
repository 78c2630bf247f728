from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from letcc import cli, experiments, sim
from letcc.baselines import BerrutInterpolant, LagrangePolynomial, lcc_decode
from letcc.coding import Dataset, decode, encode, normalize_survivors
from letcc.experiments import (
    CrossvalConfig,
    StragglerSweepConfig,
    SweepConfig,
    crossval_lambda,
)
from letcc.points import (
    InterpolationGrid,
    _integral_indices,
    chebyshev_first,
    chebyshev_grid,
    chebyshev_second,
    mesh_stats,
)
from letcc.sim import (
    NoiseModel,
    StragglerModel,
    TrialSetup,
    WorkerFunction,
    make_worker,
    monte_carlo,
    monte_carlo_lambdas,
    run_trial,
    sample_stragglers,
    trial_rng,
)
from letcc.spline import fit


class TestChebyshevFirst:
    def test_single_point_is_exact_zero(self):
        assert chebyshev_first(1).tolist() == [0.0]

    def test_two_points(self):
        pts = chebyshev_first(2)
        assert pts == pytest.approx([-np.sqrt(2) / 2, np.sqrt(2) / 2], abs=1e-15)

    def test_matches_cosine_formula(self):
        k = 30
        pts = chebyshev_first(k)
        expected = np.sort(np.cos((2 * np.arange(1, k + 1) - 1) * np.pi / (2 * k)))
        assert pts == pytest.approx(expected, abs=1e-15)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_first(0)

    @given(st.integers(min_value=1, max_value=300))
    def test_strictly_inside_open_interval_and_ascending(self, k):
        pts = chebyshev_first(k)
        assert pts.size == k
        assert np.all(pts > -1) and np.all(pts < 1)
        assert np.all(np.diff(pts) > 0)

    def test_regeneration_is_bit_identical(self):
        assert np.array_equal(chebyshev_first(17), chebyshev_first(17))


class TestChebyshevSecond:
    def test_three_points(self):
        assert chebyshev_second(3).tolist() == [-1.0, 0.0, 1.0]

    def test_five_points(self):
        pts = chebyshev_second(5)
        assert pts == pytest.approx([-1, -np.sqrt(2) / 2, 0, np.sqrt(2) / 2, 1],
                                    abs=1e-15)

    def test_four_points(self):
        # cos((n-1)pi/3) for n = 1..4, sorted ascending
        assert chebyshev_second(4) == pytest.approx([-1, -0.5, 0.5, 1], abs=1e-15)

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_second(2)

    @given(st.integers(min_value=3, max_value=300))
    def test_endpoints_exact_and_ascending(self, n):
        pts = chebyshev_second(n)
        assert pts[0] == -1.0 and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)

    def test_regeneration_is_bit_identical(self):
        assert np.array_equal(chebyshev_second(65), chebyshev_second(65))


class TestMeshStats:
    def test_symmetric_three_point_set(self):
        ms = mesh_stats([-1.0, 0.0, 1.0])
        assert ms.delta_max == 1.0
        assert ms.delta_min == 1.0
        assert ms.ratio == 1.0

    def test_interior_pair_with_boundary_padding(self):
        ms = mesh_stats([-0.5, 0.5])
        assert ms.delta_max == 1.0
        assert ms.delta_min == 1.0

    def test_boundary_gap_can_dominate_max(self):
        ms = mesh_stats([0.0, 0.2])
        assert ms.delta_max == pytest.approx(1.0)
        assert ms.delta_min == pytest.approx(0.2)

    def test_uniform_grid_ratio_near_one(self):
        pts = np.linspace(-1, 1, 41)
        assert mesh_stats(pts).ratio == pytest.approx(1.0)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            mesh_stats([0.0])

    def test_chebyshev_second_max_gap_scales_like_pi_over_n(self):
        # The normalized largest gap is what stays bounded for this family;
        # the raw max/min gap ratio itself grows like 2N/pi because the
        # near-boundary spacing shrinks quadratically.
        for n in list(range(3, 200)) + [512, 1024, 2048, 4096]:
            ms = mesh_stats(chebyshev_second(n))
            assert ms.delta_max * (n - 1) <= np.pi + 1e-12

    def test_chebyshev_second_ratio_growth_documented(self):
        r64 = mesh_stats(chebyshev_second(64)).ratio
        r512 = mesh_stats(chebyshev_second(512)).ratio
        assert r64 > np.pi
        assert r512 > r64


class TestInterpolationGrid:
    def test_chebyshev_grid_shapes(self):
        grid = chebyshev_grid(4, 9)
        assert grid.k == 4 and grid.n == 9

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            InterpolationGrid(alphas=[0.0, 0.0], betas=[-1, 0, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            InterpolationGrid(alphas=[0.0], betas=[-1.5, 0, 1])

    def test_descending_rejected(self):
        with pytest.raises(ValueError):
            InterpolationGrid(alphas=[0.5, -0.5], betas=[-1, 0, 1])

    def test_too_few_betas_rejected(self):
        with pytest.raises(ValueError):
            InterpolationGrid(alphas=[0.0], betas=[-1, 1])

    def test_two_dimensional_points_rejected(self):
        with pytest.raises(ValueError, match="^alphas must be one-dimensional$"):
            InterpolationGrid(alphas=[[0.0]], betas=[-1, 0, 1])

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match="^betas contains non-finite values$"):
            InterpolationGrid(alphas=[0.0], betas=[-1, np.nan, 1])

    def test_equality_is_identity(self):
        a, b = chebyshev_grid(3, 7), chebyshev_grid(3, 7)
        assert (a == b) is False and (a == a) is True
        assert len({a, b}) == 2

    def test_cached_builds_each_key_once(self):
        grid = chebyshev_grid(3, 7)
        built = []
        for key in ("a", "b", "a", "b"):
            value = grid._cached(key, lambda: built.append(key) or [key])
            assert value is grid._cached(key, lambda: [None])
        assert built == ["a", "b"] and list(grid._encoders) == ["a", "b"]
        assert chebyshev_grid(3, 7)._encoders == {}

    def test_points_are_read_only_copies(self):
        alphas = np.array([-0.5, 0.5])
        grid = InterpolationGrid(alphas, [-1.0, 0.0, 1.0])
        alphas[0] = 0.0
        assert grid.alphas[0] == -0.5
        for points in (grid.alphas, grid.betas):
            with pytest.raises(ValueError):
                points[0] = 0.0


def _setup(scheme="letcc", f_degree=None, **change):
    return TrialSetup(**dict(dict(
        scheme=scheme, func=make_worker("cubic"), grid=chebyshev_grid(3, 10),
        stragglers=StragglerModel(10, 1), noise=NoiseModel(0.0), f_degree=f_degree),
        **change))


def _tanh(d, m):
    worker = make_worker("tanh_net", d=d, m=m)
    outputs = worker.evaluate(np.full((2, worker.in_dim), 0.25))
    return worker.name, worker.lipschitz, outputs.tobytes()


def _crossval_config(**change):
    return CrossvalConfig(**dict(dict(func="sin_pi", k=3, n=9, s=1, trials=2), **change))


def _crossval(e_grid=(0.0,), d_grid=(1e-4,), **change):
    return crossval_lambda(e_grid, d_grid, _crossval_config(**change))


def _sweep(**change):
    return SweepConfig(**dict(dict(schemes=("letcc",), func="sin_pi", k=2, n_values=(8,),
                                   s=1), **change))


def _straggler_sweep(**change):
    return StragglerSweepConfig(**dict(dict(schemes=("letcc",), func="sin_pi", k=2, n=8,
                                            s_values=(1,)), **change))


# every public entry that takes a count from outside: (field the error starts
# with, the entry at a count c); each result's repr, or array, is compared
_COUNTS = {
    "chebyshev_first": ("k", chebyshev_first),
    "chebyshev_second": ("n", chebyshev_second),
    "SweepConfig n_values": ("n_values", lambda c: SweepConfig(("letcc",), "sin_pi", 2,
                                                               (c, 8), s=1)),
    "SweepConfig trials": ("trials", lambda c: SweepConfig(("letcc",), "sin_pi", 2, (8,),
                                                           s=1, trials=c)),
    **{f"SweepConfig {name}": (name, lambda c, name=name: _sweep(**{name: c}))
       for name in ("k", "s", "f_degree", "func_d", "func_m")},
    "StragglerSweepConfig s_values": ("s_values", lambda c: StragglerSweepConfig(
        ("letcc",), "sin_pi", 2, 8, (1, c))),
    "StragglerSweepConfig trials": ("trials", lambda c: StragglerSweepConfig(
        ("letcc",), "sin_pi", 2, 8, (1,), trials=c)),
    **{f"StragglerSweepConfig {name}": (name, lambda c, name=name: _straggler_sweep(
        **{name: c})) for name in ("k", "n", "f_degree", "func_d", "func_m")},
    **{f"CrossvalConfig {name}": (name, lambda c, name=name: _crossval_config(**{name: c}))
       for name in ("func_d", "func_m")},
    "WorkerFunction in_dim": ("in_dim", lambda c: WorkerFunction("neg", np.negative, c, 1)),
    "WorkerFunction out_dim": ("out_dim", lambda c: WorkerFunction("neg", np.negative, 1, c)),
    "StragglerModel n": ("StragglerModel n", lambda c: StragglerModel(c, 1)),
    "StragglerModel s": ("StragglerModel s", lambda c: StragglerModel(8, c)),
    "monte_carlo trials": ("trials", lambda c: monte_carlo(_setup(), c, 0)),
    "monte_carlo_lambdas trials": ("trials", lambda c: monte_carlo_lambdas(
        _setup(), c, 0, (0.0, 1e-4))),
    "crossval_lambda k": ("k", lambda c: _crossval(k=c)),
    "crossval_lambda trials": ("trials", lambda c: _crossval(trials=c)),
    "tanh_net d": ("d", lambda c: _tanh(c, 2)),
    "tanh_net m": ("m", lambda c: _tanh(2, c)),
    "lcc_decode f_degree": ("f_degree", lambda c: lcc_decode(
        [(0, [1.0]), (4, [0.5]), (9, [0.25])], chebyshev_grid(3, 10), c).estimates),
    "TrialSetup f_degree": ("f_degree", lambda c: run_trial(_setup("lcc", c), 5)),
    "CLI JSON integer": ("config key 'k': value",
                         lambda c: cli._check_config({"k": c}, ["k"])),
    "CLI JSON integer list": ("config key 'n_values': value",
                              lambda c: cli._check_config({"n_values": [c, 8]},
                                                          ["n_values"])),
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return repr(a) == repr(b)


class TestCountsFromOutside:
    # one rule for every count: an int or an integral float, never a
    # boolean, a string or NaN, and the error names the field
    @pytest.mark.parametrize("bad", [2.5, True, "3", np.nan], ids=repr)
    @pytest.mark.parametrize("entry", list(_COUNTS))
    def test_non_integer_rejected_naming_the_field(self, entry, bad):
        field, call = _COUNTS[entry]
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            call(bad)

    @pytest.mark.parametrize("same", [3.0, np.int64(3)], ids=repr)
    @pytest.mark.parametrize("entry", list(_COUNTS))
    def test_integral_values_give_the_result_of_the_int(self, entry, same):
        _, call = _COUNTS[entry]
        assert _same(call(same), call(3))

    # numpy casts values past int64 around to negative ones; each is refused
    # before the cast, as given, and nothing runs at such a count
    @pytest.mark.parametrize("huge", [np.uint64(2**63), 2.0**63], ids=repr)
    @pytest.mark.parametrize("entry", list(_COUNTS))
    def test_values_past_int64_refused_as_given(self, entry, huge):
        field, call = _COUNTS[entry]
        shown = r"(9223372036854775808|9\.223372036854776e\+18)"
        with pytest.raises(ValueError, match=rf"^{field} {shown} outside "):
            call(huge)

    def test_list_items_read_exactly(self):
        # numpy reads a uint64 among Python ints through float64
        got = _integral_indices([np.uint64(2**53 + 1), 8], "n_values")
        assert got.tolist() == [2**53 + 1, 8]
        message = "^n_values 18446744073709551615 outside the int64 range$"
        with pytest.raises(ValueError, match=message):
            _integral_indices([np.uint64(2**64 - 1), 8], "n_values")

    def test_signed_integer_lists_read_as_their_items(self):
        # a list numpy reads as signed integers goes through one array:
        # the same values, refusals and messages as item by item
        items = [np.int64(7), 3, np.int32(5), np.int8(0)] * 1024
        got = _integral_indices(items, "survivor index", 8)
        assert got.dtype == int and got.tolist() == [int(v) for v in items]
        assert _integral_indices((), "survivor index", 8).tolist() == []
        for bad, shown in (([np.int64(3), -1], "-1 outside \\[0, 8\\)"),
                           ([2, np.int64(8)], "8 outside \\[0, 8\\)")):
            with pytest.raises(ValueError, match=f"^survivor index {shown}$"):
                _integral_indices(bad, "survivor index", 8)
        # items of other types, which numpy would read as integers too, are
        # read one by one: a boolean (bool_ before numpy 2) and a 0-d array
        # are no integers
        for bad, kind in (([2, np.True_], "bool_?"), ([np.array(5), 2], "ndarray")):
            with pytest.raises(ValueError, match=f"^survivor index must be an integer, "
                                                 f"got {kind}$"):
                _integral_indices(bad, "survivor index", 8)

    @pytest.mark.parametrize("dim", ["in_dim", "out_dim"])
    def test_worker_dimensions_at_least_one(self, dim):
        with pytest.raises(ValueError, match=f"^{dim} must be >= 1, got 0$"):
            WorkerFunction("neg", np.negative, **dict(dict(in_dim=1, out_dim=1), **{dim: 0}))

    def test_index_past_int64_refused_as_given(self):
        index = np.array([2**64 - 1], dtype=np.uint64)
        message = "^{} 18446744073709551615 outside \\[0, 16\\)$"
        with pytest.raises(ValueError, match=message.format("survivor index")):
            normalize_survivors(sim.WorkerReturns(index, np.ones((1, 1))), 16)
        with pytest.raises(ValueError, match=message.format("straggler index")):
            StragglerModel(16, 1, mode="fixed", fixed_stragglers=index)


_DATA = Dataset(np.array([[0.5], [-0.25], [1.0]]))
_PAIRS = [(0, [1.0]), (4, [0.5]), (9, [0.25])]

# every public entry that takes a real parameter from outside: (field the
# error starts with, the entry at a value v); compared as _COUNTS' results
_REALS = {
    "NoiseModel sigma0": ("sigma0", NoiseModel),
    "TrialSetup lambda_e": ("lambda_e", lambda v: run_trial(_setup(lambda_e=v), 5)),
    "TrialSetup lambda_d": ("lambda_d", lambda v: run_trial(_setup(lambda_d=v), 5)),
    "spline.fit lam": ("lam", lambda v: fit([-0.5, 0.0, 0.5, 0.75],
                                            [1.0, 0.0, 2.0, 1.0], v).coefficients),
    "encode lambda_e": ("lambda_e", lambda v: encode(_DATA, chebyshev_grid(3, 10), v).coded),
    "decode lambda_d": ("lambda_d", lambda v: decode(_PAIRS, chebyshev_grid(3, 10),
                                                     v).estimates),
    "monte_carlo_lambdas lambdas": ("lambda_d", lambda v: monte_carlo_lambdas(
        _setup(), 2, 0, (1e-4, v))),
    "crossval_lambda lambda_e_grid": ("lambda_e", lambda v: _crossval(e_grid=(0.0, v))),
    "crossval_lambda lambda_d_grid": ("lambda_d", lambda v: _crossval(d_grid=(1e-4, v))),
    "SweepConfig sigma0": ("sigma0", lambda v: _sweep(sigma0=v)),
    "SweepConfig lambda_e": ("lambda_e", lambda v: _sweep(lambda_e=v)),
    "SweepConfig lambda_d_scale": ("lambda_d_scale", lambda v: _sweep(lambda_d_scale=v)),
    "SweepConfig s_ratio": ("s_ratio", lambda v: _sweep(s=None, s_ratio=v)),
    "StragglerSweepConfig sigma0": ("sigma0", lambda v: _straggler_sweep(sigma0=v)),
    "StragglerSweepConfig lambda_e": ("lambda_e", lambda v: _straggler_sweep(lambda_e=v)),
    "StragglerSweepConfig lambda_d_scale": ("lambda_d_scale", lambda v: _straggler_sweep(
        lambda_d_scale=v)),
    "CrossvalConfig sigma0": ("sigma0", lambda v: _crossval(sigma0=v)),
    "CLI JSON real": ("config key 'sigma0': value",
                      lambda v: cli._check_config({"sigma0": v}, ["sigma0"])),
    "CLI JSON real list": ("config key 'lambda_d_grid': value",
                           lambda v: cli._check_config({"lambda_d_grid": [1e-4, v]},
                                                       ["lambda_d_grid"])),
}

_BAD_REALS = [True, np.True_, "0.1", None, np.nan, np.inf, -1.0]
# where None means not given: an unset s_ratio, a JSON null
_NONE_UNSET = {"SweepConfig s_ratio", "CLI JSON real"}


class TestRealsFromOutside:
    # one rule for every real parameter: an int or a float, numpy scalars
    # included, finite and nonnegative, kept as a float; the error names the
    # field and shows the value
    @pytest.mark.parametrize("entry, bad", [
        (entry, bad) for entry in _REALS for bad in _BAD_REALS
        if not (entry in _NONE_UNSET and bad is None)], ids=repr)
    def test_bad_value_rejected_naming_the_field(self, entry, bad):
        field, call = _REALS[entry]
        with pytest.raises(ValueError) as got:
            call(bad)
        assert str(got.value).endswith(f"must be a finite nonnegative real, got {bad!r}")
        assert str(got.value).startswith(f"{field} must")

    @pytest.mark.parametrize("same, real", [(0, 0.0), (np.int64(0), 0.0),
                                            (np.float64(1e-3), 1e-3)], ids=repr)
    @pytest.mark.parametrize("entry", list(_REALS))
    def test_numbers_give_the_result_of_the_float(self, entry, same, real):
        _, call = _REALS[entry]
        assert _same(call(same), call(real))


# every public entry that takes a seed from outside: (field the error
# starts with, the entry at a seed s); compared as _COUNTS' results
_SEEDS = {
    "trial_rng": ("seed", lambda s: trial_rng(s, 101).bit_generator.state),
    "trial_rng entry": ("seed", lambda s: trial_rng((1, s), 101).bit_generator.state),
    "run_trial": ("seed", lambda s: run_trial(_setup(), s)),
    "run_trial entry": ("seed", lambda s: run_trial(_setup(), (s, 2))),
    "monte_carlo": ("seed", lambda s: monte_carlo(_setup(), 2, s).columns),
    "monte_carlo_lambdas": ("seed", lambda s: monte_carlo_lambdas(_setup(), 2, s,
                                                                  (0.0, 1e-4))),
    "crossval_lambda master_seed": ("seed", lambda s: _crossval(master_seed=s)),
    "SweepConfig master_seed": ("seed", lambda s: _sweep(master_seed=s)),
    "StragglerSweepConfig master_seed": ("seed", lambda s: _straggler_sweep(master_seed=s)),
    "CrossvalConfig master_seed": ("seed", lambda s: _crossval_config(master_seed=s)),
    "CLI JSON seed": ("config key 'seed': value",
                      lambda s: cli._check_config({"seed": s}, ["seed"])),
}


class TestSeedsFromOutside:
    # a seed entry takes the integer rule; the error names the seed
    @pytest.mark.parametrize("bad", [2.5, True, "3", None], ids=repr)
    @pytest.mark.parametrize("entry", list(_SEEDS))
    def test_non_integer_rejected_naming_the_seed(self, entry, bad):
        field, call = _SEEDS[entry]
        if entry == "CLI JSON seed" and bad is None:
            bad = [7]  # null counts as not given; a list is no integer either
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            call(bad)

    @pytest.mark.parametrize("bad", [-1, -3.0, np.int64(-2), -2**70], ids=repr)
    @pytest.mark.parametrize("entry", list(_SEEDS))
    def test_negative_rejected_naming_the_seed(self, entry, bad):
        field, call = _SEEDS[entry]
        with pytest.raises(ValueError, match=rf"^{field} must be a nonnegative integer, "
                                             rf"got {int(bad)}$"):
            call(bad)

    @pytest.mark.parametrize("same", [7.0, np.int64(7)], ids=repr)
    @pytest.mark.parametrize("entry", list(_SEEDS))
    def test_integral_values_give_the_columns_of_the_int(self, entry, same):
        _, call = _SEEDS[entry]
        assert _same(call(same), call(7))

    def test_seeds_past_int64_are_taken_whole(self):
        # numpy's seeding takes any nonnegative int; so does the harness
        big = 2**64 + 5
        setup = _setup(data_rule="uniform")
        agg = monte_carlo(setup, 2, big)
        assert agg.columns.seed == ((big, 0), (big, 1))
        assert agg.metrics[1] == run_trial(setup, (big, 1))
        chunk, = sim._prepare(setup, [sim._entropy((big, 1))])
        want = sample_stragglers(setup.stragglers,
                                 trial_rng((big, 1), sim._STREAM_STRAGGLERS))
        assert np.array_equal(chunk.indices[0], want)
        assert _sweep(master_seed=big).master_seed == big
        assert cli._check_config({"seed": big}, ["seed"]) == {"seed": big}


class TestConfigFields:
    # every count, real and seed field of a config passes its rule at
    # construction, before any trial runs; its config checks every other
    def test_every_field_has_a_rule_or_is_a_string_or_list(self):
        strings_and_lists = {"schemes", "func", "n_values", "s_values", "lambda_d_rule",
                             "data_rule"}
        for config in (SweepConfig, StragglerSweepConfig, CrossvalConfig):
            for f in fields(config):
                assert (f.name in experiments._FIELD_RULES) != (f.name in strings_and_lists), \
                    f"{config.__name__}.{f.name}"

    @pytest.mark.parametrize("build", [_sweep, _straggler_sweep, _crossval_config])
    def test_trials_at_least_one(self, build):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            build(trials=0)

    def test_count_checked_before_it_bounds_another_field(self):
        with pytest.raises(ValueError, match="^n 24.5 is not an integer$"):
            _straggler_sweep(n=24.5, s_values=(1, 24))

    def test_none_means_not_given_only_where_it_is_the_default(self):
        assert _sweep(f_degree=None).f_degree is None
        assert _sweep(s=None, s_ratio=0.25).s is None
        with pytest.raises(ValueError, match="^func_d must be an integer, got NoneType$"):
            _sweep(func_d=None)


# every constructor of an interpolant or fit through nodes from outside
_NODE_SETS = {
    "BerrutInterpolant": ("nodes", lambda x: BerrutInterpolant(x, np.ones(len(x)))),
    "LagrangePolynomial.through": ("nodes", lambda x: LagrangePolynomial.through(
        x, np.ones(len(x)))),
    "LagrangePolynomial": ("nodes", lambda x: LagrangePolynomial(x, np.ones(len(x)),
                                                                 np.ones(len(x)))),
    "spline.fit": ("t", lambda x: fit(x, np.ones(len(x)), 0.0)),
}


class TestNodesFromOutside:
    @pytest.mark.parametrize("nodes, message", [
        ([], "needs at least 1 points, got 0"),
        ([-0.5, 0.25, 0.25, 0.5], "must be strictly increasing"),
        ([-0.5, np.nan, 0.5], "contains non-finite values"),
    ], ids=["empty", "duplicate", "nan"])
    @pytest.mark.parametrize("entry", list(_NODE_SETS))
    def test_bad_nodes_rejected_naming_the_field(self, entry, nodes, message):
        field, build = _NODE_SETS[entry]
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            build(np.array(nodes))

    def test_nodes_need_not_lie_in_the_unit_interval(self):
        # only grids and mesh statistics bound their points
        poly = LagrangePolynomial.through([1.0, 2.0, 4.0], [1.0, 4.0, 16.0])
        assert poly.evaluate([3.0])[0, 0] == pytest.approx(9.0)
