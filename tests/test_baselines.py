import itertools
import warnings

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebvander

from letcc.baselines import (
    BerrutInterpolant,
    LagrangeCodec,
    LagrangePolynomial,
    _lagrange_weights,
    _lcc_decode_stack,
    bacc_decode,
    bacc_encode,
    lcc_decode,
    lcc_encode,
)
from letcc.coding import Dataset, DecodeFailure
from letcc.points import chebyshev_grid, chebyshev_second
from letcc.sim import (
    NoiseModel,
    StragglerModel,
    TrialSetup,
    WorkerReturns,
    make_worker,
    monte_carlo,
)


def _reference_barycentric(nodes, weights, values, query):
    """Per-call barycentric evaluation, as the encoders ran before caching."""
    diff = query[:, None] - nodes[None, :]
    hits = np.abs(diff) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = weights / diff
        out = (ratios @ values) / ratios.sum(axis=1, keepdims=True)
    hit_rows = hits.any(axis=1)
    if np.any(hit_rows):
        out[hit_rows] = values[np.argmax(hits[hit_rows], axis=1)]
    return out


def _reference_lagrange_weights(nodes):
    return np.array([1.0 / np.prod(np.delete(nodes[i] - nodes, i)) if nodes.size > 1
                     else 1.0 for i in range(nodes.size)])


class TestBerrut:
    def test_node_queries_return_node_values(self, rng):
        nodes = chebyshev_second(9)
        values = rng.normal(size=(9, 2))
        interp = BerrutInterpolant(nodes, values)
        assert np.array_equal(interp.evaluate(nodes), values)

    def test_constants_reproduced_everywhere(self):
        interp = BerrutInterpolant(chebyshev_second(7), np.full((7, 1), 4.25))
        out = interp.evaluate(np.linspace(-1, 1, 101))
        assert np.abs(out - 4.25).max() < 1e-13

    def test_hand_evaluated_rational_value(self):
        # nodes [-1, 0, 1], values [1, 0, 1], weights (+1, -1, +1), query 0.5:
        # numerator 1/1.5 - 0 + 1/(-0.5) = -4/3, denominator 1/1.5 - 1/0.5
        # + 1/(-0.5) = -10/3, ratio 0.4
        interp = BerrutInterpolant(np.array([-1.0, 0.0, 1.0]),
                                   np.array([[1.0], [0.0], [1.0]]))
        assert interp.evaluate([0.5]) == pytest.approx(np.array([[0.4]]), abs=1e-15)

    def test_no_real_poles_on_dense_sweep(self, rng):
        nodes = chebyshev_second(24)
        interp = BerrutInterpolant(nodes, rng.normal(size=(24, 1)))
        out = interp.evaluate(np.linspace(-1, 1, 10_000))
        assert np.all(np.isfinite(out))

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            BerrutInterpolant(np.array([]), np.zeros((0, 1)))

    def test_single_node_is_constant(self):
        interp = BerrutInterpolant(np.array([0.2]), np.array([[3.0]]))
        assert interp.evaluate([-0.7, 0.8]) == pytest.approx(np.array([[3.0], [3.0]]))

    def test_non_increasing_nodes_rejected(self):
        with pytest.raises(ValueError, match="^nodes must be strictly increasing$"):
            BerrutInterpolant(np.array([0.5, -0.5]), np.ones((2, 1)))


class TestBacc:
    def test_constant_function_recovered_exactly(self):
        grid = chebyshev_grid(4, 10)
        data = Dataset(np.array([[0.1], [0.4], [-0.3], [0.9]]))
        batch = bacc_encode(data, grid)
        f = lambda x: np.full_like(x, 2.5)
        survivors = [0, 2, 5, 7, 9]
        pairs = list(zip(survivors, f(batch.coded[survivors])))
        result = bacc_decode(pairs, grid)
        assert np.abs(result.estimates - 2.5).max() < 1e-12

    def test_decoder_interpolates_surviving_nodes(self, rng):
        grid = chebyshev_grid(4, 10)
        survivors = [1, 3, 4, 8]
        outs = rng.normal(size=(4, 1))
        result = bacc_decode(list(zip(survivors, outs)), grid)
        dec = result.decoder_fit
        assert np.array_equal(dec.evaluate(grid.betas[survivors]), outs)

    def test_zero_survivors_fails(self):
        grid = chebyshev_grid(4, 10)
        with pytest.raises(DecodeFailure):
            bacc_decode([], grid)

    def test_encode_shapes_mirror_pipeline(self, rng):
        grid = chebyshev_grid(5, 12)
        batch = bacc_encode(Dataset(rng.uniform(-1, 1, (5, 3))), grid)
        assert batch.coded.shape == (12, 3)


class TestCachedEncoders:
    # (3, 7) and (5, 9) put an alpha exactly on a beta (both hold 0.0)
    @pytest.mark.parametrize("k, n", [(1, 5), (3, 7), (5, 9), (8, 64)])
    @pytest.mark.parametrize("scheme", ["bacc", "lcc"])
    def test_same_bytes_as_per_call_interpolant(self, scheme, k, n, rng):
        grid = chebyshev_grid(k, n)
        weights = ((-1.0) ** np.arange(k) if scheme == "bacc"
                   else _reference_lagrange_weights(grid.alphas))
        encode = bacc_encode if scheme == "bacc" else lcc_encode
        stack = rng.uniform(-1, 1, (4, k, 2))
        for _ in range(2):  # the second pass reads the cache
            for x in stack:
                expected = _reference_barycentric(grid.alphas, weights, x, grid.betas)
                assert np.array_equal(encode(Dataset(x), grid).coded, expected)
        assert list(grid._encoders) == [(scheme, None)]
        stacked = grid._encoders[(scheme, None)].apply(stack)
        for x, out in zip(stack, stacked):
            assert np.array_equal(out, encode(Dataset(x), grid).coded)


    @pytest.mark.parametrize("encode", [bacc_encode, lcc_encode])
    def test_k_mismatch_raises_before_building(self, encode):
        grid = chebyshev_grid(4, 10)
        with pytest.raises(ValueError, match="^dataset has 3 rows but grid has 4 alphas$"):
            encode(Dataset(np.zeros((3, 1))), grid)
        assert grid._encoders == {}

    def test_lcc_decode_keeps_one_basis_pair_per_degree(self, rng):
        grid = chebyshev_grid(3, 12)
        for count in (12, 12, 5):
            indices = np.sort(rng.choice(12, count, replace=False))
            lcc_decode(WorkerReturns(indices, rng.normal(size=(count, 1))), grid, 3)
        # target degree (K - 1) * 3 = 6 from 12 survivors, degree 4 from 5
        assert list(grid._encoders) == [("lcc_decode", 6), ("lcc_decode", 4)]


class TestLagrangeEncode:
    def test_single_input_broadcasts(self):
        grid = chebyshev_grid(1, 6)
        batch = lcc_encode(Dataset(np.array([[0.7]])), grid)
        assert np.abs(batch.coded - 0.7).max() < 1e-14

    def test_two_inputs_lie_on_line(self):
        grid = chebyshev_grid(2, 8)
        data = Dataset(np.array([[1.0], [3.0]]))
        batch = lcc_encode(data, grid)
        # line through (alpha_1, 1) and (alpha_2, 3)
        slope = 2.0 / (grid.alphas[1] - grid.alphas[0])
        expected = 1.0 + slope * (grid.betas - grid.alphas[0])
        assert np.abs(batch.coded[:, 0] - expected).max() < 1e-12

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_alpha_roundtrip(self, k, rng):
        grid = chebyshev_grid(k, 2 * k + 3)
        data = Dataset(rng.uniform(-1, 1, (k, 2)))
        batch = lcc_encode(data, grid)
        back = batch.encoder_fit.evaluate(grid.alphas)
        assert np.abs(back - data.inputs).max() < 1e-10


class TestLagrangeDecode:
    def test_recovery_threshold_formula(self):
        assert LagrangeCodec(k=2, f_degree=2).recovery_threshold(s=1) == 4
        assert LagrangeCodec(k=3, f_degree=2).recovery_threshold(s=2) == 7

    def test_square_function_exact_with_any_single_straggler(self):
        grid = chebyshev_grid(2, 4)
        data = Dataset(np.array([[0.3], [-0.6]]))
        batch = lcc_encode(data, grid)
        f = lambda x: x**2
        truth = f(data.inputs)
        for straggler in range(4):
            survivors = [i for i in range(4) if i != straggler]
            pairs = list(zip(survivors, f(batch.coded[survivors])))
            result = lcc_decode(pairs, grid, f_degree=2)
            assert not result.degraded
            assert np.abs(result.estimates - truth).max() < 1e-8

    def test_cubic_exact_with_seven_survivors(self, rng):
        grid = chebyshev_grid(3, 10)
        data = Dataset(rng.uniform(-1, 1, (3, 1)))
        batch = lcc_encode(data, grid)
        f = lambda x: x**3
        survivors = [0, 1, 3, 5, 6, 8, 9]
        pairs = list(zip(survivors, f(batch.coded[survivors])))
        result = lcc_decode(pairs, grid, f_degree=3)
        assert np.abs(result.estimates - f(data.inputs)).max() < 1e-8

    def test_below_threshold_degraded_and_flagged(self, rng):
        grid = chebyshev_grid(3, 10)
        data = Dataset(rng.uniform(-1, 1, (3, 1)))
        batch = lcc_encode(data, grid)
        f = lambda x: x**3
        survivors = [0, 4, 9]
        pairs = list(zip(survivors, f(batch.coded[survivors])))
        result = lcc_decode(pairs, grid, f_degree=3)
        assert result.degraded

    def test_exactness_iff_threshold_for_monomials(self, rng):
        # brute force over every survivor subset at small scale; the one
        # systematic exception below threshold is a survivor set whose beta
        # nodes cover all alpha query points (first- and second-kind
        # Chebyshev grids share nodes at these sizes), where interpolation
        # hits the queries regardless of the missing degrees
        for degree in (1, 2, 3, 4):
            for k in (2, 3):
                n = min(10, (k - 1) * degree + 3)
                need = (k - 1) * degree + 1
                if need > n:
                    continue
                grid = chebyshev_grid(k, n)
                data = Dataset(rng.uniform(-1, 1, (k, 1)))
                batch = lcc_encode(data, grid)
                f = lambda x: x**degree
                truth = f(data.inputs)
                for r in range(1, n + 1):
                    for survivors in itertools.combinations(range(n), r):
                        beta_v = grid.betas[list(survivors)]
                        covers_queries = all(
                            np.abs(beta_v - a).min() < 1e-12 for a in grid.alphas
                        )
                        outs = f(batch.coded[list(survivors)])
                        res = lcc_decode(list(zip(survivors, outs)), grid, degree)
                        err = np.abs(res.estimates - truth).max()
                        if r >= need or covers_queries:
                            assert err < 1e-8, (degree, k, survivors)
                        else:
                            assert err > 1e-8, (degree, k, survivors)

    def test_exact_at_degree_45_without_warnings(self):
        # K=16 and cubic f target degree 45; N=64, S=4 leaves 60 survivors
        setup = TrialSetup(scheme="lcc", func=make_worker("cubic"),
                           grid=chebyshev_grid(16, 64), stragglers=StragglerModel(64, 4),
                           noise=NoiseModel(0.0), data_rule="uniform")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = monte_carlo(setup, 50, 1)
        assert agg.mean_mse <= 1e-20
        assert not any(m.degraded for m in agg.metrics)

    def test_decoder_fit_holds_chebyshev_coefficients(self, rng):
        grid = chebyshev_grid(3, 12)
        data = Dataset(rng.uniform(-1, 1, (3, 2)))
        batch = lcc_encode(data, grid)
        survivors = [0, 2, 3, 5, 7, 8, 11]
        outs = batch.coded[survivors] ** 2
        result = lcc_decode(list(zip(survivors, outs)), grid, 2)
        assert result.decoder_fit.shape == (5, 2)
        assert np.allclose(chebval(grid.alphas, result.decoder_fit).T,
                           result.estimates, rtol=0, atol=1e-13)

    def test_empty_survivors_fails(self):
        grid = chebyshev_grid(2, 4)
        with pytest.raises(DecodeFailure):
            lcc_decode([], grid, 2)


def _lcc_trials(grid, count, trials, rng):
    """``trials`` noisy cubic worker returns on ``count`` random survivors each."""
    returns = []
    for _ in range(trials):
        coded = lcc_encode(Dataset(rng.uniform(-1, 1, (grid.k, 2))), grid).coded
        survivors = np.sort(rng.choice(grid.n, size=count, replace=False))
        outputs = coded[survivors] ** 3 + rng.normal(0.0, 0.1, (count, 2))
        returns.append(WorkerReturns(survivors, outputs))
    return returns


def _lcc_stack(grid, returns, f_degree):
    """``_lcc_decode_stack`` of trials of one survivor count, as a chunk holds them."""
    return _lcc_decode_stack(grid, np.array([r.indices for r in returns]),
                             np.array([r.outputs for r in returns]), f_degree)


class TestLagrangeDecodeStack:
    # K = 8 and cubic f: target degree 21.  One and two survivors fit
    # degree 0 and 1, 14 a degraded degree 13, and 56 the full degree.
    @pytest.mark.parametrize("count", [1, 2, 14, 56])
    def test_each_trial_equals_its_own_decode_bit_for_bit(self, count, rng):
        grid = chebyshev_grid(8, 64)
        returns = _lcc_trials(grid, count, 5, rng)
        estimates, coef, degraded = _lcc_stack(grid, returns, 3)
        assert estimates.shape == (len(returns), 8, 2)
        assert coef.shape == (len(returns), min(21, count - 1) + 1, 2)
        assert degraded is (count < 22)
        for t, trial in enumerate(returns):
            own = lcc_decode(trial, grid, 3)
            assert np.array_equal(estimates[t], own.estimates)
            assert np.array_equal(coef[t], own.decoder_fit)
            assert own.survivor_count == count
            assert own.degraded == degraded

    @pytest.mark.parametrize("k, n, s", [(8, 64, 8), (16, 64, 4), (101, 320, 8)])
    def test_estimates_match_lstsq_oracle(self, k, n, s, rng):
        # cubic f: degree 21, 45 and 300, fitted to noisy outputs
        grid = chebyshev_grid(k, n)
        deg = 3 * (k - 1)
        returns = _lcc_trials(grid, n - s, 3, rng)
        estimates, _, _ = _lcc_stack(grid, returns, 3)
        for trial, got in zip(returns, estimates, strict=True):
            coef, *_ = np.linalg.lstsq(chebvander(grid.betas[trial.indices], deg),
                                       trial.outputs, rcond=None)
            oracle = chebvander(grid.alphas, deg) @ coef
            assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("f_degree", [True, np.True_, False, 1.5, -1, np.nan, np.inf,
                                          "3", None])
    def test_degree_must_be_a_nonnegative_integer(self, f_degree):
        grid = chebyshev_grid(3, 10)
        pairs = [(0, [1.0]), (4, [0.5]), (9, [0.25])]
        with pytest.raises(ValueError, match="f_degree must be a nonnegative integer"):
            lcc_decode(pairs, grid, f_degree)

    def test_integral_float_degree_is_that_integer(self, rng):
        grid = chebyshev_grid(8, 64)
        trial, = _lcc_trials(grid, 56, 1, rng)
        assert np.array_equal(lcc_decode(trial, grid, 3.0).estimates,
                              lcc_decode(trial, grid, np.int64(3)).estimates)


class TestLagrangePolynomial:
    def test_interpolates_polynomial_exactly(self, rng):
        nodes = chebyshev_second(6)
        values = (2 * nodes**3 - nodes + 0.5)[:, None]
        poly = LagrangePolynomial.through(nodes, values)
        q = np.linspace(-1, 1, 41)
        assert np.abs(poly.evaluate(q)[:, 0] - (2 * q**3 - q + 0.5)).max() < 1e-12


class TestOutputsAtNodes:
    # the one rule for outputs at points: a 1-D array is one value per node,
    # or the values of the one node; any other array keeps its rows
    @pytest.mark.parametrize("build", [
        BerrutInterpolant, LagrangePolynomial.through,
        lambda nodes, values: LagrangePolynomial(nodes, values, _lagrange_weights(nodes)),
    ], ids=["berrut", "lagrange", "lagrange constructor"])
    def test_one_value_per_node_evaluates_as_its_column(self, rng, build):
        # flat values taken as given would broadcast q queries to a (q, q) result
        nodes = chebyshev_second(7)
        column = rng.normal(size=(7, 1))
        q = np.linspace(-1, 1, 23)
        got = build(nodes, column[:, 0]).evaluate(q)
        assert got.shape == (23, 1)
        assert np.array_equal(got, build(nodes, column).evaluate(q))

    @pytest.mark.parametrize("build", [BerrutInterpolant, LagrangePolynomial.through],
                             ids=["berrut", "lagrange"])
    def test_one_node_reads_a_flat_array_as_its_row(self, build):
        assert build([0.2], np.array([1.0, 2.0, 3.0])).values.tolist() == [[1.0, 2.0, 3.0]]

    @pytest.mark.parametrize("build, what", [(BerrutInterpolant, "Berrut"),
                                             (LagrangePolynomial.through, "Lagrange")])
    @pytest.mark.parametrize("values, rows", [(np.ones(5), 5), (np.ones((3, 2)), 3)])
    def test_row_count_mismatch_raises_one_message(self, build, what, values, rows):
        with pytest.raises(ValueError, match=rf"^7 {what} nodes for {rows} output rows$"):
            build(chebyshev_second(7), values)
