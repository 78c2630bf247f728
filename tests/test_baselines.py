import itertools
import warnings

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebvander

from letcc.baselines import (
    BerrutInterpolant,
    LagrangeCodec,
    LagrangePolynomial,
    _BarycentricMap,
    _berrut_weights,
    _chebyshev_vandermonde,
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


def _reference_build(nodes, weights, query):
    """``_BarycentricMap.build``'s fields, from a hit mask and a ratio array of their own."""
    x = np.atleast_1d(np.asarray(query, dtype=float))
    diff = x[:, None] - nodes[..., None, :]
    hits = np.abs(diff) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = weights / diff
        den = ratios.sum(axis=-1, keepdims=True)
    hit = np.nonzero(hits.any(axis=-1))
    return ratios, den, hit, np.argmax(hits[hit], axis=-1)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBarycentricMapBuild:
    # one (..., q, v) buffer gives the fields of separate hit and ratio arrays, bit for bit

    def _check(self, nodes, weights, query):
        built = _BarycentricMap.build(nodes, weights, query)
        ratios, den, hit, hit_nodes = _reference_build(nodes, weights, query)
        assert _same_bits(built.ratios, ratios) and _same_bits(built.den, den)
        assert len(built.hit) == len(hit)
        assert all(_same_bits(got, want) for got, want in zip(built.hit, hit))
        assert _same_bits(built.hit_nodes, hit_nodes)
        return built

    @pytest.mark.parametrize("k, n", [(5, 9), (7, 15), (1, 3), (8, 64), (16, 4096)])
    def test_grid_encoders(self, k, n):
        # odd K and odd N put 0.0 among both the alphas and the betas
        grid = chebyshev_grid(k, n)
        for weights in (_berrut_weights(grid.alphas), _lagrange_weights(grid.alphas)):
            built = self._check(grid.alphas, weights, grid.betas)
            assert (built.hit_nodes.size > 0) == bool(k % 2 and n % 2)

    def test_single_set_with_unsorted_queries_on_nodes(self, rng):
        nodes = chebyshev_second(9)
        query = rng.permutation(np.concatenate([nodes, rng.uniform(-1, 1, 20), nodes[::3]]))
        built = self._check(nodes, _berrut_weights(nodes), query)
        assert built.hit_nodes.size == 12

    @pytest.mark.parametrize("k", [3, 8])
    def test_stacked_survivor_sets(self, k, rng):
        grid = chebyshev_grid(k, 15)  # beta 7 is 0.0, an alpha for odd K
        indices = np.sort(np.array([rng.choice(15, 11, replace=False) for _ in range(6)]))
        indices[0] = np.arange(11)  # holds beta 7
        nodes = grid.betas[indices]
        built = self._check(nodes, _berrut_weights(nodes), grid.alphas)
        assert (built.hit_nodes.size > 0) == (k % 2 == 1)

    def test_nodes_within_1e_15_hit_their_first_node(self):
        nodes = np.array([-0.5, 0.0, 1e-16, 5e-16, 0.5])
        stacked = np.stack([nodes, nodes[::-1], np.array([-0.5, -1e-15, 0.0, 9e-16, 0.5])])
        query = np.array([3e-16, 0.25, 0.0, -2e-16, 0.5])
        for node_set in (nodes, stacked):
            built = self._check(node_set, _berrut_weights(node_set), query)
            assert built.hit_nodes.size > 0

    def test_no_hits(self):
        # a query exactly 1e-14 from a node is not on it
        query = np.array([0.1, 0.2, 1e-14, -1e-14])
        nodes = chebyshev_second(7)
        built = self._check(nodes, _berrut_weights(nodes), query)
        assert built.hit_nodes.size == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 3584])
    def test_berrut_weights_alternate_from_plus_one(self, n):
        assert _same_bits(_berrut_weights(np.zeros((2, n))), (-1.0) ** np.arange(n))


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
        # target degree (K - 1) * 3 = 6 from 12 survivors, degree 4 from 5;
        # one output column
        assert list(grid._encoders) == [("lcc_decode", 6, 1), ("lcc_decode", 4, 1)]

    def test_lcc_decode_basis_per_output_width_gives_fresh_grid_bits(self, rng):
        # m = 1, then 3, then 1 again on one grid: each width keeps its own
        # augmented basis, whose output columns every decode overwrites
        grid = chebyshev_grid(3, 12)
        indices = np.sort(rng.choice(12, 9, replace=False))
        for m in (1, 3, 1):
            outputs = rng.normal(size=(9, m))
            got = lcc_decode(WorkerReturns(indices, outputs), grid, 3)
            fresh = lcc_decode(WorkerReturns(indices, outputs), chebyshev_grid(3, 12), 3)
            assert np.array_equal(got.estimates, fresh.estimates)
            assert np.array_equal(got.decoder_fit, fresh.decoder_fit)
        assert list(grid._encoders) == [("lcc_decode", 6, 1), ("lcc_decode", 6, 3)]
        augmented, _ = grid._encoders[("lcc_decode", 6, 3)]
        assert not augmented[:, 7:].any()  # the cached output columns stay zero


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

    @pytest.mark.parametrize("f_degree, message", [
        (True, "f_degree must be an integer, got bool"),
        (np.True_, "f_degree must be an integer, got bool_?"),  # bool_ before numpy 2
        (False, "f_degree must be an integer, got bool"),
        (1.5, "f_degree 1.5 is not an integer"),
        (-1, "f_degree must be a nonnegative integer, got -1"),
        (np.nan, "f_degree nan is not an integer"),
        (np.inf, "f_degree inf is not an integer"),
        ("3", "f_degree must be an integer, got str"),
        (None, "f_degree must be an integer, got NoneType"),
    ])
    def test_degree_must_be_a_nonnegative_integer(self, f_degree, message):
        grid = chebyshev_grid(3, 10)
        pairs = [(0, [1.0]), (4, [0.5]), (9, [0.25])]
        with pytest.raises(ValueError, match=f"^{message}$"):
            lcc_decode(pairs, grid, f_degree)

    def test_integral_float_degree_is_that_integer(self, rng):
        grid = chebyshev_grid(8, 64)
        trial, = _lcc_trials(grid, 56, 1, rng)
        assert np.array_equal(lcc_decode(trial, grid, 3.0).estimates,
                              lcc_decode(trial, grid, np.int64(3)).estimates)


def _exact_chebyshev(x: float, deg: int) -> list[tuple[int, int]]:
    """T_0(x) .. T_deg(x) exactly, each as (p, e) for the dyadic rational p / 2**e.

    With x = m / 2**e, T_j(x) = P_j / 2**(j e) for the integers
    P_j = 2 m P_{j-1} - 2**(2e) P_{j-2}.
    """
    m, den = x.as_integer_ratio()
    e = den.bit_length() - 1
    p = [1, m]
    for _ in range(2, deg + 1):
        p.append(2 * m * p[-1] - (p[-2] << 2 * e))
    return [(pj, j * e) for j, pj in enumerate(p[:deg + 1])]


class TestChebyshevVandermonde:
    def test_equals_chebvander_bit_for_bit(self):
        x = chebyshev_grid(16, 4096).betas
        for deg in (0, 1, 2, 45, 300):
            got = _chebyshev_vandermonde(x, deg)
            assert got.flags.c_contiguous
            assert np.array_equal(got, chebvander(x, deg))

    def test_within_2e_14_of_exact_values_at_degree_300(self):
        # 40 of the 4096 betas, ends included; every |T_j| <= 1
        x = chebyshev_grid(16, 4096).betas[::105]
        got = _chebyshev_vandermonde(x, 300)
        worst = 0.0
        for row, point in zip(got, x):
            for value, (p, e) in zip(row, _exact_chebyshev(float(point), 300), strict=True):
                a, den = float(value).as_integer_ratio()
                c = den.bit_length() - 1
                # |a / 2**c - p / 2**e|, in integers, then correctly rounded
                worst = max(worst, abs((a << e) - (p << c)) / (1 << (e + c)))
        assert worst <= 2e-14


class TestLagrangePolynomial:
    # the weights come from the nodes, so uneven nodes interpolate exactly too
    @pytest.mark.parametrize("nodes, coef", [
        (chebyshev_second(6), [0.5, -1.0, 0.0, 2.0]),
        ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0]),
        ([-1.0, -0.9, 0.2, 0.3, 2.5], [0.5, -1.0, 0.0, 2.0]),
    ], ids=["chebyshev", "integers", "uneven"])
    def test_interpolates_polynomial_exactly(self, nodes, coef):
        poly = np.polynomial.Polynomial(coef)
        q = np.linspace(-1, 1, 41)
        got = LagrangePolynomial(nodes, poly(np.asarray(nodes))[:, None]).evaluate(q)[:, 0]
        assert np.abs(got - poly(q)).max() < 1e-12


class TestOutputsAtNodes:
    # the one rule for outputs at points: a 1-D array is one value per node,
    # or the values of the one node; any other array keeps its rows
    @pytest.mark.parametrize("build", [BerrutInterpolant, LagrangePolynomial],
                             ids=["berrut", "lagrange"])
    def test_one_value_per_node_evaluates_as_its_column(self, rng, build):
        # flat values taken as given would broadcast q queries to a (q, q) result
        nodes = chebyshev_second(7)
        column = rng.normal(size=(7, 1))
        q = np.linspace(-1, 1, 23)
        got = build(nodes, column[:, 0]).evaluate(q)
        assert got.shape == (23, 1)
        assert np.array_equal(got, build(nodes, column).evaluate(q))

    @pytest.mark.parametrize("build", [BerrutInterpolant, LagrangePolynomial],
                             ids=["berrut", "lagrange"])
    def test_one_node_reads_a_flat_array_as_its_row(self, build):
        assert build([0.2], np.array([1.0, 2.0, 3.0])).values.tolist() == [[1.0, 2.0, 3.0]]

    @pytest.mark.parametrize("build, what", [(BerrutInterpolant, "Berrut"),
                                             (LagrangePolynomial, "Lagrange")])
    @pytest.mark.parametrize("values, rows", [(np.ones(5), 5), (np.ones((3, 2)), 3)])
    def test_row_count_mismatch_raises_one_message(self, build, what, values, rows):
        with pytest.raises(ValueError, match=rf"^7 {what} nodes for {rows} output rows$"):
            build(chebyshev_second(7), values)
