import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from letcc.coding import (
    CodedBatch,
    Dataset,
    DecodeFailure,
    _decode_stack,
    _linear_encoder,
    decode,
    encode,
    encoder_training_error,
    normalize_survivors,
)
from letcc import baselines, kernel, sim, spline
from letcc.points import chebyshev_grid

from letcc.sim import WorkerReturns, make_worker

from conftest import ols_affine, trial_setup


class TestDataset:
    def test_shapes(self):
        d = Dataset(np.zeros((4, 2)))
        assert d.k == 4 and d.d == 2

    def test_one_dimensional_input_promoted(self):
        assert Dataset(np.zeros(3)).inputs.shape == (1, 3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]))

    def test_three_dimensional_rejected(self):
        with pytest.raises(ValueError, match=r"^inputs must be a \(K, d\) matrix"):
            Dataset(np.zeros((2, 2, 2)))


# every frozen dataclass that holds arrays
_ARRAY_HOLDERS = {
    "Dataset": lambda: Dataset(np.ones((3, 1))),
    "CodedBatch": lambda: encode(Dataset(np.ones((3, 1))), chebyshev_grid(3, 7), 0.0),
    "DecodeResult": lambda: decode([(0, 1.0), (3, 2.0), (6, 0.0)], chebyshev_grid(3, 7), 0.0),
    "SplineFit": lambda: spline.fit([-1.0, 0.0, 1.0], [1.0, 2.0, 0.0], 0.0),
    "EvaluationWeights": lambda: spline.evaluation_weights(np.array([-1.0, 1.0]),
                                                           np.zeros(2)),
    "WorkerReturns": lambda: WorkerReturns(np.arange(2), np.ones((2, 1))),
    "BerrutInterpolant": lambda: baselines.BerrutInterpolant([0.0, 1.0], [[1.0], [2.0]]),
    "LagrangePolynomial": lambda: baselines.LagrangePolynomial([0.0, 1.0], [1.0, 2.0]),
    "KernelFit": lambda: kernel.kernel_fit([-1.0, 0.0, 1.0], [1.0, 2.0, 0.0], 1e-3),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    a, b = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert (a == b) is False and (a == a) is True and (a != b) is True
    assert len({a, b}) == 2


class TestEncode:
    def test_identity_data_codes_to_betas(self):
        grid = chebyshev_grid(3, 7)
        batch = encode(Dataset(grid.alphas[:, None]), grid, 0.5)
        assert np.abs(batch.coded[:, 0] - grid.betas).max() < 1e-12

    def test_zero_lambda_gives_zero_training_error(self, rng):
        grid = chebyshev_grid(8, 16)
        data = Dataset(rng.uniform(-1, 1, (8, 3)))
        batch = encode(data, grid, 0.0)
        assert np.array_equal(batch.encoder_fit.coefficients, data.inputs)
        assert encoder_training_error(batch, data) == 0.0

    def test_k_mismatch_rejected(self, rng):
        grid = chebyshev_grid(8, 16)
        with pytest.raises(ValueError):
            encode(Dataset(rng.uniform(-1, 1, (7, 1))), grid, 0.0)

    def test_linearity_in_data(self, rng):
        grid = chebyshev_grid(6, 12)
        x1 = rng.uniform(-1, 1, (6, 2))
        x2 = rng.uniform(-1, 1, (6, 2))
        a, b = 0.3, -1.2
        lam = 1e-4
        combined = encode(Dataset(a * x1 + b * x2), grid, lam).coded
        separate = (a * encode(Dataset(x1), grid, lam).coded
                    + b * encode(Dataset(x2), grid, lam).coded)
        assert np.abs(combined - separate).max() < 1e-8

    def test_training_error_limit_is_affine_residual(self, rng):
        grid = chebyshev_grid(10, 16)
        x = rng.uniform(-1, 1, (10, 1))
        batch = encode(Dataset(x), grid, 1e9)
        residual = float(np.mean((ols_affine(grid.alphas, x[:, 0]) - x[:, 0]) ** 2))
        assert encoder_training_error(batch, Dataset(x)) == pytest.approx(residual, rel=1e-6)

    def test_training_error_nondecreasing_in_lambda(self, rng):
        grid = chebyshev_grid(10, 16)
        data = Dataset(rng.uniform(-1, 1, (10, 1)))
        errors = [encoder_training_error(encode(data, grid, lam), data)
                  for lam in (0.0, 1e-6, 1e-3, 1.0, 1e3)]
        assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))


class TestEncoderCache:
    """encode applies a linear encoder kept on the grid object per lambda_e."""

    @staticmethod
    def _count_fits(monkeypatch):
        calls = []
        original = spline.fit

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(spline, "fit", counted)
        return calls

    @pytest.mark.parametrize("d", [3, 6, 9])  # narrower than K = 6, as wide, wider
    def test_repeat_and_fresh_grid_encode_identically(self, d, rng, monkeypatch):
        calls = self._count_fits(monkeypatch)
        grid = chebyshev_grid(6, 20)
        data = Dataset(rng.uniform(-1, 1, (6, d)))
        first = encode(data, grid, 1e-3)
        repeat = encode(data, grid, 1e-3)
        assert len(calls) == 1
        fresh = encode(data, chebyshev_grid(6, 20), 1e-3)
        assert len(calls) == 2
        for batch in (repeat, fresh):
            assert np.array_equal(batch.coded, first.coded)
            for name in ("knots", "coefficients", "second_derivs"):
                assert np.array_equal(getattr(batch.encoder_fit, name),
                                      getattr(first.encoder_fit, name))

    def test_lambda_values_do_not_collide(self, rng):
        grid = chebyshev_grid(6, 20)
        data = Dataset(rng.uniform(-1, 1, (6, 2)))
        interpolating = encode(data, grid, 0.0)
        smoothing = encode(data, grid, 1.0)
        assert np.abs(interpolating.coded - smoothing.coded).max() > 1e-3
        assert smoothing.encoder_fit.lam == 1.0
        for lam, batch in ((0.0, interpolating), (1.0, smoothing)):
            assert np.array_equal(encode(data, grid, lam).coded, batch.coded)
            assert np.array_equal(encode(data, chebyshev_grid(6, 20), lam).coded,
                                  batch.coded)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.0, 1e-2])
    def test_small_k_matches_direct_fit(self, k, lam, rng):
        grid = chebyshev_grid(k, 9)
        x = rng.uniform(-1, 1, (k, 2))
        direct = spline.fit(grid.alphas, x, lam)
        expected = direct.evaluate(grid.betas)
        batch = encode(Dataset(x), grid, lam)
        scale = 1.0 + np.abs(expected).max()
        assert np.abs(batch.coded - expected).max() <= 1e-12 * scale
        assert batch.encoder_fit.degenerate is direct.degenerate is (k < 3)

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
    def test_invalid_lambda_raises_and_caches_nothing(self, bad, rng):
        grid = chebyshev_grid(4, 9)
        data = Dataset(rng.uniform(-1, 1, (4, 1)))
        encode(data, grid, 0.0)
        for _ in range(2):
            with pytest.raises(ValueError):
                encode(data, grid, bad)
        assert list(grid._encoders) == [("letcc", 0.0)]

    @pytest.mark.parametrize("k, n", [(1, 5), (3, 7), (8, 64), (32, 512)])
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 1.0, 1e6])
    def test_dense_map_agrees_with_gather(self, k, n, lam, rng):
        # the two paths sum the same terms in another order: measured gaps
        # are <= 4.7e-16 of 1 + max |coded| over these grids and weights
        encoder = _linear_encoder(chebyshev_grid(k, n), lam)
        for d in (k, 2 * k + 1):
            x = rng.uniform(-1, 1, (k, d))
            coded, knot_data = encoder.apply(x)
            gathered = encoder.at_betas.apply(knot_data)
            scale = 1.0 + np.abs(gathered).max()
            assert np.abs(coded - gathered).max() <= 1e-14 * scale
        assert encoder.dense.shape == (n, k)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])  # K = 5: gather, gather, dense, dense
    def test_stacked_encode_matches_each_set_alone(self, d, rng):
        grid = chebyshev_grid(5, 40)
        stack = rng.uniform(-1, 1, (4, 5, d))
        encoder = _linear_encoder(grid, 1e-3)
        for got, x in zip(zip(*encoder.apply(stack)), stack):
            batch = encode(Dataset(x), grid, 1e-3)
            want = (batch.coded, batch.encoder_fit.knot_data)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("d", [1, 3, 9])  # K = 6: narrower, narrower, wider
    def test_encoder_and_decoder_fits_are_c_ordered(self, lam, d, rng):
        # one form for every fit: the unit fit multiplies every input in one
        # layout at any lambda_e, and a decoder fit sums in one at any lambda_d
        grid = chebyshev_grid(6, 20)
        batch = encode(Dataset(rng.uniform(-1, 1, (6, d))), grid, lam)
        assert _linear_encoder(grid, lam).unit.flags.c_contiguous
        assert batch.encoder_fit.knot_data.flags.c_contiguous
        result = decode(WorkerReturns(np.arange(0, 20, 2), rng.normal(size=(10, d))), grid, lam)
        assert result.decoder_fit.knot_data.flags.c_contiguous

    def test_dense_map_built_only_for_wide_inputs(self, rng):
        grid = chebyshev_grid(6, 20)
        encoder = _linear_encoder(grid, 1e-3)
        for d in range(1, 6):
            encode(Dataset(rng.uniform(-1, 1, (6, d))), grid, 1e-3)
            encoder.apply(rng.uniform(-1, 1, (3, 6, d)))
        assert "dense" not in vars(encoder)
        encode(Dataset(rng.uniform(-1, 1, (6, 6))), grid, 1e-3)
        assert vars(encoder)["dense"].shape == (20, 6)

    def test_one_cache_holds_every_scheme(self, rng):
        grid = chebyshev_grid(4, 9)
        data = Dataset(rng.uniform(-1, 1, (4, 1)))
        for _ in range(2):
            encode(data, grid, 0.0)
            encode(data, grid, 1e-2)
            baselines.bacc_encode(data, grid)
            baselines.lcc_encode(data, grid)
        assert list(grid._encoders) == [("letcc", 0.0), ("letcc", 1e-2),
                                        ("bacc", None), ("lcc", None)]


def _worker_pairs(batch: CodedBatch, f, survivors):
    outs = f(batch.coded[survivors])
    return list(zip(survivors, outs))


class TestDecode:
    def test_identity_chain_recovers_inputs(self):
        # identity data + identity worker: every stage reproduces the
        # affine map exactly, so the chain is exact end to end
        grid = chebyshev_grid(8, 24)
        data = Dataset(grid.alphas[:, None].copy())
        batch = encode(data, grid, 0.0)
        pairs = _worker_pairs(batch, lambda x: x, list(range(24)))
        result = decode(pairs, grid, 0.0)
        assert np.abs(result.estimates - data.inputs).max() < 1e-8

    def test_affine_function_exact_under_any_stragglers(self, rng):
        grid = chebyshev_grid(5, 12)
        data = Dataset((1.3 * grid.alphas - 0.2)[:, None])
        batch = encode(data, grid, 0.7)
        f = lambda x: -2.0 * x + 5.0
        truth = f(data.inputs)
        for survivors in ([0, 11], [3, 4, 5], list(range(0, 12, 2))):
            result = decode(_worker_pairs(batch, f, survivors), grid, 0.3)
            assert np.abs(result.estimates - truth).max() < 1e-8

    @pytest.mark.parametrize("identity_data,threshold", [(True, 1e-4), (False, 1e-2)])
    def test_sine_pipeline_hits_small_error(self, identity_data, threshold, rng):
        # with identity data the decoder tracks sin directly and lands many
        # orders below the bound; random data adds encoder-interpolant
        # wiggle to the decoder target, costing a few orders of magnitude
        k, n, s = 16, 128, 8
        grid = chebyshev_grid(k, n)
        if identity_data:
            data = Dataset(grid.alphas[:, None].copy())
        else:
            data = Dataset(rng.uniform(-1, 1, (k, 1)))
        batch = encode(data, grid, 0.0)
        f = lambda x: np.sin(np.pi * x)
        survivors = np.sort(rng.choice(n, n - s, replace=False))
        result = decode(_worker_pairs(batch, f, survivors.tolist()), grid, float(n) ** -4)
        mse = float(np.mean((result.estimates - f(data.inputs)) ** 2))
        assert mse < threshold

    def test_zero_survivors_fails(self):
        grid = chebyshev_grid(4, 8)
        with pytest.raises(DecodeFailure):
            decode([], grid, 0.0)

    def test_one_or_two_survivors_degraded(self):
        grid = chebyshev_grid(4, 8)
        one = decode([(3, np.array([1.0]))], grid, 0.0)
        assert one.degraded and one.survivor_count == 1
        two = decode([(1, np.array([1.0])), (6, np.array([2.0]))], grid, 0.0)
        assert two.degraded and two.survivor_count == 2

    def test_survivor_order_does_not_matter(self, rng):
        grid = chebyshev_grid(4, 10)
        pairs = [(i, rng.normal(size=2)) for i in (7, 2, 9, 4)]
        a = decode(pairs, grid, 1e-3)
        b = decode(list(reversed(pairs)), grid, 1e-3)
        assert np.array_equal(a.estimates, b.estimates)

    def test_duplicate_survivor_keeps_first_and_warns(self):
        grid = chebyshev_grid(4, 10)
        pairs = [(2, np.array([1.0])), (5, np.array([2.0])), (2, np.array([9.0])),
                 (8, np.array([3.0]))]
        with pytest.warns(UserWarning, match="duplicate"):
            result = decode(pairs, grid, 0.0)
        clean = decode([(2, [1.0]), (5, [2.0]), (8, [3.0])], grid, 0.0)
        assert np.array_equal(result.estimates, clean.estimates)

    def test_normalize_matches_first_report_reference(self, rng):
        # reference: walk the pairs in order, keep each index's first report
        n = 12
        indices = rng.integers(0, n, 30)
        outputs = rng.normal(size=(30, 3))
        first = {}
        for i, row in zip(indices.tolist(), outputs):
            first.setdefault(i, row)
        keys = sorted(first)
        for survivors in (WorkerReturns(indices, outputs), list(zip(indices, outputs))):
            with pytest.warns(UserWarning, match="duplicate"):
                got_idx, got_out = normalize_survivors(survivors, n)
            assert got_idx.dtype == np.array([0]).dtype
            assert got_idx.tolist() == keys
            assert np.array_equal(got_out, np.vstack([first[i] for i in keys]))

    @pytest.mark.parametrize("order", ["sorted", "unsorted", "duplicates"])
    @pytest.mark.parametrize("shape", [(3,), ()], ids=["rows", "scalars"])
    def test_pairs_and_returns_normalize_to_the_same_bits(self, rng, order, shape):
        indices = rng.choice(20, 9, replace=False)
        outputs = rng.normal(size=(9, *shape))
        if order == "sorted":
            indices.sort()
        elif order == "duplicates":
            indices, outputs = np.append(indices, indices[:2]), np.concatenate(
                [outputs, outputs[:2] + 1.0])
        got = []
        # scalar outputs are a column: a 1-D outputs array would be one row
        returns = WorkerReturns(indices, outputs.reshape(indices.size, -1))
        for survivors in (list(zip(indices, outputs)), returns):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                idx, out = normalize_survivors(survivors, 20)
            got.append((idx, out, [str(w.message) for w in caught]))
        (idx, out, messages), (idx2, out2, messages2) = got
        assert idx.dtype == idx2.dtype == np.array([0]).dtype
        assert _same_bits(idx, idx2) and _same_bits(out, out2) and messages == messages2
        assert idx.tolist() == sorted(set(indices.tolist()))
        assert out.shape == (idx.size, shape[0] if shape else 1)
        assert len(messages) == (2 if order == "duplicates" else 0)

    @pytest.mark.parametrize("indices", [[0, 2, 5], [5, 0, 2], [0, 5, 0, 2]],
                             ids=["sorted", "unsorted", "duplicates"])
    def test_non_finite_outputs_refused_on_every_path(self, indices):
        outputs = np.arange(len(indices), dtype=float)[:, None]
        outputs[1] = np.inf
        for survivors in (list(zip(indices, outputs)), WorkerReturns(indices, outputs)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(ValueError, match="^survivor outputs contain non-finite"):
                    normalize_survivors(survivors, 8)

    def test_normalize_rejects_out_of_range_and_non_finite(self):
        with pytest.raises(ValueError, match="survivor index 7 outside"):
            normalize_survivors([(1, [0.0]), (7, [1.0]), (-1, [2.0])], 7)
        with pytest.raises(ValueError, match="non-finite"):
            normalize_survivors(WorkerReturns(np.array([0, 2]),
                                              np.array([[1.0], [np.nan]])), 4)
        # a fractional index is refused, not truncated; integral floats pass
        grid = chebyshev_grid(4, 9)
        for bad in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"survivor index {bad} is not an integer"):
                decode([(bad, [1.0]), (1, [2.0]), (2, [0.0])], grid, 1e-3)
            with pytest.raises(ValueError, match="is not an integer"):
                normalize_survivors(WorkerReturns(np.array([bad, 1.0]), np.zeros((2, 1))), 9)
        want = decode([(0, [1.0]), (1, [2.0]), (2, [0.0])], grid, 1e-3)
        for survivors in ([(0.0, [1.0]), (1.0, [2.0]), (2.0, [0.0])],
                          WorkerReturns(np.array([0.0, 1.0, 2.0]), [[1.0], [2.0], [0.0]])):
            got = decode(survivors, grid, 1e-3)
            assert np.array_equal(got.estimates, want.estimates)

    def test_boolean_indices_raise(self):
        # a mask is not a set of indices: read as 0 and 1 it would decode
        # the wrong workers
        grid = chebyshev_grid(3, 7)
        with pytest.raises(ValueError, match="survivor index must be an integer, got bool"):
            decode(WorkerReturns(np.array([False, True, True]), np.ones((3, 1))), grid, 0.0)
        with pytest.raises(ValueError, match="survivor index must be an integer, got bool"):
            normalize_survivors([(True, [1.0]), (False, [2.0])], 7)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_among_integer_indices_raises(self, flag):
        # numpy reads [True, 2, 3] as the integers [1, 2, 3], which would
        # decode worker 1: every item of a list is checked on its own
        grid = chebyshev_grid(3, 7)
        pairs = [(flag, [1.0]), (2, [2.0]), (3, [0.0])]
        returns = WorkerReturns([flag, 2, 3], [[1.0], [2.0], [0.0]])
        for survivors in (pairs, returns):
            with pytest.raises(ValueError, match="survivor index must be an integer, got bool"):
                normalize_survivors(survivors, 7)
            with pytest.raises(ValueError, match="survivor index must be an integer, got bool"):
                decode(survivors, grid, 0.0)

    def test_column_of_indices_raises(self):
        # a (v, 1) column would reach the fit as a stack of v knot sets
        grid = chebyshev_grid(3, 7)
        with pytest.raises(ValueError, match=r"^survivor index array must be one-dimensional, "
                                             r"got shape \(3, 1\)$"):
            decode(WorkerReturns(np.array([[0], [2], [4]]), np.ones((3, 1))), grid, 0.0)

    @pytest.mark.parametrize("form", ["arrays", "pairs"])
    def test_outputs_with_zero_columns_raise_in_every_scheme(self, form):
        # bacc and lcc would return (K, 0) estimates, and letcc's fit fail
        # in a reshape; every scheme refuses them in normalize_survivors
        grid = chebyshev_grid(3, 7)
        indices = np.array([0, 2, 4, 6])
        survivors = (WorkerReturns(indices, np.zeros((4, 0))) if form == "arrays"
                     else [(i, np.zeros(0)) for i in indices])
        message = "^survivor outputs must have at least one column$"
        with pytest.raises(ValueError, match=message):
            normalize_survivors(survivors, 7)
        for run in (lambda: decode(survivors, grid, 1e-3),
                    lambda: baselines.bacc_decode(survivors, grid),
                    lambda: baselines.lcc_decode(survivors, grid, 1)):
            with pytest.raises(ValueError, match=message):
                run()

    def test_zero_dimensional_indices_raise(self):
        grid = chebyshev_grid(3, 7)
        with pytest.raises(ValueError, match=r"^survivor index array must be one-dimensional, "
                                             r"got shape \(\)$"):
            decode(WorkerReturns(np.array(3), np.ones((1, 1))), grid, 0.0)

    def test_normalize_rejects_length_mismatch(self):
        grid = chebyshev_grid(4, 8)
        with pytest.raises(ValueError, match="4 survivor indices for 2 output rows"):
            decode(WorkerReturns([0, 1, 2, 5], [[1.0], [2.0]]), grid, 0.0)
        with pytest.raises(ValueError, match="2 survivor indices for 3 output rows"):
            normalize_survivors(WorkerReturns(np.array([0, 1]), np.ones((3, 2))), 8)
        with pytest.raises(DecodeFailure):
            decode(WorkerReturns([], []), grid, 0.0)

    def test_decomposition_and_lipschitz_bounds_hold(self, rng):
        # risk <= l_dec + l_enc and l_enc <= 2 q^2 * training error, per trial
        q = np.pi
        f = lambda x: np.sin(np.pi * x)
        for _ in range(25):
            k = int(rng.integers(4, 17))
            n = int(rng.integers(8, 65))
            s = int(rng.integers(0, n // 2))
            grid = chebyshev_grid(k, n)
            data = Dataset(rng.uniform(-1, 1, (k, 1)))
            lam_e = float(rng.choice([0.0, 1e-6, 1e-3]))
            lam_d = float(rng.choice([0.0, 1e-8, 1e-4]))
            batch = encode(data, grid, lam_e)
            survivors = np.sort(rng.choice(n, n - s, replace=False)).tolist()
            result = decode(_worker_pairs(batch, f, survivors), grid, lam_d)
            truth = f(data.inputs)
            through = f(batch.encoder_fit.evaluate(grid.alphas))
            risk = float(np.mean(np.sum((result.estimates - truth) ** 2, axis=1)))
            l_dec = 2 * float(np.mean(np.sum((result.estimates - through) ** 2, axis=1)))
            l_enc = 2 * float(np.mean(np.sum((through - truth) ** 2, axis=1)))
            assert risk <= l_dec + l_enc + 1e-9 * (1 + l_dec + l_enc)
            bound = 2 * q**2 * encoder_training_error(batch, data)
            assert l_enc <= bound + 1e-9 * (1 + bound)


# decoder weights from interpolation through every decade of the crossval
# grid to a weight far past any useful smoothing
_LAMBDA_LISTS = st.lists(st.one_of(st.just(0.0),
                                   st.integers(-13, 0).map(lambda e: 10.0**e),
                                   st.just(1e16)),
                         min_size=1, max_size=6)


def _decode_quietly(survivors, grid, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return decode(survivors, grid, lam)


def _stacked(survivors):
    """(T, v) indices and (T, v, m) outputs of survivors of one count, as a chunk holds them."""
    return (np.array([s.indices for s in survivors]),
            np.array([s.outputs for s in survivors], dtype=float))


class TestDecodeStackAtManyWeights:
    @settings(max_examples=60, deadline=None)
    @given(lams=_LAMBDA_LISTS, m=st.sampled_from([1, 3]),
           count=st.sampled_from([1, 2, 3, None]), n=st.integers(8, 80),
           trials=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_each_trial_at_each_weight_equals_decode(self, lams, m, count, n, trials, seed):
        rng = np.random.default_rng(seed)
        grid = chebyshev_grid(5, n)
        if count is None:  # N - S survivors
            count = n - int(rng.integers(0, n // 4 + 1))
        survivors = [WorkerReturns(np.sort(rng.choice(n, count, replace=False)),
                                   rng.normal(size=(count, m))) for _ in range(trials)]
        estimates, fits, degraded = _decode_stack(grid, *_stacked(survivors), lams)
        assert estimates.shape == (len(lams), trials, 5, m)
        assert fits.shape == (len(lams), trials, 2, count, m)
        assert fits.flags.c_contiguous  # with or without 0 among the weights
        assert degraded is (count < 3)
        for lam, at_weight, knot_data in zip(lams, estimates, fits):
            for t, s in enumerate(survivors):
                want = _decode_quietly(s, grid, lam)
                assert np.array_equal(at_weight[t], want.estimates)
                assert np.array_equal(knot_data[t], want.decoder_fit.knot_data)
                assert want.survivor_count == count
                assert want.degraded == degraded

    # a weight too large for the knots; a negative or non-finite one is
    # refused before the stack, by letcc.points._real (test_points.py)
    @pytest.mark.parametrize("bad, message", [(1e307, "n[*]lam is not finite"),
                                              (1e305, "too large for these knots")])
    def test_refuses_a_weight_as_fit_does(self, rng, bad, message):
        grid = chebyshev_grid(4, 256)
        indices = np.arange(0, 256, 2)
        outputs = rng.normal(size=(indices.size, 1))
        with pytest.raises(ValueError, match=message) as want:
            spline.fit(grid.betas[indices], outputs, bad)
        with pytest.raises(ValueError) as got:
            _decode_stack(grid, indices[None], outputs[None], [1e-6, bad, 0.0])
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got:
            decode(WorkerReturns(indices, outputs), grid, bad)
        assert str(got.value) == str(want.value)


def test_decode_checks_its_knots_once_and_a_chunk_none(monkeypatch):
    # knots are checked where they enter: a decode's survivor knots are grid
    # points at checked indices, so only its SplineFit checks them, and the
    # stacked survivor knots of a Monte-Carlo chunk are not checked again
    shapes = []
    check = spline._check_points

    def counted(name, pts, *args, **kwargs):
        shapes.append(pts.shape)
        return check(name, pts, *args, **kwargs)

    monkeypatch.setattr(spline, "_check_points", counted)
    grid = chebyshev_grid(8, 24)
    decode([(i, [np.sin(i)]) for i in range(0, 24, 2)], grid, 1e-3)
    assert shapes == [(12,)]
    setup = trial_setup(n=24, s=4, sigma0=0.1, lambda_e=1e-3)
    _linear_encoder(setup.grid, setup.lambda_e)  # the grid's encoder, fitted once on the alphas
    shapes.clear()
    results = sim.monte_carlo_lambdas(setup, 20, 5, (0.0, 1e-4))
    assert shapes == [] and len(results) == 2


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _survivor_batch(grid, count, trials, m, fixed, rng):
    """Survivors of ``trials`` trials with ``count`` sorted indices each.

    ``fixed`` repeats one index set, as fixed stragglers do.  m = 3 takes
    the outputs of a tanh network with a softmax head.
    """
    net = make_worker("tanh_net", d=2, m=3)
    indices = np.sort(rng.choice(grid.n, count, replace=False))
    batch = []
    for _ in range(trials):
        if not fixed:
            indices = np.sort(rng.choice(grid.n, count, replace=False))
        outputs = (net.evaluate(rng.uniform(-1, 1, (count, 2))) if m == 3
                   else rng.normal(size=(count, m)))
        batch.append(WorkerReturns(indices, outputs))
    return batch


class TestDecodeStack:
    # grid (3, 7) puts the alpha 0.0 on the beta 0.0 (index 3): the bacc
    # node hit of every trial whose survivors hold index 3
    @pytest.mark.parametrize("k, n, count", [(5, 21, 1), (5, 21, 2), (5, 21, 3),
                                             (5, 21, 17), (5, 21, 21), (3, 7, 4)])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_each_trial_equals_its_own_decode(self, k, n, count, m, fixed):
        grid = chebyshev_grid(k, n)
        rng = np.random.default_rng([k, n, count, m, fixed])
        survivors = _survivor_batch(grid, count, 12, m, fixed, rng)
        indices, outputs = _stacked(survivors)
        lams = (0.0, 1e-13, float(n) ** -4, 1e16)
        for group in [lams] + [(lam,) for lam in lams]:  # all weights at once, and each alone
            estimates, fits, degraded = _decode_stack(grid, indices, outputs, group)
            assert degraded is (count < 3)
            for lam, at_weight, knot_data in zip(group, estimates, fits, strict=True):
                for t, s in enumerate(survivors):
                    want = decode(s, grid, lam)
                    assert _same_bits(at_weight[t], want.estimates)
                    assert _same_bits(knot_data[t], want.decoder_fit.knot_data)
                    assert (want.survivor_count, want.degraded) == (count, count < 3)
                    assert want.decoder_fit.degenerate is (count < 3)
        hits = 0
        stacked = baselines._bacc_decode_stack(grid, indices, outputs)
        assert len(stacked) == len(survivors)
        for s, got in zip(survivors, stacked):
            want = baselines.bacc_decode(s, grid)
            assert _same_bits(got, want.estimates)
            assert want.survivor_count == count
            hits += 3 in s.indices
        if (k, n) == (3, 7):
            assert 0 < hits < len(survivors) or fixed

    def test_weights_in_either_order_equal_their_own_decodes(self, rng):
        # every weight but a call's last is solved in a copy of the lam-free
        # band entries, and the last in place: no solve may see another's
        grid = chebyshev_grid(5, 41)
        survivors = _survivor_batch(grid, 30, 4, 2, False, rng)
        for group in ((0.0, 1e-6, 1e-3), (1e-3, 1e-6, 0.0)):
            estimates, fits, _ = _decode_stack(grid, *_stacked(survivors), group)
            for lam, at_weight, knot_data in zip(group, estimates, fits, strict=True):
                for t, s in enumerate(survivors):
                    want = decode(s, grid, lam)
                    assert _same_bits(at_weight[t], want.estimates)
                    assert _same_bits(knot_data[t], want.decoder_fit.knot_data)

    def test_bacc_node_hit_reads_the_node_value(self):
        grid = chebyshev_grid(3, 7)
        assert grid.alphas[1] == grid.betas[3] == 0.0
        survivors = [WorkerReturns(np.array([1, 3, 5]), np.array([[1.0], [7.0], [2.0]])),
                     WorkerReturns(np.array([1, 2, 5]), np.array([[1.0], [7.0], [2.0]]))]
        hit, miss = baselines._bacc_decode_stack(grid, *_stacked(survivors))
        assert hit[1, 0] == 7.0
        assert miss[1, 0] != 7.0

    def test_overflow_names_the_first_trial_that_overflows(self, rng):
        # survivor sets whose smallest gaps shrink from trial to trial: at
        # this weight trial 0 fits, and trials 1 and 2 overflow with their
        # own largest 1/h weights; the stack raises trial 1's error
        grid = chebyshev_grid(4, 256)
        indices = [np.arange(3, 253), np.arange(1, 251), np.arange(0, 250)]
        weights = []
        for idx in indices:
            h = np.diff(grid.betas[idx])
            weights.append(float((1.0 / h[:-1] + 1.0 / h[1:]).max()))
        assert weights[0] < weights[1] < weights[2]
        lam = float(np.finfo(float).max / np.sqrt(weights[0] * weights[1]) / 250)
        survivors = [WorkerReturns(idx, rng.normal(size=(250, 1))) for idx in indices]
        decode(survivors[0], grid, lam)
        with pytest.raises(ValueError, match="too large for these knots") as want:
            for s in survivors:
                decode(s, grid, lam)
        assert str(weights[1]) in str(want.value)
        with pytest.raises(ValueError) as got:
            _decode_stack(grid, *_stacked(survivors), (lam,))
        assert str(got.value) == str(want.value)

    def test_bad_lambda_raises_as_decode_does(self):
        grid = chebyshev_grid(5, 21)
        indices, outputs = np.arange(4)[None], np.zeros((1, 4, 1))
        for lam in (-1e-3, np.nan, np.inf):
            with pytest.raises(ValueError, match="^lambda_d must be"):
                decode(WorkerReturns(indices[0], outputs[0]), grid, lam)
        with pytest.raises(ValueError, match="lam too large"):
            _decode_stack(grid, np.arange(21)[None], np.zeros((1, 21, 1)), (1e306,))


class TestEncoderTrainingError:
    def test_baselines_interpolate_their_inputs(self, rng):
        grid = chebyshev_grid(6, 20)
        data = Dataset(rng.uniform(-1, 1, (6, 3)))
        for encode_with in (baselines.bacc_encode, baselines.lcc_encode):
            assert encoder_training_error(encode_with(data, grid), data) == 0.0

    # a dataset of another K met numpy's broadcast error, and one of d = 1
    # against a wider batch broadcast to a wrong answer
    @pytest.mark.parametrize("shape, message", [
        ((3, 2), "dataset has 3 rows but grid has 4 alphas"),
        ((4, 3), "dataset has 3 columns but batch has 2"),
        ((4, 1), "dataset has 1 columns but batch has 2"),
    ])
    @pytest.mark.parametrize("encode_with", [
        lambda data, grid: encode(data, grid, 1e-3), baselines.bacc_encode, baselines.lcc_encode,
    ], ids=["letcc", "bacc", "lcc"])
    def test_dataset_of_another_shape_refused(self, rng, encode_with, shape, message):
        grid = chebyshev_grid(4, 12)
        batch = encode_with(Dataset(rng.uniform(-1, 1, (4, 2))), grid)
        with pytest.raises(ValueError, match=f"^{message}$"):
            encoder_training_error(batch, Dataset(np.ones(shape)))

    @pytest.mark.parametrize("k, d, lam", [(1, 1, 0.0), (2, 3, 1.0), (8, 70, 1e-3),
                                           (16, 16, 0.0), (64, 5, 10.0)])
    def test_letcc_is_the_residual_at_the_knots(self, rng, k, d, lam):
        # a spline evaluated at its knots gives its knot values exactly
        grid = chebyshev_grid(k, k + 8)
        data = Dataset(rng.uniform(-1, 1, (k, d)))
        batch = encode(data, grid, lam)
        residual = batch.encoder_fit.coefficients - data.inputs
        assert encoder_training_error(batch, data) == float(np.mean(np.sum(residual**2, axis=1)))


class TestOutputsAtPoints:
    # one rule reads outputs at n known points: a 1-D array is one value per
    # point, or the values of the one point when n is 1; others keep their rows
    INDICES = np.array([0, 2, 3, 5, 7, 8, 10, 11])

    def test_one_value_per_survivor_decodes_as_its_column(self, rng):
        grid = chebyshev_grid(5, 12)
        column = rng.normal(size=(8, 1))
        for indices in (self.INDICES, self.INDICES[::-1]):
            want = decode(WorkerReturns(indices, column), grid, 1e-4).estimates
            got = decode(WorkerReturns(indices, column[:, 0]), grid, 1e-4).estimates
            assert got.shape == (5, 1) and _same_bits(got, want)
        pairs = decode(list(zip(self.INDICES, column[:, 0])), grid, 1e-4).estimates
        assert _same_bits(pairs, decode(WorkerReturns(self.INDICES, column), grid,
                                        1e-4).estimates)

    def test_one_survivor_reads_a_flat_array_as_its_row(self):
        indices, outputs = normalize_survivors(WorkerReturns([3], np.array([1.0, 2.0, 3.0])), 8)
        assert indices.tolist() == [3] and outputs.tolist() == [[1.0, 2.0, 3.0]]

    @pytest.mark.parametrize("outputs, rows", [(np.ones(5), 5), (np.ones((3, 2)), 3),
                                               (np.float64(1.0), 1), (np.ones((1, 8)), 1)])
    def test_row_count_mismatch_raises_one_message(self, outputs, rows):
        with pytest.raises(ValueError, match=rf"^8 survivor indices for {rows} output rows$"):
            normalize_survivors(WorkerReturns(self.INDICES, outputs), 12)
