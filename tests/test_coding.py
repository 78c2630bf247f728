import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from letcc.coding import (
    CodedBatch,
    Dataset,
    DecodeFailure,
    decode,
    decode_lambdas,
    encode,
    encoder_training_error,
    normalize_survivors,
)
from letcc import baselines, kernel, spline
from letcc.points import chebyshev_grid

from letcc.sim import WorkerReturns

from conftest import ols_affine


class TestDataset:
    def test_shapes(self):
        d = Dataset(np.zeros((4, 2)))
        assert d.k == 4 and d.d == 2

    def test_one_dimensional_input_promoted(self):
        assert Dataset(np.zeros(3)).inputs.shape == (1, 3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]))


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
    "LagrangePolynomial": lambda: baselines.LagrangePolynomial.through([0.0, 1.0],
                                                                      [1.0, 2.0]),
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

    def test_repeat_and_fresh_grid_encode_identically(self, rng, monkeypatch):
        calls = self._count_fits(monkeypatch)
        grid = chebyshev_grid(6, 20)
        data = Dataset(rng.uniform(-1, 1, (6, 3)))
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
        expected = spline.fit(grid.alphas, x, lam).evaluate(grid.betas)
        batch = encode(Dataset(x), grid, lam)
        scale = 1.0 + np.abs(expected).max()
        assert np.abs(batch.coded - expected).max() <= 1e-12 * scale
        assert batch.encoder_fit.degenerate == (k < 3)

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
    def test_invalid_lambda_raises_and_caches_nothing(self, bad, rng):
        grid = chebyshev_grid(4, 9)
        data = Dataset(rng.uniform(-1, 1, (4, 1)))
        encode(data, grid, 0.0)
        for _ in range(2):
            with pytest.raises(ValueError):
                encode(data, grid, bad)
        assert list(grid._encoders) == [("letcc", 0.0)]

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

    def test_normalize_rejects_out_of_range_and_non_finite(self):
        with pytest.raises(ValueError, match="survivor index 7 outside"):
            normalize_survivors([(1, [0.0]), (7, [1.0]), (-1, [2.0])], 7)
        with pytest.raises(ValueError, match="non-finite"):
            normalize_survivors(WorkerReturns(np.array([0, 2]),
                                              np.array([[1.0], [np.nan]])), 4)

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


class TestDecodeLambdas:
    @settings(max_examples=60, deadline=None)
    @given(lams=_LAMBDA_LISTS, m=st.sampled_from([1, 3]),
           count=st.sampled_from([1, 2, 3, None]), n=st.integers(8, 80),
           duplicate=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_each_weight_equals_decode_at_that_weight(self, lams, m, count, n, duplicate,
                                                      seed):
        rng = np.random.default_rng(seed)
        grid = chebyshev_grid(5, n)
        if count is None:  # N - S survivors
            count = n - int(rng.integers(0, n // 4 + 1))
        indices = rng.choice(n, count, replace=False)
        pairs = list(zip(indices.tolist(), rng.normal(size=(count, m))))
        if duplicate:  # a second report of one index: kept out, warned about
            pairs.insert(int(rng.integers(1, count + 1)), (pairs[0][0], rng.normal(size=m)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = decode_lambdas(pairs, grid, lams)
        assert len(caught) == int(duplicate)
        assert len(results) == len(lams)
        for lam, got in zip(lams, results):
            want = _decode_quietly(pairs, grid, lam)
            assert np.array_equal(got.estimates, want.estimates)
            assert got.survivor_count == want.survivor_count == count
            assert got.degraded == want.degraded == (count < 3)
            assert got.decoder_fit.lam == lam

    @pytest.mark.parametrize("bad, message", [(-1e-3, "finite nonnegative"),
                                              (np.nan, "finite nonnegative"),
                                              (np.inf, "finite nonnegative"),
                                              (1e307, "n[*]lam is not finite"),
                                              (1e305, "too large for these knots")])
    def test_refuses_a_weight_as_fit_does(self, rng, bad, message):
        grid = chebyshev_grid(4, 256)
        indices = np.arange(0, 256, 2)
        outputs = rng.normal(size=(indices.size, 1))
        with pytest.raises(ValueError, match=message) as want:
            spline.fit(grid.betas[indices], outputs, bad)
        with pytest.raises(ValueError) as got:
            decode_lambdas(WorkerReturns(indices, outputs), grid, [1e-6, bad, 0.0])
        assert str(got.value) == str(want.value)

    def test_empty_weight_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            decode_lambdas([(0, 1.0), (3, 2.0), (6, 0.0)], chebyshev_grid(3, 7), [])
