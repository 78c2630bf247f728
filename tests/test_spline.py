import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from letcc import spline
from letcc.kernel import kernel_fit
from letcc.points import chebyshev_second, mesh_stats
from letcc.spline import (
    DegenerateBasisError,
    NaturalSplineBasis,
    NumericalFitError,
    evaluation_weights,
    fit,
)

from conftest import ols_affine, quadrature_roughness


class TestBasis:
    def test_three_knots_dimension(self):
        assert NaturalSplineBasis([-1.0, 0.0, 1.0]).basis_dim == 3

    def test_fewer_than_three_knots_rejected(self):
        with pytest.raises(DegenerateBasisError):
            NaturalSplineBasis([-1.0, 1.0])

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            NaturalSplineBasis([0.0, 0.0, 1.0])

    def test_knot_evaluation_matrix_invertible(self):
        basis = NaturalSplineBasis(chebyshev_second(8))
        mat = basis.basis_matrix(basis.knots)
        # cardinal basis: the matrix is the identity, trivially invertible
        assert np.allclose(mat, np.eye(8), atol=1e-12)
        np.linalg.inv(mat)

    def test_affine_functions_in_span(self):
        knots = chebyshev_second(8)
        basis = NaturalSplineBasis(knots)
        coef = 3.0 * knots - 0.5  # cardinal coefficients = knot values
        query = np.linspace(-1, 1, 57)
        values = basis.basis_matrix(query) @ coef
        assert values == pytest.approx(3.0 * query - 0.5, abs=1e-12)


class TestPenaltyMatrix:
    def test_constant_in_null_space(self):
        basis = NaturalSplineBasis(chebyshev_second(8))
        phi = basis.penalty_matrix()
        assert np.abs(phi @ np.ones(8)).max() < 1e-10

    def test_linear_in_null_space(self):
        basis = NaturalSplineBasis(chebyshev_second(8))
        phi = basis.penalty_matrix()
        assert np.abs(phi @ basis.knots).max() < 1e-10

    def test_symmetric_positive_semidefinite(self):
        basis = NaturalSplineBasis(chebyshev_second(12))
        phi = basis.penalty_matrix()
        assert np.array_equal(phi, phi.T)
        assert np.linalg.eigvalsh(phi).min() > -1e-9

    def test_quadratic_form_matches_quadrature(self):
        knots = chebyshev_second(8)
        coef = knots**2
        basis = NaturalSplineBasis(knots)
        quad_form = float(coef @ basis.penalty_matrix() @ coef)
        interp = fit(knots, coef, 0.0)
        oracle = quadrature_roughness(interp.evaluate, knots)
        assert quad_form == pytest.approx(oracle, rel=1e-6)


class TestFit:
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 1e3])
    def test_affine_reproduction(self, lam):
        t = np.array([-1.0, 0.0, 1.0])
        y = 2.0 * t + 1.0
        f = fit(t, y, lam)
        assert np.abs(f.evaluate(t) - y).max() < 1e-10

    def test_interpolation_at_zero_lambda(self, rng):
        t = chebyshev_second(16)
        y = rng.normal(size=(16, 4))
        f = fit(t, y, 0.0)
        assert np.abs(f.evaluate(t) - y).max() < 1e-8

    def test_huge_lambda_approaches_affine_least_squares(self, rng):
        t = chebyshev_second(8)
        y = rng.normal(size=8)
        f = fit(t, y, 1e9)
        assert np.abs(f.evaluate(t) - ols_affine(t, y)).max() < 1e-8

    def test_knot_evaluation_returns_data_at_zero_lambda(self, rng):
        t = chebyshev_second(9)
        y = rng.normal(size=9)
        f = fit(t, y, 0.0)
        assert f.evaluate(t) == pytest.approx(y, abs=1e-12)

    def test_affine_fit_extrapolates_exactly(self):
        t = chebyshev_second(8)
        f = fit(t, t, 0.0)
        assert f.evaluate([2.0]) == pytest.approx([2.0], abs=1e-12)

    def test_extrapolation_is_linear(self, rng):
        t = chebyshev_second(8)
        f = fit(t, rng.normal(size=8), 1e-3)
        for xs in ([1.2, 1.5, 1.8], [-1.9, -1.6, -1.3]):
            v = f.evaluate(xs)
            assert v[2] - 2 * v[1] + v[0] == pytest.approx(0.0, abs=1e-12)

    def test_linearity_in_data(self, rng):
        t = chebyshev_second(12)
        y1 = rng.normal(size=(12, 2))
        y2 = rng.normal(size=(12, 2))
        a, b = 1.7, -0.4
        q = rng.uniform(-1, 1, 40)
        lam = 1e-4
        lhs = fit(t, a * y1 + b * y2, lam).evaluate(q)
        rhs = a * fit(t, y1, lam).evaluate(q) + b * fit(t, y2, lam).evaluate(q)
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_vector_fit_equals_per_dimension_fits(self, rng):
        t = chebyshev_second(10)
        y = rng.normal(size=(10, 3))
        lam = 1e-3
        joint = fit(t, y, lam)
        q = np.linspace(-1, 1, 33)
        for j in range(3):
            single = fit(t, y[:, j], lam)
            assert np.abs(joint.evaluate(q)[:, j] - single.evaluate(q)).max() < 1e-12

    def test_roughness_zero_for_affine(self):
        t = chebyshev_second(8)
        assert fit(t, 3 * t - 1, 1e-2).roughness() < 1e-12

    def test_roughness_matches_quadrature(self):
        knots = chebyshev_second(16)
        f = fit(knots, knots**2, 0.0)
        oracle = quadrature_roughness(f.evaluate, knots)
        assert f.roughness() == pytest.approx(oracle, rel=1e-6)

    def test_mean_squared_error_lambda_convention(self, rng):
        # the data term is a mean, so the normal equations carry n*lam:
        # (N^T N + n*lam*Phi) xi = N^T y with the cardinal design N = I
        t = chebyshev_second(9)
        y = rng.normal(size=9)
        lam = 1e-3
        phi = NaturalSplineBasis(t).penalty_matrix()
        direct = np.linalg.solve(np.eye(9) + 9 * lam * phi, y)
        assert fit(t, y, lam).coefficients[:, 0] == pytest.approx(direct, abs=1e-9)

    def test_roughness_nonincreasing_in_lambda(self, rng):
        t = chebyshev_second(12)
        y = rng.normal(size=12)
        lams = [0.0, 1e-6, 1e-4, 1e-2, 1.0, 1e2]
        rough = [fit(t, y, lam).roughness() for lam in lams]
        assert all(b <= a + 1e-12 for a, b in zip(rough, rough[1:]))

    def test_training_mse_nondecreasing_in_lambda(self, rng):
        t = chebyshev_second(12)
        y = rng.normal(size=12)
        lams = [0.0, 1e-6, 1e-4, 1e-2, 1.0, 1e2]
        mses = [float(np.mean((fit(t, y, lam).evaluate(t) - y) ** 2)) for lam in lams]
        assert all(b >= a - 1e-12 for a, b in zip(mses, mses[1:]))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=24),
        lam=st.floats(min_value=0.0, max_value=1e4),
        slope=st.floats(min_value=-5, max_value=5),
        intercept=st.floats(min_value=-5, max_value=5),
    )
    def test_affine_reproduction_property(self, n, lam, slope, intercept):
        t = chebyshev_second(n)
        y = slope * t + intercept
        f = fit(t, y, lam)
        q = np.linspace(-1, 1, 17)
        scale = 1.0 + abs(slope) + abs(intercept)
        assert np.abs(f.evaluate(q) - (slope * q + intercept)).max() < 1e-10 * scale


class TestBandedAgainstOracles:
    """The banded fit against the dense normal equations, the kernel form
    (lambda >= 1e-8) and scipy's natural cubic interpolant (lambda = 0)."""

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=63),
        lam=st.one_of(st.just(0.0),
                      st.floats(min_value=-12.0, max_value=16.0).map(lambda e: 10.0**e)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # the kernel oracle's double-rounded Gram matrix once missed this fit
    # by 1.47e-6; its refined solve must stay within the bound
    @example(gaps=[1165.0, 1.0, 1.0], lam=1e-8, seed=0)
    def test_fit_matches_dense_and_kernel_oracles(self, gaps, lam, seed):
        t = np.concatenate(([0.0], np.cumsum(gaps)))
        t = 2.0 * t / t[-1] - 1.0
        assert mesh_stats(t).ratio <= 1e4 * (1 + 1e-9)
        n = t.size
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(n, 2))
        f = fit(t, y, lam)
        g = f.coefficients

        # (I + n*lam*Phi) g = y, checked by componentwise residual: at large
        # n*lam the dense system is too ill-conditioned for its own solve
        # to serve as a forward reference
        a = np.eye(n) + n * lam * NaturalSplineBasis(t).penalty_matrix()
        residual = np.abs(a @ g - y)
        assert (residual <= 1e-9 * (np.abs(a) @ np.abs(g) + np.abs(y))).all()

        if lam >= 1e-8:
            q = np.linspace(-1.0, 1.0, 101)
            oracle = kernel_fit(t, y, lam)
            assert np.abs(f.evaluate(q) - oracle.evaluate(q)).max() < 1e-6
            assert np.abs(g - oracle.evaluate(t)).max() < 1e-6
        elif lam == 0.0:
            # kernel_fit is no oracle here: at lambda = 0 nothing regularises
            # its nearly singular Gram matrix on uneven knots.  CubicSpline
            # extrapolates cubically and fit linearly, so beyond the knots
            # the oracle is its end value plus its end slope times the
            # distance.  That slope carries a rounding error of order
            # eps * max|y| / h at an end gap h (1.8e-9 of scale at distance
            # 0.5 when h = 1e-4, against a 50-digit reference), so queries
            # beyond the ends stay within two end gaps.  The queries are
            # shuffled: evaluation must not need them sorted.
            oracle = CubicSpline(t, y, bc_type="natural")
            q = rng.permutation(np.concatenate((
                np.union1d(np.linspace(t[0], t[-1], 301), t),
                t[0] - rng.uniform(0.0, 2.0, 20) * (t[1] - t[0]),
                t[-1] + rng.uniform(0.0, 2.0, 20) * (t[-1] - t[-2]),
            )))
            end = np.clip(q, t[0], t[-1])
            expected = oracle(end) + oracle(end, 1) * (q - end)[:, None]
            assert np.abs(f.evaluate(q) - expected).max() <= 1e-9 * (1.0 + np.abs(y).max())


class TestLargeN:
    def test_fit_at_65536_knots_is_linear_in_memory(self):
        n = 65536
        t = chebyshev_second(n)
        y = np.column_stack([2.0 * t + 1.0, -0.7 * t + 0.3])
        for lam in (float(n) ** -4, 1e3):
            tracemalloc.start()
            try:
                f = fit(t, y, lam)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a dense Q alone would be n * (n - 2) * 8 bytes, 34 GB
            assert peak < 64 * 2**20
            assert np.abs(f.evaluate(t) - y).max() <= 1e-10 * np.abs(y).max()

    def test_one_weight_fit_peaks_below_two_bands(self):
        # a fit builds the lam-free entries of its (2n-2) x 10 band once and
        # solves its one weight in place in them, with no second band
        n = 32768
        t = chebyshev_second(n)
        tracemalloc.start()
        try:
            fit(t, np.sin(3.0 * t), 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (2 * n - 2) * 10 * 8


class TestDegenerateFits:
    def test_two_points_affine_interpolation(self):
        f = fit([-0.5, 0.5], [1.0, 3.0], 5.0)
        assert f.degenerate
        assert f.evaluate([-0.5, 0.0, 0.5, 2.0]) == pytest.approx([1, 2, 3, 6.0])
        assert f.roughness() == 0.0

    def test_one_point_constant(self):
        f = fit([0.3], [7.0], 0.1)
        assert f.degenerate
        assert f.evaluate([-1.0, 0.0, 1.0]) == pytest.approx([7.0, 7.0, 7.0])

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            fit([], [], 0.0)


class TestFitValidation:
    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError):
            fit([-1, 0, 1], [0.0, np.nan, 1.0], 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            fit([-1, 0, 1], [0.0, 1.0, 2.0], -1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit([-1, 0, 1], [0.0, 1.0], 0.0)

    def test_two_dimensional_t_rejected(self):
        with pytest.raises(ValueError, match="^t must be one-dimensional$"):
            fit([[-1, 0, 1]], [0.0, 1.0, 2.0], 0.0)

    def test_non_increasing_t_rejected(self):
        with pytest.raises(ValueError, match="^t must be strictly increasing$"):
            fit([-1, 1, 0], [0.0, 1.0, 2.0], 1e-3)

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("shape", [(), (3, 2, 2)])
    def test_y_of_zero_or_three_dims_rejected(self, lam, shape):
        with pytest.raises(ValueError, match=r"^y must be \(n,\) or \(n, m\)$"):
            fit([-1, 0, 1], np.zeros(shape), lam)

    def test_non_finite_query_rejected(self):
        f = fit([-1, 0, 1], [0.0, 1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            f.evaluate([np.inf])

    def test_n_lambda_overflow_names_lambda(self, recwarn):
        t = chebyshev_second(64)
        with pytest.raises(ValueError, match="lam"):
            fit(t, np.sin(t), 1e307)  # 64 * 1e307 = inf
        # n*lam finite, but n*lam times the largest 1/h of the band is not
        with pytest.raises(ValueError, match="lam"):
            fit(t, np.sin(t), 1e306)
        assert not recwarn.list
        # degenerate fits never build the band and accept any finite lam
        assert fit([0.0, 1.0], [1.0, 2.0], 1e308).degenerate


class TestSmoothWeights:
    @pytest.mark.parametrize("lamns", [[-0.5], [0.0], [np.nan], [np.inf], [0.5, -0.5]])
    def test_weight_not_finite_and_positive_rejected(self, rng, lamns):
        # a negative weight solved as given would fit no smoothing spline,
        # and a NaN one is no size at all
        t = np.sort(rng.uniform(-1, 1, 12))
        with pytest.raises(ValueError, match=r"^smoothing weight n\*lam must be finite and > 0"):
            NaturalSplineBasis(t).smooth(rng.normal(size=(1, 12, 1)), lamns)


class TestStackedBasis:
    @pytest.mark.parametrize("m", [1, 3])
    def test_each_set_equals_a_basis_on_it_alone(self, rng, m):
        knots = np.sort(rng.uniform(-1, 1, (5, 9)), axis=1)
        y = rng.normal(size=(5, 9, m))
        stack = NaturalSplineBasis(knots)
        assert stack.basis_dim == 9
        qt = stack.apply_qt(y)
        gam0 = stack.interior_second_derivs(y)
        lamns = [0.7, 3.0]
        g, gam = stack.smooth(y, lamns)
        assert (qt.shape, gam0.shape, g.shape, gam.shape) == (
            (5, 7, m), (5, 7, m), (2, 5, 9, m), (2, 5, 9, m))
        assert not gam[..., [0, -1], :].any()
        for i in range(5):
            alone = NaturalSplineBasis(knots[i])
            one = y[i:i + 1]  # a single knot set takes a stack of one
            assert np.array_equal(qt[i:i + 1], alone.apply_qt(one))
            assert np.array_equal(gam0[i:i + 1], alone.interior_second_derivs(one))
            for w, lamn in enumerate(lamns):  # each weight as on its own
                g_i, gam_i = alone.smooth(one, [lamn])
                assert np.array_equal(g[w:w + 1, i:i + 1], g_i)
                assert np.array_equal(gam[w:w + 1, i:i + 1], gam_i)

    def test_knots_beyond_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            NaturalSplineBasis(np.zeros((2, 2, 3)))

    def test_non_finite_knots_rejected(self):
        with pytest.raises(ValueError, match="^knots contain non-finite values$"):
            NaturalSplineBasis(np.array([-1.0, np.inf, 1.0]))


class TestDirectLapackSolve:
    def test_same_bytes_as_solve_banded(self, rng, monkeypatch):
        # smooth hands dgbsv the seven band rows of the system plus three
        # fill-in rows: exactly what scipy's solve_banded builds for it
        seen = []
        original = spline.dgbsv

        def capture(kl, ku, ab, b, **kwargs):
            seen.append((ab[3:].copy(), b.copy()))
            return original(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(spline, "dgbsv", capture)
        t = np.sort(rng.uniform(-1, 1, 40))
        for y in (rng.normal(size=40), rng.normal(size=(40, 3))):
            for lam in (1e-8, 1e-2, 1e4):
                f = fit(t, y, lam)
                band, rhs = seen.pop()
                sol = solve_banded((3, 3), band, rhs)
                g = np.concatenate((sol[:1], sol[1::2])).reshape(f.coefficients.shape)
                assert np.array_equal(f.coefficients, g)
                assert np.array_equal(f.second_derivs[1:-1],
                                      sol[2:-1:2].reshape(f.second_derivs[1:-1].shape))

    def test_solution_returned_in_a_new_array_is_copied_back(self, rng, monkeypatch):
        # dgbsv hands back b itself when it solves in place; were it a new
        # array, smooth copies it into its right-hand side
        original = spline.dgbsv

        def copying(kl, ku, ab, b, **kwargs):
            lu, piv, sol, info = original(kl, ku, ab, b.copy(), **kwargs)
            return lu, piv, sol.copy(), info

        t = np.sort(rng.uniform(-1, 1, 20))
        y = rng.normal(size=(20, 2))
        want = fit(t, y, 1e-3)
        monkeypatch.setattr(spline, "dgbsv", copying)
        got = fit(t, y, 1e-3)
        assert np.array_equal(got.coefficients, want.coefficients)
        assert np.array_equal(got.second_derivs, want.second_derivs)

    @pytest.mark.parametrize("info", [3, -4])
    def test_lapack_failure_raises(self, info, monkeypatch):
        monkeypatch.setattr(spline, "dgbsv",
                            lambda kl, ku, ab, b, **kw: (ab, None, b, info))
        with pytest.raises(NumericalFitError, match="dgbsv"):
            fit([-1.0, 0.0, 0.5, 1.0], [0.0, 1.0, 0.0, 1.0], 1e-3)


class TestStackedEvaluation:
    def test_stack_matches_each_spline_alone(self, rng):
        knots = np.sort(rng.uniform(-1, 1, 9))
        x = np.concatenate((rng.uniform(-1.5, 1.5, 30), knots[[0, 4, 8]]))
        weights = evaluation_weights(knots, x)
        values = rng.normal(size=(5, 9, 2))
        second = rng.normal(size=(5, 9, 2))
        stacked = weights.apply(values, second)
        assert stacked.shape == (5, x.size, 2)
        for v, s2, out in zip(values, second, stacked):
            assert np.array_equal(out, weights.apply(v, s2))
