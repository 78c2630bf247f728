import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from letcc import spline
from letcc.baselines import BerrutInterpolant, LagrangePolynomial
from letcc.kernel import kernel_fit
from letcc.points import chebyshev_second, mesh_stats
from letcc.spline import (
    NumericalFitError,
    SplineFit,
    evaluation_weights,
    fit,
)

from conftest import basis_matrix, ols_affine, penalty_matrix, quadrature_roughness


class TestBasis:
    def test_three_knots_dimension(self):
        assert basis_matrix([-1.0, 0.0, 1.0], [-0.5, 0.5]).shape == (2, 3)

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            basis_matrix([0.0, 0.0, 1.0], [0.5])

    def test_knot_evaluation_matrix_invertible(self):
        knots = chebyshev_second(8)
        mat = basis_matrix(knots, knots)
        # cardinal basis: the matrix is the identity, trivially invertible
        assert np.allclose(mat, np.eye(8), atol=1e-12)
        np.linalg.inv(mat)

    def test_affine_functions_in_span(self):
        knots = chebyshev_second(8)
        coef = 3.0 * knots - 0.5  # cardinal coefficients = knot values
        query = np.linspace(-1, 1, 57)
        values = basis_matrix(knots, query) @ coef
        assert values == pytest.approx(3.0 * query - 0.5, abs=1e-12)


class TestPenaltyMatrix:
    def test_constant_in_null_space(self):
        phi = penalty_matrix(chebyshev_second(8))
        assert np.abs(phi @ np.ones(8)).max() < 1e-10

    def test_linear_in_null_space(self):
        knots = chebyshev_second(8)
        assert np.abs(penalty_matrix(knots) @ knots).max() < 1e-10

    def test_symmetric_positive_semidefinite(self):
        phi = penalty_matrix(chebyshev_second(12))
        assert np.array_equal(phi, phi.T)
        assert np.linalg.eigvalsh(phi).min() > -1e-9

    def test_quadratic_form_matches_quadrature(self):
        knots = chebyshev_second(8)
        coef = knots**2
        quad_form = float(coef @ penalty_matrix(knots) @ coef)
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

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    @pytest.mark.parametrize("m", [1, 3])
    def test_knot_data_is_c_ordered(self, rng, n, m, lam):
        # one form for every fit, so no product or sum over its knot data
        # rounds by the path that built it (an (n, 1) block is C-ordered in
        # either layout)
        f = fit(np.linspace(-1, 1, n), rng.normal(size=(n, m)), lam)
        assert f.knot_data.shape == (2, n, m) and f.knot_data.flags.c_contiguous

    def test_roughness_zero_for_affine(self):
        t = chebyshev_second(8)
        assert fit(t, 3 * t - 1, 1e-2).roughness() < 1e-12

    @pytest.mark.parametrize("knots, y", [
        (chebyshev_second(16), chebyshev_second(16) ** 2),
        # the fewest knots a fit bends on: roughness 48, not a degenerate 0.0
        (np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0])),
    ], ids=["chebyshev", "three knots"])
    def test_roughness_matches_quadrature(self, knots, y):
        f = fit(knots, y, 0.0)
        oracle = quadrature_roughness(f.evaluate, knots)
        assert not f.degenerate
        assert f.roughness() == pytest.approx(oracle, rel=1e-6)

    def test_mean_squared_error_lambda_convention(self, rng):
        # the data term is a mean, so the normal equations carry n*lam:
        # (N^T N + n*lam*Phi) xi = N^T y with the cardinal design N = I
        t = chebyshev_second(9)
        y = rng.normal(size=9)
        lam = 1e-3
        direct = np.linalg.solve(np.eye(9) + 9 * lam * penalty_matrix(t), y)
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
        a = np.eye(n) + n * lam * penalty_matrix(t)
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
        # a fit builds the lam-free entries of its (2n-2) x 8 band once and
        # solves its one weight in place in them, with no second band
        n = 32768
        t = chebyshev_second(n)
        tracemalloc.start()
        try:
            fit(t, np.sin(3.0 * t), 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (2 * n - 2) * 8 * 8


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

    @pytest.mark.parametrize("gap, y", [
        (1e-300, [1.0, -1.0, 0.5, 0.25]), (1e-160, [1.0, -1.0, 0.5, 0.25]),
        # Q^T y overflows too: scipy's finiteness check refused it with its message
        (1e-300, [1e10, -1e10, 1.0, 1.0])])
    def test_fit_it_cannot_represent_refused(self, gap, y):
        # its second derivatives overflow: it was returned with inf knot
        # data, and evaluated to inf at 0.5
        with np.errstate(over="ignore"), pytest.raises(
                NumericalFitError, match="^fit not representable: non-finite "):
            fit(np.array([0.0, gap, 2 * gap, 1.0]), np.array(y), 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1e-6])
    def test_denormal_gaps_refused_as_points(self, lam):
        # 1/h overflowed with two RuntimeWarnings, then scipy refused infs at
        # lam = 0 and the overflow check blamed lam at 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^t has a gap of at most 1.11e-308, "):
                fit(np.array([0.0, 5e-324, 1e-323, 1.0]), np.array([1.0, -1.0, 0.5, 0.25]), lam)

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

    def test_y_of_zero_columns_rejected(self):
        t = np.linspace(-1, 1, 5)
        with pytest.raises(ValueError, match=r"^y must have at least one column"):
            fit(t, np.zeros((5, 0)), 0.1)

    @pytest.mark.parametrize("knots, knot_data, message", [
        ([0.0, 1.0, 0.5], None, "^knots must be strictly increasing$"),
        ([[0.0, 0.5, 1.0]], None, "^knots must be one-dimensional$"),
        ([], np.zeros((2, 0, 1)), "^knots needs at least 1 points, got 0$"),
        ([0.0, np.nan, 1.0], None, "^knots contains non-finite values$"),
        ([0.0, 0.5, 1.0], np.zeros((2, 4, 1)), r"^knot_data must be \(2, 3, m\) with m >= 1, "
                                               r"got shape \(2, 4, 1\)$"),
        ([0.0, 0.5, 1.0], np.zeros((2, 3)), r"got shape \(2, 3\)$"),
        ([0.0, 0.5, 1.0], np.zeros((2, 3, 0)), r"got shape \(2, 3, 0\)$"),
        ([0.0, 0.5, 1.0], [[0.0, 1.0, 0.0]], r"got shape \(1, 3\)$"),
    ], ids=["unsorted", "2d_knots", "no_knots", "nan_knot", "rows", "2d_data", "no_columns",
            "list_data"])
    def test_spline_fit_refuses_knots_or_knot_data_it_cannot_evaluate(self, knots, knot_data,
                                                                      message):
        # unsorted knots once evaluated 1.75 at 0.75 (true 0.6875) and gave
        # roughness 24 (true 48), and list knots a raw AttributeError
        f = fit([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], 0.0)
        if knot_data is None:
            knot_data = f.knot_data
        with pytest.raises(ValueError, match=message):
            SplineFit(knots, knot_data, 0.0)
        listed = SplineFit([0, 0.5, 1], f.knot_data.tolist(), 0.0)
        assert listed.knots.dtype == listed.knot_data.dtype == float
        assert listed.evaluate(0.75).tobytes() == f.evaluate(0.75).tobytes()
        assert listed.roughness() == f.roughness() == pytest.approx(48.0)
        assert SplineFit(f.knots, f.knot_data, 0.0).knot_data is f.knot_data

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("end", [0, -1])
    def test_spline_fit_refuses_second_derivatives_at_the_end_knots(self, n, end):
        # knot data bent at an end knot is no natural spline: with
        # knot_data[1, 0, 0] = 7 on four knots, roughness() once read 158.34
        # where quadrature of the fit's own evaluate gives 148.11
        knots = np.array([-1.0, -0.2, 0.5, 1.0][:n])
        f = fit(knots, np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 2.0], [0.5, 1.0]][:n]), 0.0)
        data = f.knot_data.copy()
        data[1, end, 1] = 7.0
        with pytest.raises(ValueError, match="^knot_data must have zero second derivatives "
                                             "at the end knots, as a natural spline has$"):
            SplineFit(knots, data, 0.0)
        data[1, end, 1] = np.nan
        with pytest.raises(ValueError, match="^knot_data must have zero second derivatives"):
            SplineFit(knots, data, 0.0)
        data[1, end, 1] = -0.0
        assert SplineFit(knots, data, 0.0).roughness() == f.roughness()

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


_INTERPOLANTS = {
    "spline": lambda t: fit(t, np.sin(t), 0.1),
    "vector_spline": lambda t: fit(t, np.stack((np.sin(t), t), axis=1), 0.1),
    "berrut": lambda t: BerrutInterpolant(t, np.sin(t)),
    "lagrange": lambda t: LagrangePolynomial(t, np.sin(t)),
    "kernel": lambda t: kernel_fit(t, np.sin(t), 0.1),
}


@pytest.mark.parametrize("name", sorted(_INTERPOLANTS))
def test_every_evaluate_takes_a_scalar_or_a_1d_query_only(name):
    # a 2-D query once gave a spline the values at its first column only,
    # and the others numpy's broadcast error
    interp = _INTERPOLANTS[name](np.linspace(-1, 1, 7))
    with pytest.raises(ValueError, match=r"^query must be a scalar or a 1-D array, "
                                         r"got shape \(2, 2\)$"):
        interp.evaluate([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError, match="^query contains non-finite values$"):
        interp.evaluate([0.1, np.nan])
    row = interp.evaluate([0.1, 0.3])
    assert np.array_equal(interp.evaluate(0.3), row[1:])


class TestSmoothWeights:
    @pytest.mark.parametrize("lams, message", [
        ([-0.5], r"^smoothing weight n\*lam must be finite and > 0, got -6\.0$"),
        ([0.5, -0.5], r"^smoothing weight n\*lam must be finite and > 0, got -6\.0$"),
        ([np.nan], r"^lam = nan overflows"),
        ([np.inf], r"^lam = inf overflows"),
    ], ids=["negative", "second_negative", "nan", "inf"])
    def test_weight_not_finite_and_positive_rejected(self, rng, lams, message):
        # a negative weight solved as given would fit no smoothing spline,
        # and a NaN one is no size at all; the fit body refuses both, also
        # from a caller that skipped the rule of letcc.points._real
        t = np.sort(rng.uniform(-1, 1, 12))
        with pytest.raises(ValueError, match=message):
            spline._fit_stack(t[None], rng.normal(size=(1, 12, 1)), lams)


class TestStackedBasis:
    @pytest.mark.parametrize("kind", ["uniform", "chebyshev", "alternating", "log_uniform",
                                      "equal"])
    def test_each_set_equals_a_basis_on_it_alone(self, kind, monkeypatch):
        # one dgbsv call per weight, and one solveh_banded call for every
        # lam = 0, solve all sets of a stack as one block-diagonal band; each
        # set at each weight keeps the bits of its fit alone, also where
        # pivots tie (equal gaps) and at extreme mesh ratios and weights
        calls = {"dgbsv": 0, "solveh_banded": 0}
        for name in calls:
            def spy(*args, name=name, original=getattr(spline, name), **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(spline, name, spy)

        rng = np.random.default_rng(["alternating", "chebyshev", "equal", "log_uniform",
                                     "uniform"].index(kind))
        for _ in range(40):
            n, count = int(rng.integers(3, 41)), int(rng.integers(1, 7))
            m = int(rng.choice([1, 3, 10]))
            knots = np.stack([TestDirectLapackSolve._mesh(kind, n, rng) for _ in range(count)])
            y = rng.normal(size=(count, n, m))
            lams = list(10.0 ** rng.uniform(-16, 16, int(rng.integers(1, 4))))
            zeros = int(rng.integers(0, 3))  # interpolation at none, one or two weights
            for _ in range(zeros):
                lams.insert(int(rng.integers(0, len(lams) + 1)), 0.0)
            calls.update(dgbsv=0, solveh_banded=0)
            fits = spline._fit_stack(knots, y, lams)
            assert calls == {"dgbsv": len(lams) - zeros, "solveh_banded": int(zeros > 0)}
            assert fits.shape == (len(lams), count, 2, n, m)
            assert fits.flags.c_contiguous  # the one form of every fit
            assert not fits[:, :, 1, [0, -1]].any()
            for i in range(count):
                for w, lam in enumerate(lams):  # each set at each weight as on its own
                    alone = spline._fit_stack(knots[i:i + 1], y[i:i + 1], [lam])
                    assert fits[w:w + 1, i:i + 1].tobytes() == alone.tobytes()


class TestDirectLapackSolve:
    def test_same_bytes_as_solve_banded(self, rng, monkeypatch):
        # the fit body hands dgbsv the six band rows of the system, two
        # below the diagonal and three above, plus two fill-in rows: exactly
        # what scipy's solve_banded builds for it
        seen = []
        original = spline.dgbsv

        def capture(kl, ku, ab, b, **kwargs):
            seen.append(((kl, ku), ab.copy(), b.copy()))
            assert not ab[:2].any()  # the fill-in rows start empty
            return original(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(spline, "dgbsv", capture)
        t = np.sort(rng.uniform(-1, 1, 40))
        for y in (rng.normal(size=40), rng.normal(size=(40, 3))):
            for lam in (1e-8, 1e-2, 1e4):
                f = fit(t, y, lam)
                (kl_ku, ab, rhs), = seen
                seen.clear()
                assert kl_ku == (2, 3) and ab.shape == (8, 78)
                sol = solve_banded((2, 3), ab[2:], rhs)
                g = np.concatenate((sol[:1], sol[1::2])).reshape(f.coefficients.shape)
                gam = sol[2:-1:2].reshape(f.second_derivs[1:-1].shape)
                assert f.coefficients.tobytes() == g.tobytes()
                assert f.second_derivs[1:-1].tobytes() == gam.tobytes()

    @staticmethod
    def _mesh(kind, n, rng):
        if kind == "uniform":
            return np.sort(rng.uniform(-1, 1, n))
        if kind == "chebyshev":
            return np.sort(rng.choice(chebyshev_second(3 * n), n, replace=False))
        if kind == "alternating":  # gaps 1, 1e-4, 1, ... or 1e-4, 1, 1e-4, ...
            gaps = np.resize([1.0, 1e-4][::rng.choice([1, -1])], n - 1)
        elif kind == "equal":  # gaps of 2, where pivots tie
            gaps = np.full(n - 1, 2.0)
        else:  # log-uniform gaps from 1e-8 to 1
            gaps = 10.0 ** rng.uniform(-8, 0, n - 1)
        return rng.uniform(-1, 1) + np.concatenate(([0.0], np.cumsum(gaps)))

    @pytest.mark.parametrize("kind", ["uniform", "chebyshev", "alternating", "log_uniform"])
    def test_same_bits_as_the_unknowns_row_order(self, kind, monkeypatch):
        # with each equation in the row of its namesake unknown the band has
        # three diagonals below the main one; solve_banded((3, 3)) of that
        # order, rebuilt here from each set's block of the band and
        # right-hand side the fit body hands dgbsv, one call per weight,
        # gives every bit of its knot values and second derivatives
        seen = []
        original = spline.dgbsv

        def capture(kl, ku, ab, b, **kwargs):
            seen.append((ab.copy(), b.copy()))
            return original(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(spline, "dgbsv", capture)
        rng = np.random.default_rng(["alternating", "chebyshev", "log_uniform",
                                     "uniform"].index(kind))
        for _ in range(100):
            n, count, lams = int(rng.integers(3, 41)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
            m = int(rng.choice([1, 3, 10]))
            t = np.stack([self._mesh(kind, n, rng) for _ in range(count)])
            y = rng.normal(size=(count, n, m))
            lam = list(10.0 ** rng.uniform(-16, 16, lams))
            fits = spline._fit_stack(t, y, lam)
            assert len(seen) == len(lam)
            size = 2 * n - 2
            # new row r holds the equation of old row swap[r]: the g_i and
            # gam_{i-1} equations trade rows 2i - 1 and 2i, for 0 < i < n - 1
            swap = np.arange(size)
            swap[1:-1] = swap[1:-1] + np.resize([1, -1], size - 2)
            # band slot [k, c] of a set's block holds its row c + k - 5: those
            # outside the block's own rows are zero
            slot_rows = np.arange(8)[:, None] + np.arange(size) - 5
            outside = (slot_rows < 0) | (slot_rows >= size)
            blocks = [(ab[:, s * size:(s + 1) * size], rhs[s * size:(s + 1) * size])
                      for ab, rhs in seen for s in range(count)]
            for i, (ab, rhs) in enumerate(blocks):
                assert not ab[outside].any()
                dense = np.zeros((size, size))
                for d in range(-2, 4):  # entry (r, r + d) at ab[5 - d, r + d]
                    r = np.arange(max(0, -d), min(size, size - d))
                    dense[r, r + d] = ab[5 - d, r + d]
                old = np.zeros((size, size))
                old[swap] = dense
                old_band = np.zeros((7, size))
                for d in range(-3, 4):  # solve_banded's (3, 3) layout
                    r = np.arange(max(0, -d), min(size, size - d))
                    old_band[3 - d, r + d] = old[r, r + d]
                old_rhs = np.empty_like(rhs)
                old_rhs[swap] = rhs
                sol = solve_banded((3, 3), old_band, old_rhs)
                w, s = divmod(i, count)
                assert fits[w, s, 0].tobytes() == np.concatenate((sol[:1], sol[1::2])).tobytes()
                assert fits[w, s, 1, 1:-1].tobytes() == sol[2:-1:2].tobytes()
            seen.clear()

    def test_solution_returned_in_a_new_array_is_used(self, rng, monkeypatch):
        # dgbsv hands back b itself when it solves in place; the body reads
        # what it hands back, so a new array gives the same fits
        original = spline.dgbsv

        def copying(kl, ku, ab, b, **kwargs):
            lu, piv, sol, info = original(kl, ku, ab, b.copy(), **kwargs)
            return lu, piv, sol.copy(), info

        t = np.sort(rng.uniform(-1, 1, (3, 20)), axis=1)
        y = rng.normal(size=(3, 20, 2))
        want = spline._fit_stack(t, y, [1e-3, 0.5])
        monkeypatch.setattr(spline, "dgbsv", copying)
        got = spline._fit_stack(t, y, [1e-3, 0.5])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("info", [3, -4])
    def test_lapack_failure_raises(self, info, monkeypatch):
        monkeypatch.setattr(spline, "dgbsv",
                            lambda kl, ku, ab, b, **kw: (ab, None, b, info))
        with pytest.raises(NumericalFitError, match="dgbsv"):
            fit([-1.0, 0.0, 0.5, 1.0], [0.0, 1.0, 0.0, 1.0], 1e-3)


class TestStackedEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), weights=st.integers(1, 3), count=st.integers(1, 5),
           n=st.integers(1, 12), m=st.sampled_from([1, 3, 10]))
    def test_one_gather_equals_each_spline_alone_and_the_four_terms(self, seed, weights,
                                                                    count, n, m):
        # L weights x T knot sets of differing ranges: the queries lie
        # inside, on the knots of each set, and beyond both ends of some
        # sets only
        rng = np.random.default_rng(seed)
        ends = np.stack((rng.uniform(-1.0, -0.2, count), rng.uniform(0.2, 1.0, count)), axis=1)
        knots = np.stack([np.linspace(a, b, n) if n > 1 else np.array([a]) for a, b in ends])
        x = np.concatenate((rng.uniform(-1.2, 1.2, 16), knots.ravel(), [-1.2, 1.2]))
        data = rng.normal(size=(weights, count, 2, n, m))
        stacked = evaluation_weights(knots, x)
        got = stacked.apply(data)
        assert got.shape == (weights, count, x.size, m) and got.flags.c_contiguous
        for t in range(count):
            alone = evaluation_weights(knots[t], x)
            assert stacked.weights[:, t].tobytes() == alone.weights.tobytes()
            w = alone.weights[..., None]
            lo, hi = np.broadcast_to(alone.index[-1], (4, x.size))[:2]
            assert alone.apply(data[:, t]).tobytes() == got[:, t].tobytes()
            for j in range(weights):
                v, s = data[j, t]
                four = ((w[0] * v[lo] + w[1] * v[hi]) + w[2] * s[lo]) + w[3] * s[hi]
                assert got[j, t].tobytes() == four.tobytes()
                assert alone.apply(data[j, t]).tobytes() == four.tobytes()

    def test_stack_matches_each_spline_alone(self, rng):
        knots = np.sort(rng.uniform(-1, 1, 9))
        x = np.concatenate((rng.uniform(-1.5, 1.5, 30), knots[[0, 4, 8]]))
        weights = evaluation_weights(knots, x)
        knot_data = rng.normal(size=(5, 2, 9, 2))
        stacked = weights.apply(knot_data)
        assert stacked.shape == (5, x.size, 2)
        for one, out in zip(knot_data, stacked):
            assert np.array_equal(out, weights.apply(one))
