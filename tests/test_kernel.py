import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from letcc import kernel
from letcc.kernel import kernel_fit, sobolev_kernel
from letcc.points import chebyshev_second
from letcc.spline import fit

from conftest import ols_affine


class TestSobolevKernel:
    def test_vanishes_at_left_endpoint(self):
        s = np.linspace(-1, 1, 21)
        assert np.abs(sobolev_kernel(-1.0, s)).max() == 0.0
        assert np.abs(sobolev_kernel(s, -1.0)).max() == 0.0

    def test_symmetric(self, rng):
        t = rng.uniform(-1, 1, 30)
        s = rng.uniform(-1, 1, 30)
        assert sobolev_kernel(t, s) == pytest.approx(sobolev_kernel(s, t))

    def test_matches_direct_quadrature(self):
        # r0(t, s) = int_{-1}^{min(t,s)} (t-x)(s-x) dx
        from scipy.integrate import quad
        for t, s in [(0.3, 0.7), (-0.2, 0.9), (0.5, -0.5), (1.0, 1.0)]:
            direct, _ = quad(lambda x: (t - x) * (s - x), -1.0, min(t, s))
            assert sobolev_kernel(t, s) == pytest.approx(direct, abs=1e-12)

    def test_gram_matrix_positive_semidefinite(self):
        t = chebyshev_second(12)
        gram = sobolev_kernel(t[:, None], t[None, :])
        assert np.linalg.eigvalsh(gram).min() > -1e-10


class TestKernelFit:
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 1e3])
    def test_affine_reproduction(self, lam):
        t = np.array([-1.0, 0.0, 1.0])
        y = 2.0 * t + 1.0
        f = kernel_fit(t, y, lam)
        assert np.abs(f.evaluate(t) - y).max() < 1e-8

    def test_interpolation_at_zero_lambda(self, rng):
        t = chebyshev_second(12)
        y = rng.normal(size=(12, 2))
        f = kernel_fit(t, y, 0.0)
        assert np.abs(f.evaluate(t) - y).max() < 1e-8

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_huge_lambda_approaches_affine_least_squares(self, rng):
        # the saddle-point system is deliberately pushed into its
        # ill-conditioned extreme here; accuracy still suffices
        t = chebyshev_second(8)
        y = rng.normal(size=8)
        f = kernel_fit(t, y, 1e9)
        assert np.abs(f.evaluate(t) - ols_affine(t, y)).max() < 1e-6

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("lam", [0.0, 1e-6, 1e-3, 1e-1])
    def test_agrees_with_cardinal_basis_route(self, n, lam, rng):
        # knots include -1, where the kernel section degenerates to zero;
        # the saddle-point system still pins the same unique spline
        t = chebyshev_second(n)
        y = rng.normal(size=(n, 2))
        query = np.linspace(-1, 1, 401)
        a = fit(t, y, lam).evaluate(query)
        b = kernel_fit(t, y, lam).evaluate(query)
        assert np.abs(a - b).max() < 1e-6

    def test_agreement_on_random_queries(self, rng):
        t = chebyshev_second(16)
        y = rng.normal(size=16)
        q = rng.uniform(-1, 1, 100)
        a = fit(t, y, 1e-4).evaluate(q)
        b = kernel_fit(t, y, 1e-4).evaluate(q)
        assert np.abs(a - b).max() < 1e-6

    def test_single_point_constant(self):
        f = kernel_fit([0.2], [5.0], 0.3)
        assert f.evaluate([-0.9, 0.0, 0.9]) == pytest.approx([5.0, 5.0, 5.0])

    def test_two_points_affine(self):
        f = kernel_fit([-0.5, 0.5], [1.0, 3.0], 0.7)
        assert f.evaluate([0.0]) == pytest.approx([2.0], abs=1e-10)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            kernel_fit([-1, 0, 1], [0.0, 1.0, 2.0], -1.0)

    def test_fit_holds_one_dense_copy(self):
        # the Fortran-ordered saddle-point matrix is LU-factored in place; a
        # C-ordered one would be copied, peaking at two dense copies
        n = 896
        t = chebyshev_second(n)
        tracemalloc.start()
        try:
            kernel_fit(t, np.sin(3.0 * t)[:, None].repeat(3, axis=1), 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (n + 2) ** 2 * 8


def _exact_kernel(t, s) -> Fraction:
    u = min(t, s) + 1
    return u * u * (abs(t - s) / 2 + u / 3)


class TestRefinementResidual:
    @pytest.mark.parametrize("gaps", [[1.0] * 6, [1165.0, 1.0, 1.0], [1.0, 1e4, 1.0, 1e4, 1.0]])
    def test_equals_the_exact_residual_rounded(self, gaps, rng):
        # double-double arithmetic, whatever the platform's longdouble: the
        # residual of the exact system (Sigma never rounded) within one
        # rounding of it plus 1e-28 of the terms' scale, against rational
        # arithmetic; a float64 residual errs by ~1e-16 of that scale
        t = np.concatenate(([0.0], np.cumsum(gaps)))
        t = 2.0 * t / t[-1] - 1.0
        n, m, lamn = t.size, 2, t.size * 1e-8
        rhs = np.zeros((n + 2, m))
        rhs[:n] = rng.normal(size=(n, m))
        # near a solution, as in refinement, and far from one
        system = kernel._system(t, lamn)
        near = np.linalg.solve(system, rhs)
        for sol in (near, rng.normal(size=(n + 2, m))):
            got = kernel._residual(t, lamn, rhs, sol)
            q = [Fraction(x) for x in t]
            for k in range(m):
                c = [Fraction(x) for x in sol[:, k]]
                rows = [sum(_exact_kernel(q[i], q[j]) * c[j] for j in range(n))
                        + Fraction(lamn) * c[i] + c[n] + q[i] * c[n + 1] for i in range(n)]
                rows += [sum(c[:n]), sum(qj * cj for qj, cj in zip(q, c))]
                want = np.array([float(Fraction(r) - p) for r, p in zip(rhs[:, k], rows)])
                scale = np.abs(system) @ np.abs(sol[:, k]) + np.abs(rhs[:, k])
                assert (np.abs(got[:, k] - want) <= 4.5e-16 * np.abs(want) + 1e-28 * scale).all()
