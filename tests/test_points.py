import numpy as np
import pytest
from hypothesis import given, strategies as st

from letcc.points import (
    InterpolationGrid,
    chebyshev_first,
    chebyshev_grid,
    chebyshev_second,
    mesh_stats,
)


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
