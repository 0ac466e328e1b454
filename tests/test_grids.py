import math
import time

import numpy as np
import pytest

from coneradon import grids
from coneradon.grids import (
    AxisSpec,
    ConeGeometry,
    NonFiniteGridError,
    RealGrid2D,
    RealGrid3D,
    cumint_from_top,
    _blocks,
    _derivative,
    _fd_weights,
    _padded_sizes,
    _smooth_size,
)

import oracles


def unit_axis(n, lo=-1.0, hi=1.0):
    return AxisSpec(n, lo, hi)


# The two stencils vline_invert differences with.
def d_dy(grid):
    return _derivative(grid.values, grid.y_axis.spacing, 1, (0, 1), 2, axis=1)


def d2_dx2(grid):
    return _derivative(grid.values, grid.x_axis.spacing, 2, (-1, 0, 1), 3, axis=0)


class TestAxisSpec:
    def test_spacing_and_coordinates(self):
        ax = AxisSpec(11, 0.0, 1.0)
        assert ax.spacing == pytest.approx(0.1)
        coords = ax.coordinates()
        assert coords[0] == 0.0
        assert coords[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(np.diff(coords), ax.spacing)

    @pytest.mark.parametrize(
        "n,lo,hi",
        [(1, 0, 1), (0, 0, 1), (5, 1.0, 1.0), (5, 2.0, 1.0), (8, -1e308, 1e308)],
    )
    def test_invalid(self, n, lo, hi):
        with pytest.raises(ValueError):
            AxisSpec(n, lo, hi)


class TestConeGeometry:
    def test_cached_values(self):
        geom = ConeGeometry(np.pi / 8)
        assert geom.tan_beta == pytest.approx(np.tan(np.pi / 8), rel=1e-15)
        assert geom.cos_beta == pytest.approx(np.cos(np.pi / 8), rel=1e-15)

    @pytest.mark.parametrize("beta", [0.0, -0.1, np.pi / 2, 2.0])
    def test_invalid_angle(self, beta):
        with pytest.raises(ValueError):
            ConeGeometry(beta)


class TestGridContainers:
    @pytest.mark.parametrize("grid_type, sizes", [(RealGrid2D, (4, 5)), (RealGrid3D, (4, 5, 6))])
    def test_shape_mismatch(self, grid_type, sizes):
        axes = [unit_axis(n) for n in sizes]
        with pytest.raises(ValueError, match="does not match axes"):
            grid_type(*axes, np.zeros(sizes[::-1]))

    def test_non_finite_rejected(self):
        values = np.zeros((4, 4))
        values[1, 2] = np.nan
        with pytest.raises(NonFiniteGridError):
            RealGrid2D(unit_axis(4), unit_axis(4), values)
        values3 = np.zeros((4, 4, 4))
        values3[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteGridError):
            RealGrid3D(unit_axis(4), unit_axis(4), unit_axis(4), values3)


class TestDiffYForward:
    def test_constant_grid(self):
        grid = RealGrid2D(unit_axis(6), unit_axis(6), np.full((6, 6), 3.7))
        np.testing.assert_allclose(d_dy(grid), 0.0, atol=1e-13)

    def test_exact_on_affine(self):
        ax = unit_axis(8)
        _, gy = np.meshgrid(ax.coordinates(), ax.coordinates(), indexing="ij")
        out = d_dy(RealGrid2D(ax, ax, gy))
        np.testing.assert_allclose(out, 1.0, rtol=1e-12)

    def test_quadratic_forward_bias(self):
        # Closed form: ((y+dy)^2 - y^2)/dy = 2y + dy, so 1.01 at y = 0.5, N = 101.
        ax = AxisSpec(101, 0.0, 1.0)
        _, gy = np.meshgrid(ax.coordinates(), ax.coordinates(), indexing="ij")
        out = d_dy(RealGrid2D(ax, ax, gy * gy))
        j = 50
        assert ax.coordinates()[j] == pytest.approx(0.5, abs=1e-12)
        assert out[0, j] == pytest.approx(2 * 0.5 + ax.spacing, rel=1e-10)

    def test_last_row_replicates(self):
        rng = np.random.default_rng(1)
        grid = RealGrid2D(unit_axis(6), unit_axis(6), rng.normal(size=(6, 6)))
        out = d_dy(grid)
        np.testing.assert_array_equal(out[:, -1], out[:, -2])


class TestDiff2XCentral:
    def test_affine_in_x_annihilated(self):
        ax = unit_axis(9)
        gx, gy = np.meshgrid(ax.coordinates(), ax.coordinates(), indexing="ij")
        out = d2_dx2(RealGrid2D(ax, ax, 2 * gx + 0.3 * gy))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_exact_on_quadratic(self):
        ax = unit_axis(9)
        gx, _ = np.meshgrid(ax.coordinates(), ax.coordinates(), indexing="ij")
        out = d2_dx2(RealGrid2D(ax, ax, gx * gx))
        np.testing.assert_allclose(out, 2.0, rtol=1e-10)

    def test_sine_second_derivative(self):
        # Discrete oracle: central difference of sin(2 pi x) multiplies the true
        # value by (2 cos(2 pi h) - 2)/( (2 pi h)^2 ) exactly.
        ax = AxisSpec(201, 0.0, 1.0)
        gx, _ = np.meshgrid(ax.coordinates(), ax.coordinates(), indexing="ij")
        out = d2_dx2(RealGrid2D(ax, ax, np.sin(2 * np.pi * gx)))
        h = ax.spacing
        i = 50
        assert ax.coordinates()[i] == pytest.approx(0.25, abs=1e-12)
        expected = (2 * np.cos(2 * np.pi * h) - 2.0) / (h * h)  # acts on sin = 1 at x=0.25
        assert out[i, 3] == pytest.approx(expected, rel=1e-9)
        assert out[i, 3] == pytest.approx(-4 * np.pi**2, rel=2e-3)

    def test_too_few_samples(self):
        grid = RealGrid2D(AxisSpec(2, 0, 1), unit_axis(5), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            d2_dx2(grid)

    def test_boundary_replication(self):
        rng = np.random.default_rng(2)
        grid = RealGrid2D(unit_axis(7), unit_axis(4), rng.normal(size=(7, 4)))
        out = d2_dx2(grid)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[-1], out[-2])


class TestCumintFromTop:
    def test_zero_profile(self):
        np.testing.assert_array_equal(cumint_from_top(np.zeros(8), 0.25), np.zeros(8))

    def test_constant_exact(self):
        out = cumint_from_top(np.ones(11), 0.1)
        assert out[0] == pytest.approx(1.0, rel=1e-14)
        assert out[-1] == 0.0

    def test_affine_exact(self):
        ax = AxisSpec(101, 0.0, 1.0)
        out = cumint_from_top(ax.coordinates(), ax.spacing)
        assert out[0] == pytest.approx(0.5, rel=1e-13)

    def test_nonnegative_profile_monotone(self):
        rng = np.random.default_rng(3)
        profile = rng.uniform(0, 1, size=50)
        out = cumint_from_top(profile, 0.02)
        assert np.all(np.diff(out) <= 1e-15)
        assert out[-1] == 0.0

    def test_multidimensional_axis(self):
        rng = np.random.default_rng(4)
        arr = rng.normal(size=(3, 20))
        rows = np.stack([cumint_from_top(arr[i], 0.1) for i in range(3)])
        np.testing.assert_allclose(cumint_from_top(arr, 0.1, axis=-1), rows, rtol=1e-14)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_the_two_pass_formula_bit_for_bit(self, dtype, axis):
        # The in-place sums against segments summed from the top by a
        # separate cumsum, reversed back and copied into a zeroed output.
        rng = np.random.default_rng(5)
        arr = rng.normal(size=(13, 17)).astype(dtype)
        if dtype is complex:
            arr += 1j * rng.normal(size=(13, 17))
        p = np.moveaxis(arr, axis, -1)
        seg = 0.5 * 0.07 * (p[..., :-1] + p[..., 1:])
        expected = np.zeros(p.shape, dtype=dtype)
        expected[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
        out = cumint_from_top(arr, 0.07, axis=axis)
        assert np.moveaxis(out, axis, -1).tobytes() == expected.tobytes()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cumint_from_top(np.ones(1), 0.1)
        with pytest.raises(ValueError):
            cumint_from_top(np.ones(5), 0.0)


class TestRingQuadrature:
    def test_point_ring_is_cumulative_trapezoid(self):
        # A one-point ring at zero offset samples vol itself, so weight h per lag
        # reproduces the trapezoidal integral from each level to the top.
        rng = np.random.default_rng(5)
        vol = rng.normal(size=(4, 3, 11))
        out = oracles.ring_quadrature(vol, lambda lag: (0.1, np.zeros(1), np.zeros(1)))
        np.testing.assert_allclose(out, cumint_from_top(vol, 0.1), rtol=1e-13, atol=1e-15)


class TestLinearity:
    """All grid calculus primitives are linear to machine precision."""

    @pytest.mark.parametrize("seed", range(5))
    def test_ops_linear(self, seed):
        rng = np.random.default_rng(seed)
        ax = unit_axis(12)
        v1 = rng.normal(size=(12, 12))
        v2 = rng.normal(size=(12, 12))
        a, b = rng.normal(size=2)
        for op in (d_dy, d2_dx2):
            combined = op(RealGrid2D(ax, ax, a * v1 + b * v2))
            split = a * op(RealGrid2D(ax, ax, v1)) + b * op(RealGrid2D(ax, ax, v2))
            np.testing.assert_allclose(combined, split, rtol=1e-12, atol=1e-12)
        combined = cumint_from_top(a * v1 + b * v2, 0.17)
        split = a * cumint_from_top(v1, 0.17) + b * cumint_from_top(v2, 0.17)
        np.testing.assert_allclose(combined, split, rtol=1e-12, atol=1e-12)


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestSmoothSize:
    @pytest.mark.parametrize("n, expected", [(1, 1), (7, 8), (81, 81), (95, 96), (97, 100)])
    def test_smallest_5_smooth_at_least_n(self, n, expected):
        assert _smooth_size(n) == expected

    def test_matches_a_linear_search(self):
        expected, m = [], 1
        for n in range(1, 5001):
            while not is_5_smooth(m) or m < n:
                m += 1
            expected.append(m)
        assert [_smooth_size(n) for n in range(1, 5001)] == expected

    @pytest.mark.parametrize("n", [10**18, 10**18 + 1, 30**64 + 1])
    def test_huge_n_returns_at_once(self, n):
        # Padded sizes reach such n as beta nears pi/2.
        start = time.perf_counter()
        size = _smooth_size(n)
        assert time.perf_counter() - start < 1.0
        assert size >= n and is_5_smooth(size)
        assert size <= 1 << (n - 1).bit_length()
        if is_5_smooth(n):
            assert size == n

    def test_numpy_integer(self):
        # A numpy integer is taken as a Python one, so no product overflows.
        size = _smooth_size(np.int64(95))
        assert size == 96 and type(size) is int


class TestPaddedSizes:
    """``_padded_sizes`` on grids of either rank; ``test_cone3d`` holds the
    3D rule's own tests."""

    @pytest.mark.parametrize("floor", [1, 2, 3])
    @pytest.mark.parametrize("beta", [np.pi / 12, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    def test_2d_pads_its_x_axis_as_3d(self, beta, floor):
        # A 2D grid's x axis and height pad as a 3D grid's x axis does over
        # the same height.
        geometry = ConeGeometry(beta)
        x, y, height = unit_axis(37), AxisSpec(20, -0.5, 1.5), AxisSpec(29, 0.0, 0.8)
        flat = RealGrid2D(x, height, np.zeros((37, 29)))
        solid = RealGrid3D(x, y, height, np.zeros((37, 20, 29)))
        (size,) = _padded_sizes(flat, geometry, floor)
        assert (size,) == _padded_sizes(solid, geometry, floor)[:1]
        reach = geometry.tan_beta * 0.8
        assert size == _smooth_size(max(floor * 37, 38 + math.ceil(reach / x.spacing)))

    @pytest.mark.parametrize("rank", [2, 3])
    def test_memory_error_above_physical_memory(self, monkeypatch, rank):
        # One complex padded spectrum over the whole height: 16 * 36 bytes
        # per level in 2D, 16 * 36^2 in 3D at N = 24, pi/8.
        ax = unit_axis(24)
        grid = (
            RealGrid2D(ax, ax, np.zeros((24, 24)))
            if rank == 2
            else RealGrid3D(ax, ax, ax, np.zeros((24, 24, 24)))
        )
        need = 16 * 36 ** (rank - 1) * 24
        monkeypatch.setattr(grids, "_physical_memory", lambda: need)
        assert _padded_sizes(grid, ConeGeometry(np.pi / 8)) == (36,) * (rank - 1)
        monkeypatch.setattr(grids, "_physical_memory", lambda: need - 1)
        with pytest.raises(MemoryError, match="physical memory"):
            _padded_sizes(grid, ConeGeometry(np.pi / 8))

    def test_memory_error_near_a_right_angle(self):
        # At beta = 1.5707963 the reach is ~2.6e8 cells of an 8^3 grid: the
        # sizes come out by arithmetic alone, ~9e18 bytes, and are refused.
        ax = unit_axis(8)
        grid = RealGrid3D(ax, ax, ax, np.zeros((8, 8, 8)))
        with pytest.raises(MemoryError):
            _padded_sizes(grid, ConeGeometry(1.5707963))


class TestDerivativeBlocks:
    @pytest.mark.parametrize("block", [1, 40, 10**9])
    def test_blocks_of_rows_change_no_bit(self, monkeypatch, block):
        # Products taken in blocks of leading rows (one row; three rows of
        # 13; one block) give the bits of one whole-array sweep, along either
        # axis and on a single profile.
        rng = np.random.default_rng(6)
        values = rng.normal(size=(7, 13)) + 1j * rng.normal(size=(7, 13))
        values[2] = -0.0
        d3 = (3, (-2, -1, 0, 1, 2), 6)
        def sweeps():
            return [
                _derivative(values, 0.1, *d3),
                _derivative(values, 0.1, *d3, axis=0),
                _derivative(values[3], 0.1, *d3),
            ]

        expected = sweeps()
        monkeypatch.setattr(grids, "_BLOCK_ELEMENTS", block)
        for got, want in zip(sweeps(), expected):
            assert got.tobytes() == want.tobytes()


class TestBlocks:
    @pytest.mark.parametrize("n, item_elements, budget", [
        (10, 3, 7), (10, 3, 2), (9, 1, 9), (1, 5, 100), (17, 4, 16), (0, 3, 7),
    ])
    def test_runs_cover_the_range_in_order(self, n, item_elements, budget):
        runs = _blocks(n, item_elements, budget)
        assert [i for run in runs for i in range(n)[run]] == list(range(n))
        step = max(1, budget // item_elements)
        assert all(run.stop - run.start == step for run in runs[:-1])
        assert all(0 < run.stop - run.start <= step for run in runs)

    def test_budget_defaults_to_block_elements_at_call_time(self, monkeypatch):
        assert _blocks(10, 4) == [slice(0, 10)]
        monkeypatch.setattr(grids, "_BLOCK_ELEMENTS", 8)
        assert _blocks(10, 4) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8), slice(8, 10)]


class TestFdWeights:
    def test_solved_once_and_read_only(self):
        weights = _fd_weights((-1, 0, 1), 2)
        assert _fd_weights((-1, 0, 1), 2) is weights
        np.testing.assert_array_equal(weights, [1.0, -2.0, 1.0])
        with pytest.raises(ValueError):
            weights[0] = 0.0
