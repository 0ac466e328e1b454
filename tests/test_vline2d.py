import numpy as np
import pytest

from coneradon.grids import AxisSpec, ConeGeometry, RealGrid2D
from coneradon.phantoms import BumpSpec, relative_l2, render_bumps_2d
from coneradon.vline2d import (
    VLineProjection,
    fourier_relation_check,
    vline_forward,
    vline_invert,
    vline_spectral_oracle,
)

import oracles

GEOM = ConeGeometry(np.pi / 8)
BUMP = BumpSpec((0.2, 0.1), 0.25, 1.0)


def bump_grid(n, spec=BUMP):
    ax = AxisSpec(n, -1.0, 1.0)
    return render_bumps_2d([spec], ax, ax)


def nearest_node(axis, coord):
    return int(round((coord - axis.min) / axis.spacing))


class TestVlineForward:
    def test_zero_in_zero_out(self):
        ax = AxisSpec(16, -1.0, 1.0)
        f = RealGrid2D(ax, ax, np.zeros((16, 16)))
        g = vline_forward(f, GEOM)
        np.testing.assert_array_equal(g.grid.values, 0.0)

    def test_vertex_above_support(self):
        # Support of the bump ends at y = 0.35 < 0.5, so g vanishes there.
        f = bump_grid(120)
        g = vline_forward(f, GEOM).grid
        jy = nearest_node(f.y_axis, 0.5)
        assert np.all(g.values[:, jy:] == 0.0)

    def test_against_ray_marching_full_grid(self):
        f = bump_grid(120)
        g = vline_forward(f, GEOM).grid.values
        ref = oracles.vline_ray_march_grid(f, GEOM, oversample=10)
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) <= 5e-3

    def test_against_ray_marching_single_vertices(self):
        f = bump_grid(120)
        g = vline_forward(f, GEOM).grid
        # The paper-geometry vertex (0.2, -0.8) sits too low for its rays to
        # cross the bump, so both routes give zero there.
        ix, jy = nearest_node(f.x_axis, 0.2), nearest_node(f.y_axis, -0.8)
        xv, yv = f.x_coords[ix], f.y_coords[jy]
        assert abs(oracles.vline_ray_march(f, GEOM, xv, yv)) < 1e-15
        assert g.values[ix, jy] == 0.0
        for (x0, y0) in [(0.2, 0.0), (-0.1, -0.3), (0.35, -0.1)]:
            ix, jy = nearest_node(f.x_axis, x0), nearest_node(f.y_axis, y0)
            ref = oracles.vline_ray_march(f, GEOM, f.x_coords[ix], f.y_coords[jy])
            assert g.values[ix, jy] == pytest.approx(ref, rel=5e-3)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        ax = AxisSpec(24, -1.0, 1.0)
        v1, v2 = rng.normal(size=(2, 24, 24))
        a, b = 1.3, -0.7
        combined = vline_forward(RealGrid2D(ax, ax, a * v1 + b * v2), GEOM).grid.values
        split = (
            a * vline_forward(RealGrid2D(ax, ax, v1), GEOM).grid.values
            + b * vline_forward(RealGrid2D(ax, ax, v2), GEOM).grid.values
        )
        np.testing.assert_allclose(combined, split, rtol=1e-12, atol=1e-13)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        ax = AxisSpec(40, -1.0, 1.0)
        values = np.zeros((40, 40))
        values[12:20, 10:26] = rng.uniform(0, 1, size=(8, 16))
        shift = 5
        f = RealGrid2D(ax, ax, values)
        f_shifted = RealGrid2D(ax, ax, np.roll(values, shift, axis=0))
        g = vline_forward(f, GEOM).grid.values
        g_shifted = vline_forward(f_shifted, GEOM).grid.values
        # interior columns: those whose sampled rays never cross the x boundary
        np.testing.assert_allclose(
            g_shifted[shift + 16 : -16], g[16 : -16 - shift], rtol=1e-12, atol=1e-14
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        ax = AxisSpec(30, -1.0, 1.0)
        f = RealGrid2D(ax, ax, rng.uniform(0.0, 1.0, size=(30, 30)))
        assert vline_forward(f, GEOM).grid.values.min() >= 0.0

    def test_mirror_symmetry(self):
        f = bump_grid(60, BumpSpec((0.2, 0.1), 0.25, 1.0))
        f_mirror = RealGrid2D(f.x_axis, f.y_axis, f.values[::-1].copy())
        g = vline_forward(f, GEOM).grid.values
        g_mirror = vline_forward(f_mirror, GEOM).grid.values
        np.testing.assert_allclose(g_mirror, g[::-1], rtol=1e-10, atol=1e-12)

    def test_vertex_grid_must_reach_top(self):
        f = bump_grid(16)
        low_axis = AxisSpec(16, -1.0, 0.5)
        with pytest.raises(ValueError):
            vline_forward(f, GEOM, (f.x_axis, low_axis))

    @pytest.mark.parametrize(
        "vertex_x,vertex_y",
        [
            (AxisSpec(16, -2.0, 2.0), AxisSpec(16, -1.0, 1.0)),  # other x axis
            (AxisSpec(16, -1.0, 1.0), AxisSpec(20, -1.5, 1.0)),  # other y spacing
            # f's spacing, but rows offset by half a row from f's
            (AxisSpec(16, -1.0, 1.0), AxisSpec(19, -1.0 - 2.5 * 2 / 15, 1.0 + 0.5 * 2 / 15)),
        ],
    )
    def test_vertex_grid_must_extend_f_by_whole_rows(self, vertex_x, vertex_y):
        f = bump_grid(16)
        with pytest.raises(ValueError):
            vline_forward(f, GEOM, (vertex_x, vertex_y))

    @pytest.mark.parametrize("beta,n_sub", [(np.pi / 4, 2), (3 * np.pi / 8, 5)])
    def test_against_ray_marching_subdivided_rows(self, beta, n_sub):
        f = bump_grid(120)
        geom = ConeGeometry(beta)
        assert np.ceil(2.0 * geom.tan_beta) == n_sub  # nodes per row at dx = dy
        g = vline_forward(f, geom).grid.values
        ref = oracles.vline_ray_march_grid(f, geom, oversample=10)
        assert np.linalg.norm(g - ref) / np.linalg.norm(ref) <= 5e-3

    def test_edge_sample_blends_with_zero(self):
        # f is 0 beyond its grid and linear within one cell of the edge: a ray
        # landing a fraction fx of a cell beyond the last column sees (1 - fx)
        # times the value there.  With dx = dy = 1 and tan(pi/8) < 1/2 each
        # quadrature node is a whole row; the right ray from vertex (6, 2)
        # meets row 5 at x = 6 + 3 tan(beta), and the left ray sees only zeros.
        ax = AxisSpec(8, 0.0, 7.0)
        values = np.zeros((8, 8))
        values[7, 5] = 3.0
        g = vline_forward(RealGrid2D(ax, ax, values), GEOM).grid.values
        fx = 3 * GEOM.tan_beta - 1.0
        assert g[6, 2] == pytest.approx((1.0 - fx) * 3.0 / GEOM.cos_beta, rel=1e-12)

    def test_extended_vertex_grid_matches_on_shared_rows(self):
        f = bump_grid(40)
        extra = 10
        extended = AxisSpec(
            40 + extra, f.y_axis.min - extra * f.y_axis.spacing, f.y_axis.max
        )
        g_plain = vline_forward(f, GEOM).grid.values
        g_ext = vline_forward(f, GEOM, (f.x_axis, extended)).grid.values
        np.testing.assert_allclose(g_ext[:, extra:], g_plain, rtol=1e-10, atol=1e-14)


class TestVlineInvert:
    def test_zero_in_zero_out(self):
        ax = AxisSpec(16, -1.0, 1.0)
        g = VLineProjection(RealGrid2D(ax, ax, np.zeros((16, 16))), GEOM)
        np.testing.assert_array_equal(vline_invert(g).values, 0.0)

    def test_roundtrip_accuracy_and_convergence(self):
        errors = {}
        for n in (60, 120):
            f = bump_grid(n)
            rec = vline_invert(vline_forward(f, GEOM))
            errors[n] = relative_l2(rec, f)
        assert errors[120] <= 0.15
        assert errors[120] < errors[60]

    def test_grid_too_small(self):
        g = VLineProjection(
            RealGrid2D(AxisSpec(2, 0, 1), AxisSpec(8, 0, 1), np.zeros((2, 8))), GEOM
        )
        with pytest.raises(ValueError):
            vline_invert(g)


class TestSpectralOracle:
    def test_zero_in_zero_out(self):
        ax = AxisSpec(16, -1.0, 1.0)
        f = RealGrid2D(ax, ax, np.zeros((16, 16)))
        np.testing.assert_allclose(
            vline_spectral_oracle(f, GEOM).grid.values, 0.0, atol=1e-14
        )

    def test_dc_bin_is_mass_above(self):
        # At the zero frequency the relation degenerates to
        # sum_x g dx = (2/cos b) * integral over heights above of sum_x f dx.
        # A domain wide enough that g cannot leave it makes this exact without
        # extra padding (no crop of the transform output).
        x_axis = AxisSpec(64, -2.0, 2.0)
        y_axis = AxisSpec(33, 0.0, 1.0)
        f = render_bumps_2d([BumpSpec((0.0, 0.5), 0.2, 1.0)], x_axis, y_axis)
        g = vline_spectral_oracle(f, GEOM, pad_factor=1).grid
        dc_g = g.values.sum(axis=0) * x_axis.spacing
        fy = f.values.sum(axis=0) * x_axis.spacing
        from coneradon.grids import cumint_from_top

        expected = (2.0 / GEOM.cos_beta) * cumint_from_top(fy, y_axis.spacing)
        np.testing.assert_allclose(dc_g, expected, rtol=1e-9, atol=1e-12)

    def test_zero_field_short_circuits(self):
        ax = AxisSpec(16, -1.0, 1.0)
        f = RealGrid2D(ax, ax, np.zeros((16, 16)))
        np.testing.assert_array_equal(
            vline_spectral_oracle(f, GEOM, pad_factor=1).grid.values, 0.0
        )

    def test_agrees_with_direct_forward(self):
        f = bump_grid(120)
        g_direct = vline_forward(f, GEOM).grid.values
        g_spectral = vline_spectral_oracle(f, GEOM, pad_factor=2).grid.values
        rel = np.linalg.norm(g_direct - g_spectral) / np.linalg.norm(g_direct)
        assert rel <= 0.01

    def test_insufficient_padding_rejected(self):
        f = bump_grid(32)
        with pytest.raises(ValueError):
            vline_spectral_oracle(f, GEOM, pad_factor=1)


class TestFourierRelation:
    def test_zero_pair(self):
        ax = AxisSpec(16, -1.0, 1.0)
        f = RealGrid2D(ax, ax, np.zeros((16, 16)))
        g = VLineProjection(RealGrid2D(ax, ax, np.zeros((16, 16))), GEOM)
        assert fourier_relation_check(f, g) == 0.0

    def test_consistent_pair_residual_shrinks(self):
        residuals = {}
        for n in (60, 120):
            f = bump_grid(n)
            g = vline_forward(f, GEOM)
            residuals[n] = fourier_relation_check(f, g)
        assert residuals[120] < residuals[60]
        assert residuals[120] <= 0.15

    def test_consistent_pair_at_wide_angle_on_wide_domain(self):
        # At beta = pi/4 g leaves [-1, 1] sideways and the residual reads 755
        # (N = 120); on x in [-3.5, 3.5], where g fits, it measured 0.231.
        x_axis = AxisSpec(418, -3.5, 3.5)
        y_axis = AxisSpec(120, -1.0, 1.0)
        f = render_bumps_2d([BUMP], x_axis, y_axis)
        g = vline_forward(f, ConeGeometry(np.pi / 4))
        assert fourier_relation_check(f, g) <= 0.25

    def test_mismatched_pair_flagged(self):
        f = bump_grid(120)
        g = vline_forward(f, GEOM)
        f_shifted = bump_grid(120, BumpSpec((0.5, 0.1), 0.25, 1.0))
        assert fourier_relation_check(f_shifted, g) > 0.5

    def test_axis_mismatch(self):
        f = bump_grid(16)
        other = AxisSpec(16, -2.0, 2.0)
        g = VLineProjection(RealGrid2D(other, f.y_axis, np.zeros((16, 16))), GEOM)
        with pytest.raises(ValueError):
            fourier_relation_check(f, g)
