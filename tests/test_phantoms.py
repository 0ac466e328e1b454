import math

import numpy as np
import pytest

from coneradon.grids import AxisSpec, RealGrid2D
from coneradon.phantoms import (
    BumpSpec,
    _l2_norm,
    max_abs_error,
    parse_scene,
    relative_l2,
    render_bumps_2d,
    render_bumps_3d,
)


AX21 = AxisSpec(21, -1.0, 1.0)  # nodes at multiples of 0.1
PLANE, BOX = (AX21,) * 2, (AX21,) * 3  # scene grids


def node(coord):
    return round((coord + 1.0) / AX21.spacing)


class TestRenderBumps2D:
    def test_center_value(self):
        f = render_bumps_2d([BumpSpec((0.2, 0.1), 0.25, 1.0)], AX21, AX21)
        assert f.values[node(0.2), node(0.1)] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_outside_radius_zero(self):
        f = render_bumps_2d([BumpSpec((0.2, 0.1), 0.25, 1.0)], AX21, AX21)
        gx, gy = np.meshgrid(AX21.coordinates(), AX21.coordinates(), indexing="ij")
        outside = (gx - 0.2) ** 2 + (gy - 0.1) ** 2 >= 0.25**2
        assert np.all(f.values[outside] == 0.0)

    def test_table_scene_disjoint(self):
        specs = [BumpSpec((0.5, 0.3), 0.25, 3.0), BumpSpec((-0.2, -0.2), 0.25, 4.0)]
        f = render_bumps_2d(specs, AX21, AX21)
        assert f.values[node(0.5), node(0.3)] == pytest.approx(3 * np.exp(-1.0), rel=1e-12)
        assert f.values[node(-0.2), node(-0.2)] == pytest.approx(4 * np.exp(-1.0), rel=1e-12)

    def test_support_escape_rejected(self):
        with pytest.raises(ValueError):
            render_bumps_2d([BumpSpec((0.9, 0.0), 0.25, 1.0)], AX21, AX21)

    def test_additive_and_scaling(self):
        s1 = BumpSpec((0.2, 0.1), 0.25, 1.0)
        s2 = BumpSpec((-0.4, -0.3), 0.2, 2.0)
        both = render_bumps_2d([s1, s2], AX21, AX21).values
        split = render_bumps_2d([s1], AX21, AX21).values + render_bumps_2d([s2], AX21, AX21).values
        np.testing.assert_allclose(both, split, rtol=1e-14)
        doubled = render_bumps_2d([BumpSpec((0.2, 0.1), 0.25, 2.0)], AX21, AX21).values
        np.testing.assert_allclose(doubled, 2 * render_bumps_2d([s1], AX21, AX21).values,
                                   rtol=1e-14)

    def test_value_range(self):
        specs = [BumpSpec((0.2, 0.1), 0.25, 3.0), BumpSpec((0.1, 0.2), 0.3, 4.0)]
        f = render_bumps_2d(specs, AX21, AX21)
        assert f.values.min() >= 0.0
        assert f.values.max() <= 7.0

    def test_smoothness_no_aliasing_spikes(self):
        # Discrete Laplacian magnitude stays bounded as N grows for r >= 4 cells.
        spec = BumpSpec((0.2, 0.1), 0.25, 1.0)
        maxima = []
        for n in (64, 128, 256):
            ax = AxisSpec(n, -1.0, 1.0)
            v = render_bumps_2d([spec], ax, ax).values
            lap = (np.roll(v, 1, 0) + np.roll(v, -1, 0) + np.roll(v, 1, 1) + np.roll(v, -1, 1)
                   - 4 * v) / ax.spacing**2
            maxima.append(np.abs(lap).max())
        assert max(maxima) <= 2.0 * min(maxima) + 60.0


class TestRenderBumps3D:
    def test_center_value(self):
        f = render_bumps_3d([BumpSpec((0.2, 0.1, 0.0), 0.25, 1.5)], AX21, AX21, AX21)
        assert f.values[node(0.2), node(0.1), node(0.0)] == pytest.approx(
            1.5 * np.exp(-1.0), rel=1e-12
        )

    def test_outside_ball_zero(self):
        f = render_bumps_3d([BumpSpec((0.0, 0.0, 0.0), 0.25, 1.0)], AX21, AX21, AX21)
        gx, gy, gz = np.meshgrid(*(AX21.coordinates(),) * 3, indexing="ij")
        outside = gx**2 + gy**2 + gz**2 >= 0.0625
        assert np.all(f.values[outside] == 0.0)

    def test_integral_against_radial_quadrature(self):
        # Radial oracle: integral = 4 pi int_0^r rho^2 exp(-r^2/(r^2-rho^2)) drho.
        r = 0.25
        rho = np.linspace(0.0, r, 20_001)[:-1]
        radial = np.trapezoid(4 * np.pi * rho**2 * np.exp(-r * r / (r * r - rho**2)), rho)
        ax = AxisSpec(64, -1.0, 1.0)
        f = render_bumps_3d([BumpSpec((0.0, 0.0, 0.0), r, 1.0)], ax, ax, ax)
        grid_integral = f.values.sum() * ax.spacing**3
        assert grid_integral == pytest.approx(radial, rel=5e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            render_bumps_3d([BumpSpec((0.0, 0.0), 0.2, 1.0)], AX21, AX21, AX21)
        with pytest.raises(ValueError):
            render_bumps_2d([BumpSpec((0.0, 0.0, 0.0), 0.2, 1.0)], AX21, AX21)


class TestMetrics:
    def test_relative_l2_basics(self):
        rng = np.random.default_rng(5)
        b = RealGrid2D(AX21, AX21, rng.normal(size=(21, 21)))
        a = RealGrid2D(AX21, AX21, 2 * b.values)
        assert relative_l2(b, b) == 0.0
        assert relative_l2(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_relative_l2_constant_offset(self):
        n = 21 * 21
        base = np.zeros((21, 21))
        base[3, 4] = 1.0  # unit-norm reference
        eps = 1e-3
        a = RealGrid2D(AX21, AX21, base + eps)
        b = RealGrid2D(AX21, AX21, base)
        # || a - b || = eps * sqrt(N)
        assert relative_l2(a, b) == pytest.approx(eps * np.sqrt(n), rel=1e-10)

    def test_relative_l2_zero_reference(self):
        a = RealGrid2D(AX21, AX21, np.full((21, 21), 0.5))
        b = RealGrid2D(AX21, AX21, np.zeros((21, 21)))
        assert relative_l2(a, b) == pytest.approx(np.linalg.norm(a.values))

    @pytest.mark.parametrize("shape", [(48, 48, 48), (240, 240), (13, 7, 5), (1,)])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_l2_norm_against_exact_sum(self, shape, scale):
        # Within 1e-15 of the correctly rounded sum of the squares, also on a
        # strided view.
        values = scale * np.random.default_rng(len(shape)).normal(size=shape)
        for v in (values, values[::2]):
            squares = (v * v).ravel().tolist()
            exact = math.sqrt(math.fsum(squares))
            assert abs(_l2_norm(v) - exact) <= 1e-15 * exact

    def test_max_abs_error(self):
        rng = np.random.default_rng(6)
        vb = rng.normal(size=(21, 21))
        b = RealGrid2D(AX21, AX21, vb)
        assert max_abs_error(b, b) == 0.0
        va = vb.copy()
        va[7, 9] += 0.125
        assert max_abs_error(RealGrid2D(AX21, AX21, va), b) == pytest.approx(0.125)
        signs = np.where(rng.normal(size=(21, 21)) > 0, 0.1, -0.1)
        assert max_abs_error(RealGrid2D(AX21, AX21, vb + signs), b) == pytest.approx(0.1)

    def test_axis_mismatch(self):
        other = AxisSpec(21, -2.0, 2.0)
        a = RealGrid2D(AX21, AX21, np.zeros((21, 21)))
        b = RealGrid2D(other, AX21, np.zeros((21, 21)))
        with pytest.raises(ValueError):
            relative_l2(a, b)
        with pytest.raises(ValueError):
            max_abs_error(a, b)


class TestParseScene:
    def test_full_lines_and_comments(self):
        text = """
        # two circles
        0.5 0.3 0.25 3    # first
        -0.2 -0.2 0.25 4
        """
        specs = parse_scene(text, PLANE)
        assert [s.center for s in specs] == [(0.5, 0.3), (-0.2, -0.2)]
        assert [s.intensity for s in specs] == [3.0, 4.0]

    def test_radius_defaulting(self):
        specs = parse_scene("0.5 0.3 3\n-0.2 -0.2 4\n", PLANE, default_radius=0.25)
        assert all(s.radius == 0.25 for s in specs)
        specs3 = parse_scene("0.1 0.2 0.3 5\n", BOX, default_radius=0.2)
        assert specs3[0].center == (0.1, 0.2, 0.3)
        assert specs3[0].radius == 0.2
        assert specs3[0].intensity == 5.0

    def test_3d_full_line(self):
        (spec,) = parse_scene("0.1 0.2 0.0 0.25 2.0\n", BOX)
        assert spec.center == (0.1, 0.2, 0.0)
        assert spec.radius == 0.25

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_scene("0.1 0.2\n", PLANE)
        with pytest.raises(ValueError):
            parse_scene("a b c d\n", PLANE)
        with pytest.raises(ValueError):
            parse_scene("0 0 0.2 1", (AX21,) * 4)

    @pytest.mark.parametrize("line", ["0 0 -0.2 1", "0 nan 0.2 1", "0 0 inf 1", "0 0 0.2 -inf"])
    def test_invalid_bump_names_its_line(self, line):
        with pytest.raises(ValueError, match="^scene line 2: bump"):
            parse_scene(f"# header\n{line}\n", PLANE)

    @pytest.mark.parametrize("line", ["0.9 0 0.2 1", "0 -1 0.2 1", "0 0 1 1"])
    def test_bump_outside_the_axes_names_its_line(self, line):
        with pytest.raises(ValueError, match="^scene line 2: bump at .* not strictly inside"):
            parse_scene(f"0 0 0.2 1\n{line}\n", PLANE)

    def test_lines_are_checked_in_order(self):
        # The bump outside the grid on line 1 is reported before line 2's parse error.
        with pytest.raises(ValueError, match="^scene line 1: bump at"):
            parse_scene("0.9 0 0.2 1\nnot a number\n", PLANE)
        with pytest.raises(ValueError, match="^scene line 2: could not convert"):
            parse_scene("0.5 0 0.2 1\nnot a number\n", PLANE)


class TestBumpSpec:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["center", "radius", "intensity"])
    def test_non_finite_values_are_rejected(self, field, value):
        kwargs = {"center": (0.1, 0.2), "radius": 0.25, "intensity": 1.0}
        kwargs[field] = (0.1, value) if field == "center" else value
        with pytest.raises(ValueError, match="bump values must be finite"):
            BumpSpec(**kwargs)

    @pytest.mark.parametrize("radius", [0.0, -0.2])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="bump radius must be positive"):
            BumpSpec((0.1, 0.2), radius)
