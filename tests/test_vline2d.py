import math
import tracemalloc

import numpy as np
import pytest

from coneradon.grids import (
    AxisSpec,
    ConeGeometry,
    RealGrid2D,
    _derivative,
    _lag_kernel_apply,
    _lag_taps,
    _padded_sizes,
)
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


def extended_below(y_axis, extra):
    return AxisSpec(y_axis.n_samples + extra, y_axis.min - extra * y_axis.spacing, y_axis.max)


def ring_engine_forward(f, geometry, n_below):
    # The V-line transform through the shared sampling engine: a two-point
    # ring at every fine quadrature node, keeping every n_sub-th vertex level.
    t = geometry.tan_beta
    dx, dy = f.x_axis.spacing, f.y_axis.spacing
    n_sub = max(1, math.ceil(2.0 * t * dy / dx))
    h = dy / n_sub
    rows = np.concatenate([np.zeros((f.x_axis.n_samples, n_below)), f.values], axis=1)
    s = np.arange(n_sub) / n_sub
    fine = (1.0 - s) * rows[:, :-1, None] + s * rows[:, 1:, None]
    nodes = np.concatenate([fine.reshape(rows.shape[0], -1), rows[:, -1:]], axis=1)

    def two_rays(lag):
        d = t * lag * h / dx
        return 2.0 * h / geometry.cos_beta, np.array([d, -d]), np.zeros(2)

    return oracles.ring_quadrature(nodes[:, None, :], two_rays)[:, 0, ::n_sub]


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
        xs, ys = f.x_axis.coordinates(), f.y_axis.coordinates()
        ix, jy = nearest_node(f.x_axis, 0.2), nearest_node(f.y_axis, -0.8)
        assert abs(oracles.vline_ray_march(f, GEOM, xs[ix], ys[jy])) < 1e-15
        assert g.values[ix, jy] == 0.0
        for (x0, y0) in [(0.2, 0.0), (-0.1, -0.3), (0.35, -0.1)]:
            ix, jy = nearest_node(f.x_axis, x0), nearest_node(f.y_axis, y0)
            ref = oracles.vline_ray_march(f, GEOM, xs[ix], ys[jy])
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

    @pytest.mark.parametrize("n", [24, 25])
    @pytest.mark.parametrize("beta,n_sub", [(np.pi / 8, 1), (np.pi / 4, 2), (3 * np.pi / 8, 5)])
    @pytest.mark.parametrize("extra", [0, 7])
    def test_matches_ring_engine(self, n, beta, n_sub, extra):
        geom = ConeGeometry(beta)
        assert math.ceil(2.0 * geom.tan_beta) == n_sub  # nodes per row at dx = dy
        rng = np.random.default_rng(n + 10 * n_sub + extra)
        ax = AxisSpec(n, -1.0, 1.0)
        values = rng.uniform(0.0, 1.0, size=(n, n))
        values[: n // 2, -3:] = 0.0  # vertices near the top left see only zeros
        f = RealGrid2D(ax, ax, values)
        g = vline_forward(f, geom, (ax, extended_below(ax, extra))).grid.values
        ref = ring_engine_forward(f, geom, extra)
        assert g.shape == ref.shape == (n, n + extra)
        assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(g == 0.0, ref == 0.0)
        assert np.count_nonzero(ref == 0.0) > n  # more zeros than the top row

    @pytest.mark.parametrize("row", [0, 1, -2, -1])
    @pytest.mark.parametrize(
        "beta,n_sub", [(np.pi / 8, 1), (np.pi / 4, 2), (3 * np.pi / 8, 5), (1.5, 29)]
    )
    @pytest.mark.parametrize("extra", [0, 7])
    def test_single_row_support_matches_ring_engine(self, row, beta, n_sub, extra):
        # Each lag reads only the vertex rows whose node row holds data; a
        # single nonzero f row puts that range at its narrowest, next to
        # either end of the node buffer.
        geom = ConeGeometry(beta)
        n = 24
        assert math.ceil(2.0 * geom.tan_beta) == n_sub
        ax = AxisSpec(n, -1.0, 1.0)
        values = np.zeros((n, n))
        values[:, row] = np.random.default_rng(n_sub + extra).uniform(0.5, 1.0, size=n)
        f = RealGrid2D(ax, ax, values)
        g = vline_forward(f, geom, (ax, extended_below(ax, extra))).grid.values
        ref = ring_engine_forward(f, geom, extra)
        assert ref.max() > 0.0
        assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(g == 0.0, ref == 0.0)

    @pytest.mark.parametrize("extra", [0, 7])
    def test_wide_angle_matches_ring_engine(self, extra):
        # beta = 1.5 puts 29 quadrature nodes in each y row at dx = dy.
        geom = ConeGeometry(1.5)
        assert math.ceil(2.0 * geom.tan_beta) == 29
        ax = AxisSpec(16, -1.0, 1.0)
        values = np.random.default_rng(extra).uniform(0.0, 1.0, size=(16, 16))
        values[:, :3] = 0.0  # no data in the lowest rows
        f = RealGrid2D(ax, ax, values)
        g = vline_forward(f, geom, (ax, extended_below(ax, extra))).grid.values
        ref = ring_engine_forward(f, geom, extra)
        assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(g == 0.0, ref == 0.0)

    @pytest.mark.parametrize("top_row", ["zero", "nonzero"])
    @pytest.mark.parametrize("beta,n_sub", [(0.9, 3), (1.1, 4)])
    @pytest.mark.parametrize("extra", [0, 7])
    def test_thirds_and_quarters_match_ring_engine(self, top_row, beta, n_sub, extra):
        # The first node counts whose blends p / n_sub are not halves; f's top
        # row, whose nodes above are absent, has a stencil of its own.
        geom = ConeGeometry(beta)
        n = 25
        assert math.ceil(2.0 * geom.tan_beta) == n_sub  # nodes per row at dx = dy
        ax = AxisSpec(n, -1.0, 1.0)
        values = np.random.default_rng(n_sub + extra).uniform(0.0, 1.0, size=(n, n))
        values[:, :4] = 0.0
        if top_row == "zero":
            values[:, -2:] = 0.0
        f = RealGrid2D(ax, ax, values)
        g = vline_forward(f, geom, (ax, extended_below(ax, extra))).grid.values
        ref = ring_engine_forward(f, geom, extra)
        assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(g == 0.0, ref == 0.0)

    def test_near_integer_taps_match_ring_engine(self):
        # tan(pi/4) is 0.9999999999999999, so at dx = 2 dy (one node per row)
        # an even lag's rays land just short of a whole column: a tap of
        # weight ~1e-16 falls one column in.  From a single nonzero sample
        # some vertices see nothing but such a tap; they must not read 0.
        geom = ConeGeometry(np.pi / 4)
        assert geom.tan_beta < 1.0
        x_axis, y_axis = AxisSpec(17, 0.0, 16.0), AxisSpec(24, 0.0, 11.5)
        values = np.zeros((17, 24))
        values[8, 20] = 1.0
        f = RealGrid2D(x_axis, y_axis, values)
        g = vline_forward(f, geom).grid.values
        ref = ring_engine_forward(f, geom, 0)
        assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(g == 0.0, ref == 0.0)
        assert np.count_nonzero((ref > 0.0) & (ref < 1e-12)) > 0

    # perfbench's vline2d-rt scenes at their anchors: (beta, bumps, rows the
    # vertex grid adds below f for --vertex-ymin -1.5 at N = 240).
    BENCH_BUMPS = [
        BumpSpec((0.2, 0.1), 0.25, 1.0),
        BumpSpec((-0.45, 0.4), 0.3, 1.0),
        BumpSpec((0.5, -0.45), 0.22, 1.0),
    ]

    @pytest.mark.parametrize(
        "beta,n_bumps,extra", [(np.pi / 8, 1, 0), (np.pi / 4, 2, 0), (np.pi / 8, 3, 60)]
    )
    def test_benchmark_scenes_match_lag_loop(self, beta, n_bumps, extra):
        ax = AxisSpec(240, -1.0, 1.0)
        f = render_bumps_2d(self.BENCH_BUMPS[:n_bumps], ax, ax)
        geom = ConeGeometry(beta)
        g = vline_forward(f, geom, (ax, extended_below(ax, extra))).grid.values
        ref = oracles.vline_lag_loop(f, geom, extra)
        assert np.abs(g - ref).max() <= 1e-14 * np.abs(ref).max()
        np.testing.assert_array_equal(g == 0.0, ref == 0.0)
        assert g.min() >= 0.0

    def test_memory_does_not_grow_with_nodes_per_row(self):
        # 29 quadrature nodes per row; the nodes of one phase are held at a time.
        ax = AxisSpec(48, -1.0, 1.0)
        f = RealGrid2D(ax, ax, np.random.default_rng(0).uniform(size=(48, 48)))
        tracemalloc.start()
        try:
            vline_forward(f, ConeGeometry(1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * f.values.nbytes

    @pytest.mark.parametrize("beta", [np.pi / 8, 3 * np.pi / 8])
    @pytest.mark.parametrize("extra", [0, 7])
    def test_zero_in_zero_out_every_grid(self, beta, extra):
        ax = AxisSpec(16, -1.0, 1.0)
        f = RealGrid2D(ax, ax, np.zeros((16, 16)))
        g = vline_forward(f, ConeGeometry(beta), (ax, extended_below(ax, extra))).grid.values
        assert g.shape == (16, 16 + extra)
        np.testing.assert_array_equal(g, 0.0)

    def test_against_ray_marching_below_domain_subdivided_rows(self):
        # beta = pi/4 gives n_sub = 2 at dx = dy; the vertices sit 6 to 18 rows
        # below f, on a vertex grid extended by 30 rows.
        f = bump_grid(120, BumpSpec((0.0, -0.5), 0.4, 1.0))
        geom = ConeGeometry(np.pi / 4)
        vy = extended_below(f.y_axis, 30)
        g = vline_forward(f, geom, (f.x_axis, vy)).grid.values
        for x0, y0 in [(-0.6, -1.2), (0.45, -1.3), (0.8, -1.1)]:
            ix, jy = nearest_node(f.x_axis, x0), nearest_node(vy, y0)
            assert vy.coordinates()[jy] < f.y_axis.min
            ref = oracles.vline_ray_march(f, geom, f.x_axis.coordinates()[ix], vy.coordinates()[jy])
            assert ref > 0.1 * g.max()
            assert g[ix, jy] == pytest.approx(ref, rel=5e-3)

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

    def test_matches_the_formula_bit_for_bit(self):
        # -(cos β / 2)·(dgdy + tan²β·tail), each term a whole-grid temporary.
        rng = np.random.default_rng(11)
        g = RealGrid2D(AxisSpec(31, -1.0, 1.0), AxisSpec(23, -1.0, 0.5), rng.normal(size=(31, 23)))
        g.values[:, 5] = 0.0
        g.values[4] = -0.0
        dy = g.y_axis.spacing
        dgdy = _derivative(g.values, dy, 1, (0, 1), 2, axis=1)
        d2gdx2 = _derivative(g.values, g.x_axis.spacing, 2, (-1, 0, 1), 3, axis=0)
        seg = 0.5 * dy * (d2gdx2[:, :-1] + d2gdx2[:, 1:])
        tail = np.zeros(g.values.shape)
        tail[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
        t2 = GEOM.tan_beta * GEOM.tan_beta
        expected = -(GEOM.cos_beta / 2.0) * (dgdy + t2 * tail)
        assert vline_invert(VLineProjection(g, GEOM)).values.tobytes() == expected.tobytes()

    def test_holds_at_most_three_grids(self):
        # The benchmark's 240^2 size: the traced peak was 5.0 grids before
        # the inversion was built in place.
        ax = AxisSpec(240, -1.0, 1.0)
        values = np.random.default_rng(12).normal(size=(240, 240))
        g = VLineProjection(RealGrid2D(ax, ax, values), GEOM)
        vline_invert(g)
        tracemalloc.start()
        try:
            vline_invert(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * g.grid.values.nbytes


class TestSpectralOracle:
    def test_zero_in_zero_out(self):
        # Exact zeros: the lag-kernel engine zeroes empty profiles exactly.
        ax = AxisSpec(16, -1.0, 1.0)
        f = RealGrid2D(ax, ax, np.zeros((16, 16)))
        np.testing.assert_array_equal(vline_spectral_oracle(f, GEOM).grid.values, 0.0)

    def test_returns_owned_array(self):
        # A view of the padded period would keep the whole P x ny transform alive.
        assert vline_spectral_oracle(bump_grid(60), GEOM, pad_factor=3).grid.values.base is None

    def test_agrees_with_direct_forward(self):
        f = bump_grid(120)
        g_direct = vline_forward(f, GEOM).grid.values
        g_spectral = vline_spectral_oracle(f, GEOM, pad_factor=2).grid.values
        rel = np.linalg.norm(g_direct - g_spectral) / np.linalg.norm(g_direct)
        assert rel <= 0.01

    # Worst rel L2 against vline_forward over the angles and bump positions
    # below, measured once at the default padding: 1.50e-2 (N = 60, 3 pi/8)
    # and 2.78e-3 (N = 120, 3 pi/8).
    @pytest.mark.parametrize("n, bound", [(60, 1.6e-2), (120, 3e-3)])
    @pytest.mark.parametrize("beta", [np.pi / 12, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    @pytest.mark.parametrize("x", [0.2, 0.7, -0.7])
    def test_default_padding_agrees_with_direct_forward(self, n, bound, beta, x):
        geometry = ConeGeometry(beta)
        f = bump_grid(n, BumpSpec((x, 0.1), 0.25, 1.0))
        g_direct = vline_forward(f, geometry).grid.values
        g_spectral = vline_spectral_oracle(f, geometry).grid.values
        rel = np.linalg.norm(g_direct - g_spectral) / np.linalg.norm(g_direct)
        assert rel <= bound

    @pytest.mark.parametrize("pad", [1, 2])
    @pytest.mark.parametrize("beta", [np.pi / 8, 3 * np.pi / 8])
    def test_zeros_at_the_far_end_as_centred(self, beta, pad):
        # A per-frequency filter commutes with circular shifts, so the oracle,
        # which pads at the far x end, matches the same relation applied to f
        # centred in the period of _padded_sizes.
        geometry = ConeGeometry(beta)
        f = bump_grid(60, BumpSpec((-0.7, 0.1), 0.25, 1.0))
        (n_pad,) = _padded_sizes(f, geometry, pad)
        left = (n_pad - 60) // 2
        spectrum = np.fft.rfft(np.pad(f.values, ((left, n_pad - 60 - left), (0, 0))), axis=0)
        lam = 2.0 * np.pi * np.fft.rfftfreq(n_pad, f.x_axis.spacing)
        spectrum[:, -1] *= 0.5  # the trapezoid half weight at the top end
        _lag_kernel_apply(
            spectrum,
            *_lag_taps(geometry.tan_beta * lam, f.y_axis.spacing, 60, lambda u, h: np.cos(u * h)),
        )
        centred = np.fft.irfft(spectrum, n_pad, axis=0) * (2.0 / geometry.cos_beta)
        expected = centred[left : left + 60]
        g = vline_spectral_oracle(f, geometry, pad).grid.values
        assert np.linalg.norm(g - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_pad_factor_checked(self):
        f = bump_grid(32)
        with pytest.raises(TypeError, match="pad_factor"):
            vline_spectral_oracle(f, GEOM, pad_factor=2.0)
        with pytest.raises(ValueError, match="pad_factor"):
            vline_spectral_oracle(f, GEOM, pad_factor=0)


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
