import numpy as np
import pytest

from coneradon.cone3d import (
    KernelParams,
    _cone_forward_rings,
    _frequency_weights,
    cone_forward,
    cone_invert,
    dft2_slices,
    invert_frequency_profile,
    kernel_eval,
)
from coneradon.grids import AxisSpec, ConeGeometry, RealGrid3D, _lag_kernel_apply
from coneradon.phantoms import BumpSpec, relative_l2, render_bumps_3d
from coneradon.specfun import bessel_j0

import oracles

GEOM = ConeGeometry(np.pi / 8)
BUMP3 = BumpSpec((0.2, 0.1, 0.0), 0.25, 1.0)


def bump_volume(n, spec=BUMP3):
    ax = AxisSpec(n, -1.0, 1.0)
    return render_bumps_3d([spec], ax, ax, ax)


def quadrature_vertices(f):
    # 27 grid vertices whose cones all cross BUMP3's support.
    for x0 in (0.0, 0.2, 0.4):
        for y0 in (-0.1, 0.1, 0.3):
            for z0 in (-0.6, -0.3, -0.1):
                yield (
                    round((x0 + 1) / f.x_axis.spacing),
                    round((y0 + 1) / f.y_axis.spacing),
                    round((z0 + 1) / f.z_axis.spacing),
                )


@pytest.fixture(scope="module")
def rings_48():
    # BUMP3 at N = 48 and its ring-route projection, shared by the oracle tests.
    f = bump_volume(48)
    return f, _cone_forward_rings(f, GEOM).values


def full_spectrum_invert(g, geometry, pad):
    # Reference for cone_invert: centred zero padding, the full complex DFT
    # stack of dft2_slices and one invert_frequency_profile call per kept bin.
    nx, ny, nz = g.values.shape
    nxp, nyp = pad * nx, pad * ny
    left_x, left_y = (nxp - nx) // 2, (nyp - ny) // 2
    padded = np.zeros((nxp, nyp, nz))
    padded[left_x : left_x + nx, left_y : left_y + ny] = g.values
    dx, dy = g.x_axis.spacing, g.y_axis.spacing
    x_axis = AxisSpec(nxp, 0.0, (nxp - 1) * dx)
    y_axis = AxisSpec(nyp, 0.0, (nyp - 1) * dy)
    stack = dft2_slices(RealGrid3D(x_axis, y_axis, g.z_axis, padded))
    lam, mu = stack.x_freqs.frequencies, stack.y_freqs.frequencies
    radial = np.sqrt(lam[:, None] ** 2 + mu[None, :] ** 2)
    u_map = geometry.tan_beta * radial
    weights = _frequency_weights(u_map, radial, g)
    scale = geometry.cos_beta / (2.0 * np.pi * geometry.tan_beta)
    out = np.zeros_like(stack.values)
    for kx, ky in zip(*np.nonzero(weights)):
        profile = scale * stack.values[kx, ky]
        out[kx, ky] = weights[kx, ky] * invert_frequency_profile(
            profile, g.z_axis, float(u_map[kx, ky])
        )
    values = np.fft.ifft2(out, axes=(0, 1)).real / (dx * dy)
    return values[left_x : left_x + nx, left_y : left_y + ny]


def kernel_quadrature(geometry, lam, mu, gap, nodes=4096):
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    phase = gap * geometry.tan_beta * (lam * np.cos(theta) + mu * np.sin(theta))
    return (geometry.tan_beta / geometry.cos_beta) * gap * 2.0 * np.pi * float(
        np.mean(np.cos(phase))
    )


def _upper_trapezoid_weights(n, spacing):
    # W[j, m] are trapezoid weights of the integral from node j to the top,
    # over nodes m >= j (zero below the diagonal, zero-length row at the top).
    w = np.triu(np.ones((n, n)))
    w[np.diag_indices(n)] = 0.5
    w[:, -1] *= 0.5
    w[-1, -1] = 0.0
    return w * spacing


def dense_lag_apply(profiles, us, spacing, kernel, lag_factor):
    # Reference for _lag_kernel_apply: one dense trapezoid-weighted lag-kernel
    # matrix per row, applied row by row.
    n = profiles.shape[-1]
    h = spacing * (np.arange(n)[None, :] - np.arange(n)[:, None])
    weights = _upper_trapezoid_weights(n, spacing)
    out = np.empty_like(profiles)
    for b, u in enumerate(us):
        mat = weights * kernel(u * h) * (h if lag_factor else 1.0)
        out[b] = mat @ profiles[b]
    return out


# (kernel, lag_factor): the cone's J0 kernel keeps the bare lag_factor ids,
# the V-line's cosine kernel is marked "cos".
KERNEL_CASES = [
    pytest.param(bessel_j0, False, id="False"),
    pytest.param(bessel_j0, True, id="True"),
    pytest.param(np.cos, False, id="cos-False"),
    pytest.param(np.cos, True, id="cos-True"),
]


def lag_apply_case(rng, nz, dtype, rows=24):
    # Profiles with duplicated u values and u = 0 rows.
    us = rng.uniform(0.0, 40.0, size=rows)
    us[rows // 2 :] = us[: rows - rows // 2]
    us[:3] = 0.0
    profiles = rng.normal(size=(rows, nz))
    if dtype == complex:
        profiles = profiles + 1j * rng.normal(size=(rows, nz))
    return profiles, rng.permutation(us)


class TestJ0LagApply:
    # _lag_kernel_apply with the cone's J0 kernel and the V-line's cosine kernel.
    @pytest.mark.parametrize("kernel,lag_factor", KERNEL_CASES)
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("nz", [5, 12, 13, 48])
    def test_matches_dense_matrices(self, nz, dtype, kernel, lag_factor):
        rng = np.random.default_rng(nz)
        profiles, us = lag_apply_case(rng, nz, dtype)
        spacing = 2.0 / (nz - 1)
        expected = dense_lag_apply(profiles, us, spacing, kernel, lag_factor)
        out = profiles.copy()
        _lag_kernel_apply(out, us, spacing, kernel, lag_factor)
        assert out.dtype == np.dtype(dtype)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kernel,lag_factor", KERNEL_CASES)
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exact_zeros_above_support(self, dtype, kernel, lag_factor):
        # Rows end at different levels; every level above the highest nonzero
        # one is an empty sum, and so is the top level.
        rng = np.random.default_rng(14)
        profiles, us = lag_apply_case(rng, 48, dtype)
        for b, top in enumerate(rng.integers(0, 30, size=len(profiles))):
            profiles[b, top + 1 :] = 0.0
        highest = np.flatnonzero(np.any(profiles != 0.0, axis=0))[-1]
        expected = dense_lag_apply(profiles, us, 0.05, kernel, lag_factor)
        _lag_kernel_apply(profiles, us, 0.05, kernel, lag_factor)
        assert np.all(profiles[:, highest + 1 :] == 0.0)
        assert np.linalg.norm(profiles - expected) <= 1e-13 * np.linalg.norm(expected)


class TestKernelEval:
    def test_zero_gap(self):
        assert kernel_eval(KernelParams(2.0, GEOM), 1.0, 1.0) == 0.0

    def test_u_zero_linear(self):
        gap = 0.37
        expected = 2.0 * np.pi * GEOM.tan_beta / GEOM.cos_beta * gap
        assert kernel_eval(KernelParams(0.0, GEOM), gap, 0.0) == pytest.approx(expected)

    def test_against_angular_quadrature(self):
        lam, mu, gap = 3.0, 4.0, 0.7
        u = GEOM.tan_beta * np.hypot(lam, mu)
        closed = kernel_eval(KernelParams(u, GEOM), gap, 0.0)
        assert abs(closed - kernel_quadrature(GEOM, lam, mu, gap)) <= 1e-8

    def test_random_tuples(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            beta = rng.uniform(0.1, 1.4)
            geom = ConeGeometry(beta)
            lam, mu = rng.uniform(-20, 20, size=2)
            gap = rng.uniform(0.0, 2.0)
            u = geom.tan_beta * np.hypot(lam, mu)
            closed = kernel_eval(KernelParams(u, geom), gap, 0.0)
            assert abs(closed - kernel_quadrature(geom, lam, mu, gap)) <= 1e-8

    def test_rejects_descending_heights(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelParams(1.0, GEOM), 0.0, 0.5)

    def test_rejects_negative_u(self):
        with pytest.raises(ValueError):
            KernelParams(-0.5, GEOM)


class TestInvertFrequencyProfile:
    def test_zero(self):
        zax = AxisSpec(32, -1.0, 1.0)
        np.testing.assert_array_equal(
            invert_frequency_profile(np.zeros(32), zax, 1.0), 0.0
        )

    @pytest.mark.parametrize("u", [0.0, 0.5, 3.0, 10.0])
    def test_recovers_profile_from_quadrature_data(self, u):
        n = 512
        zax = AxisSpec(n, -1.0, 1.0)
        z = zax.coordinates()
        data = oracles.kernel_profile_quadrature(
            oracles.smooth_bump_1d, z, zax.max, u, bessel_j0, oversample=8
        )
        recovered = invert_frequency_profile(data, zax, u)
        truth = oracles.smooth_bump_1d(z)
        assert np.linalg.norm(recovered - truth) / np.linalg.norm(truth) <= 0.01

    def test_scalar_linearity_complex(self):
        n = 64
        zax = AxisSpec(n, -1.0, 1.0)
        z = zax.coordinates()
        data = oracles.kernel_profile_quadrature(
            oracles.smooth_bump_1d, z, zax.max, 2.0, bessel_j0, oversample=4
        )
        phase = np.exp(1j * 0.7)
        out = invert_frequency_profile(phase * data, zax, 2.0)
        expected = phase * invert_frequency_profile(data, zax, 2.0)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-13)

    def test_validation(self):
        zax = AxisSpec(32, -1.0, 1.0)
        with pytest.raises(ValueError):
            invert_frequency_profile(np.zeros(16), zax, 1.0)  # length mismatch
        with pytest.raises(ValueError, match="at least 6 z samples"):
            invert_frequency_profile(np.zeros(5), AxisSpec(5, 0, 1), 1.0)
        with pytest.raises(ValueError):
            invert_frequency_profile(np.zeros(32), zax, -1.0)

    def test_intermediate_identity_shrinks_with_resolution(self):
        # H applied to the tail integral of G equals the J0-weighted integral
        # of the underlying profile; the discrete residual shrinks with n.
        from coneradon.grids import _diff2_central, cumint_from_top

        u = 2.0
        residuals = {}
        for n in (128, 256):
            zax = AxisSpec(n, -1.0, 1.0)
            z = zax.coordinates()
            data = oracles.kernel_profile_quadrature(
                oracles.smooth_bump_1d, z, zax.max, u, bessel_j0, oversample=6
            )
            tail = cumint_from_top(data, zax.spacing)
            lhs = _diff2_central(tail, zax.spacing, axis=-1) + u * u * tail  # H(tail)
            rhs = np.zeros(n)
            for j in range(n - 1):
                zf = np.linspace(z[j], zax.max, (n - 1 - j) * 6 + 1)
                rhs[j] = np.trapezoid(
                    oracles.smooth_bump_1d(zf) * bessel_j0(u * (zf - z[j])), zf
                )
            # interior rows: the replicated-end H is only consistent inside
            resid = np.linalg.norm(lhs[1:-1] - rhs[1:-1]) / np.linalg.norm(rhs[1:-1])
            residuals[n] = resid
        assert residuals[256] < residuals[128]
        assert residuals[256] <= 5e-3


class TestDft2Slices:
    def test_zero(self):
        ax = AxisSpec(8, -1.0, 1.0)
        g = RealGrid3D(ax, ax, ax, np.zeros((8, 8, 8)))
        np.testing.assert_array_equal(dft2_slices(g).values, 0.0)

    def test_constant_dc_bin(self):
        n = 32
        ax = AxisSpec(n, -1.0, 1.0)
        g = RealGrid3D(ax, ax, AxisSpec(3, 0.0, 1.0), np.ones((n, n, 3)))
        stack = dft2_slices(g)
        dc = stack.values[0, 0, :]
        expected = ax.spacing**2 * n**2  # domain area up to the endpoint convention
        np.testing.assert_allclose(dc.real, expected, rtol=1e-12)
        np.testing.assert_allclose(dc.imag, 0.0, atol=1e-9)
        others = stack.values.copy()
        others[0, 0, :] = 0.0
        assert np.abs(others).max() <= 1e-9 * expected

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        nx, ny, nz = 12, 10, 4
        g = RealGrid3D(
            AxisSpec(nx, -1, 1), AxisSpec(ny, -1, 1), AxisSpec(nz, -1, 1),
            rng.normal(size=(nx, ny, nz)),
        )
        v = dft2_slices(g).values
        mirrored = np.conj(v[(-np.arange(nx)) % nx][:, (-np.arange(ny)) % ny])
        assert np.abs(v - mirrored).max() <= 1e-12 * np.abs(v).max()

    def test_parseval_per_slice(self):
        rng = np.random.default_rng(6)
        nx, ny, nz = 16, 16, 5
        ax = AxisSpec(nx, -1.0, 1.0)
        g = RealGrid3D(ax, ax, AxisSpec(nz, 0, 1), rng.normal(size=(nx, ny, nz)))
        stack = dft2_slices(g)
        scale = (ax.spacing * ax.spacing) ** 2 * nx * ny
        for k in range(nz):
            spectral = np.sum(np.abs(stack.values[:, :, k]) ** 2)
            direct = np.sum(g.values[:, :, k] ** 2) * scale
            assert spectral == pytest.approx(direct, rel=1e-10)


class TestConeForward:
    def test_zero(self):
        ax = AxisSpec(10, -1.0, 1.0)
        f = RealGrid3D(ax, ax, ax, np.zeros((10, 10, 10)))
        np.testing.assert_array_equal(cone_forward(f, GEOM).values, 0.0)

    def test_vertex_above_support(self):
        f = bump_volume(32)
        g = cone_forward(f, GEOM).values
        k_above = int(np.ceil((0.26 + 1.0) / f.z_axis.spacing))
        assert np.all(g[:, :, k_above:] == 0.0)

    def test_against_surface_quadrature(self, rings_48):
        # The trilinear oracle samples the grid's own interpolant, which is the
        # ring route's model, so it checks that route.
        f, g = rings_48
        coords = [axis.coordinates() for axis in f.axes()]
        impl, ref = [], []
        for i, j, k in quadrature_vertices(f):
            impl.append(g[i, j, k])
            ref.append(
                oracles.cone_surface_quadrature(
                    f, GEOM, coords[0][i], coords[1][j], coords[2][k], oversample=4
                )
            )
        impl, ref = np.asarray(impl), np.asarray(ref)
        assert np.linalg.norm(impl - ref) / np.linalg.norm(ref) <= 0.01

    @pytest.mark.parametrize("route, bound", [("spectral", 3e-3), ("rings", 2e-2)])
    def test_against_analytic_bump(self, rings_48, route, bound):
        # Exact cone integrals of the bump formula itself, no grid involved.
        # Measured at N = 48: 0.24% spectral, 1.6% rings.
        f, g = rings_48
        if route == "spectral":
            g = cone_forward(f, GEOM).values
        coords = [axis.coordinates() for axis in f.axes()]
        impl, ref = [], []
        for i, j, k in quadrature_vertices(f):
            impl.append(g[i, j, k])
            ref.append(
                oracles.cone_bump_integral([BUMP3], GEOM, coords[0][i], coords[1][j], coords[2][k])
            )
        impl, ref = np.asarray(impl), np.asarray(ref)
        assert np.linalg.norm(impl - ref) / np.linalg.norm(ref) <= bound

    def test_spec_example_vertex_is_zero(self, rings_48):
        # The cone from (0.2, 0.1, -0.8) at beta = pi/8 misses the bump: its
        # rings are wider than the support at every height, so both the
        # implementation and the oracle agree on (numerically) zero.
        f, g = rings_48
        coords = f.x_axis.coordinates()
        i = round((0.2 + 1) / f.x_axis.spacing)
        j = round((0.1 + 1) / f.y_axis.spacing)
        k = round((-0.8 + 1) / f.z_axis.spacing)
        ref = oracles.cone_surface_quadrature(f, GEOM, coords[i], coords[j], coords[k], 4)
        assert abs(ref) < 1e-6
        assert abs(g[i, j, k]) < 1e-6

    def test_edge_sample_blends_with_zero(self):
        # Same convention as the V-line: a ring point a fraction fx of a cell
        # beyond the last x column sees (1 - fx) times the value there.  With
        # dy = dz = dx/4 the 16-point ring of radius 1.25 dx at lag 5 touches
        # row 4 only at phi = 0 and phi = pi, and only phi = 0 reaches x = 5.
        geom = ConeGeometry(np.pi / 4)
        x_axis = AxisSpec(6, 0.0, 5.0)
        yz_axis = AxisSpec(9, 0.0, 2.0)
        values = np.zeros((6, 9, 9))
        values[5, 4, 7] = 3.0
        g = _cone_forward_rings(RealGrid3D(x_axis, yz_axis, yz_axis, values), geom).values
        dz = yz_axis.spacing
        fx = 5 * dz * geom.tan_beta - 1.0
        # g = (tan/cos) int (z - z_v) 2 pi mean_phi f dz, one lag of 5 dz.
        expected = 2 * np.pi * geom.tan_beta / geom.cos_beta * 5 * dz * dz * (1.0 - fx) * 3.0 / 16
        assert g[4, 4, 2] == pytest.approx(expected, rel=1e-12)

    def test_no_wrap_around_at_wide_angle(self):
        # At 3 pi/8 the rings reach 4.8 past a vertex, so a bump near the +x
        # face wraps onto the -x face unless the zero padding holds that reach
        # (pad 4 here; pad 2 reads 1.03 against the rings).  Measured: 0.030.
        geom = ConeGeometry(3 * np.pi / 8)
        f = bump_volume(24, BumpSpec((0.6, 0.0, 0.3), 0.3, 1.0))
        g = cone_forward(f, geom).values[:6]
        ref = _cone_forward_rings(f, geom).values[:6]
        assert np.linalg.norm(g - ref) <= 0.05 * np.linalg.norm(ref)

    def test_returns_owned_array(self):
        # A view of the padded array would keep pad^2 times the result alive.
        assert cone_forward(bump_volume(16), GEOM).values.base is None

    def test_linearity(self):
        rng = np.random.default_rng(8)
        ax = AxisSpec(12, -1.0, 1.0)
        v1, v2 = rng.normal(size=(2, 12, 12, 12))
        a, b = 0.6, -1.1
        combined = cone_forward(RealGrid3D(ax, ax, ax, a * v1 + b * v2), GEOM).values
        split = (
            a * cone_forward(RealGrid3D(ax, ax, ax, v1), GEOM).values
            + b * cone_forward(RealGrid3D(ax, ax, ax, v2), GEOM).values
        )
        np.testing.assert_allclose(combined, split, rtol=1e-12, atol=1e-13)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        ax = AxisSpec(20, -1.0, 1.0)
        values = np.zeros((20, 20, 20))
        values[8:12, 8:12, 6:12] = rng.uniform(0, 1, size=(4, 4, 6))
        f = RealGrid3D(ax, ax, ax, values)
        g = cone_forward(f, GEOM).values
        shifted = RealGrid3D(ax, ax, ax, np.roll(np.roll(values, 2, 0), -1, 1))
        g_shifted = cone_forward(shifted, GEOM).values
        np.testing.assert_allclose(
            g_shifted[6:16, 3:13], g[4:14, 4:14], rtol=1e-10, atol=1e-13
        )

    def test_rotation_covariance(self):
        f = bump_volume(24, BumpSpec((0.2, 0.1, 0.0), 0.25, 1.0))
        g = cone_forward(f, GEOM).values
        rotated = RealGrid3D(
            f.x_axis, f.y_axis, f.z_axis, np.ascontiguousarray(np.rot90(f.values, axes=(0, 1)))
        )
        g_rotated = cone_forward(rotated, GEOM).values
        np.testing.assert_allclose(g_rotated, np.rot90(g, axes=(0, 1)), rtol=1e-10, atol=1e-12)


class TestConeInvert:
    def test_zero(self):
        ax = AxisSpec(8, -1.0, 1.0)
        g = RealGrid3D(ax, ax, ax, np.zeros((8, 8, 8)))
        np.testing.assert_allclose(cone_invert(g, GEOM).values, 0.0, atol=1e-14)

    def test_roundtrip_small(self):
        f = bump_volume(32)
        rec = cone_invert(cone_forward(f, GEOM), GEOM, pad_factor=2)
        assert relative_l2(rec, f) <= 0.35

    def test_linearity(self):
        rng = np.random.default_rng(10)
        ax = AxisSpec(12, -1.0, 1.0)
        v1, v2 = rng.normal(size=(2, 12, 12, 12))
        a, b = 0.7, -1.3
        combined = cone_invert(RealGrid3D(ax, ax, ax, a * v1 + b * v2), GEOM).values
        split = (
            a * cone_invert(RealGrid3D(ax, ax, ax, v1), GEOM).values
            + b * cone_invert(RealGrid3D(ax, ax, ax, v2), GEOM).values
        )
        denom = np.linalg.norm(split)
        assert np.linalg.norm(combined - split) <= 1e-10 * denom

    def test_returns_owned_array(self):
        g = cone_forward(bump_volume(16), GEOM)
        assert cone_invert(g, GEOM, pad_factor=3).values.base is None

    def test_grid_too_small(self):
        ax = AxisSpec(3, -1.0, 1.0)
        g = RealGrid3D(ax, ax, AxisSpec(8, -1, 1), np.zeros((3, 3, 8)))
        with pytest.raises(ValueError):
            cone_invert(g, GEOM)

    @pytest.mark.parametrize("pad", [1, 2, 3])
    @pytest.mark.parametrize("n", [12, 13])
    def test_rotation_covariance(self, n, pad):
        # Odd and even padded sizes, with and without a Nyquist column: the
        # half spectrum kept along y must reproduce the full one along x.  The
        # fine z axis keeps the Nyquist bin (0, nyp/2) inside the u-taper.
        rng = np.random.default_rng(11)
        ax = AxisSpec(n, -1.0, 1.0)
        az = AxisSpec(n, -0.4, 0.4)
        v = rng.normal(size=(n, n, n))
        rec = cone_invert(RealGrid3D(ax, ax, az, v), GEOM, pad_factor=pad).values
        rotated = np.ascontiguousarray(np.rot90(v, axes=(0, 1)))
        rec_rotated = cone_invert(RealGrid3D(ax, ax, az, rotated), GEOM, pad_factor=pad).values
        expected = np.rot90(rec, axes=(0, 1))
        assert np.linalg.norm(rec_rotated - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("pad", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_matches_full_spectrum_reference(self, n, pad):
        # Pins the half spectrum, odd padded sizes and the independence of the
        # result from where the zero padding sits; nz = 24 keeps many bins
        # inside the u-taper.
        rng = np.random.default_rng(12)
        ax = AxisSpec(n, -1.0, 1.0)
        az = AxisSpec(24, -1.0, 1.0)
        g = RealGrid3D(ax, ax, az, rng.normal(size=(n, n, 24)))
        expected = full_spectrum_invert(g, GEOM, pad)
        rec = cone_invert(g, GEOM, pad_factor=pad).values
        assert np.linalg.norm(rec - expected) <= 1e-12 * np.linalg.norm(expected)
