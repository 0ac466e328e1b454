import numpy as np
import pytest

from coneradon.cone3d import (
    KernelParams,
    _frequency_weights,
    cone_forward,
    cone_invert,
    dft2_slices,
    invert_frequency_profile,
    kernel_eval,
)
from coneradon.grids import AxisSpec, ConeGeometry, RealGrid3D
from coneradon.phantoms import BumpSpec, relative_l2, render_bumps_3d
from coneradon.specfun import bessel_j0

import oracles

GEOM = ConeGeometry(np.pi / 8)
BUMP3 = BumpSpec((0.2, 0.1, 0.0), 0.25, 1.0)


def bump_volume(n, spec=BUMP3):
    ax = AxisSpec(n, -1.0, 1.0)
    return render_bumps_3d([spec], ax, ax, ax)


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
        with pytest.raises(ValueError):
            invert_frequency_profile(np.zeros(4), AxisSpec(4, 0, 1), 1.0)
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

    def test_against_surface_quadrature(self):
        # Vertices chosen so every cone actually crosses the bump support.
        f = bump_volume(48)
        g = cone_forward(f, GEOM).values
        impl, ref = [], []
        for x0 in (0.0, 0.2, 0.4):
            for y0 in (-0.1, 0.1, 0.3):
                for z0 in (-0.6, -0.3, -0.1):
                    i = round((x0 + 1) / f.x_axis.spacing)
                    j = round((y0 + 1) / f.y_axis.spacing)
                    k = round((z0 + 1) / f.z_axis.spacing)
                    impl.append(g[i, j, k])
                    ref.append(
                        oracles.cone_surface_quadrature(
                            f, GEOM,
                            f.x_axis.coordinates()[i],
                            f.y_axis.coordinates()[j],
                            f.z_axis.coordinates()[k],
                            oversample=4,
                        )
                    )
        impl, ref = np.asarray(impl), np.asarray(ref)
        assert np.linalg.norm(impl - ref) / np.linalg.norm(ref) <= 0.01

    def test_spec_example_vertex_is_zero(self):
        # The cone from (0.2, 0.1, -0.8) at beta = pi/8 misses the bump: its
        # rings are wider than the support at every height, so both the
        # implementation and the oracle agree on (numerically) zero.
        f = bump_volume(48)
        g = cone_forward(f, GEOM).values
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
        g = cone_forward(RealGrid3D(x_axis, yz_axis, yz_axis, values), geom).values
        dz = yz_axis.spacing
        fx = 5 * dz * geom.tan_beta - 1.0
        # g = (tan/cos) int (z - z_v) 2 pi mean_phi f dz, one lag of 5 dz.
        expected = 2 * np.pi * geom.tan_beta / geom.cos_beta * 5 * dz * dz * (1.0 - fx) * 3.0 / 16
        assert g[4, 4, 2] == pytest.approx(expected, rel=1e-12)

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
