import math
import tracemalloc

import numpy as np
import pytest

from coneradon import cone3d, grids
from coneradon.cone3d import (
    _MIN_Z_SAMPLES,
    KernelParams,
    _frequency_weights,
    _from_half_spectrum,
    _half_spectrum,
    _half_spectrum_radial,
    _inversion_levels,
    cone_forward,
    cone_invert,
    dft2_slices,
    invert_frequency_profile,
    kernel_eval,
)
from coneradon.grids import (
    AxisSpec,
    ConeGeometry,
    RealGrid3D,
    _lag_kernel_apply,
    _lag_taps,
    _padded_sizes,
    _smooth_size,
)
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
    return f, oracles.cone_forward_rings(f, GEOM)


def full_spectrum_invert(g, geometry, pad):
    # Reference for cone_invert: centred zero padding to its padded sizes, the
    # full complex DFT stack of dft2_slices and one invert_frequency_profile
    # call per kept bin.
    nx, ny, nz = g.values.shape
    nxp, nyp = _padded_sizes(g, geometry, pad)
    left_x, left_y = (nxp - nx) // 2, (nyp - ny) // 2
    padded = np.zeros((nxp, nyp, nz))
    padded[left_x : left_x + nx, left_y : left_y + ny] = g.values
    dx, dy = g.x_axis.spacing, g.y_axis.spacing
    x_axis = AxisSpec(nxp, 0.0, (nxp - 1) * dx)
    y_axis = AxisSpec(nyp, 0.0, (nyp - 1) * dy)
    stack = dft2_slices(RealGrid3D(x_axis, y_axis, g.z_axis, padded))
    lam, mu = stack.x_freqs, stack.y_freqs
    radial = np.sqrt(lam[:, None] ** 2 + mu[None, :] ** 2)
    u_map = geometry.tan_beta * radial
    weights = _frequency_weights(u_map, radial, g.axes())
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


def dense_lag_apply(profiles, us, spacing, kernel):
    # Reference for _lag_kernel_apply: one dense trapezoid-weighted lag-kernel
    # matrix per row, kernel(u, h) on the matrix of lags h, applied row by row.
    n = profiles.shape[-1]
    h = spacing * (np.arange(n)[None, :] - np.arange(n)[:, None])
    weights = _upper_trapezoid_weights(n, spacing)
    out = np.empty_like(profiles)
    for b, u in enumerate(us):
        mat = weights * kernel(u, h)
        out[b] = mat @ profiles[b]
    return out


def full_axis_forward(f, geometry):
    # Reference for cone_forward's slab pruning: the full padded rfft2 over
    # every z level and one dense lag-kernel matrix per frequency bin.
    nx, ny, nz = f.values.shape
    nxp, nyp = _padded_sizes(f, geometry)
    u_map = geometry.tan_beta * _half_spectrum_radial(f.axes(), nxp, nyp)
    spectrum = np.fft.rfft2(f.values, s=(nxp, nyp), axes=(0, 1))
    profiles = dense_lag_apply(spectrum.reshape(-1, nz), u_map.ravel(), f.z_axis.spacing, h_j0)
    values = np.fft.irfft2(profiles.reshape(spectrum.shape), s=(nxp, nyp), axes=(0, 1))
    return 2.0 * np.pi * geometry.tan_beta / geometry.cos_beta * values[:nx, :ny]


def j0(u, h):
    return bessel_j0(u * h)


def h_j0(u, h):
    return h * bessel_j0(u * h)


def cos(u, h):
    return np.cos(u * h)


def h_cos(u, h):
    return h * np.cos(u * h)


# Kernels of (u, h): the cone inversion's J0(u h), the cone forward's lag
# times it (its constant left out), the V-line's cos(u h) and the lag times it.
KERNEL_CASES = [
    pytest.param(j0, id="j0"),
    pytest.param(h_j0, id="h-j0"),
    pytest.param(cos, id="cos"),
    pytest.param(h_cos, id="h-cos"),
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
    @pytest.mark.parametrize("kernel", KERNEL_CASES)
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("nz", [5, 12, 13, 48])
    def test_matches_dense_matrices(self, nz, dtype, kernel):
        rng = np.random.default_rng(nz)
        profiles, us = lag_apply_case(rng, nz, dtype)
        spacing = 2.0 / (nz - 1)
        expected = dense_lag_apply(profiles, us, spacing, kernel)
        out = profiles.copy()
        out[:, -1] *= 0.5  # the trapezoid half weight at the top end
        _lag_kernel_apply(out, *_lag_taps(us, spacing, nz, kernel))
        assert out.dtype == np.dtype(dtype)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kernel", KERNEL_CASES)
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exact_zeros_above_support(self, dtype, kernel):
        # Rows end at different levels; every level above the highest nonzero
        # one is an empty sum, and so is the top level.
        rng = np.random.default_rng(14)
        profiles, us = lag_apply_case(rng, 48, dtype)
        for b, top in enumerate(rng.integers(0, 30, size=len(profiles))):
            profiles[b, top + 1 :] = 0.0
        highest = np.flatnonzero(np.any(profiles != 0.0, axis=0))[-1]
        expected = dense_lag_apply(profiles, us, 0.05, kernel)
        profiles[:, -1] *= 0.5  # the trapezoid half weight at the top end
        _lag_kernel_apply(profiles, *_lag_taps(us, 0.05, 48, kernel))
        assert np.all(profiles[:, highest + 1 :] == 0.0)
        assert np.linalg.norm(profiles - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kernel", KERNEL_CASES)
    @pytest.mark.parametrize("dtype", [float, complex])
    # Bands [lo, top] of nonzero levels on a 48-level axis.  2 top - lo + 1 is
    # 81 for (8, 44) and (14, 47), and 80 is 5-smooth too, so an FFT one
    # level short would wrap; top = 47 is the axis's last level.
    @pytest.mark.parametrize("lo, top", [(8, 44), (1, 10), (20, 20), (0, 0), (14, 47), (47, 47)])
    def test_nonzero_band_matches_dense_matrices(self, dtype, kernel, lo, top):
        rng = np.random.default_rng(lo + 100 * top)
        profiles, us = lag_apply_case(rng, 48, dtype)
        profiles[:, :lo] = 0.0
        profiles[:, top + 1 :] = 0.0
        expected = dense_lag_apply(profiles, us, 0.05, kernel)
        profiles[:, -1] *= 0.5  # the trapezoid half weight at the top end
        _lag_kernel_apply(profiles, *_lag_taps(us, 0.05, 48, kernel))
        assert np.all(profiles[:, top + 1 :] == 0.0)
        assert np.all(profiles[:, -1] == 0.0)  # the empty integral at the top
        assert np.linalg.norm(profiles - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_zero_profiles_stay_zero(self):
        profiles = np.zeros((4, 12), dtype=complex)
        profiles[1, 3] = -0.0
        profiles[:, -1] *= 0.5  # the trapezoid half weight at the top end
        _lag_kernel_apply(profiles, *_lag_taps(np.arange(4.0), 0.1, 12, h_j0))
        np.testing.assert_array_equal(profiles, 0.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("b", [1, 2])
    # Bands touching level 0, the axis's last level, both and neither; 2 top -
    # lo + 1 + b is 82 or 83 at (8, 44), where an FFT of 81 would wrap.
    @pytest.mark.parametrize("lo, top", [(0, 47), (0, 0), (0, 10), (14, 47), (47, 47), (8, 44)])
    def test_lags_below_zero_match_dense_matrices(self, dtype, b, lo, top):
        # A table whose column c holds lag c - b: output level i is the sum
        # over k of taps[k - i + b] profiles[k], 0 above top + b and on the
        # last level.
        rng = np.random.default_rng(10 * b + lo + 100 * top)
        profiles, us = lag_apply_case(rng, 48, dtype)
        profiles[:, :lo] = 0.0
        profiles[:, top + 1 :] = 0.0
        distinct, inverse = np.unique(us, return_inverse=True)
        taps = rng.normal(size=(distinct.size, 48 + b))
        lag = np.arange(48)[None, :] - np.arange(48)[:, None] + b  # [i, k]: k - i + b
        expected = np.empty_like(profiles)
        for r, row in enumerate(inverse):
            mat = np.where(lag >= 0, taps[row][np.maximum(lag, 0)], 0.0)
            mat[-1] = 0.0  # the empty integral at the top
            expected[r] = mat @ profiles[r]
        _lag_kernel_apply(profiles, inverse, taps, b)
        assert np.all(profiles[:, top + b + 1 :] == 0.0)
        assert np.all(profiles[:, -1] == 0.0)
        assert np.linalg.norm(profiles - expected) <= 1e-13 * np.linalg.norm(expected)


def composed_bands(nz):
    # (lo, top) bands of nonzero levels on an nz-level axis: from level 0 and
    # from mid-axis, ending 7 and 6 levels below the last one (G's top six
    # levels zero), inside the top six levels and at the last level.
    tops = sorted({t for t in (nz - 8, nz - 7, nz - 6, nz - 4, nz - 2, nz - 1) if t >= 0})
    return [(lo, top) for top in tops for lo in sorted({0, min(nz // 2, top)})]


COMPOSED_CASES = [
    pytest.param(nz, lo, top, id=f"{nz}-{lo}-{top}")
    for nz in (6, 7, 12, 13, 48)
    for lo, top in composed_bands(nz)
]


class TestComposedInversion:
    """``cone3d._invert_bins``, one correlation with the composed taps plus
    exact end corrections, against the stagewise route of separate passes
    (``oracles.invert_profiles_stagewise``)."""

    @staticmethod
    def invert(profiles, us, dz):
        distinct, inverse = np.unique(us, return_inverse=True)
        n = profiles.shape[1]
        table, sums = cone3d._inversion_taps(distinct, dz, n)
        out = profiles.copy()
        cone3d._invert_bins(out, distinct, inverse, table, sums, dz)
        return out

    @pytest.mark.parametrize("nz, lo, top", COMPOSED_CASES)
    def test_matches_stagewise_route(self, nz, lo, top):
        # Complex profiles with duplicated u and u = 0 rows; u reaches 40,
        # far past the taper at the coarsest spacing.
        rng = np.random.default_rng(nz + 100 * lo + 10000 * top)
        profiles, us = lag_apply_case(rng, nz, complex)
        profiles[:, :lo] = 0.0
        profiles[:, top + 1 :] = 0.0
        dz = 2.0 / (nz - 1)
        expected = oracles.invert_profiles_stagewise(profiles, us, dz, *_lag_taps(us, dz, nz, j0))
        out = self.invert(profiles, us, dz)
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()
        # Exact zeros where the stagewise route has them: every level above
        # top + 2 where G's top six levels are zero, and the last level but
        # for the u = 0 rows' G''.
        np.testing.assert_array_equal(out == 0.0, expected == 0.0)
        assert np.all(out[us > 0.0, -1] == 0.0)
        if top + _MIN_Z_SAMPLES < nz:
            assert np.all(out[:, top + 3 :] == 0.0)

    @pytest.mark.parametrize("nz", [6, 7, 12, 13, 48])
    def test_zero_profiles_give_zeros(self, nz):
        profiles, us = lag_apply_case(np.random.default_rng(nz), nz, complex)
        out = self.invert(np.zeros_like(profiles), us, 2.0 / (nz - 1))
        assert out.tobytes() == bytes(out.nbytes)  # every value +0.0


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
        from coneradon.grids import _derivative, cumint_from_top

        u = 2.0
        residuals = {}
        for n in (128, 256):
            zax = AxisSpec(n, -1.0, 1.0)
            z = zax.coordinates()
            data = oracles.kernel_profile_quadrature(
                oracles.smooth_bump_1d, z, zax.max, u, bessel_j0, oversample=6
            )
            tail = cumint_from_top(data, zax.spacing)
            d2 = _derivative(tail, zax.spacing, 2, (-1, 0, 1), 3)  # as vline_invert's x
            lhs = d2 + u * u * tail  # H(tail)
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
        g = oracles.cone_forward_rings(RealGrid3D(x_axis, yz_axis, yz_axis, values), geom)
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
        ref = oracles.cone_forward_rings(f, geom)[:6]
        assert np.linalg.norm(g - ref) <= 0.05 * np.linalg.norm(ref)

    def test_returns_owned_array(self):
        # A view of the padded array would keep pad^2 times the result alive.
        assert cone_forward(bump_volume(16), GEOM).values.base is None

    # f's nonzero levels [lo, top] on a 16-level axis: inside, touching level
    # 0, touching level 15, and single levels.
    @pytest.mark.parametrize("lo, top", [(4, 10), (0, 6), (9, 15), (7, 7), (15, 15)])
    def test_slab_matches_full_axis_reference(self, lo, top):
        ax = AxisSpec(16, -1.0, 1.0)
        values = np.zeros((16, 16, 16))
        values[:, :, lo : top + 1] = np.random.default_rng(lo + 16 * top).normal(
            size=(16, 16, top + 1 - lo)
        )
        f = RealGrid3D(ax, ax, ax, values)
        g = cone_forward(f, GEOM).values
        ref = full_axis_forward(f, GEOM)
        assert np.all(g[:, :, top + 1 :] == 0.0)
        assert np.linalg.norm(g - ref) <= 1e-13 * np.linalg.norm(ref)
        assert g.base is None

    @pytest.mark.parametrize("shift", [0, -7, 7])
    def test_slab_against_rings(self, shift):
        # A bump on levels 7..16 of 24, moved along z to touch level 0
        # (shift -7) or level 23 (shift 7).  Measured: 0.022, 0.024, 0.022.
        ax = AxisSpec(24, -1.0, 1.0)
        bump = render_bumps_3d([BumpSpec((0.1, -0.1, 0.0), 0.4, 1.0)], ax, ax, ax).values
        f = RealGrid3D(ax, ax, ax, np.roll(bump, shift, axis=2))
        top = 16 + shift
        assert np.any(f.values[:, :, top]) and not np.any(f.values[:, :, top + 1 :])
        g = cone_forward(f, GEOM).values
        ref = oracles.cone_forward_rings(f, GEOM)
        assert np.all(g[:, :, top + 1 :] == 0.0)
        assert np.linalg.norm(g - ref) <= 0.05 * np.linalg.norm(ref)

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


class TestFrequencyWeights:
    """``cone3d._frequency_weights`` on lateral axes of unequal spacings: the
    transverse Nyquist circle sits at the coarser axis's pi / max(dx, dy)."""

    @pytest.mark.parametrize("dx, dy", [(0.1, 0.25), (0.25, 0.1)], ids=["dx<dy", "dx>dy"])
    def test_nyquist_circle_and_taper(self, dx, dy):
        # dz puts the taper's stop outside the circle and its start inside,
        # so the circle, not the taper, zeroes the bins between them.
        geometry = ConeGeometry(np.pi / 8)
        dz = 0.15 * max(dx, dy) / geometry.tan_beta
        axes = (AxisSpec(17, 0.0, 16 * dx), AxisSpec(13, 0.0, 12 * dy), AxisSpec(9, 0.0, 8 * dz))
        radial = _half_spectrum_radial(axes, 34, 26)
        u = geometry.tan_beta * radial
        w = _frequency_weights(u, radial, axes)
        nyquist = np.pi / max(dx, dy)
        start, stop = cone3d._TAPER_START * np.pi / dz, cone3d._TAPER_STOP * np.pi / dz
        inside = radial <= nyquist * (1.0 + 1e-12)
        beyond = ~inside & (u < stop)  # zeroed by the circle alone
        assert beyond.any() and np.all(w[beyond] == 0.0)
        full = inside & (u <= start)
        assert full.any() and np.all(w[full] == 1.0)
        ramp = inside & (u > start) & (u < stop)
        expected = np.cos(0.5 * np.pi * (u[ramp] - start) / (stop - start)) ** 2
        assert ramp.any()
        np.testing.assert_allclose(w[ramp], expected, rtol=1e-14, atol=0.0)
        assert (u >= stop).any() and np.all(w[u >= stop] == 0.0)


class TestHalfSpectrum:
    """The pruned 2D transform pair both cone transforms run through."""

    @staticmethod
    def cases():
        # Odd and even padded sizes along both axes; n_ky from one column
        # through the middle to the whole half spectrum.
        for n in (8, 9):
            for pad in (1, 2, 3):
                nxp, nyp = pad * n, pad * (n + 1)
                for n_ky in sorted({1, (nyp // 2 + 1) // 2, nyp // 2 + 1}):
                    yield pytest.param(n, pad, n_ky, id=f"{n}-{pad}-{n_ky}")

    @pytest.mark.parametrize("n, pad, n_ky", cases())
    def test_forward_matches_rfft2(self, n, pad, n_ky):
        values = np.random.default_rng(n_ky).normal(size=(n, n + 1, 3))
        nxp, nyp = pad * n, pad * (n + 1)
        expected = np.fft.rfft2(values, s=(nxp, nyp), axes=(0, 1))[:, :n_ky]
        spectrum = np.zeros((nxp, n_ky, 3), dtype=complex)
        _half_spectrum(values, spectrum, nyp)
        np.testing.assert_array_equal(spectrum, expected)

    @pytest.mark.parametrize("n, pad, n_ky", cases())
    def test_inverse_matches_cropped_irfft2(self, n, pad, n_ky):
        rng = np.random.default_rng(n_ky)
        nxp, nyp = pad * n, pad * (n + 1)
        spectrum = rng.normal(size=(nxp, n_ky, 3)) + 1j * rng.normal(size=(nxp, n_ky, 3))
        full = np.zeros((nxp, nyp // 2 + 1, 3), dtype=complex)
        full[:, :n_ky] = spectrum
        expected = np.fft.irfft2(full, s=(nxp, nyp), axes=(0, 1))[:n, : n + 1]
        values = np.empty((n, n + 1, 3))
        _from_half_spectrum(spectrum, values, nyp)
        np.testing.assert_array_equal(values, expected)

    @pytest.mark.parametrize("nxp, nyp", [(8, 10), (9, 11), (8, 9), (15, 12)])
    def test_radial_frequencies(self, nxp, nyp):
        # sqrt(lambda^2 + mu^2) on numpy's DFT frequencies: x over the full
        # transform, y over the ky >= 0 half, with one DC bin and the
        # Nyquist bin at pi / spacing where the padded size is even.
        dx, dy = 0.25, 0.1
        axes = AxisSpec(5, 0.0, 4 * dx), AxisSpec(6, 0.0, 5 * dy), AxisSpec(3, 0.0, 1.0)
        radial = _half_spectrum_radial(axes, nxp, nyp)
        lam = 2.0 * np.pi * np.fft.fftfreq(nxp, dx)
        mu = 2.0 * np.pi * np.fft.rfftfreq(nyp, dy)
        assert radial.shape == (nxp, nyp // 2 + 1)
        np.testing.assert_array_equal(radial, np.sqrt(lam[:, None] ** 2 + mu[None, :] ** 2))
        assert radial[0, 0] == 0.0 and np.count_nonzero(radial == 0.0) == 1
        assert radial[1, 0] == pytest.approx(2.0 * np.pi / (nxp * dx), rel=1e-15)
        np.testing.assert_array_equal(radial[1:, 0], radial[:0:-1, 0])
        top_x, top_y = 2.0 * np.pi * (nxp // 2) / (nxp * dx), 2.0 * np.pi * (nyp // 2) / (nyp * dy)
        assert radial[:, 0].max() == pytest.approx(top_x, rel=1e-15)
        assert radial[0, -1] == pytest.approx(top_y, rel=1e-15)
        if nxp % 2 == 0:
            assert radial[nxp // 2, 0] == pytest.approx(np.pi / dx, rel=1e-15)
        if nyp % 2 == 0:
            assert radial[0, -1] == pytest.approx(np.pi / dy, rel=1e-15)

    def test_blocks_of_z_levels_give_the_same_bits(self, monkeypatch):
        # One z level per block of the y transforms, against one block for all.
        rng = np.random.default_rng(3)
        values = rng.normal(size=(9, 8, 5))
        results = []
        for budget in (1, 1 << 16):
            monkeypatch.setattr(cone3d, "_Y_BLOCK_ELEMENTS", budget)
            spectrum = np.zeros((27, 5, 5), dtype=complex)
            _half_spectrum(values, spectrum, 24)
            out = np.empty((9, 8, 5))
            _from_half_spectrum(spectrum.copy(), out, 24)
            results.append((spectrum, out))
        for first, second in zip(*results):
            np.testing.assert_array_equal(first, second)

    def test_transforms_only_the_kept_rows_and_columns(self, monkeypatch):
        # The x transform runs in place on the n_ky kept columns, the y
        # transforms per block of z levels, and the inverse's y transform on
        # the nx returned rows, never on the padded ones.  A budget of two z
        # levels per block splits the 3 levels into blocks of 2 and 1.
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def spy(a, *args, _name=name, _real=getattr(np.fft, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        monkeypatch.setattr(cone3d, "_Y_BLOCK_ELEMENTS", 2 * 9 * 24)
        values = np.random.default_rng(0).normal(size=(9, 8, 3))
        spectrum = np.zeros((27, 5, 3), dtype=complex)
        _half_spectrum(values, spectrum, 24)
        _from_half_spectrum(spectrum, np.empty((9, 8, 3)), 24)
        assert calls == [
            ("rfft", (9, 8, 2)),
            ("rfft", (9, 8, 1)),
            ("fft", (27, 5, 3)),
            ("ifft", (27, 5, 3)),
            ("irfft", (9, 5, 2)),
            ("irfft", (9, 5, 1)),
        ]


def clear_plans():
    cone3d._plans.clear()


def traced_peak(fn):
    # Traced peak of one cold call: after a warm-up call, with the plans
    # cleared, so the call builds its plan as a first call does.
    fn()
    clear_plans()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Each 3D transform holds one padded half spectrum, transformed in place,
    plus the output grid and block temporaries.

    Every peak is a cold call's: it builds its plan, whose real tap table
    (one row of lags per distinct u) later calls with the same key reuse
    (``TestPlans``).  Allowances above spectrum + output, measured once on
    random volumes at N = 47 and 48: the inversion's peak sits at most 1.08
    MiB above (pad 3, padded size 144; 0.64-0.78 MiB at the default 72;
    its composed taps and the running sums of its J0 taps, over every
    column of the table, raised the pad-3 peaks from 0.88-0.94), the
    forward's 1.09-1.14 MiB at pi/8, mostly the lag-kernel engine's kernel
    spectra (one per distinct u) and the tap table.  Holding a separate
    spectrum per step (transform, per-bin results, inverse) put them 1.8-12
    MiB and 3.2 MiB above.  Above spectrum + output + kernel spectra, the
    forward's peak sits 0.18-0.38 MiB at N = 48 and beta pi/8 to pi/4, the
    tap table included (a warm call: below 0); evaluating every u's taps at
    once put it 1.06-2.26 MiB above.
    """

    INVERT_ALLOWANCE = 1.25 * 2**20
    FORWARD_ALLOWANCE = 2.5 * 2**20
    KERNEL_TABLE_ALLOWANCE = 0.5 * 2**20

    @staticmethod
    def volume(n):
        ax = AxisSpec(n, -1.0, 1.0)
        return RealGrid3D(ax, ax, ax, np.random.default_rng(n).normal(size=(n, n, n)))

    @pytest.mark.parametrize("n", [47, 48])
    def test_forward_peak(self, n):
        f = self.volume(n)
        nxp, nyp = _padded_sizes(f, GEOM)
        spectrum = 16 * nxp * (nyp // 2 + 1) * n
        peak = traced_peak(lambda: cone_forward(f, GEOM))
        assert peak <= spectrum + f.values.nbytes + self.FORWARD_ALLOWANCE

    @pytest.mark.parametrize("k", [8, 6, 4])
    def test_forward_peak_over_kernel_spectra(self, k):
        # The engine holds one kernel spectrum per distinct u, of the FFT
        # length 2 (n - 1) + 1 rounded up to a fast size for data on every
        # level, and evaluates the taps a block of u's at a time.
        n, geom = 48, ConeGeometry(np.pi / k)
        f = self.volume(n)
        nxp, nyp = _padded_sizes(f, geom)
        spectrum = 16 * nxp * (nyp // 2 + 1) * n
        n_u = np.unique(geom.tan_beta * _half_spectrum_radial(f.axes(), nxp, nyp)).size
        kernel_spectra = 16 * n_u * _smooth_size(2 * (n - 1) + 1)
        peak = traced_peak(lambda: cone_forward(f, geom))
        bound = spectrum + f.values.nbytes + kernel_spectra + self.KERNEL_TABLE_ALLOWANCE
        assert peak <= bound

    @staticmethod
    def invert_spectrum_bytes(g, pad):
        # The padded half spectrum cone_invert holds: 16 nxp n_ky L bytes.
        n_levels = _inversion_levels(g)
        nxp, nyp = _padded_sizes(g, GEOM, pad)
        radial = _half_spectrum_radial(g.axes(), nxp, nyp)
        weights = _frequency_weights(GEOM.tan_beta * radial, radial, g.axes())
        n_ky = np.flatnonzero(weights.any(axis=0))[-1] + 1
        return 16 * nxp * n_ky * n_levels

    @pytest.mark.parametrize("pad", [1, 2, 3])
    @pytest.mark.parametrize("n", [47, 48])
    def test_invert_peak(self, n, pad):
        g = self.volume(n)
        spectrum = self.invert_spectrum_bytes(g, pad)
        peak = traced_peak(lambda: cone_invert(g, GEOM, pad_factor=pad))
        assert peak <= spectrum + g.values.nbytes + self.INVERT_ALLOWANCE

    @pytest.mark.parametrize("pad", [2, 3])
    def test_invert_peak_zero_levels_on_top(self, pad):
        # g zero above level 23 of 48: the spectrum holds the L = 30 levels
        # the inversion computes, 0.77 MiB (pad 2) and 1.74 MiB (pad 3) less
        # than one of all 48.  The peak sat 0.69 and 0.90 MiB above this bound
        # less the allowance (measured once).
        n, top = 48, 23
        g = self.volume(n)
        g.values[:, :, top + 1 :] = 0.0
        assert _inversion_levels(g) == top + 1 + _MIN_Z_SAMPLES
        spectrum = self.invert_spectrum_bytes(g, pad)
        peak = traced_peak(lambda: cone_invert(g, GEOM, pad_factor=pad))
        assert peak <= spectrum + g.values.nbytes + self.INVERT_ALLOWANCE

    def test_refused_on_every_call(self, monkeypatch):
        # The plans cache kernel taps, never the memory check: with both
        # plans warm, a machine too small for the spectrum still refuses.
        f = bump_volume(12)
        g = cone_forward(f, GEOM)
        cone_invert(g, GEOM)
        monkeypatch.setattr(grids, "_physical_memory", lambda: 1024)
        with pytest.raises(MemoryError, match="physical memory"):
            cone_forward(f, GEOM)
        with pytest.raises(MemoryError, match="physical memory"):
            cone_invert(g, GEOM)


def slab_volume(n, lo, top, seed=0):
    # Random f on n^3 with nonzero levels [lo, top) only.
    ax = AxisSpec(n, -1.0, 1.0)
    values = np.zeros((n, n, n))
    values[:, :, lo:top] = np.random.default_rng(seed).normal(size=(n, n, top - lo))
    return RealGrid3D(ax, ax, ax, values)


def plan_arrays(plan):
    arrays = [plan.distinct, plan.inverse, plan.table, plan.sums, plan.scale, plan.kept]
    return [a for a in arrays if a is not None]


def held_bytes():
    return sum(plan.nbytes for plan in cone3d._plans.values())


def plan_builds():
    return sorted(build.__name__ for build, *_ in cone3d._plans)


class TestPlans:
    """Each 3D transform builds its data-independent part whole, once per key
    (axes, geometry, padded sizes), and reuses it for every data set: the
    distinct u, each bin's row among them and the real tap table over a
    call's lags, and for the inversion also the running sums of its J0 taps
    over every column of that table, its per-bin constants and kept bins.  A
    call that needs more lags than the cached plan holds builds it anew.  The
    cache keeps at most _PLAN_BYTES of plans."""

    @pytest.mark.parametrize("beta", [np.pi / 8, np.pi / 4], ids=["pi/8", "pi/4"])
    @pytest.mark.parametrize("pad", [1, 2, 3])
    def test_warm_calls_repeat_cold_ones(self, pad, beta):
        # f's slab moves between calls, so the calls need different lag
        # counts: the second one's plans grow their tables, and the third
        # one's hold more lags than it needs.
        geom = ConeGeometry(beta)
        volumes = [slab_volume(16, 3, 9, seed=1), slab_volume(16, 5, 14, seed=2)]
        cold = []
        for f in volumes:
            clear_plans()
            g = cone_forward(f, geom)
            clear_plans()
            cold.append((g.values.tobytes(), cone_invert(g, geom, pad).values.tobytes()))
        for _ in range(2):
            for f, (forward_bytes, invert_bytes) in zip(volumes, cold):
                g = cone_forward(f, geom)
                assert g.values.tobytes() == forward_bytes
                assert cone_invert(g, geom, pad).values.tobytes() == invert_bytes
        # One plan per transform served both data sets.
        assert plan_builds() == ["_forward_plan", "_inverse_plan"]

    def test_tables_grow_to_the_most_lags_a_call_needs(self):
        clear_plans()
        for lo, top, lags in [(2, 6, 7), (4, 11, 12), (2, 6, 12), (0, 16, 16)]:
            cone_forward(slab_volume(16, lo, top), GEOM)
            (plan,) = cone3d._plans.values()
            assert plan.table.shape == (plan.distinct.size, lags)

    def test_one_build_serves_data_below_and_at_the_top(self, monkeypatch):
        # The first g's top nonzero level is nz - 7: the inversion computes
        # every level, but G's top six levels are zero, so no top-end
        # correction runs.  The second g holds data on every level, and its
        # top-end correction reads the running J0 sums over every lag.  Both
        # need the same lags, so the plan the first call builds serves both.
        n, pad = 16, 2
        ax = AxisSpec(n, -1.0, 1.0)
        rng = np.random.default_rng(5)
        below = rng.normal(size=(n, n, n))
        below[:, :, n - _MIN_Z_SAMPLES :] = 0.0
        volumes = [RealGrid3D(ax, ax, ax, v) for v in (below, rng.normal(size=(n, n, n)))]
        assert [_inversion_levels(g) for g in volumes] == [n, n]
        cold = []
        for g in volumes:
            clear_plans()
            cold.append(cone_invert(g, GEOM, pad).values.tobytes())
        built = []
        inversion_taps = cone3d._inversion_taps

        def counted(distinct, dz, n_lags, *args):
            built.append(n_lags)
            return inversion_taps(distinct, dz, n_lags, *args)

        monkeypatch.setattr(cone3d, "_inversion_taps", counted)
        clear_plans()
        for g, expected in zip(volumes, cold):
            assert cone_invert(g, GEOM, pad).values.tobytes() == expected
        assert built == [n]

    def test_arrays_are_read_only(self):
        clear_plans()
        g = cone_forward(slab_volume(12, 2, 8), GEOM)
        cone_invert(g, GEOM)
        assert plan_builds() == ["_forward_plan", "_inverse_plan"]
        for plan in cone3d._plans.values():
            for array in plan_arrays(plan):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1.0

    def test_keys_never_shared(self):
        # Two geometries, two pads or two z spacings on the same lateral
        # axes: one entry each, and different taps, also where two
        # geometries pad to the same sizes (the inversion at pad 2).
        ax = AxisSpec(12, -1.0, 1.0)
        values = np.random.default_rng(3).normal(size=(12, 12, 12))
        f = RealGrid3D(ax, ax, ax, values)
        taller = RealGrid3D(ax, ax, AxisSpec(12, -1.0, 2.0), values)
        other = ConeGeometry(np.pi / 6)
        assert _padded_sizes(f, GEOM, 2) == _padded_sizes(f, other, 2)
        clear_plans()
        for grid, geom, pad in [(f, GEOM, 2), (f, other, 2), (f, GEOM, 3), (taller, GEOM, 2)]:
            cone_forward(grid, geom)
            cone_invert(grid, geom, pad)
        assert plan_builds() == 3 * ["_forward_plan"] + 4 * ["_inverse_plan"]
        for name in ("_forward_plan", "_inverse_plan"):
            taps = [p.table for (build, *_), p in cone3d._plans.items() if build.__name__ == name]
            for a, b in [(0, 1), (0, 2), (1, 2)]:
                assert taps[a].shape != taps[b].shape or np.any(taps[a] != taps[b])

    def test_cached_bytes_after_a_cone3d_rt_pass(self):
        # The benchmark's cone3d-rt pass: N = 48, pad 2, three angles.  The
        # cache holds one real tap per distinct u and lag, the inversion's
        # composed taps over _LAGS_BELOW lags below 0 too and its running J0
        # sums over the same columns, plus the index arrays: 8 bytes per
        # distinct u, per bin of the forward's inverse, and per bin of the
        # inversion's scale and its kept bins' inverse and order.  Kernel
        # spectra, complex and FFT-length long, would not fit.
        ax = AxisSpec(48, -1.0, 1.0)
        centre = BumpSpec((0.2, 0.1, 0.0), 0.25, 1.0)
        high = BumpSpec((-0.4, 0.35, 0.3), 0.3, 1.0)
        low = BumpSpec((0.45, -0.4, -0.35), 0.22, 1.0)
        clear_plans()
        bound = 0
        for k, scene in [(8, [centre, high]), (6, [centre, high, low]), (4, [centre])]:
            geom = ConeGeometry(np.pi / k)
            f = render_bumps_3d(scene, ax, ax, ax)
            g = cone_forward(f, geom)
            cone_invert(g, geom, 2)
            top = np.flatnonzero(np.any(f.values, axis=(0, 1)))[-1] + 1
            n_fwd, n_inv = min(top + 1, 48), _inversion_levels(g)
            sizes = _padded_sizes(f, geom)
            u_fwd = geom.tan_beta * _half_spectrum_radial(f.axes(), *sizes)
            bound += 8 * np.unique(u_fwd).size * (n_fwd + 1) + 8 * u_fwd.size
            sizes = _padded_sizes(g, geom, 2)
            radial = _half_spectrum_radial(g.axes(), *sizes)
            weights = _frequency_weights(geom.tan_beta * radial, radial, g.axes())
            n_ky = np.flatnonzero(weights.any(axis=0))[-1] + 1
            u_kept = geom.tan_beta * radial[:, :n_ky][weights[:, :n_ky] > 0]
            bound += 8 * np.unique(u_kept).size * (2 * (n_inv + cone3d._LAGS_BELOW) + 1)
            bound += 8 * (sizes[0] * n_ky + 2 * u_kept.size)
        assert plan_builds() == 3 * ["_forward_plan"] + 3 * ["_inverse_plan"]
        assert held_bytes() <= bound <= 1.25 * 2**20

    def test_cache_stays_within_its_byte_budget(self, monkeypatch):
        # Room for about one of these plans: each call keeps its own plan
        # and drops the others, and a plan over the budget is not kept.
        volumes = [slab_volume(16, 3, 9, seed=1), slab_volume(16, 0, 16, seed=2)]
        calls = [(f, ConeGeometry(beta)) for f in volumes for beta in (np.pi / 8, np.pi / 4)]
        clear_plans()
        expected = [cone_forward(f, geom).values.tobytes() for f, geom in calls]
        budget = max(plan.nbytes for plan in cone3d._plans.values())
        for limit in (budget, 0):
            clear_plans()
            monkeypatch.setattr(cone3d, "_PLAN_BYTES", limit)
            for (f, geom), values in zip(calls, expected):
                assert cone_forward(f, geom).values.tobytes() == values
                assert held_bytes() <= limit
                assert len(cone3d._plans) == (limit > 0)


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestPaddedSizes:
    """``grids._padded_sizes`` as both 3D transforms use it."""

    @staticmethod
    def grid(nx, ny, nz):
        # Zero values on axes of unequal spacings.
        axes = AxisSpec(nx, -1.0, 1.0), AxisSpec(ny, -1.0, 0.5), AxisSpec(nz, -1.0, 0.7)
        return RealGrid3D(*axes, np.zeros((nx, ny, nz)))

    @pytest.fixture
    def used_sizes(self, monkeypatch):
        # The sizes each transform call takes from _padded_sizes, in order.
        calls = []

        def spy(*args, **kwargs):
            calls.append(_padded_sizes(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(cone3d, "_padded_sizes", spy)
        return calls

    @pytest.mark.parametrize("beta", [np.pi / 12, np.pi / 4, 3 * np.pi / 8, 1.5])
    @pytest.mark.parametrize("floor", [1, 2, 3])
    def test_smallest_smooth_size_holding_floor_and_reach(self, beta, floor):
        geometry = ConeGeometry(beta)
        for nx, ny, nz in [(8, 9, 6), (13, 31, 24), (47, 48, 20)]:
            g = self.grid(nx, ny, nz)
            reach = geometry.tan_beta * (g.z_axis.max - g.z_axis.min)
            sizes = _padded_sizes(g, geometry, floor)
            for size, axis in zip(sizes, (g.x_axis, g.y_axis)):
                n = axis.n_samples
                bound = max(floor * n, n + 1 + math.ceil(reach / axis.spacing))
                assert size >= bound
                assert is_5_smooth(size)
                assert not any(is_5_smooth(m) for m in range(bound, size))

    @pytest.mark.parametrize("pad", [2, 3])
    @pytest.mark.parametrize("beta", [np.pi / 8, np.pi / 6, np.pi / 4])
    def test_pad_times_n_where_it_holds_the_reach(self, beta, pad):
        # 48^3 data at the angles and pads the benchmark inverts: pad * n is
        # 5-smooth and holds the reach over the whole z axis, so the
        # inversion keeps the padded size, and the bits, it had as pad * n.
        ax = AxisSpec(48, -1.0, 1.0)
        g = RealGrid3D(ax, ax, ax, np.zeros((48, 48, 48)))
        assert _padded_sizes(g, ConeGeometry(beta), pad) == (pad * 48, pad * 48)

    @pytest.mark.parametrize("beta", [np.pi / 12, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    @pytest.mark.parametrize("shape", [(12, 12, 12), (13, 9, 17)])
    def test_full_height_inversion_pads_as_the_forward(self, used_sizes, shape, beta):
        # g nonzero up to its top level: the inversion computes every level,
        # and at the default pad_factor it pads as the forward does.
        geometry = ConeGeometry(beta)
        g = self.grid(*shape)
        g.values[...] = np.random.default_rng(sum(shape)).normal(size=shape)
        cone_forward(g, geometry)
        cone_invert(g, geometry)
        assert used_sizes[0] == used_sizes[1]

    @pytest.mark.parametrize("beta", [np.pi / 12, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    @pytest.mark.parametrize("shape", [(12, 12, 12), (13, 9, 17)])
    def test_low_slab_inversion_pads_as_the_forward(self, used_sizes, shape, beta):
        # g nonzero only in its lowest quarter: the inversion computes fewer
        # levels, but its padded size follows the axes alone, as the forward's.
        geometry = ConeGeometry(beta)
        g = self.grid(*shape)
        g.values[:, :, : shape[2] // 4] = np.random.default_rng(sum(shape)).normal(
            size=(*shape[:2], shape[2] // 4)
        )
        assert _inversion_levels(g) < shape[2]
        cone_forward(g, geometry)
        cone_invert(g, geometry)
        assert used_sizes[0] == used_sizes[1]

    def test_wide_angle_pads_past_pad_times_n(self, used_sizes):
        # At 3pi/8 the cone over 48 levels reaches 113.5 cells: pad 2's 96
        # would wrap it, the rule pads to 180, the smallest 5-smooth size
        # >= 48 + 1 + 114.
        ax = AxisSpec(48, -1.0, 1.0)
        g = RealGrid3D(ax, ax, ax, np.random.default_rng(3).normal(size=(48, 48, 48)))
        cone_invert(g, ConeGeometry(3 * np.pi / 8), pad_factor=2)
        assert used_sizes == [(180, 180)]


class TestConeInvert:
    def test_zero(self):
        ax = AxisSpec(8, -1.0, 1.0)
        g = RealGrid3D(ax, ax, ax, np.zeros((8, 8, 8)))
        values = cone_invert(g, GEOM).values
        assert values.shape == (8, 8, 8)
        assert values.tobytes() == bytes(values.nbytes)  # every value +0.0

    SLAB_NZ = 20

    @staticmethod
    def slab_grid(n, top, nz):
        # Random g on n x n x nz, zero above level ``top``.  The z spacing
        # 0.125 is exact, so the axis extended upward keeps its bits.
        ax = AxisSpec(n, -1.0, 1.0)
        values = np.zeros((n, n, nz))
        values[:, :, : top + 1] = np.random.default_rng(13 + top).normal(size=(n, n, top + 1))
        return RealGrid3D(ax, ax, AxisSpec(nz, -1.0, -1.0 + 0.125 * (nz - 1)), values)

    @pytest.mark.parametrize("beta", [np.pi / 8, 3 * np.pi / 8], ids=["pi/8", "3pi/8"])
    @pytest.mark.parametrize("pad", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("top", [*range(SLAB_NZ - 1, SLAB_NZ - 9, -1), SLAB_NZ // 2, 0])
    def test_slab_rule(self, top, n, pad, beta, monkeypatch):
        # g's top nonzero level at the last 8 levels, mid-axis and 0.  Where
        # the axis holds the _MIN_Z_SAMPLES zero levels the top-end stencils
        # read, the result is exactly 0 above top + 2, and the bits do not
        # change when 8 more zero levels sit on top at the same padded size.
        # (The taller axis's cones reach further, so by itself it pads wider.)
        nz = self.SLAB_NZ
        geometry = ConeGeometry(beta)
        g = self.slab_grid(n, top, nz)
        assert _inversion_levels(g) == min(nz, top + 1 + _MIN_Z_SAMPLES)
        rec = cone_invert(g, geometry, pad_factor=pad).values
        if top + _MIN_Z_SAMPLES < nz:
            assert not rec[:, :, top + 3 :].any()
            tall = self.slab_grid(n, top, nz + 8)
            sizes = _padded_sizes(g, geometry, pad)
            monkeypatch.setattr(cone3d, "_padded_sizes", lambda *args: sizes)
            rec_tall = cone_invert(tall, geometry, pad_factor=pad).values
            assert rec_tall[:, :, :nz].tobytes() == rec.tobytes()
            assert not rec_tall[:, :, nz:].any()

    @pytest.mark.parametrize(
        "n, pad, beta",
        [
            pytest.param(8, 3, np.pi / 8, id="8-pad3-pi/8"),
            pytest.param(9, 2, 3 * np.pi / 8, id="9-pad2-3pi/8"),
            pytest.param(9, 1, np.pi / 8, id="9-pad1-pi/8"),
        ],
    )
    @pytest.mark.parametrize("top", [*range(SLAB_NZ - 1, SLAB_NZ - 9, -1), SLAB_NZ // 2, 0])
    def test_slab_rule_matches_full_spectrum_reference(self, top, n, pad, beta):
        g = self.slab_grid(n, top, self.SLAB_NZ)
        geometry = ConeGeometry(beta)
        expected = full_spectrum_invert(g, geometry, pad)
        rec = cone_invert(g, geometry, pad_factor=pad).values
        assert np.linalg.norm(rec - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("pad", [1, 2])
    def test_linearity_across_top_levels(self, pad):
        # g1 and g2 have different top nonzero levels, so the inversion
        # computes a different number of levels for each and for their sum;
        # its padded size must not follow them.
        ax = AxisSpec(32, -1.0, 1.0)
        geometry = ConeGeometry(np.pi / 6)
        g1, g2 = (
            cone_forward(render_bumps_3d([BumpSpec(c, 0.25, 1.0)], ax, ax, ax), geometry)
            for c in ((0.1, 0.0, -0.6), (-0.1, 0.1, 0.5))
        )
        assert _inversion_levels(g1) < _inversion_levels(g2)
        whole = RealGrid3D(ax, ax, ax, g1.values + g2.values)
        combined = cone_invert(whole, geometry, pad_factor=pad).values
        split = (
            cone_invert(g1, geometry, pad_factor=pad).values
            + cone_invert(g2, geometry, pad_factor=pad).values
        )
        assert np.abs(combined - split).max() <= 1e-10 * np.abs(combined).max()

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
        ax = AxisSpec(8, -1.0, 1.0)
        g = RealGrid3D(ax, ax, ax, np.zeros((8, 8, 8)))
        with pytest.raises(TypeError, match="pad_factor"):
            cone_invert(g, GEOM, pad_factor=2.0)

    @pytest.mark.parametrize("pad", [1, 2, 3])
    @pytest.mark.parametrize("n", [12, 13])
    def test_rotation_covariance(self, n, pad):
        # Odd and even padded sizes (15 at n = 12, pad 1 and 27 at n = 13,
        # pad 2; 16, 24, 36, 40 otherwise), with and without a Nyquist column:
        # the half spectrum kept along y must reproduce the full one along x.  The
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

    @pytest.mark.parametrize("beta", [np.pi / 8, np.pi / 4], ids=["pi/8", "pi/4"])
    @pytest.mark.parametrize("pad", [1, 2, 3])
    def test_anisotropic_axes(self, pad, beta):
        # nx != ny and dx, dy, dz all different: the full-spectrum reference,
        # and swapping x and y, axes and values, swaps the result's x and y.
        axes = AxisSpec(9, -1.0, 1.0), AxisSpec(12, -0.8, 1.4), AxisSpec(16, -1.0, 0.5)
        values = np.random.default_rng(14).normal(size=(9, 12, 16))
        g = RealGrid3D(*axes, values)
        geometry = ConeGeometry(beta)
        rec = cone_invert(g, geometry, pad_factor=pad).values
        expected = full_spectrum_invert(g, geometry, pad)
        assert np.linalg.norm(rec - expected) <= 1e-12 * np.linalg.norm(expected)
        transposed = np.ascontiguousarray(values.transpose(1, 0, 2))
        swapped = RealGrid3D(axes[1], axes[0], axes[2], transposed)
        rec_swapped = cone_invert(swapped, geometry, pad_factor=pad).values
        assert np.linalg.norm(rec_swapped - rec.transpose(1, 0, 2)) <= 1e-12 * np.linalg.norm(rec)

    @pytest.mark.parametrize(
        "n, pad, nz",
        [pytest.param(n, pad, 24, id=f"{n}-{pad}") for n in (8, 9, 10) for pad in (1, 2, 3)]
        + [pytest.param(24, 3, 48, id="24-3-nz48"), pytest.param(24, 3, 24, id="24-3-nz24")],
    )
    def test_matches_full_spectrum_reference(self, n, pad, nz):
        # Pins the half spectrum, odd padded sizes (15 at n = 9 and 10, pad 1;
        # 27 at n = 9, pad 3) and the independence of the result from where
        # the zero padding sits; nz = 24 keeps many bins inside the u-taper.
        # At n = 24, pad 3 the kept bins fill 7 blocks of the per-frequency
        # loop (nz = 48) or 2 blocks of a ky band cut to 22 of the 37 columns
        # (nz = 24); the smaller cases fit in one block and keep every column.
        rng = np.random.default_rng(12)
        ax = AxisSpec(n, -1.0, 1.0)
        az = AxisSpec(nz, -1.0, 1.0)
        g = RealGrid3D(ax, ax, az, rng.normal(size=(n, n, nz)))
        expected = full_spectrum_invert(g, GEOM, pad)
        rec = cone_invert(g, GEOM, pad_factor=pad).values
        assert np.linalg.norm(rec - expected) <= 1e-12 * np.linalg.norm(expected)
