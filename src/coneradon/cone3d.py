"""The 3D conical Radon transform (vertical axis, fixed half-opening angle).

The forward transform and the inversion both work per transverse frequency
pair (lambda, mu) with u = tan(beta) sqrt(lambda^2 + mu^2), on the ky >= 0
half of a real 2D DFT of zero-padded data, and apply their z-kernels through
``grids._lag_kernel_apply`` with the J0 kernel: a z-correlation by FFT, the
engine the V-line's spectral oracle runs with the cosine kernel.

The forward transform is the kernel identity

    ghat(z_v) = int_{z_v}^{z_top} (2 pi tan(beta)/cos(beta)) (z - z_v)
                J0(u (z - z_v)) fhat(z) dz.

``_cone_forward_rings`` evaluates the same cone-surface integral in space, by
splitting the surface element into circles of radius r = (z - z_v) tan(beta),

    g = (tan(beta)/cos(beta)) * int_{z_v}^{z_top} (z - z_v)
        * [2 pi * mean_phi f(x_v + r cos(phi), y_v + r sin(phi), z)] dz;

it is the independent reference route the tests compare against.

With G = (cos(beta)/(2 pi tan(beta))) * ghat, the reconstruction is

    fhat(t) = int_t^{z_top} J0(u(t - x)) * H^2[ int_x^{z_top} G dz_v ](x) dx,

where H(F) = F'' + u^2 F.  The zero-frequency bin degenerates to fhat = G''.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    _BLOCK_ELEMENTS,
    AxisSpec,
    ConeGeometry,
    RealGrid3D,
    _lag_kernel_apply,
    _ring_quadrature,
    _smooth_size,
    cumint_from_top,
)
from .specfun import FrequencyAxis, bessel_j0, frequency_axis

__all__ = [
    "KernelParams",
    "SpectralStack",
    "cone_forward",
    "cone_invert",
    "dft2_slices",
    "invert_frequency_profile",
    "kernel_eval",
]

_MIN_PHI_SAMPLES = 16
# The inversion's order-3 z stencil (``_derivative_last_axis``) needs order + 3
# samples.
_MIN_Z_SAMPLES = 6
# Transverse frequency rolloff for the inversion, in units of the z Nyquist
# frequency pi/dz: full weight while the J0 kernel oscillation is well resolved
# by the z grid, cosine-squared ramp to zero where it no longer is.  Chosen by
# a round-trip convergence study at N = 32/48/64.
_TAPER_START = 0.10
_TAPER_STOP = 0.25


@dataclass
class SpectralStack:
    """Per-frequency z-profiles: values[kx, ky, :] belongs to the frequency pair
    (x_freqs.frequencies[kx], y_freqs.frequencies[ky])."""

    x_freqs: FrequencyAxis
    y_freqs: FrequencyAxis
    z_axis: AxisSpec
    values: np.ndarray

    def __post_init__(self):
        expected = (self.x_freqs.n_samples, self.y_freqs.n_samples, self.z_axis.n_samples)
        if self.values.shape != expected:
            raise ValueError(f"stack shape {self.values.shape} does not match axes {expected}")


@dataclass(frozen=True)
class KernelParams:
    """Effective radial frequency u = tan(beta) sqrt(lambda^2 + mu^2) plus geometry."""

    u: float
    geometry: ConeGeometry

    def __post_init__(self):
        if not self.u >= 0:
            raise ValueError(f"u must be nonnegative, got {self.u}")


def kernel_eval(params: KernelParams, z, z_v):
    """Closed-form cone kernel (2 pi tan(beta)/cos(beta)) (z - z_v) J0(u (z - z_v))."""
    z = np.asarray(z, dtype=float)
    z_v = np.asarray(z_v, dtype=float)
    if np.any(z < z_v):
        raise ValueError("kernel is defined for z >= z_v only")
    geom = params.geometry
    h = z - z_v
    out = (2.0 * np.pi * geom.tan_beta / geom.cos_beta) * h * bessel_j0(params.u * h)
    return float(out) if np.ndim(out) == 0 else out


def _n_phi(radius: float, dx: float) -> int:
    # At least one sample per transverse grid cell along the circle, rounded up
    # to a multiple of 4 so 90-degree rotations map the sample set to itself.
    needed = max(_MIN_PHI_SAMPLES, math.ceil(2.0 * math.pi * radius / dx))
    return 4 * math.ceil(needed / 4)


def _forward_pad(f: RealGrid3D, geometry: ConeGeometry) -> tuple[int, int]:
    # Padded (x, y) sizes.  The rings reach tan(beta) * (z extent) beyond a
    # vertex, so the zero gap of the periodic grid must hold that reach plus
    # one cell along x and y, or ring points wrap onto the far side of f.
    reach = geometry.tan_beta * (f.z_axis.max - f.z_axis.min)
    return tuple(
        _smooth_size(axis.n_samples + 1 + math.ceil(reach / axis.spacing))
        for axis in (f.x_axis, f.y_axis)
    )


def _half_spectrum_radial(grid: RealGrid3D, nxp: int, nyp: int) -> np.ndarray:
    # sqrt(lambda^2 + mu^2) on the bins of rfft2(values, s=(nxp, nyp), axes=(0, 1)).
    lam = frequency_axis(nxp, grid.x_axis.spacing).frequencies
    mu = frequency_axis(nyp, grid.y_axis.spacing).frequencies[: nyp // 2 + 1]
    return np.sqrt(lam[:, None] ** 2 + mu[None, :] ** 2)


def cone_forward(f: RealGrid3D, geometry: ConeGeometry) -> RealGrid3D:
    """Conical transform of ``f`` with a vertex at every grid point.

    Spectral route: per transverse frequency pair the cone integral is
    ghat(z_v) = int (2 pi tan(beta)/cos(beta)) (z - z_v) J0(u (z - z_v))
    fhat(z) dz with u = tan(beta) sqrt(lambda^2 + mu^2), by the trapezoid rule
    over the grid levels above z_v, applied as a z-correlation by FFT
    (``grids._lag_kernel_apply``); the cone opens toward +z only.  f is
    zero-padded at the far x and y ends to fast FFT sizes that hold the widest
    ring (``_forward_pad``), and only the ky >= 0 half of its real 2D DFT is
    transformed, as in ``cone_invert``.
    """
    nx, ny, nz = f.values.shape
    nxp, nyp = _forward_pad(f, geometry)
    u_map = geometry.tan_beta * _half_spectrum_radial(f, nxp, nyp)

    spectrum = np.fft.rfft2(f.values, s=(nxp, nyp), axes=(0, 1))
    spectrum *= 2.0 * np.pi * geometry.tan_beta / geometry.cos_beta
    _lag_kernel_apply(
        spectrum.reshape(-1, nz), u_map.ravel(), f.z_axis.spacing, bessel_j0, lag_factor=True
    )
    # s= is needed when nyp is odd; the copy lets the padded array go.
    values = np.fft.irfft2(spectrum, s=(nxp, nyp), axes=(0, 1))[:nx, :ny].copy()
    return RealGrid3D(f.x_axis, f.y_axis, f.z_axis, values)


def _cone_forward_rings(f: RealGrid3D, geometry: ConeGeometry) -> RealGrid3D:
    """Spatial reference route for ``cone_forward``, kept for the tests.

    Trapezoid in z over the grid levels, uniform phi samples on each circle,
    zero-extended linear sampling in (x, y); the cone opens toward +z only.
    """
    t = geometry.tan_beta
    dz = f.z_axis.spacing
    dx = f.x_axis.spacing
    dy = f.y_axis.spacing
    const = 2.0 * np.pi * t / geometry.cos_beta * dz * dz

    def circle(lag: int):
        r = lag * dz * t
        nphi = _n_phi(r, dx)
        # One quadrant of angles; the other three by exact 90-degree rotation.
        quarter = 2.0 * np.pi * np.arange(nphi // 4) / nphi
        c = r * np.cos(quarter)
        s = r * np.sin(quarter)
        ox = np.concatenate([c, -s, -c, s]) / dx
        oy = np.concatenate([s, c, -s, -c]) / dy
        return const * lag, ox, oy

    g = _ring_quadrature(f.values, circle)
    return RealGrid3D(f.x_axis, f.y_axis, f.z_axis, g)


def dft2_slices(g: RealGrid3D) -> SpectralStack:
    """Per-slice 2D DFT over (x, y) with the exp(-i lambda x) sign convention.

    Bins are scaled by dx*dy so they approximate the continuous transform (of
    the function shifted to the grid origin); real input gives an exactly
    conjugate-symmetric stack.
    """
    dx = g.x_axis.spacing
    dy = g.y_axis.spacing
    fx = frequency_axis(g.x_axis.n_samples, dx)
    fy = frequency_axis(g.y_axis.n_samples, dy)
    spectra = np.fft.fft2(g.values, axes=(0, 1))
    return SpectralStack(fx, fy, g.z_axis, (dx * dy) * spectra)


def _fd_weights(offsets: tuple[int, ...], order: int) -> np.ndarray:
    # Stencil weights on integer offsets reproducing the given derivative order
    # exactly on polynomials of degree < len(offsets).
    o = np.asarray(offsets, dtype=float)
    n = len(offsets)
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(np.vander(o, n, increasing=True).T, rhs)


def _derivative_last_axis(values: np.ndarray, spacing: float, order: int) -> np.ndarray:
    """Second-order-accurate derivative along the last axis: central stencils in
    the interior, skewed/one-sided stencils of the same formal order at the ends."""
    half = (order + 1) // 2
    offsets = tuple(range(-half, half + 1))
    weights = _fd_weights(offsets, order)
    n = values.shape[-1]
    n_side = order + 3  # one-sided points for O(spacing^2) consistency
    if n < n_side:
        raise ValueError(f"need at least {n_side} samples for order {order}")

    out = np.zeros(values.shape, dtype=values.dtype)
    for off, w in zip(offsets, weights):
        if w != 0.0:
            out[..., half : n - half] += w * values[..., half + off : n - half + off]

    for edge in range(half):
        lo = tuple(range(-edge, n_side - edge))
        w_lo = _fd_weights(lo, order)
        out[..., edge] = values[..., : n_side] @ w_lo
        hi = tuple(range(-(n_side - 1 - edge), edge + 1))
        w_hi = _fd_weights(hi, order)
        out[..., n - 1 - edge] = values[..., n - n_side :] @ w_hi
    return out / spacing**order


def _invert_profiles_batch(profiles: np.ndarray, us: np.ndarray, z_axis: AxisSpec) -> np.ndarray:
    # Batched inversion for strictly positive u, one profile G per row.
    # H^2 of the tail integral P(x) = int_x^top G is evaluated through the exact
    # relation P' = -G, i.e. H^2(P) = -G''' - 2 u^2 G' + u^4 P: differencing the
    # data G directly keeps the one-sided boundary errors from being amplified
    # by repeated division by dz^2.
    dz = z_axis.spacing
    u2 = (us * us)[:, None]
    p = profiles.astype(np.result_type(profiles.dtype, float), copy=False)
    tail = cumint_from_top(p, dz, axis=-1)
    q = -_derivative_last_axis(p, dz, 3) - 2.0 * u2 * _derivative_last_axis(p, dz, 1) + u2 * u2 * tail
    _lag_kernel_apply(q, us, dz, bessel_j0)
    return q


def invert_frequency_profile(profile, z_axis: AxisSpec, u: float):
    """Recover fhat(z) from one per-frequency projection profile G(z_v).

    For u > 0: fhat(t) = int_t^{z_top} J0(u(t-x)) H^2[int_x^{z_top} G](x) dx
    with trapezoidal integrals; H^2 of the tail integral is discretized through
    the exact relation (d/dx) int_x^{z_top} G = -G, so every finite difference
    acts on the data itself.  For u = 0 the kernel degenerates and fhat is the
    second derivative of G directly.  The z axis needs at least 6 samples, as
    the order-3 stencil does.
    """
    p = np.asarray(profile)
    if p.ndim != 1 or p.shape[0] != z_axis.n_samples:
        raise ValueError("profile length must match the z axis")
    if z_axis.n_samples < _MIN_Z_SAMPLES:
        raise ValueError(f"inversion needs at least {_MIN_Z_SAMPLES} z samples")
    if not np.all(np.isfinite(p)):
        raise ValueError("profile must be finite")
    if not u >= 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if u == 0.0:
        # Degenerate kernel: G(z_v) = int (z - z_v) fhat dz, so fhat = G''.
        p = p.astype(np.result_type(p.dtype, float), copy=False)
        return _derivative_last_axis(p, z_axis.spacing, 2)
    return _invert_profiles_batch(p[None, :], np.array([u]), z_axis)[0]


def _frequency_weights(u_map: np.ndarray, radial: np.ndarray, g: RealGrid3D) -> np.ndarray:
    """Per-bin inversion weights: zero beyond the transverse Nyquist circle and a
    cosine-squared rolloff in u where the z grid stops resolving the J0 kernel."""
    nyquist_xy = min(np.pi / g.x_axis.spacing, np.pi / g.y_axis.spacing)
    w = (radial <= nyquist_xy * (1.0 + 1e-12)).astype(float)
    z_nyquist = np.pi / g.z_axis.spacing
    u1 = _TAPER_START * z_nyquist
    u2 = _TAPER_STOP * z_nyquist
    ramp = (u_map > u1) & (u_map < u2)
    w[ramp] *= np.cos(0.5 * np.pi * (u_map[ramp] - u1) / (u2 - u1)) ** 2
    w[u_map >= u2] = 0.0
    return w


def cone_invert(g: RealGrid3D, geometry: ConeGeometry, pad_factor: int = 2) -> RealGrid3D:
    """Theorem-2 inversion: 2D DFT per slice, per-frequency 1D inversion, inverse DFT.

    g is zero-padded at the far x and y ends to ``pad_factor`` times its size
    to suppress periodic wrap of the vertex data.  Where the zeros sit does not
    matter: the inversion is a per-frequency filter, so it commutes with
    circular shifts.  Frequency pairs beyond the transverse Nyquist circle carry
    only aliasing noise and are zeroed; pairs whose Bessel kernel oscillates too
    fast for the z grid are tapered out (see ``_frequency_weights``).

    Only the ky >= 0 half of the spectrum is inverted (a real 2D DFT): g is
    real, and the per-frequency inversion depends on sqrt(lambda^2 + mu^2)
    only, so the result at (-lambda, -mu) is the conjugate of the one at
    (lambda, mu).  The real inverse DFT fills in the rest.
    """
    if g.x_axis.n_samples < 4 or g.y_axis.n_samples < 4:
        raise ValueError("inversion needs at least 4 samples along x and y")
    if g.z_axis.n_samples < _MIN_Z_SAMPLES:
        raise ValueError(f"inversion needs at least {_MIN_Z_SAMPLES} samples along z")
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")

    nx, ny, nz = g.values.shape
    nxp, nyp = pad_factor * nx, pad_factor * ny
    radial = _half_spectrum_radial(g, nxp, nyp)
    u_map = geometry.tan_beta * radial
    weights = _frequency_weights(u_map, radial, g)

    # The per-frequency pipeline inverts G = cos(beta)/(2 pi tan(beta)) * ghat.
    normalized = np.fft.rfft2(g.values, s=(nxp, nyp), axes=(0, 1))
    normalized *= geometry.cos_beta / (2.0 * np.pi * geometry.tan_beta)

    out = np.zeros_like(normalized)
    out[0, 0, :] = weights[0, 0] * invert_frequency_profile(normalized[0, 0, :], g.z_axis, 0.0)

    kept = np.flatnonzero(((weights > 0.0) & (radial > 0.0)).ravel())
    rows = max(1, _BLOCK_ELEMENTS // nz)
    flat_out = out.reshape(-1, nz)
    for start in range(0, kept.size, rows):
        idx = kept[start : start + rows]
        flat_out[idx] = weights.ravel()[idx, None] * _invert_profiles_batch(
            normalized.reshape(-1, nz)[idx], u_map.ravel()[idx], g.z_axis
        )

    # s= is needed when nyp is odd; the copy lets the padded array go.
    values = np.fft.irfft2(out, s=(nxp, nyp), axes=(0, 1))[:nx, :ny].copy()
    return RealGrid3D(g.x_axis, g.y_axis, g.z_axis, values)
