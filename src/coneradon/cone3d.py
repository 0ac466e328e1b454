"""The 3D conical Radon transform (vertical axis, fixed half-opening angle).

The forward transform and the inversion both work per transverse frequency
pair (lambda, mu) with u = tan(beta) sqrt(lambda^2 + mu^2), on the ky >= 0
half of a real 2D DFT of zero-padded data, and apply their z-kernels through
``grids._lag_kernel_apply`` with the J0 kernel: a z-correlation by FFT, the
engine the V-line's spectral oracle runs with the cosine kernel.  Both take
their 2D DFTs through one pruned pair, ``_half_spectrum`` and
``_from_half_spectrum``: the inversion transforms, inverts and synthesizes
only the ky band its frequency taper keeps, the forward only f's slab of
nonzero z levels and the levels below its top, and the inverse DFT's y step
runs on the returned x rows only.  The
inversion's z derivatives are ``grids._derivative``'s central stencils, the
helper the V-line inversion differences with too.

The forward transform is the kernel identity

    ghat(z_v) = int_{z_v}^{z_top} (2 pi tan(beta)/cos(beta)) (z - z_v)
                J0(u (z - z_v)) fhat(z) dz.

The test suite's ring route (``tests/oracles.py``) evaluates the same
cone-surface integral in space, circle by circle, as an independent reference.

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
    _derivative,
    _lag_kernel_apply,
    _pad_factor,
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

# The inversion's order-3 z stencil takes order + 3 samples at each end, so
# the z axis needs at least that many.
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


def _forward_pad(f: RealGrid3D, geometry: ConeGeometry) -> tuple[int, int]:
    # Padded (x, y) sizes.  The rings reach tan(beta) * (z extent) beyond a
    # vertex, so the zero gap of the periodic grid must hold that reach plus
    # one cell along x and y, or ring points wrap onto the far side of f.
    reach = geometry.tan_beta * (f.z_axis.max - f.z_axis.min)
    return tuple(
        _smooth_size(axis.n_samples + 1 + math.ceil(reach / axis.spacing))
        for axis in (f.x_axis, f.y_axis)
    )


def _half_spectrum(values: np.ndarray, nxp: int, nyp: int, n_ky: int) -> np.ndarray:
    # rfft2(values, s=(nxp, nyp), axes=(0, 1))[:, :n_ky]: the y transform
    # first, then the x transform on the kept ky columns only.
    return np.fft.fft(np.fft.rfft(values, nyp, axis=1)[:, :n_ky], nxp, axis=0)


def _from_half_spectrum(spectrum: np.ndarray, nx: int, ny: int, nyp: int) -> np.ndarray:
    # irfft2(spectrum zero-filled to nyp // 2 + 1 ky columns, s=(nxp, nyp),
    # axes=(0, 1))[:nx, :ny]: the x transform first, then the y transform on
    # the nx kept rows only (irfft zero-fills the missing columns).  The copy
    # lets the padded array go.
    rows = np.fft.ifft(spectrum, axis=0)[:nx]
    return np.fft.irfft(rows, nyp, axis=1)[:, :ny].copy()


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
    transformed, as in ``cone_invert``.  Only f's slab of levels holding a
    nonzero sample is transformed, and only the levels up to its top are
    synthesized: cones with a vertex above the slab see nothing, so g is
    exactly 0 there.
    """
    nx, ny, nz = f.values.shape
    levels = np.flatnonzero(np.any(f.values, axis=(0, 1)))
    if levels.size == 0:
        return RealGrid3D(f.x_axis, f.y_axis, f.z_axis, np.zeros((nx, ny, nz)))
    lo, top = int(levels[0]), int(levels[-1]) + 1  # f's nonzero levels: the slab [lo, top)
    nxp, nyp = _forward_pad(f, geometry)
    u_map = geometry.tan_beta * _half_spectrum_radial(f, nxp, nyp)

    spectrum = _half_spectrum(f.values[:, :, lo:top], nxp, nyp, nyp // 2 + 1)
    spectrum *= 2.0 * np.pi * geometry.tan_beta / geometry.cos_beta
    if top - lo < nz:  # rebinding frees the slab's spectrum before the engine runs
        spectrum = np.pad(spectrum, ((0, 0), (0, 0), (lo, nz - top)))
    _lag_kernel_apply(
        spectrum.reshape(-1, nz), u_map.ravel(), f.z_axis.spacing, bessel_j0, lag_factor=True
    )
    values = _from_half_spectrum(spectrum[:, :, :top], nx, ny, nyp)
    if top < nz:
        values = np.pad(values, ((0, 0), (0, 0), (0, nz - top)))
    return RealGrid3D(f.x_axis, f.y_axis, f.z_axis, values)


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


def _invert_profiles_batch(profiles: np.ndarray, us: np.ndarray, z_axis: AxisSpec) -> np.ndarray:
    # Batched inversion for strictly positive u, one profile G per row.
    # H^2 of the tail integral P(x) = int_x^top G is evaluated through the exact
    # relation P' = -G, i.e. H^2(P) = -G''' - 2 u^2 G' + u^4 P: differencing the
    # data G directly keeps the one-sided boundary errors from being amplified
    # by repeated division by dz^2.
    dz = z_axis.spacing
    u2 = (us * us)[:, None]
    tail = cumint_from_top(profiles, dz, axis=-1)
    d3 = _derivative(profiles, dz, 3, (-2, -1, 0, 1, 2), 6)
    d1 = _derivative(profiles, dz, 1, (-1, 0, 1), 4)
    q = -d3 - 2.0 * u2 * d1 + u2 * u2 * tail
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
        return _derivative(p, z_axis.spacing, 2, (-1, 0, 1), 5)
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


def _taper_band_fraction(g: RealGrid3D, geometry: ConeGeometry) -> float:
    # Radial share of the transverse band, out to the Nyquist circle, that
    # ``_frequency_weights`` lets through: the taper stops at
    # u = _TAPER_STOP * pi / dz, the circle sits at pi / max(dx, dy).
    dxy = max(g.x_axis.spacing, g.y_axis.spacing)
    return min(1.0, _TAPER_STOP * dxy / (geometry.tan_beta * g.z_axis.spacing))


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
    (lambda, mu).  The real inverse DFT fills in the rest.  Of that half, only
    the ky columns up to the last one with a nonzero weight are transformed,
    inverted and synthesized; the columns past it are zero.
    """
    pad_factor = _pad_factor(pad_factor)
    if g.x_axis.n_samples < 4 or g.y_axis.n_samples < 4:
        raise ValueError("inversion needs at least 4 samples along x and y")
    if g.z_axis.n_samples < _MIN_Z_SAMPLES:
        raise ValueError(f"inversion needs at least {_MIN_Z_SAMPLES} samples along z")

    nx, ny, nz = g.values.shape
    nxp, nyp = pad_factor * nx, pad_factor * ny
    radial = _half_spectrum_radial(g, nxp, nyp)
    u_map = geometry.tan_beta * radial
    weights = _frequency_weights(u_map, radial, g)
    # ky columns past the last one with a nonzero weight invert to zero, so
    # they are neither transformed nor synthesized.
    n_ky = np.flatnonzero(weights.any(axis=0))[-1] + 1
    radial, u_map, weights = radial[:, :n_ky], u_map[:, :n_ky], weights[:, :n_ky]

    # The per-frequency pipeline inverts G = cos(beta)/(2 pi tan(beta)) * ghat.
    normalized = _half_spectrum(g.values, nxp, nyp, n_ky)
    normalized *= geometry.cos_beta / (2.0 * np.pi * geometry.tan_beta)

    out = np.zeros_like(normalized)
    # The zero-frequency bin inverts as fhat = G'' (``invert_frequency_profile``).
    dc = _derivative(normalized[0, 0, :], g.z_axis.spacing, 2, (-1, 0, 1), 5)
    out[0, 0, :] = weights[0, 0] * dc

    kept = np.flatnonzero(((weights > 0.0) & (radial > 0.0)).ravel())
    # In order of u, so each block evaluates the J0 taps of its own u's only.
    kept = kept[np.argsort(u_map.ravel()[kept], kind="stable")]
    rows = max(1, _BLOCK_ELEMENTS // nz)
    flat_out = out.reshape(-1, nz)
    for start in range(0, kept.size, rows):
        idx = kept[start : start + rows]
        flat_out[idx] = weights.ravel()[idx, None] * _invert_profiles_batch(
            normalized.reshape(-1, nz)[idx], u_map.ravel()[idx], g.z_axis
        )

    values = _from_half_spectrum(out, nx, ny, nyp)
    return RealGrid3D(g.x_axis, g.y_axis, g.z_axis, values)
