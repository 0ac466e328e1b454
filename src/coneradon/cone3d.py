"""The 3D conical Radon transform (vertical axis, fixed half-opening angle).

The forward transform integrates over the cone surface by splitting the
surface element into circles: for a vertex at height z_v, the circle at height
z has radius r = (z - z_v) tan(beta) and

    g = (tan(beta)/cos(beta)) * int_{z_v}^{z_top} (z - z_v)
        * [2 pi * mean_phi f(x_v + r cos(phi), y_v + r sin(phi), z)] dz.

Inversion works per transverse frequency pair (lambda, mu).  With
u = tan(beta) sqrt(lambda^2 + mu^2) and G = (cos(beta)/(2 pi tan(beta)))
* ghat, the reconstruction is

    fhat(t) = int_t^{z_top} J0(u(t - x)) * H^2[ int_x^{z_top} G dz_v ](x) dx,

where H(F) = F'' + u^2 F.  The zero-frequency bin degenerates to fhat = G''.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    AxisSpec,
    ConeGeometry,
    RealGrid3D,
    _ring_quadrature,
    _upper_trapezoid_weights,
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
_FREQ_CHUNK = 512
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


def cone_forward(f: RealGrid3D, geometry: ConeGeometry) -> RealGrid3D:
    """Conical transform of ``f`` with a vertex at every grid point.

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
    central = {
        1: ((-1, 0, 1), np.array([-0.5, 0.0, 0.5])),
        2: ((-1, 0, 1), np.array([1.0, -2.0, 1.0])),
        3: ((-2, -1, 0, 1, 2), np.array([-0.5, 1.0, 0.0, -1.0, 0.5])),
    }
    offsets, weights = central[order]
    half = -offsets[0]
    n = values.shape[-1]
    width = len(offsets)
    if n < max(width, order + 3):
        raise ValueError(f"need at least {max(width, order + 3)} samples for order {order}")

    out = np.zeros(values.shape, dtype=values.dtype)
    for off, w in zip(offsets, weights):
        if w != 0.0:
            out[..., half : n - half] += w * values[..., half + off : n - half + off]

    n_side = order + 3  # one-sided points for O(spacing^2) consistency
    for edge in range(half):
        lo = tuple(range(-edge, n_side - edge))
        w_lo = _fd_weights(lo, order)
        out[..., edge] = values[..., : n_side] @ w_lo
        hi = tuple(range(-(n_side - 1 - edge), edge + 1))
        w_hi = _fd_weights(hi, order)
        out[..., n - 1 - edge] = values[..., n - n_side :] @ w_hi
    return out / spacing**order


def _j0_lag_matrices(us: np.ndarray, n: int, spacing: float) -> np.ndarray:
    """Stacked matrices M[p, i, j] = w_ij * J0(u_p (x_j - t_i)) for j >= i, where
    w are trapezoid weights of the integral from t_i to the top."""
    rows = bessel_j0(us[:, None] * spacing * np.arange(n)[None, :])  # (p, n)
    lag = np.arange(n)[None, :] - np.arange(n)[:, None]
    weights = _upper_trapezoid_weights(n, spacing)
    return rows[:, np.clip(lag, 0, n - 1)] * weights


def _invert_profiles_batch(profiles: np.ndarray, us: np.ndarray, z_axis: AxisSpec) -> np.ndarray:
    # Batched inversion for strictly positive u, one profile G per row.
    # H^2 of the tail integral P(x) = int_x^top G is evaluated through the exact
    # relation P' = -G, i.e. H^2(P) = -G''' - 2 u^2 G' + u^4 P: differencing the
    # data G directly keeps the one-sided boundary errors from being amplified
    # by repeated division by dz^2.
    dz = z_axis.spacing
    n = z_axis.n_samples
    u2 = (us * us)[:, None]
    p = profiles.astype(np.result_type(profiles.dtype, float), copy=False)
    tail = cumint_from_top(p, dz, axis=-1)
    q = -_derivative_last_axis(p, dz, 3) - 2.0 * u2 * _derivative_last_axis(p, dz, 1) + u2 * u2 * tail
    mats = _j0_lag_matrices(us, n, dz)
    return np.einsum("pij,pj->pi", mats, q)


def invert_frequency_profile(profile, z_axis: AxisSpec, u: float):
    """Recover fhat(z) from one per-frequency projection profile G(z_v).

    For u > 0: fhat(t) = int_t^{z_top} J0(u(t-x)) H^2[int_x^{z_top} G](x) dx
    with trapezoidal integrals; H^2 of the tail integral is discretized through
    the exact relation (d/dx) int_x^{z_top} G = -G, so every finite difference
    acts on the data itself.  For u = 0 the kernel degenerates and fhat is the
    second derivative of G directly.
    """
    p = np.asarray(profile)
    if p.ndim != 1 or p.shape[0] != z_axis.n_samples:
        raise ValueError("profile length must match the z axis")
    if z_axis.n_samples < 5:
        raise ValueError("inversion needs at least 5 z samples")
    if not np.all(np.isfinite(p)):
        raise ValueError("profile must be finite")
    if not u >= 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if u == 0.0:
        # Degenerate kernel: G(z_v) = int (z - z_v) fhat dz, so fhat = G''.
        p = p.astype(np.result_type(p.dtype, float), copy=False)
        return _derivative_last_axis(p, z_axis.spacing, 2)
    return _invert_profiles_batch(p[None, :], np.array([u]), z_axis)[0]


def _pad_xy(g: RealGrid3D, pad_factor: int) -> tuple[RealGrid3D, tuple[int, int]]:
    if pad_factor == 1:
        return g, (0, 0)
    nx, ny, nz = g.values.shape
    nxp, nyp = pad_factor * nx, pad_factor * ny
    left_x = (nxp - nx) // 2
    left_y = (nyp - ny) // 2
    padded = np.zeros((nxp, nyp, nz))
    padded[left_x : left_x + nx, left_y : left_y + ny] = g.values
    dx, dy = g.x_axis.spacing, g.y_axis.spacing
    x_axis = AxisSpec(nxp, g.x_axis.min - left_x * dx, g.x_axis.min + (nxp - 1 - left_x) * dx)
    y_axis = AxisSpec(nyp, g.y_axis.min - left_y * dy, g.y_axis.min + (nyp - 1 - left_y) * dy)
    return RealGrid3D(x_axis, y_axis, g.z_axis, padded), (left_x, left_y)


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

    g is zero-padded in (x, y) by ``pad_factor`` to suppress periodic wrap of the
    vertex data.  Frequency pairs beyond the transverse Nyquist circle carry
    only aliasing noise and are zeroed; pairs whose Bessel kernel oscillates too
    fast for the z grid are tapered out (see ``_frequency_weights``).

    Only the ky >= 0 half of the spectrum is inverted: g is real, so the profile
    at (-lambda, -mu) is the complex conjugate of the one at (lambda, mu), and
    the per-frequency inversion depends on sqrt(lambda^2 + mu^2) only, so its
    result there is the conjugate too.  The real inverse DFT fills in the rest.
    """
    if g.x_axis.n_samples < 4 or g.y_axis.n_samples < 4:
        raise ValueError("inversion needs at least 4 samples along x and y")
    if g.z_axis.n_samples < 5:
        raise ValueError("inversion needs at least 5 samples along z")
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")

    padded, (left_x, left_y) = _pad_xy(g, pad_factor)
    nxp, nyp, nz = padded.values.shape
    half = nyp // 2 + 1
    stack = dft2_slices(padded)
    lam = stack.x_freqs.frequencies
    mu = stack.y_freqs.frequencies[:half]
    radial = np.sqrt(lam[:, None] ** 2 + mu[None, :] ** 2)
    u_map = geometry.tan_beta * radial
    weights = _frequency_weights(u_map, radial, g)

    # The per-frequency pipeline inverts G = cos(beta)/(2 pi tan(beta)) * ghat.
    normalized = (geometry.cos_beta / (2.0 * np.pi * geometry.tan_beta)) * stack.values[:, :half]

    out = np.zeros_like(normalized)
    out[0, 0, :] = weights[0, 0] * invert_frequency_profile(normalized[0, 0, :], g.z_axis, 0.0)

    kept = np.flatnonzero(((weights > 0.0) & (radial > 0.0)).ravel())
    flat_in = normalized.reshape(-1, nz)
    flat_out = out.reshape(-1, nz)
    flat_u = u_map.ravel()
    flat_w = weights.ravel()
    for start in range(0, kept.size, _FREQ_CHUNK):
        idx = kept[start : start + _FREQ_CHUNK]
        flat_out[idx] = flat_w[idx, None] * _invert_profiles_batch(
            flat_in[idx], flat_u[idx], stack.z_axis
        )

    # Undo the dx*dy scaling of dft2_slices; s= is needed when nyp is odd.
    out /= padded.x_axis.spacing * padded.y_axis.spacing
    values = np.fft.irfft2(out, s=(nxp, nyp), axes=(0, 1))
    nx, ny = g.x_axis.n_samples, g.y_axis.n_samples
    cropped = values[left_x : left_x + nx, left_y : left_y + ny]
    return RealGrid3D(g.x_axis, g.y_axis, g.z_axis, cropped)
