"""The 3D conical Radon transform (vertical axis, fixed half-opening angle).

The forward transform and the inversion both work per transverse frequency
pair (lambda, mu) with u = tan(beta) sqrt(lambda^2 + mu^2), on the ky >= 0
half of a real 2D DFT of data zero-padded by ``grids._padded_sizes``, and
apply their z-kernels, each with its constant, through
``grids._lag_kernel_apply``: a z-correlation by FFT, with ``_cone_kernel`` for
the forward and, for the inversion, a composed kernel that also runs its z
derivatives and tail integral (``_inversion_taps``).  The V-line's spectral
oracle pads by the same rule and runs the same engine with its cosine kernel.

The per-frequency kernels depend on the axes, the angle and the padding
only, not on the data, so each transform keeps them in a plan (``_Plan``)
per key (axes, geometry, padded sizes): the distinct u of its bins, each
bin's row among them and a read-only real tap table over the most lags a
call has needed (the forward's by ``grids._lag_taps``, the inversion's by
``_inversion_taps`` over two more lags below 0), the inversion's also the
running sums of its J0 taps, its per-bin weights and kept bins.  A cold call
builds its plan; a later call with the same key reuses it, whatever its
data, and rebuilds only the table and sums, when it needs more lags than
they hold.  The cache (``_plan``) keeps the
latest keys' plans within _PLAN_BYTES in all, dropping the least recently
used first; a plan larger than that serves its own call only.  The padded
sizes, and with them the memory check, are taken on every call.

Each transform allocates one padded half spectrum and works on it in place,
through one pruned pair: ``_half_spectrum`` writes the y transforms into it
per block of z levels and runs the x transform on it through ``out=``; the
per-bin results overwrite it; ``_from_half_spectrum`` runs the inverse x
transform on it in place and the inverse y transform, per block of z levels
and on the returned x rows only, into the output grid.  So a call's traced
peak is about that one spectrum, 16 nxp n_ky nz bytes, plus the output grid
and fixed-size blocks, and for the forward the engine's kernel spectra (one
per distinct u), plus on a cold call the plan's tap table: at 48^3 and
pi/8 the inversion's cold peak on a random volume is 2.8 MiB at its default
padded size 72, 3.7 MiB at pad 2 and 6.6 MiB at pad 3.  The inversion transforms, inverts and
synthesizes only the ky band its frequency taper keeps, the forward only f's
slab of nonzero z levels and the levels below its top.

The inversion runs each block of kept bins through one correlation
(``_invert_bins``): its composed taps hold, per u, the J0 integral of the
central z stencils of orders 3 and 1 and of the trapezoid tail integral, so
the stencils, the tail integral and the J0 integral cost one engine call.
Those stencils are ``grids._derivative``'s interior ones; where it takes
one-sided stencils at the axis ends, the difference is added exactly, from
weights on G's 6 end levels (``_END_WEIGHTS``) and the plan's running sums
of the J0 taps: over lags 0 and 1 at the bottom, and over every lag at the
top, for data there only.

Both transforms skip exact zeros along z.  The forward leaves g exactly 0
above f's top nonzero level, since no cone with a vertex there meets f.  The
inversion reads g only at and above each height, so it computes only g's
levels up to its top nonzero level T plus the _MIN_Z_SAMPLES zero levels its
top-end stencils read, and its spectrum holds those levels only.  Its result
is the whole axis's, bit for bit: with those levels zero no top-end
correction runs.  Where the axis holds them, it is exactly 0 above T + 2.

The forward transform is the kernel identity

    ghat(z_v) = int_{z_v}^{z_top} (2 pi tan(beta)/cos(beta)) (z - z_v)
                J0(u (z - z_v)) fhat(z) dz.

The test suite's ring route (``tests/oracles.py``) evaluates the same
cone-surface integral in space, circle by circle, as an independent reference.

With G = (cos(beta)/(2 pi tan(beta))) * ghat, the reconstruction is

    fhat(t) = int_t^{z_top} J0(u(t - x)) * H^2[ int_x^{z_top} G dz_v ](x) dx,

where H(F) = F'' + u^2 F.  The zero-frequency bin degenerates to fhat = G''.
"""

from dataclasses import dataclass

import numpy as np

from .grids import (
    AxisSpec,
    ConeGeometry,
    RealGrid3D,
    _blocks,
    _derivative,
    _fd_weights,
    _lag_kernel_apply,
    _lag_taps,
    _pad_factor,
    _padded_sizes,
    _stencil_at,
)
from .specfun import bessel_j0

__all__ = [
    "KernelParams",
    "SpectralStack",
    "cone_forward",
    "cone_invert",
    "dft2_slices",
    "invert_frequency_profile",
    "kernel_eval",
]

# The inversion's z stencils (order, offsets, n_edge): the central ones of
# orders 3 and 1 in H^2 of the tail integral and of order 2 at u = 0, each
# one-sided on order + 3 samples at the ends.
_D3 = (3, (-2, -1, 0, 1, 2), 6)
_D1 = (1, (-1, 0, 1), 4)
_D2 = (2, (-1, 0, 1), 5)
# The order-3 stencil's end samples, so the z axis needs at least that many.
_MIN_Z_SAMPLES = 6
# Lags below 0 of the composed inversion taps: the order-3 stencil's reach.
_LAGS_BELOW = 2
# Transverse frequency rolloff for the inversion, in units of the z Nyquist
# frequency pi/dz: full weight while the J0 kernel oscillation is well resolved
# by the z grid, cosine-squared ramp to zero where it no longer is.  Chosen by
# a round-trip convergence study at N = 32/48/64.
_TAPER_START = 0.10
_TAPER_STOP = 0.25
# Elements per block of z levels in the 2D transforms' y steps: ~1 MiB per
# complex temporary.
_Y_BLOCK_ELEMENTS = 1 << 16
# Bytes of arrays the plan cache keeps at most, over all its plans: room for
# both plans of a round trip at n = 120 and pi/8 (3.3 MiB and 1.1-4.1 MiB at
# pads 1-3; the inversion's 2.0-7.6 MiB for data reaching the top levels),
# and for a few dozen at 48^3.
_PLAN_BYTES = 1 << 24


@dataclass
class SpectralStack:
    """Per-frequency z-profiles: values[kx, ky, :] belongs to the frequency pair
    (x_freqs[kx], y_freqs[ky])."""

    x_freqs: np.ndarray
    y_freqs: np.ndarray
    z_axis: AxisSpec
    values: np.ndarray

    def __post_init__(self):
        expected = (self.x_freqs.size, self.y_freqs.size, self.z_axis.n_samples)
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


def _cone_kernel(geometry: ConeGeometry):
    # The cone kernel (2 pi tan(beta)/cos(beta)) h J0(u h) as a function of (u, h).
    scale = 2.0 * np.pi * geometry.tan_beta / geometry.cos_beta
    return lambda u, h: scale * h * bessel_j0(u * h)


def _j0_kernel(u, h):
    # The inversion's kernel J0(u h) as a function of (u, h).
    return bessel_j0(u * h)


def kernel_eval(params: KernelParams, z, z_v):
    """Closed-form cone kernel (2 pi tan(beta)/cos(beta)) (z - z_v) J0(u (z - z_v))."""
    z = np.asarray(z, dtype=float)
    z_v = np.asarray(z_v, dtype=float)
    if np.any(z < z_v):
        raise ValueError("kernel is defined for z >= z_v only")
    out = _cone_kernel(params.geometry)(params.u, z - z_v)
    return float(out) if np.ndim(out) == 0 else out


def _half_spectrum(values: np.ndarray, spectrum: np.ndarray, nyp: int):
    # In place, spectrum[...] = rfft2(values, s=(nxp, nyp), axes=(0, 1))[:, :n_ky]
    # for spectrum of shape (nxp, n_ky, nz), whose rows past values' must be
    # zero: the y transform per block of z levels into the leading rows, then
    # the x transform on the kept ky columns only.
    nx, n_ky = values.shape[0], spectrum.shape[1]
    for block in _blocks(values.shape[2], nx * nyp, _Y_BLOCK_ELEMENTS):
        spectrum[:nx, :, block] = np.fft.rfft(values[:, :, block], nyp, axis=1)[:, :n_ky]
    np.fft.fft(spectrum, axis=0, out=spectrum)


def _from_half_spectrum(spectrum: np.ndarray, out: np.ndarray, nyp: int):
    # out[...] = irfft2(spectrum zero-filled to nyp // 2 + 1 ky columns,
    # s=(nxp, nyp), axes=(0, 1))[:nx, :ny] for out of shape (nx, ny, nz): the
    # x transform in place on spectrum, then the y transform per block of z
    # levels on the nx kept rows only (irfft zero-fills the missing columns).
    nx, ny = out.shape[:2]
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    for block in _blocks(out.shape[2], nx * nyp, _Y_BLOCK_ELEMENTS):
        out[:, :, block] = np.fft.irfft(spectrum[:nx, :, block], nyp, axis=1)[:, :ny]


def _half_spectrum_radial(axes, nxp: int, nyp: int) -> np.ndarray:
    # sqrt(lambda^2 + mu^2) on the bins of rfft2(values, s=(nxp, nyp), axes=(0, 1))
    # for values on ``axes``, a grid's (x, y, z) axes.
    lam = 2.0 * np.pi * np.fft.fftfreq(nxp, axes[0].spacing)
    mu = 2.0 * np.pi * np.fft.rfftfreq(nyp, axes[1].spacing)
    return np.sqrt(lam[:, None] ** 2 + mu[None, :] ** 2)


def _read_only(*arrays):
    # A plan's arrays are shared by every call with its key.
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return arrays


class _Plan:
    """A 3D transform's data-independent part for one (axes, geometry, padded
    sizes): the distinct u of the bins its engine runs on, each bin's row
    ``inverse[bin]`` among them, and the tap table that ``tabulate(distinct,
    spacing, n_lags, n_sums)`` builds of them, over the lags -b..n_lags-1
    for the most lags n_lags a call has needed so far, with running sums of
    its kernel over the lags 0..n_sums-1 (the inversion's; the forward's
    are None).  The inversion's plan also holds the ky columns it inverts
    (n_ky), each bin's weight x G's constant (scale) and the bins of nonzero
    weight in order of u (kept); its ``inverse`` runs over the kept bins.
    Every array is read-only."""

    def __init__(self, us, spacing: float, tabulate, b=0, n_ky=0, scale=None, kept=None):
        self.distinct, self.inverse = _read_only(*np.unique(us, return_inverse=True))
        self.spacing, self.tabulate, self.b, self.n_ky = spacing, tabulate, b, n_ky
        self.scale, self.kept = _read_only(scale, kept)
        self.table, self.sums = np.empty((self.distinct.size, 0)), None

    @property
    def nbytes(self) -> int:
        arrays = (self.distinct, self.inverse, self.table, self.sums, self.scale, self.kept)
        return sum(a.nbytes for a in arrays if a is not None)


def _forward_plan(axes, geometry: ConeGeometry, sizes: tuple) -> _Plan:
    # cone_forward's plan on the padded half spectrum of sizes (nxp, nyp).
    u_map = geometry.tan_beta * _half_spectrum_radial(axes, *sizes)
    kernel = _cone_kernel(geometry)

    def tabulate(distinct, dz, n_lags, n_sums):  # no running sums
        return _lag_taps(distinct, dz, n_lags, kernel)[1], None

    return _Plan(u_map.ravel(), axes[2].spacing, tabulate)


# The plans of the latest keys (build, axes, geometry, padded sizes), least
# recently used first.
_plans: dict = {}


def _plan(build, axes, geometry: ConeGeometry, sizes: tuple, n_lags: int, n_sums=0) -> _Plan:
    # The plan build(axes, geometry, sizes), with taps over at least n_lags
    # lags and running sums over at least n_sums: the cached one, or built
    # now.  The cache then drops its least recently used plans until all it
    # keeps fits in _PLAN_BYTES, so a plan larger than that serves its own
    # call only.
    key = (build, axes, geometry, sizes)
    plan = _plans.pop(key, None) or build(axes, geometry, sizes)
    held = 0 if plan.sums is None else plan.sums.shape[1]
    if plan.table.shape[1] < n_lags + plan.b or held < n_sums:
        # Both built anew, of one evaluation of the kernel.
        tables = plan.tabulate(plan.distinct, plan.spacing, n_lags, n_sums)
        plan.table, plan.sums = _read_only(*tables)
    _plans[key] = plan
    while sum(p.nbytes for p in _plans.values()) > _PLAN_BYTES:
        del _plans[next(iter(_plans))]
    return plan


def cone_forward(f: RealGrid3D, geometry: ConeGeometry) -> RealGrid3D:
    """Conical transform of ``f`` with a vertex at every grid point.

    Spectral route: per transverse frequency pair the cone integral is
    ghat(z_v) = int (2 pi tan(beta)/cos(beta)) (z - z_v) J0(u (z - z_v))
    fhat(z) dz with u = tan(beta) sqrt(lambda^2 + mu^2), by the trapezoid rule
    over the grid levels above z_v, applied as a z-correlation by FFT
    (``grids._lag_kernel_apply`` with ``_cone_kernel``, constant included);
    the cone opens toward +z only.  f is zero-padded at the far x and y ends
    to fast FFT sizes that hold the widest ring (``grids._padded_sizes``), and
    only the ky >= 0 half of its real 2D DFT is transformed, as in
    ``cone_invert``.  Only f's slab of levels holding a nonzero sample is
    transformed, and only the levels up to its top are synthesized: cones
    with a vertex above the slab see nothing, so g is exactly 0 there.
    """
    nx, ny, nz = f.values.shape
    levels = np.flatnonzero(np.any(f.values, axis=(0, 1)))
    if levels.size == 0:
        return RealGrid3D(f.x_axis, f.y_axis, f.z_axis, np.zeros((nx, ny, nz)))
    lo, top = int(levels[0]), int(levels[-1]) + 1  # f's nonzero levels: the slab [lo, top)
    nxp, nyp = _padded_sizes(f, geometry)

    # Levels 0..top of the padded half spectrum: the slab, the levels below it
    # whose cones reach it, and one zero level above it where the axis goes
    # on, so that the engine's top-end trapezoid half weight falls on a zero
    # as it would on the whole axis.
    n_levels = min(top + 1, nz)
    plan = _plan(_forward_plan, f.axes(), geometry, (nxp, nyp), n_levels)
    spectrum = np.zeros((nxp, nyp // 2 + 1, n_levels), dtype=complex)
    _half_spectrum(f.values[:, :, lo:top], spectrum[:, :, lo:top], nyp)
    spectrum[:, :, -1] *= 0.5  # the trapezoid half weight at the top end
    _lag_kernel_apply(spectrum.reshape(-1, n_levels), plan.inverse, plan.table)
    values = np.zeros((nx, ny, nz))
    _from_half_spectrum(spectrum[:, :, :top], values[:, :, :top], nyp)
    return RealGrid3D(f.x_axis, f.y_axis, f.z_axis, values)


def dft2_slices(g: RealGrid3D) -> SpectralStack:
    """Per-slice 2D DFT over (x, y) with the exp(-i lambda x) sign convention.

    Bins are scaled by dx*dy so they approximate the continuous transform (of
    the function shifted to the grid origin); real input gives an exactly
    conjugate-symmetric stack.  The frequencies are 2 pi ``np.fft.fftfreq``,
    so at an even size the Nyquist bin holds -pi/spacing.
    """
    dx = g.x_axis.spacing
    dy = g.y_axis.spacing
    fx = 2.0 * np.pi * np.fft.fftfreq(g.x_axis.n_samples, dx)
    fy = 2.0 * np.pi * np.fft.fftfreq(g.y_axis.n_samples, dy)
    spectra = np.fft.fft2(g.values, axes=(0, 1))
    return SpectralStack(fx, fy, g.z_axis, (dx * dy) * spectra)


def _inversion_taps(distinct: np.ndarray, dz: float, n_lags: int, n_sums: int):
    """(table, sums): the inversion's composed tap table and the running
    sums of its J0 taps over the lags 0..n_sums-1, n_sums <= n_lags + 2.

    Row r of the table holds the weight of G at lag l above the output level,
    for u = distinct[r] on z spacing dz, at column l + 2, for the lags
    l = -2..n_lags-1:

        kappa_u[l] = sum_o (-d3[o]/dz^3 - 2 u^2 d1[o]/dz) t_u[l - o]
                     + u^4 dz (sum_{k <= l} t_u[k] - t_u[l]/2),

    with t_u the trapezoid-weighted J0 taps (``grids._lag_taps``, lag 0
    halved, 0 below lag 0) and d3, d1 the interior stencils of orders 3 and
    1.  Correlated with G (``grids._lag_kernel_apply``), it gives the J0
    correlation of -G''' - 2 u^2 G' + u^4 int_x G, the stencils taken as
    interior ones on the zero-extended axis; ``_invert_bins`` corrects the
    ends.  Row r of sums holds sum_{k <= l} t_u[k] at column l: the
    corrections read lags 0 and 1 at the bottom, and for data at the top
    lags 0..n+1 on an n-level axis.  The J0 taps are evaluated once, over
    two more lags, a block of u's at a time, so their temporaries stay
    block-sized.
    """
    order3, offsets, _ = _D3
    order1, offsets1, _ = _D1
    d1 = dict(zip(offsets1, _fd_weights(offsets1, order1)))
    n_taps = n_lags + _LAGS_BELOW
    table = np.zeros((distinct.size, n_taps))
    sums = np.empty((distinct.size, n_sums))
    for block in _blocks(distinct.size, n_taps):
        u2 = distinct[block, None] ** 2
        taps = _lag_taps(distinct[block], dz, n_taps, _j0_kernel)[1]
        kappa = table[block]
        for o, w3 in zip(offsets, _fd_weights(offsets, order3)):
            w1 = d1.get(o, 0.0)
            if w3 or w1:
                coef = -w3 / dz**3 - (2.0 * w1 / dz) * u2
                kappa[:, _LAGS_BELOW + o :] += coef * taps[:, : n_lags - o]
        cumulative = np.cumsum(taps, axis=1)
        sums[block] = cumulative[:, :n_sums]
        tail = cumulative[:, :n_lags]
        tail -= 0.5 * taps[:, :n_lags]
        tail *= dz * u2 * u2
        kappa[:, _LAGS_BELOW:] += tail
    return table, sums


def _end_weights():
    """Where the stagewise route differs from ``_inversion_taps``' interior
    stencils, as weights on G's 6 end levels for z spacing 1, one set each
    for the stencils of orders 3 and 1; spacing dz scales them by 1/dz^3 and
    1/dz.  Stencils are taken relative to their end, so the weights are the
    same on every axis of at least 6 levels.

    - bottom (2 x 6 x 2): on levels 0..5, giving at levels 0 and 1 the
      derivative by ``grids._derivative``'s one-sided stencils less the
      interior one;
    - top (2 x 6 x 5): on levels n-6..n-1 of an n-level axis, giving for
      j = 0..4 the weight of the running J0 sum at lag n + 1 - j - i in level
      i's correction.  The errors e_p at the levels p = n-2..n+1 are the same
      differences, by the stencils ``grids._derivative`` takes there times
      the trapezoid weight (1, 1/2, 0, 0).  As t_u[k] is the sum at k less
      the sum at k - 1, e_p's J0 correlation puts e_p on the sum at lag
      p - i and -e_p on the one at lag p - 1 - i.
    """
    n = _MIN_Z_SAMPLES
    bottom, top = np.zeros((2, n, 2)), np.zeros((2, n, 5))
    for k, (order, offsets, n_edge) in enumerate([_D3, _D1]):
        interior = list(zip(offsets, _fd_weights(offsets, order)))
        for p in (0, 1):
            for j, w in _stencil_at(p, n, order, offsets, n_edge).items():
                bottom[k, j, p] += w
            for o, w in interior:
                if p + o >= 0:
                    bottom[k, p + o, p] -= w
        for p, weight in zip(range(n - 2, n + 2), (1.0, 0.5, 0.0, 0.0)):
            error = np.zeros(n)
            if p < n:
                for j, w in _stencil_at(p, n, order, offsets, n_edge).items():
                    error[j] += weight * w
            for o, w in interior:
                if p + o < n:
                    error[p + o] -= w
            top[k, :, n + 1 - p] += error
            top[k, :, n + 2 - p] -= error
    return _read_only(bottom, top)


_END_WEIGHTS = _end_weights()


def _invert_bins(profiles: np.ndarray, distinct: np.ndarray, inverse, table, sums, dz: float):
    """The inversion of one profile G per row of ``profiles``, of u
    distinct[inverse[row]] and composed taps table[inverse[row]]
    (``_inversion_taps``), on z spacing dz, computed in place and returned:

        fhat(t) = int_t^{z_top} J0(u(t - x)) H^2[P](x) dx,  P(x) = int_x^{z_top} G,

    with H^2(P) = -G''' - 2 u^2 G' + u^4 P through the exact relation P' =
    -G, so that every finite difference acts on the data.

    One correlation of G with the composed taps (``grids._lag_kernel_apply``
    over lags -2 and up) runs the stencils, the tail integral and the J0
    integral at once.  Where its zero-extended interior stencils differ from
    the one-sided ones at the axis ends, the difference is added exactly
    (``_END_WEIGHTS``), through the running J0 sums ``sums`` of
    ``_inversion_taps``: at the bottom always, from lags 0 and 1; at the top
    only where G's top 6 levels hold data, with the tail integral's share of
    the top level G[n-1], from lags 0..n+1.  At u = 0 the kernel
    degenerates: G(z_v) = int (z - z_v) fhat dz, so those rows are
    overwritten with fhat = G''.
    """
    n = profiles.shape[1]
    us = distinct[inverse]
    u2 = (us * us)[:, None]
    # -G''' - 2 u^2 G' scales the two orders' weights by -1/dz^3 and -2/dz.
    scales = np.array([-1.0 / dz**3, -2.0 / dz])[:, None, None]
    bottom, top = (weights * scales for weights in _END_WEIGHTS)
    low, high = profiles[:, :_MIN_Z_SAMPLES], profiles[:, n - _MIN_Z_SAMPLES :]
    low_errors = low @ bottom[0] + u2 * (low @ bottom[1])
    full_height = bool(high.any())
    if full_height:
        top_weights = high @ top[0] + u2 * (high @ top[1])
        top_weights[:, 2] -= (0.5 * dz) * u2[:, 0] ** 2 * high[:, -1]
    flat = np.flatnonzero(us == 0.0)
    if flat.size:
        second = _derivative(profiles[flat], dz, *_D2)

    _lag_kernel_apply(profiles, inverse, table, _LAGS_BELOW)
    taps = sums[inverse, :2]  # the J0 taps at lags 0 and 1
    taps[:, 1] -= taps[:, 0]
    profiles[:, 0] += taps[:, 0] * low_errors[:, 0] + taps[:, 1] * low_errors[:, 1]
    profiles[:, 1] += taps[:, 0] * low_errors[:, 1]
    if full_height:
        # Column j holds the running sum at lag n + 1 - j; level i reads
        # column i + j for its weight j, no column past lag 0.
        reversed_sums = sums[inverse, : n + 2][:, ::-1]
        for j, w in enumerate(top_weights.T):
            m = min(n, n + 2 - j)
            profiles[:, :m] += w[:, None] * reversed_sums[:, j : j + m]
        profiles[:, -1] = 0.0
    if flat.size:
        profiles[flat] = second
    return profiles


def invert_frequency_profile(profile, z_axis: AxisSpec, u: float):
    """Recover fhat(z) from one per-frequency projection profile G(z_v).

    For u > 0: fhat(t) = int_t^{z_top} J0(u(t-x)) H^2[int_x^{z_top} G](x) dx
    with trapezoidal integrals; H^2 of the tail integral is discretized through
    the exact relation (d/dx) int_x^{z_top} G = -G, so every finite difference
    acts on the data itself.  The stencils, the tail integral and the J0
    integral run as one correlation of G with a composed tap table
    (``_inversion_taps``), plus exact corrections at the axis ends.  For
    u = 0 the kernel degenerates and fhat is the second derivative of G
    directly.  This is the stage ``cone_invert`` runs on each block of kept
    bins (``_invert_bins``), here on one row.  The z axis needs at least 6
    samples, as the order-3 stencil does.
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
    us, dz = np.array([u]), z_axis.spacing
    table, sums = _inversion_taps(us, dz, p.size, p.size + _LAGS_BELOW)
    fhat = p[None, :].astype(np.result_type(p, float))
    return _invert_bins(fhat, us, np.zeros(1, dtype=np.intp), table, sums, dz)[0]


def _frequency_weights(u_map: np.ndarray, radial: np.ndarray, axes) -> np.ndarray:
    """Per-bin inversion weights on a grid's (x, y, z) ``axes``: zero beyond the
    transverse Nyquist circle and a cosine-squared rolloff in u where the z
    grid stops resolving the J0 kernel."""
    x_axis, y_axis, z_axis = axes
    nyquist_xy = min(np.pi / x_axis.spacing, np.pi / y_axis.spacing)
    w = (radial <= nyquist_xy * (1.0 + 1e-12)).astype(float)
    z_nyquist = np.pi / z_axis.spacing
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


def _inversion_levels(g: RealGrid3D) -> int:
    """Number L of g's lowest z levels that ``cone_invert`` computes.

    With T the top level holding a nonzero sample, L = min(nz, T + 1 +
    _MIN_Z_SAMPLES), and 0 for an all-zero g.  When L = T + 1 +
    _MIN_Z_SAMPLES the top-end z stencils of [0, L) read only zero levels, so
    each level up to T + 2 reads the same samples as on the whole axis, and
    levels above T + 2 are 0.
    """
    levels = np.flatnonzero(np.any(g.values, axis=(0, 1)))
    if levels.size == 0:
        return 0
    return min(g.z_axis.n_samples, int(levels[-1]) + 1 + _MIN_Z_SAMPLES)


def _inverse_plan(axes, geometry: ConeGeometry, sizes: tuple) -> _Plan:
    # cone_invert's plan on the padded half spectrum of sizes (nxp, nyp).  ky
    # columns past the last one with a nonzero weight invert to zero, so they
    # are neither transformed nor synthesized.  The kept bins go in order of
    # u, so each block of them transforms the taps of its own u's only.
    radial = _half_spectrum_radial(axes, *sizes)
    u_map = geometry.tan_beta * radial
    weights = _frequency_weights(u_map, radial, axes)
    n_ky = int(np.flatnonzero(weights.any(axis=0))[-1]) + 1
    w, us = weights[:, :n_ky].ravel(), u_map[:, :n_ky].ravel()
    kept = np.flatnonzero(w > 0.0)
    kept = kept[np.argsort(us[kept], kind="stable")]
    # The per-frequency pipeline inverts G = cos(beta)/(2 pi tan(beta)) * ghat.
    scale = w * (geometry.cos_beta / (2.0 * np.pi * geometry.tan_beta))
    return _Plan(us[kept], axes[2].spacing, _inversion_taps, _LAGS_BELOW, n_ky, scale, kept)


def cone_invert(g: RealGrid3D, geometry: ConeGeometry, pad_factor: int = 1) -> RealGrid3D:
    """Theorem-2 inversion: 2D DFT per slice, per-frequency 1D inversion, inverse DFT.

    g is zero-padded at the far x and y ends against periodic wrap, by the
    forward's rule (``grids._padded_sizes``), to at least ``pad_factor``
    times its size.  The padded size depends on g's axes only, not on which levels hold
    data, so the inversion is linear.  A per-frequency filter commutes with
    circular shifts, so where the zeros sit does not matter.  Frequency pairs
    beyond the transverse Nyquist circle (aliasing only) are zeroed, those
    whose J0 kernel outruns the z grid tapered out (``_frequency_weights``).

    Only the ky >= 0 half of the spectrum is inverted (a real 2D DFT): g is
    real, and the per-frequency inversion depends on sqrt(lambda^2 + mu^2)
    only, so the result at (-lambda, -mu) is the conjugate of the one at
    (lambda, mu).  The real inverse DFT fills in the rest.  Of that half, only
    the ky columns up to the last one with a nonzero weight are transformed,
    inverted and synthesized; the columns past it are zero.

    The reconstruction at height t reads g only at t and above.  So only g's
    levels up to its top nonzero level T, plus the _MIN_Z_SAMPLES zero levels
    the top-end z stencils read, are transformed, inverted and synthesized
    (``_inversion_levels``).  The result is the whole axis's, bit for bit;
    where the axis holds those zero levels it is exactly 0 above level T + 2.
    An all-zero g returns zeros at once.
    """
    pad_factor = _pad_factor(pad_factor)
    if g.x_axis.n_samples < 4 or g.y_axis.n_samples < 4:
        raise ValueError("inversion needs at least 4 samples along x and y")
    if g.z_axis.n_samples < _MIN_Z_SAMPLES:
        raise ValueError(f"inversion needs at least {_MIN_Z_SAMPLES} samples along z")

    nx, ny, nz = g.values.shape
    n_levels = _inversion_levels(g)
    if n_levels == 0:
        return RealGrid3D(g.x_axis, g.y_axis, g.z_axis, np.zeros((nx, ny, nz)))
    dz = g.z_axis.spacing
    nxp, nyp = _padded_sizes(g, geometry, pad_factor)
    # The end corrections read the running J0 sums over lags 0 and 1, and
    # for data in g's top 6 computed levels over all their lags.
    top_data = g.values[:, :, n_levels - _MIN_Z_SAMPLES : n_levels].any()
    n_sums = n_levels + _LAGS_BELOW if top_data else 2
    plan = _plan(_inverse_plan, g.axes(), geometry, (nxp, nyp), n_levels, n_sums)

    # The per-frequency pipeline writes each bin's result back into the
    # spectrum it read.  It is linear, so G's constant and each bin's taper
    # weight scale its input, in one pass that also zeroes the bins of weight 0.
    spectrum = np.zeros((nxp, plan.n_ky, n_levels), dtype=complex)
    _half_spectrum(g.values[:, :, :n_levels], spectrum, nyp)
    profiles = spectrum.reshape(-1, n_levels)
    profiles *= plan.scale[:, None]
    for block in _blocks(plan.kept.size, n_levels):
        idx = plan.kept[block]
        profiles[idx] = _invert_bins(
            profiles[idx], plan.distinct, plan.inverse[block], plan.table, plan.sums, dz
        )

    values = np.zeros((nx, ny, nz))
    _from_half_spectrum(spectrum, values[:, :, :n_levels], nyp)
    return RealGrid3D(g.x_axis, g.y_axis, g.z_axis, values)
