"""Uniform-grid containers plus the sampling, differencing and cumulative
quadrature primitives shared by the 2D and 3D transforms.

Coordinate conventions: every axis is sampled uniformly from ``min`` to ``max``
inclusive, and grid values are indexed ``values[ix, iy]`` (2D) or
``values[ix, iy, iz]`` (3D).

Sampling convention: the spatial forward projector (``vline2d``'s) evaluates
the zero-extended linear interpolant of the samples: f is taken as 0 beyond
the grid, and a point within one cell of an edge blends the edge sample with
that zero.  The test suite's ring route (``tests/oracles.py``) samples the same
way and is the reference for both forwards; the 3D forward itself is spectral
(see ``cone3d``).

Spectral convention: after a Fourier transform across the axis, every
spectral route is one lag-kernel correlation up the axis per frequency u,
whose taps carry the route's constant: the trapezoid-weighted kernels
(2 pi tan(beta)/cos(beta)) h J0(u h) for the cone forward's circles and
(2/cos(beta)) cos(u h) for the V-line's two rays (``_lag_taps``, whose
callers halve their input's top level for the trapezoid's top end), and for
the cone inversion J0(u h) composed with its z stencils and tail integral
(``cone3d._inversion_taps``), over lags from -2 up.  ``_lag_kernel_apply`` is
that engine, a correlation along the axis by FFT over a table of taps per u
whose lags may start below 0; ``cone3d`` runs its forward and inversion
through it, ``vline2d`` its spectral oracle.  Each of them zero-pads the
lateral axes at their far ends to ``_padded_sizes``, the one rule that keeps
the cones' and rays' reach from wrapping around the period, for a grid of
any rank.

Differencing convention: both inversions differentiate the data through
``_derivative``'s finite-difference stencils: a stencil on given offsets
inside, one-sided stencils on a given number of samples at the ends.
``vline2d`` takes the forward difference in y and the central second
difference in x; ``cone3d`` the central second difference along z at u = 0,
and elsewhere the central stencils of orders 3 and 1 inside its composed
taps, plus at the ends the exact difference to the one-sided stencils on
order + 3 samples that ``_derivative`` takes there (``_stencil_at``).
"""

import functools
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AxisSpec",
    "ConeGeometry",
    "NonFiniteGridError",
    "RealGrid2D",
    "RealGrid3D",
    "cumint_from_top",
]


class NonFiniteGridError(ValueError):
    """Raised when grid data contains NaN or infinite entries."""


@dataclass(frozen=True)
class AxisSpec:
    """Uniformly sampled axis: ``n_samples`` points from ``min`` to ``max`` inclusive."""

    n_samples: int
    min: float
    max: float

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError(f"axis needs at least 2 samples, got {self.n_samples}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("axis bounds must be finite")
        if not self.max > self.min:
            raise ValueError(f"axis requires max > min, got [{self.min}, {self.max}]")
        if not math.isfinite(self.max - self.min):
            raise ValueError(f"axis extent max - min overflows, got [{self.min}, {self.max}]")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.n_samples - 1)

    def coordinates(self) -> np.ndarray:
        """Coordinate of sample i is min + i * spacing."""
        return self.min + self.spacing * np.arange(self.n_samples)


@dataclass(frozen=True)
class ConeGeometry:
    """Fixed half-opening angle beta in (0, pi/2), axis vertical by construction.

    ``tan_beta`` and ``cos_beta`` are cached at construction since every ray and
    surface-element formula uses them.
    """

    beta: float
    tan_beta: float = field(init=False, repr=False)
    cos_beta: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.beta < math.pi / 2):
            raise ValueError(f"half-opening angle must lie in (0, pi/2), got {self.beta}")
        object.__setattr__(self, "tan_beta", math.tan(self.beta))
        object.__setattr__(self, "cos_beta", math.cos(self.beta))


def _grid_values(values, axes) -> np.ndarray:
    # The values of a grid on ``axes`` as floats: one per grid point, all finite.
    v = np.asarray(values, dtype=float)
    expected = tuple(a.n_samples for a in axes)
    if v.shape != expected:
        raise ValueError(f"values shape {v.shape} does not match axes {expected}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteGridError("grid values must all be finite")
    return v


@dataclass
class RealGrid2D:
    """Real-valued samples of a function on an axis-aligned rectangle.

    ``values[ix, iy]`` is the sample at ``(x_axis.coordinates()[ix],
    y_axis.coordinates()[iy])``.
    """

    x_axis: AxisSpec
    y_axis: AxisSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _grid_values(self.values, self.axes())

    def axes(self) -> tuple[AxisSpec, AxisSpec]:
        return (self.x_axis, self.y_axis)


@dataclass
class RealGrid3D:
    """Real-valued samples on an axis-aligned box, indexed ``values[ix, iy, iz]``."""

    x_axis: AxisSpec
    y_axis: AxisSpec
    z_axis: AxisSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _grid_values(self.values, self.axes())

    def axes(self) -> tuple[AxisSpec, AxisSpec, AxisSpec]:
        return (self.x_axis, self.y_axis, self.z_axis)


@functools.cache
def _fd_weights(offsets: tuple[int, ...], order: int) -> np.ndarray:
    # Stencil weights on integer offsets reproducing the given derivative order
    # exactly on polynomials of degree < len(offsets).  Solved once per stencil
    # and shared, so the array is read-only.
    o = np.asarray(offsets, dtype=float)
    n = len(o)
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    weights = np.linalg.solve(np.vander(o, n, increasing=True).T, rhs)
    weights.flags.writeable = False
    return weights


def _stencil_at(position: int, n: int, order: int, offsets: tuple[int, ...], n_edge: int) -> dict:
    # {sample: weight} of one stencil at one position of an n-sample axis:
    # the interior stencil where it fits, else the one-sided stencil on the
    # n_edge samples nearest the end, the high end's mirrored with sign
    # (-1)^order.
    lo, hi = -min(offsets), max(offsets)
    if lo <= position < n - hi:
        return {position + off: w for off, w in zip(offsets, _fd_weights(offsets, order))}
    if position < lo:
        w_lo = _fd_weights(tuple(range(-position, n_edge - position)), order)
        return dict(enumerate(w_lo))
    edge = n - 1 - position
    w_lo = _fd_weights(tuple(range(-edge, n_edge - edge)), order)
    sign = (-1) ** order
    return {n - n_edge + k: sign * w_lo[n_edge - 1 - k] for k in range(n_edge)}


# Elements per block of the stencil sweeps' products, of the lag-kernel FFTs
# (rows x transform length) and of cone_invert's per-frequency batches (rows
# x levels): 128 KiB per real, 256 KiB per complex temporary.
_BLOCK_ELEMENTS = 1 << 14


def _blocks(n: int, item_elements: int, budget: int | None = None) -> list[slice]:
    # Runs of range(n), in order, of about ``budget`` elements at
    # ``item_elements`` per item and at least one item each; the budget is
    # _BLOCK_ELEMENTS, read at call time, unless given.
    step = max(1, (_BLOCK_ELEMENTS if budget is None else budget) // item_elements)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _derivative(
    values: np.ndarray, spacing: float, order: int, offsets, n_edge: int, axis=-1
) -> np.ndarray:
    """Derivative of the given order along ``axis`` by finite differences.

    The stencil on the integer ``offsets`` applies wherever it fits.  A
    position too near an end for it takes a one-sided stencil on the
    ``n_edge`` samples nearest that end.  Each stencil is exact on
    polynomials of degree below its number of points.  A high-end stencil
    is the low-end one mirrored with sign (-1)^order (solving for it directly
    can be an ulp off).  So a symmetric ``offsets`` treats both ends alike,
    and the forward difference on (0, 1) with ``n_edge`` 2 and the second
    difference on (-1, 0, 1) with ``n_edge`` 3 repeat, bit for bit, the
    interior value next to each end they cannot reach.

    One multiply-add per offset inside and one per sample at each position
    the stencil reaches past an end, in sample order, then one division by
    spacing^order.
    """
    v = np.moveaxis(values, axis, -1)
    n = v.shape[-1]
    if n < n_edge:
        raise ValueError(f"need at least {n_edge} samples for an order-{order} stencil")
    offsets = tuple(offsets)
    out = np.zeros(v.shape, dtype=np.result_type(v.dtype, float))
    lo, hi = -min(offsets), max(offsets)

    def weights(position):
        return sorted(_stencil_at(position, n, order, offsets, n_edge).items())

    if lo < n - hi:  # inside: one multiply-add per offset
        width = n - hi - lo
        # Each product is taken in blocks of leading rows of about
        # _BLOCK_ELEMENTS, so its temporary stays that size whatever the array's.
        blocks = _blocks(v.shape[0], math.prod(v.shape[1:])) if v.ndim > 1 else [...]
        for j, w in weights(lo):
            if w != 0.0:
                for b in blocks:
                    out[b][..., lo : n - hi] += w * v[b][..., j : j + width]
    for position in [*range(min(lo, n)), *range(max(n - hi, lo), n)]:
        for j, w in weights(position):
            out[..., position : position + 1] += w * v[..., j : j + 1]
    out /= spacing**order
    return np.moveaxis(out, -1, axis)


def _pad_factor(value) -> int:
    # A zero-padding factor: an integer >= 1.
    try:
        pad = operator.index(value)
    except TypeError:
        raise TypeError(f"pad_factor must be an integer, got {value!r}") from None
    if pad < 1:
        raise ValueError(f"pad_factor must be >= 1, got {pad}")
    return pad


def cumint_from_top(profile, spacing: float, axis: int = -1):
    """Trapezoidal integral from each sample position to the top of the axis.

    output[k] approximates the integral of the profile from coordinate k to the
    last coordinate; output at the last position is exactly 0.  Works on real or
    complex arrays of any dimension (integrates along ``axis``).
    """
    p = np.asarray(profile)
    if p.shape[axis] < 2:
        raise ValueError("cumulative integral needs at least 2 samples")
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    p = np.moveaxis(p, axis, -1)
    # The trapezoid segments, then their sums from the top, in the output.
    out = np.empty(p.shape, dtype=np.result_type(p.dtype, float))
    seg = out[..., :-1]
    np.add(p[..., :-1], p[..., 1:], out=seg)
    seg *= 0.5 * spacing
    np.cumsum(seg[..., ::-1], axis=-1, out=seg[..., ::-1])
    out[..., -1] = 0
    return np.moveaxis(out, -1, axis)


def _smooth_size(n: int) -> int:
    # Smallest 5-smooth integer >= n, a fast FFT length: the least, over the
    # products 5^a 3^b up to the first past n, of that product times the
    # smallest power of two taking it to n, in O(log^2 n) steps.  A numpy
    # integer is taken as a Python one, so no product overflows.
    n = operator.index(n)
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < 5 * n:
        p35 = p5
        while p35 < 3 * n:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _physical_memory() -> int | None:
    # Bytes of physical memory, or None where the platform does not tell.
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _padded_sizes(grid, geometry: ConeGeometry, floor: int = 1) -> tuple[int, ...]:
    """Padded sizes of ``grid``'s lateral axes (every axis but the last), the
    one rule of every spectral route: per axis, the smallest 5-smooth size >=
    ``floor`` times the axis whose zero gap at the far end holds one cell plus
    the reach tan(beta) (extent of the last axis), so no cone's ring or
    V-line's ray wraps around the period.  It depends on the axes alone, so
    the routes stay linear.  Raises ``MemoryError``, before anything is
    allocated, where one complex padded spectrum, 16 prod(sizes) n_height
    bytes, exceeds the physical memory, as it does for beta near pi/2.
    """
    *lateral, height = grid.axes()
    reach = geometry.tan_beta * (height.max - height.min)
    sizes = tuple(
        _smooth_size(max(floor * a.n_samples, a.n_samples + 1 + math.ceil(reach / a.spacing)))
        for a in lateral
    )
    need = 16 * math.prod(sizes) * height.n_samples
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise MemoryError(
            f"padded sizes {sizes} over {height.n_samples} levels need {need:.3g} bytes, "
            f"more than the {memory:.3g} bytes of physical memory"
        )
    return sizes


def _lag_taps(us: np.ndarray, spacing: float, n_lags: int, kernel):
    """(inverse, taps): the lag-kernel table ``_lag_kernel_apply`` reads.

    With ``distinct, inverse = np.unique(us, return_inverse=True)``, row r of
    ``taps`` holds spacing * kernel(distinct[r], l spacing) for the lags l in
    0..n_lags-1, lag 0 at the trapezoid's half weight.  ``kernel(u, h)``
    returns the kernel values, the route's constant included, for a column of
    distinct u and a row of lags h.  The taps are evaluated a block of u's at
    a time, so their temporaries stay block-sized.
    """
    distinct, inverse = np.unique(us, return_inverse=True)
    h = spacing * np.arange(n_lags)
    taps = np.empty((distinct.size, n_lags))
    for block in _blocks(distinct.size, n_lags):
        taps[block] = spacing * kernel(distinct[block, None], h)
    taps[:, 0] *= 0.5  # trapezoid half weight at the vertex end
    return inverse, taps


def _lag_kernel_apply(profiles: np.ndarray, inverse: np.ndarray, taps: np.ndarray, b: int = 0):
    """In place, profiles[r, i] <- sum_k taps[inverse[r], k - i + b] profiles[r, k]
    for every row r: the correlation of each row with its row of a tap table
    whose column c holds lag c - b, for lags -b and up.

    The table is built over at least the profiles' levels plus b (more
    columns are ignored): ``_lag_taps``' trapezoid-weighted kernel taps for
    ``cone_forward`` (the cone kernel) and ``vline_spectral_oracle``
    (2/cos(beta) cos(u h)), whose callers halve their input's top level for
    the trapezoid's top end; ``cone3d``'s composed inversion taps, over lags
    -2 and up, for ``cone_invert``.  The correlation runs by FFT with one
    kernel spectrum per table row in inverse.min()..inverse.max() only.  Only
    the band of levels [lo, top] holding a nonzero input is transformed: the
    lags run -b..top, and an FFT of length >= 2 top - lo + 1 + b holds the
    band's correlation with them without wrap.  Levels above top + b are
    empty sums and are zeroed exactly, and so is the axis's last level, the
    empty integral at the top.
    """
    n = profiles.shape[-1]
    levels = np.flatnonzero(np.any(profiles, axis=0))
    if levels.size == 0:
        profiles[...] = 0.0
        return
    lo, top = int(levels[0]), int(levels[-1])
    m = _smooth_size(2 * top - lo + 1 + b)
    real = np.isrealobj(profiles)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    first = int(inverse.min())
    band = taps[first : int(inverse.max()) + 1, : top + 1 + b]
    rows = inverse - first
    # The spectra of a block of table rows at a time, so their FFT
    # temporaries stay block-sized; only the spectra are held for every row.
    spectra = np.empty((band.shape[0], m // 2 + 1 if real else m), dtype=complex)
    for block in _blocks(band.shape[0], m):
        fft(band[block], m, out=spectra[block])
    np.conjugate(spectra, out=spectra)
    # Output level i sits at index (i - b - lo) mod m of the transform:
    # levels below lo + b at its end, the others at its start.
    hi = min(top + b + 1, n)
    split = min(lo + b, hi)
    for block in _blocks(profiles.shape[0], m):
        product = fft(profiles[block, lo : top + 1], m)
        product *= spectra[rows[block]]
        correlation = ifft(product, m)
        profiles[block, :split] = correlation[:, m - lo - b : m - lo - b + split]
        profiles[block, split:hi] = correlation[:, : hi - split]
    profiles[:, min(hi, n - 1) :] = 0.0
