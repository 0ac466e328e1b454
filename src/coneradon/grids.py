"""Uniform-grid containers plus the sampling, differencing and cumulative
quadrature primitives shared by the 2D and 3D transforms.

Coordinate conventions: every axis is sampled uniformly from ``min`` to ``max``
inclusive, and grid values are indexed ``values[ix, iy]`` (2D) or
``values[ix, iy, iz]`` (3D).

Sampling convention: the spatial forward projectors evaluate the
zero-extended linear interpolant of the samples: f is taken as 0 beyond the
grid, and a point within one cell of an edge blends the edge sample with that
zero.  ``_ring_quadrature`` is the shift-and-add engine for it: points of a
ring are whole shifted copies of the array, never per-point gathers.  It runs
the cone transform's reference route (the 3D forward itself is spectral, see
``cone3d``) and, with a two-point ring, the tests' reference for the V-line
forward, which ``vline2d`` computes with its own lag loop over only the
vertex rows it returns.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AxisSpec",
    "ConeGeometry",
    "NonFiniteGridError",
    "RealGrid2D",
    "RealGrid3D",
    "cumint_from_top",
    "diff2_x_central",
    "diff_y_forward",
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


def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise NonFiniteGridError("grid values must all be finite")


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
        v = np.asarray(self.values, dtype=float)
        expected = (self.x_axis.n_samples, self.y_axis.n_samples)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match axes {expected}")
        _check_finite(v)
        self.values = v

    @property
    def x_coords(self) -> np.ndarray:
        return self.x_axis.coordinates()

    @property
    def y_coords(self) -> np.ndarray:
        return self.y_axis.coordinates()

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
        v = np.asarray(self.values, dtype=float)
        expected = (self.x_axis.n_samples, self.y_axis.n_samples, self.z_axis.n_samples)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match axes {expected}")
        _check_finite(v)
        self.values = v

    def axes(self) -> tuple[AxisSpec, AxisSpec, AxisSpec]:
        return (self.x_axis, self.y_axis, self.z_axis)


def diff_y_forward(grid: RealGrid2D) -> RealGrid2D:
    """First-order forward difference along y; the top row replicates the one below.

    The replication keeps the output on the input grid; data is expected to be
    (near-)zero at the top row because supports sit strictly inside the domain.
    """
    v = grid.values
    if grid.y_axis.n_samples < 2:
        raise ValueError("forward difference needs at least 2 samples along y")
    dy = grid.y_axis.spacing
    out = np.empty_like(v)
    out[:, :-1] = (v[:, 1:] - v[:, :-1]) / dy
    out[:, -1] = out[:, -2]
    return RealGrid2D(grid.x_axis, grid.y_axis, out)


def _diff2_central(values: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    # Central second difference along ``axis``; the two end entries replicate
    # the nearest interior value.
    v = np.moveaxis(values, axis, -1)
    d2 = np.empty_like(v)
    d2[..., 1:-1] = (v[..., :-2] - 2.0 * v[..., 1:-1] + v[..., 2:]) / (spacing * spacing)
    d2[..., 0] = d2[..., 1]
    d2[..., -1] = d2[..., -2]
    return np.moveaxis(d2, -1, axis)


def diff2_x_central(grid: RealGrid2D) -> RealGrid2D:
    """Central second difference along x; boundary columns replicate the adjacent
    interior value."""
    if grid.x_axis.n_samples < 3:
        raise ValueError("second difference needs at least 3 samples along x")
    out = _diff2_central(grid.values, grid.x_axis.spacing, axis=0)
    return RealGrid2D(grid.x_axis, grid.y_axis, out)


def _upper_trapezoid_weights(n: int, spacing: float) -> np.ndarray:
    """W[j, m] are trapezoid weights of the integral from node j to the top,
    over nodes m >= j (zero below the diagonal, zero-length row at the top)."""
    w = np.triu(np.ones((n, n)))
    w[np.diag_indices(n)] = 0.5
    w[:, -1] *= 0.5
    w[-1, -1] = 0.0
    return w * spacing


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
    seg = 0.5 * spacing * (p[..., :-1] + p[..., 1:])
    out = np.zeros(p.shape, dtype=np.result_type(p.dtype, float))
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return np.moveaxis(out, -1, axis)


def _accumulate_shift(out: np.ndarray, vol: np.ndarray, da: int, db: int, w: float):
    # out[i, j, :] += w * vol[i + da, j + db, :], zero outside the array.
    nx, ny = vol.shape[:2]
    i0, i1 = max(0, -da), min(nx, nx - da)
    j0, j1 = max(0, -db), min(ny, ny - db)
    if i0 >= i1 or j0 >= j1 or w == 0.0:
        return
    out[i0:i1, j0:j1] += w * vol[i0 + da : i1 + da, j0 + db : j1 + db]


def _ring_average(vol: np.ndarray, offsets_x: np.ndarray, offsets_y: np.ndarray) -> np.ndarray:
    """Mean over the ring points of vol linearly shifted by (ox, oy) index
    offsets, for every (x, y, level) at once; vol is zero outside its array."""
    acc = np.zeros_like(vol)
    for ox, oy in zip(offsets_x, offsets_y):
        a = math.floor(ox)
        b = math.floor(oy)
        fx = ox - a
        fy = oy - b
        _accumulate_shift(acc, vol, a, b, (1.0 - fx) * (1.0 - fy))
        _accumulate_shift(acc, vol, a + 1, b, fx * (1.0 - fy))
        _accumulate_shift(acc, vol, a, b + 1, (1.0 - fx) * fy)
        _accumulate_shift(acc, vol, a + 1, b + 1, fx * fy)
    return acc / len(offsets_x)


def _ring_quadrature(vol: np.ndarray, ring) -> np.ndarray:
    """Trapezoidal integral, from every level of ``vol`` (last axis) to the top,
    of ring averages that widen with the lag.

    ``ring(lag)`` returns ``(weight, offsets_x, offsets_y)`` for the ring sampled
    ``lag`` levels above the vertex level; lags of weight 0 are skipped.  The
    result is

        out[..., k] = sum_lag weight(lag) * T(k, lag) * ring average of vol[..., k + lag]

    with T the trapezoid weights of the integral from level k to the top: 1/2
    at both ends (so 0 for the empty integral at the top level), 1 between.
    """
    n = vol.shape[-1]
    out = np.zeros_like(vol)
    for lag in range(n):
        weight, ox, oy = ring(lag)
        if weight == 0.0:
            continue
        trap = np.ones(n - lag)
        trap[-1] = 0.5  # the top level is the upper endpoint of every integral
        if lag == 0:
            trap *= 0.5  # the vertex level is the lower endpoint
            trap[-1] = 0.0
        out[..., : n - lag] += weight * _ring_average(vol[..., lag:], ox, oy) * trap
    return out
