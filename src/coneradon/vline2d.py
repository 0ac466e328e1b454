"""The 2D V-line transform with a fixed half-opening angle and vertical axis.

A projection value g(x_v, y_v) integrates f along the two upward rays
x = x_v +/- (y - y_v) tan(beta), y >= y_v, with arclength element dy/cos(beta).
``vline_forward`` evaluates this by trapezoidal quadrature in y, sampling f
on the two-point ring x_v +/- (y - y_v) tan(beta) of the sampling engine the
cone transform also uses; ``vline_invert`` applies the exact reconstruction

    f(x, y) = -(cos(beta)/2) * (dg/dy + tan^2(beta) * int_y^{y_top} d2g/dx2 dt)

with the first-order forward difference in y, the central second difference in
x and trapezoidal cumulative integration.  ``vline_spectral_oracle`` is an
independent second forward route through the per-frequency relation
G_lambda(y_v) = int_{y_v}^{y_top} fhat_lambda(y) cos(lambda t (y - y_v)) dy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    AxisSpec,
    ConeGeometry,
    RealGrid2D,
    _ring_quadrature,
    _upper_trapezoid_weights,
    cumint_from_top,
    diff2_x_central,
    diff_y_forward,
)
from .specfun import frequency_axis

__all__ = [
    "VLineProjection",
    "fourier_relation_check",
    "vline_forward",
    "vline_invert",
    "vline_spectral_oracle",
]

_SPECTRAL_CHUNK = 32


@dataclass
class VLineProjection:
    """V-line projection data g(x_v, y_v) with the geometry that produced it."""

    grid: RealGrid2D
    geometry: ConeGeometry


def vline_forward(
    f: RealGrid2D,
    geometry: ConeGeometry,
    vertex_axes: tuple[AxisSpec, AxisSpec] | None = None,
) -> VLineProjection:
    """V-line transform of ``f`` at every vertex of the vertex grid.

    The vertex grid defaults to f's own grid.  An explicit ``vertex_axes`` must
    be f's x axis plus a y axis with f's spacing and f's top that extends f
    downward by whole rows (as ``coneradon roundtrip2d --vertex-ymin`` builds
    it); any other vertex grid raises ``ValueError``.  Integration is the
    trapezoid rule over quadrature nodes that subdivide the y rows, sampling
    the zero-extended linear interpolant of f.
    """
    vy_axis = f.y_axis
    n_below = 0
    if vertex_axes is not None:
        n_below = _rows_below(f, *vertex_axes)
        vy_axis = vertex_axes[1]

    t = geometry.tan_beta
    dyv = vy_axis.spacing
    # Quadrature nodes subdivide the vertex grid's y step so one step never
    # advances more than half a cell in x; for tan(beta) <= dx/(2 dy) this is
    # exactly one sample per y level.
    n_sub = max(1, math.ceil(2.0 * t * dyv / f.x_axis.spacing))
    h = dyv / n_sub

    rows = np.concatenate([np.zeros((f.x_axis.n_samples, n_below)), f.values], axis=1)
    nodes = _refine_rows(rows, n_sub)
    weight = 2.0 * h / geometry.cos_beta  # two rays; the ring averages them

    def two_rays(lag: int):
        d = t * lag * h / f.x_axis.spacing
        return weight, np.array([d, -d]), np.zeros(2)

    g = _ring_quadrature(nodes[:, None, :], two_rays)[:, 0, ::n_sub]
    return VLineProjection(RealGrid2D(f.x_axis, vy_axis, g), geometry)


def _rows_below(f: RealGrid2D, vx_axis: AxisSpec, vy_axis: AxisSpec) -> int:
    # Whole rows the vertex grid adds below f; ValueError for any other grid.
    y = f.y_axis
    tol = 1e-9 * y.spacing
    if (
        vx_axis != f.x_axis
        or abs(vy_axis.max - y.max) > tol
        or abs(vy_axis.spacing - y.spacing) > tol
        or vy_axis.n_samples < y.n_samples
    ):
        raise ValueError(
            "vertex grid must be f's x axis and f's y rows extended downward by whole rows"
        )
    return vy_axis.n_samples - y.n_samples


def _refine_rows(values: np.ndarray, n_sub: int) -> np.ndarray:
    # Linear interpolation in y onto n_sub nodes per row interval.
    s = np.arange(n_sub) / n_sub
    fine = (1.0 - s) * values[:, :-1, None] + s * values[:, 1:, None]
    return np.concatenate([fine.reshape(values.shape[0], -1), values[:, -1:]], axis=1)


def vline_invert(projection: VLineProjection) -> RealGrid2D:
    """Exact inversion of the V-line transform, discretized as in the forward
    experiments: forward difference in y, central second difference in x,
    trapezoidal integral from each height to the top of the grid."""
    g = projection.grid
    if g.x_axis.n_samples < 3:
        raise ValueError("inversion needs at least 3 samples along x")
    geom = projection.geometry
    dgdy = diff_y_forward(g).values
    d2gdx2 = diff2_x_central(g).values
    tail = cumint_from_top(d2gdx2, g.y_axis.spacing, axis=1)
    t2 = geom.tan_beta * geom.tan_beta
    f = -(geom.cos_beta / 2.0) * (dgdy + t2 * tail)
    return RealGrid2D(g.x_axis, g.y_axis, f)


def vline_spectral_oracle(
    f: RealGrid2D, geometry: ConeGeometry, pad_factor: int = 2
) -> VLineProjection:
    """Second, independent forward route through the x-frequency domain.

    f is zero-padded in x by ``pad_factor``, transformed per column, pushed
    through the cosine-kernel relation per frequency and transformed back.  The
    added zero margin on each side must be at least y_extent * tan(beta) so the
    projection data cannot wrap around the periodic boundary.
    """
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")
    nx = f.x_axis.n_samples
    ny = f.y_axis.n_samples
    dx = f.x_axis.spacing
    n_pad = pad_factor * nx
    pad_left = (n_pad - nx) // 2

    support = np.flatnonzero(np.abs(f.values).sum(axis=1))
    if support.size == 0:
        zero = RealGrid2D(f.x_axis, f.y_axis, np.zeros((nx, ny)))
        return VLineProjection(zero, geometry)
    margin_needed = (f.y_axis.max - f.y_axis.min) * geometry.tan_beta
    margin_left = (pad_left + support[0]) * dx
    margin_right = (n_pad - nx - pad_left + nx - 1 - support[-1]) * dx
    if min(margin_left, margin_right) < margin_needed - 1e-12:
        raise ValueError(
            f"insufficient zero padding: margin {min(margin_left, margin_right):.4g} "
            f"< required {margin_needed:.4g}; increase pad_factor"
        )

    padded = np.zeros((n_pad, ny))
    padded[pad_left : pad_left + nx] = f.values
    fhat = np.fft.fft(padded, axis=0)
    lam = frequency_axis(n_pad, dx).frequencies
    weights = _upper_trapezoid_weights(ny, f.y_axis.spacing)
    diffs = f.y_coords[None, :] - f.y_coords[:, None]  # y_m - y_j

    # g is real and the kernel is even in lambda, so bins k and n-k are
    # conjugate; compute the lower half and mirror.
    half = n_pad // 2
    ghat = np.empty((n_pad, ny), dtype=complex)
    t = geometry.tan_beta
    for start in range(0, half + 1, _SPECTRAL_CHUNK):
        idx = np.arange(start, min(start + _SPECTRAL_CHUNK, half + 1))
        kernels = np.cos(lam[idx, None, None] * t * diffs) * weights
        ghat[idx] = np.einsum("kjm,km->kj", kernels, fhat[idx])
    if half + 1 < n_pad:
        ghat[half + 1 :] = np.conj(ghat[1 : n_pad - half][::-1])
    ghat *= 2.0 / geometry.cos_beta

    g_pad = np.fft.ifft(ghat, axis=0).real
    g = g_pad[pad_left : pad_left + nx]
    return VLineProjection(RealGrid2D(f.x_axis, f.y_axis, g), geometry)


def fourier_relation_check(
    f: RealGrid2D, projection: VLineProjection, signal_fraction: float = 0.05
) -> float:
    """Residual of the per-frequency identity linking fhat and the projection.

    For each x-frequency bin the identity
    fhat_lambda(z) = -G'_lambda(z) + (lambda t)^2 int_z^{y_top} G_lambda
    (with G = ghat cos(beta)/2) is evaluated from the inputs.  The result is
    the maximum over bins of ||LHS - RHS||_2 / max(||LHS||_2, floor) with
    floor = ``signal_fraction`` times the strongest bin norm; the floor keeps
    near-empty high-frequency bins from reporting pure discretization noise as
    relative error.  A diagnostic only, not a reconstruction.
    """
    grid = projection.grid
    if f.axes() != grid.axes():
        raise ValueError("f and g must share axes")
    geom = projection.geometry
    dy = f.y_axis.spacing

    fhat = np.fft.fft(f.values, axis=0)
    big_g = np.fft.fft(grid.values, axis=0) * (geom.cos_beta / 2.0)
    lam = frequency_axis(f.x_axis.n_samples, f.x_axis.spacing).frequencies

    dgdz = np.gradient(big_g, dy, axis=1)
    tail = cumint_from_top(big_g, dy, axis=1)
    rhs = -dgdz + (lam[:, None] * geom.tan_beta) ** 2 * tail

    lhs_norms = np.linalg.norm(fhat, axis=1)
    peak = float(lhs_norms.max())
    if peak == 0.0:
        consistent = np.linalg.norm(rhs) <= 1e-12 * max(1.0, float(np.linalg.norm(grid.values)))
        return 0.0 if consistent else float("inf")
    resid = np.linalg.norm(fhat - rhs, axis=1) / np.maximum(lhs_norms, signal_fraction * peak)
    return float(resid.max())
