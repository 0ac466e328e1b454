"""The 2D V-line transform with a fixed half-opening angle and vertical axis.

A projection value g(x_v, y_v) integrates f along the two upward rays
x = x_v +/- (y - y_v) tan(beta), y >= y_v, with arclength element dy/cos(beta).
``vline_forward`` evaluates this by trapezoidal quadrature in y, sampling the
zero-extended linear interpolant of f at x_v +/- (y - y_v) tan(beta), the
operator of the two-point ring of the test suite's ring route (its reference
in ``tests/oracles.py``); ``vline_invert`` applies the exact reconstruction

    f(x, y) = -(cos(beta)/2) * (dg/dy + tan^2(beta) * int_y^{y_top} d2g/dx2 dt)

with the first-order forward difference in y (the top row repeats the one
below) and the central second difference in x (the end columns repeat their
neighbours), both from ``grids._derivative``, the cone inversion's stencil
helper too, and trapezoidal cumulative integration.  ``vline_spectral_oracle``
is an independent second forward route through the per-frequency relation
G_lambda(y_v) = int_{y_v}^{y_top} fhat_lambda(y) cos(lambda t (y - y_v)) dy,
applied by ``grids._lag_kernel_apply`` with the cosine kernel (the engine the
cone transforms run with J0).
"""

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    AxisSpec,
    ConeGeometry,
    RealGrid2D,
    _derivative,
    _lag_kernel_apply,
    _pad_factor,
    cumint_from_top,
)
from .specfun import frequency_axis

__all__ = [
    "VLineProjection",
    "fourier_relation_check",
    "vline_forward",
    "vline_invert",
    "vline_spectral_oracle",
]

# fourier_relation_check's floor on a bin's norm, as a share of the strongest.
_SIGNAL_FRACTION = 0.05


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
    the zero-extended linear interpolant of f.  The nodes are built one
    quadrature phase (one offset within a y row) at a time, so memory stays a
    few grids' worth however many phases a row holds.  Only the vertex rows
    returned are computed: each lag adds its two rays' linear-interpolation taps
    straight into the vertex rows whose integral reaches that many nodes up,
    and of those only into the rows whose node that many nodes up lies
    between the first and last node row holding data.  The skipped terms are
    exact zeros, so the result is the same bit for bit, and f = 0 runs no lag.
    """
    vy_axis = f.y_axis
    n_below = 0
    if vertex_axes is not None:
        n_below = _rows_below(f, *vertex_axes)
        vy_axis = vertex_axes[1]

    t = geometry.tan_beta
    dx = f.x_axis.spacing
    dyv = vy_axis.spacing
    # Quadrature nodes subdivide the vertex grid's y step so one step never
    # advances more than half a cell in x; for tan(beta) <= dx/(2 dy) this is
    # exactly one sample per y level.
    n_sub = max(1, math.ceil(2.0 * t * dyv / dx))
    h = dyv / n_sub

    nx = f.x_axis.n_samples
    ny = vy_axis.n_samples
    levels = np.concatenate([np.zeros((n_below, nx)), f.values.T])
    # Each ray carries half of the two-ray weight 2h/cos(beta).
    ray_weight = h / geometry.cos_beta

    out = np.zeros(ny * nx)  # out[j * nx + i]: vertex row j, column i
    scratch = np.empty(ny * nx)
    # One phase's node rows, between a row of zeros at each end so that a read
    # shifted by less than a row stays in bounds.
    flat = np.zeros((ny + 2) * nx)
    nodes = flat[nx:-nx].reshape(ny, nx)
    top = n_sub * (ny - 1)
    for phase in range(n_sub):
        # Node n_sub * r + phase, linear in y between the rows of ``levels``;
        # the top node is the upper endpoint of every integral (weight 1/2).
        s = phase / n_sub
        nodes[:-1] = (1.0 - s) * levels[:-1] + s * levels[1:]
        nodes[-1] = 0.5 * levels[-1] if phase == 0 else 0.0
        held = np.flatnonzero(nodes.any(axis=1))
        if held.size == 0:
            continue
        first, last = int(held[0]), int(held[-1])
        for lag in range(phase, top + 1, n_sub):
            # Vertex row j reads node n_sub * j + lag: the contiguous rows of
            # this phase from row lag // n_sub on.  At lag 0 the vertex node is
            # the lower endpoint (weight 1/2), and the top row's integral is
            # empty.  Only the vertex rows whose node row holds data are read;
            # the rest would add zeros.
            offset = lag // n_sub
            n_rows = (top - lag) // n_sub + 1
            w = ray_weight
            if lag == 0:
                n_rows -= 1
                w *= 0.5
            row0 = max(0, first - offset)
            row1 = min(n_rows, last - offset + 1)
            if row1 <= row0:
                continue
            size = (row1 - row0) * nx
            start = nx * (1 + offset + row0)
            acc = out[row0 * nx : row1 * nx]
            buf = scratch[:size]
            buf_rows = buf.reshape(row1 - row0, nx)
            d = t * lag * h / dx
            for ox in (d, -d):
                a = math.floor(ox)
                fx = ox - a
                for shift, tap in ((a, 1.0 - fx), (a + 1, fx)):
                    # out[j, i] += w * tap * node[j, i + shift], zero outside f.
                    if tap == 0.0 or abs(shift) >= nx:
                        continue
                    np.multiply(flat[start + shift : start + shift + size], w * tap, out=buf)
                    # One contiguous read instead of a clipped 2D slice (numpy
                    # runs those ~4x slower); where i + shift leaves f it
                    # wrapped into a neighbouring row, and f is 0 there.
                    if shift > 0:
                        buf_rows[:, nx - shift :] = 0.0
                    elif shift < 0:
                        buf_rows[:, :-shift] = 0.0
                    acc += buf
    g = np.ascontiguousarray(out.reshape(ny, nx).T)
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


def vline_invert(projection: VLineProjection) -> RealGrid2D:
    """Exact inversion of the V-line transform, discretized as in the forward
    experiments: forward difference in y, central second difference in x,
    trapezoidal integral from each height to the top of the grid."""
    g = projection.grid
    if g.x_axis.n_samples < 3:
        raise ValueError("inversion needs at least 3 samples along x")
    geom = projection.geometry
    dgdy = _derivative(g.values, g.y_axis.spacing, [(1.0, 1, (0, 1), 2)], axis=1)
    d2gdx2 = _derivative(g.values, g.x_axis.spacing, [(1.0, 2, (-1, 0, 1), 3)], axis=0)
    tail = cumint_from_top(d2gdx2, g.y_axis.spacing, axis=1)
    t2 = geom.tan_beta * geom.tan_beta
    f = -(geom.cos_beta / 2.0) * (dgdy + t2 * tail)
    return RealGrid2D(g.x_axis, g.y_axis, f)


def vline_spectral_oracle(
    f: RealGrid2D, geometry: ConeGeometry, pad_factor: int = 2
) -> VLineProjection:
    """Second, independent forward route through the x-frequency domain.

    f is zero-padded in x by ``pad_factor``, transformed per column, pushed
    through the cosine-kernel relation per frequency (trapezoid rule in y, by
    ``grids._lag_kernel_apply``) and transformed back.  The added zero margin
    on each side must be at least y_extent * tan(beta) so the projection data
    cannot wrap around the periodic boundary.
    """
    pad_factor = _pad_factor(pad_factor)
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
    spectrum = np.fft.rfft(padded, axis=0)  # fhat, turned into ghat in place
    lam = frequency_axis(n_pad, dx).frequencies[: spectrum.shape[0]]
    _lag_kernel_apply(spectrum, geometry.tan_beta * lam, f.y_axis.spacing, np.cos)
    spectrum *= 2.0 / geometry.cos_beta

    g_pad = np.fft.irfft(spectrum, n=n_pad, axis=0)
    g = g_pad[pad_left : pad_left + nx]
    return VLineProjection(RealGrid2D(f.x_axis, f.y_axis, g), geometry)


def fourier_relation_check(f: RealGrid2D, projection: VLineProjection) -> float:
    """Residual of the per-frequency identity linking fhat and the projection.

    For each x-frequency bin the identity
    fhat_lambda(z) = -G'_lambda(z) + (lambda t)^2 int_z^{y_top} G_lambda
    (with G = ghat cos(beta)/2) is evaluated from the inputs.  The result is
    the maximum over bins of ||LHS - RHS||_2 / max(||LHS||_2, floor) with
    floor = 0.05 times the strongest bin norm; the floor keeps
    near-empty high-frequency bins from reporting pure discretization noise as
    relative error.  A diagnostic only, not a reconstruction.

    Precondition: g fits inside the x domain.  Where g is cut off at the
    lateral x edges (wide beta, narrow domain) the residual is large although
    f and g agree.
    """
    grid = projection.grid
    if f.axes() != grid.axes():
        raise ValueError("f and g must share axes")
    geom = projection.geometry
    dy = f.y_axis.spacing

    # Bins k and n - k are conjugate for real data, so the maximum over the
    # non-negative frequencies is the maximum over all of them.
    fhat = np.fft.rfft(f.values, axis=0)
    big_g = np.fft.rfft(grid.values, axis=0) * (geom.cos_beta / 2.0)
    lam = frequency_axis(f.x_axis.n_samples, f.x_axis.spacing).frequencies[: fhat.shape[0]]

    dgdz = _derivative(big_g, dy, [(1.0, 1, (-1, 0, 1), 2)], axis=1)
    tail = cumint_from_top(big_g, dy, axis=1)
    rhs = -dgdz + (lam[:, None] * geom.tan_beta) ** 2 * tail

    lhs_norms = np.linalg.norm(fhat, axis=1)
    peak = float(lhs_norms.max())
    if peak == 0.0:
        consistent = np.linalg.norm(rhs) <= 1e-12 * max(1.0, float(np.linalg.norm(grid.values)))
        return 0.0 if consistent else float("inf")
    resid = np.linalg.norm(fhat - rhs, axis=1) / np.maximum(lhs_norms, _SIGNAL_FRACTION * peak)
    return float(resid.max())
