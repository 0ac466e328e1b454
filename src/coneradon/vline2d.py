"""The 2D V-line transform with a fixed half-opening angle and vertical axis.

A projection value g(x_v, y_v) integrates f along the two upward rays
x = x_v +/- (y - y_v) tan(beta), y >= y_v, with arclength element dy/cos(beta).
``vline_forward`` evaluates this by trapezoidal quadrature in y, sampling the
zero-extended linear interpolant of f at x_v +/- (y - y_v) tan(beta), the
operator of the two-point ring of the test suite's ring route (its reference
in ``tests/oracles.py``).  It sums the quadrature as one sparse stencil over
row offsets and column offsets applied to mirror pairs of columns, so its
values equal the ring route's up to the order of summation, not bit for bit.
``vline_invert`` applies the exact reconstruction

    f(x, y) = -(cos(beta)/2) * (dg/dy + tan^2(beta) * int_y^{y_top} d2g/dx2 dt)

with the first-order forward difference in y (the top row repeats the one
below) and the central second difference in x (the end columns repeat their
neighbours), both from ``grids._derivative``, the cone inversion's stencil
helper too, and trapezoidal cumulative integration.  ``vline_spectral_oracle``
is an independent second forward route through the per-frequency relation
G_lambda(y_v) = int_{y_v}^{y_top} fhat_lambda(y) cos(lambda t (y - y_v)) dy,
on f zero-padded in x by ``grids._padded_sizes``, giving ghat = (2/cos(beta)) G
through ``grids._lag_kernel_apply`` with the kernel (2/cos(beta)) cos(lambda t h):
the padding rule and the engine the cone transforms run with their J0 kernels.
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
    _lag_taps,
    _pad_factor,
    _padded_sizes,
    cumint_from_top,
)

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
    the zero-extended linear interpolant of f.

    Both rays of a lag sample x_v +/- d with the same two interpolation
    weights, and each node is a fixed blend of two rows, so the whole sum is
    one sparse stencil K over row offset k and column offset s (``_stencils``)
    applied to mirror pairs of rows,

        g[j, i] = sum_{k, s >= 0} K[k, s] (L[j + k, i + s] + L[j + k, i - s]),

    with L f's rows, zero-extended in x, over zero rows for the vertex rows
    below f.  The top row of L, where the nodes above are absent, has its own
    stencil.  For each s the pair sum is built once over the rows holding
    data and added, scaled, into the vertex rows that read it; f = 0 builds
    none.  The result equals the ring route's up to the order of summation,
    not bit for bit, and its exact zeros are the ring route's.
    """
    vy_axis = f.y_axis
    n_below = 0
    if vertex_axes is not None:
        n_below = _rows_below(f, *vertex_axes)
        vy_axis = vertex_axes[1]

    nx = f.x_axis.n_samples
    ny = vy_axis.n_samples
    out = np.zeros(ny * nx)  # out[j * nx + i]: vertex row j, column i
    # L's rows between a zero row at each end, so that a read shifted by less
    # than a row stays in bounds.
    flat = np.zeros((ny + 2) * nx)
    levels = flat[nx:-nx].reshape(ny, nx)
    levels[n_below:] = f.values.T
    held = np.flatnonzero(levels.any(axis=1))
    if held.size:
        first, last = int(held[0]), int(held[-1])
        body, top = _stencils(geometry, f.x_axis.spacing, vy_axis.spacing, nx, ny)
        if last < ny - 1:
            top = tuple(a[:0] for a in top)  # L's top row is 0
        # Distinct shifts by sort, not np.union1d: its np.unique call asks
        # for no indices, and such a call imports numpy.ma (~1.2 MiB
        # resident) on first use; np.unique with return_inverse does not.
        shifts = np.sort(np.concatenate([body[0], top[0]]))
        shifts = shifts[np.diff(shifts, prepend=-1) > 0]
        body_cut = np.searchsorted(body[0], shifts, side="right").tolist()
        top_cut = np.searchsorted(top[0], shifts, side="right").tolist()
        body_k, body_w = body[1].tolist(), body[2].tolist()
        # The body stencil reads rows first..body_end - 1, the top one row ny - 1.
        body_end = min(last, ny - 2) + 1
        data = levels[first : last + 1]
        pair = np.empty(data.size)
        pair_rows = pair.reshape(data.shape)
        scratch = np.empty(pair.size)
        out_rows = out.reshape(ny, nx)
        start = nx * (1 + first)
        b0 = t0 = 0
        for s, b1, t1 in zip(shifts.tolist(), body_cut, top_cut):
            # pair[r, i] = L[r, i + s] + L[r, i - s], zero outside f: one
            # contiguous add instead of clipped 2D slices (numpy runs those
            # ~4x slower), then the reads that left f, which wrapped into a
            # neighbouring row, are redone.
            if 2 * s <= nx:
                np.add(flat[start + s : start + s + pair.size],
                       flat[start - s : start - s + pair.size], out=pair)
                pair_rows[:, :s] = data[:, s : 2 * s]
                pair_rows[:, nx - s :] = data[:, nx - 2 * s : nx - s]
            else:
                pair_rows[:, : nx - s] = data[:, s:]
                pair_rows[:, nx - s : s] = 0.0
                pair_rows[:, s:] = data[:, : nx - s]
            for k, w in zip(body_k[b0:b1], body_w[b0:b1]):
                # Vertex rows j read rows j + k; only rows holding data are read.
                r0 = max(first, k)
                if r0 >= body_end:
                    continue
                size = (body_end - r0) * nx
                buf = scratch[:size]
                np.multiply(pair[(r0 - first) * nx : (r0 - first) * nx + size], w, out=buf)
                out[(r0 - k) * nx : (r0 - k) * nx + size] += buf
            if t1 > t0:
                out_rows[ny - 1 - top[1][t0:t1]] += top[2][t0:t1, None] * pair_rows[-1]
            b0, t0 = b1, t1
    g = np.ascontiguousarray(out.reshape(ny, nx).T)
    return VLineProjection(RealGrid2D(f.x_axis, vy_axis, g), geometry)


def _stencils(geometry: ConeGeometry, dx: float, dy: float, nx: int, ny: int):
    """The forward's weights on mirror pairs of rows, as two tables
    (shifts, ks, ws) sorted by column offset s, then row offset k: ``body``
    for the rows below L's top one (vertex row j reads row j + k), ``top`` for
    L's top row (read by vertex row ny - 1 - k, k >= 1).  Every weight is > 0.

    Quadrature nodes subdivide the y step into n_sub = ceil(2 tan(beta) dy/dx)
    so one step never advances more than half a cell in x.  The node at lag
    n_sub q + p above a vertex row is (1 - p/n_sub) L[q] + (p/n_sub) L[q + 1],
    and its two rays sample it at x -/+ d, d = tan(beta) lag h / dx, with
    weight 1 - fx at column offset floor(d) and fx at floor(d) + 1.  Each ray
    carries half of the two-ray weight 2h/cos(beta), the vertex node (lag 0)
    half of that as the integral's lower endpoint, and the top row's phase-0
    node half as its upper one; the nodes past it are absent.  Taps of weight
    0 or at s >= nx (outside f) are dropped.
    """
    t = geometry.tan_beta
    n_sub = max(1, math.ceil(2.0 * t * dy / dx))
    h = dy / n_sub
    # Lags past the cap sample at least nx cells out on either side.
    n_lags = min(n_sub * (ny - 1), int(nx * dx / (t * h)) + 2) + 1
    lag = np.arange(n_lags)
    d = t * lag * h / dx
    a = np.floor(d)
    fx = d - a
    q, p = np.divmod(lag, n_sub)
    blend = p / n_sub
    w = np.full(n_lags, h / geometry.cos_beta)
    w[0] *= 0.5
    # One entry per lag and x tap.
    shift = np.concatenate([a, a + 1]).astype(np.intp)
    wx = np.concatenate([w * (1.0 - fx), w * fx])
    q, p, blend = np.tile(q, 2), np.tile(p, 2), np.tile(blend, 2)
    tap = (wx > 0.0) & (shift < nx)
    shift, wx, q, p, blend = shift[tap], wx[tap], q[tap], p[tap], blend[tap]
    mid = p > 0  # nodes between two rows
    upper = (q[mid] + 1, shift[mid], wx[mid] * blend[mid])
    body = _summed((q, shift, wx * (1.0 - blend)), upper)
    head = ~mid & (q >= 1)
    top = _summed((q[head], shift[head], 0.5 * wx[head]), upper)
    return body, top


def _summed(*parts):
    # The parts' (k, shift, w) entries with the weights of equal (shift, k)
    # summed: (shifts, ks, ws) sorted by shift, then k.
    k, shift, w = (np.concatenate(c) for c in zip(*parts))
    n_k = int(k.max()) + 1 if k.size else 1
    keys, inverse = np.unique(shift * n_k + k, return_inverse=True)
    shifts, ks = np.divmod(keys, n_k)
    return shifts, ks, np.bincount(inverse, weights=w, minlength=keys.size)


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
    # f = -(cos β / 2)·(dgdy + tan²β·tail), built in place in the tail, so no
    # more than three grids are held at once.
    d2gdx2 = _derivative(g.values, g.x_axis.spacing, 2, (-1, 0, 1), 3, axis=0)
    f = cumint_from_top(d2gdx2, g.y_axis.spacing, axis=1)
    del d2gdx2
    dgdy = _derivative(g.values, g.y_axis.spacing, 1, (0, 1), 2, axis=1)
    f *= geom.tan_beta * geom.tan_beta
    np.add(dgdy, f, out=f)
    f *= -(geom.cos_beta / 2.0)
    return RealGrid2D(g.x_axis, g.y_axis, f)


def vline_spectral_oracle(
    f: RealGrid2D, geometry: ConeGeometry, pad_factor: int = 1
) -> VLineProjection:
    """Second, independent forward route through the x-frequency domain.

    f is zero-padded at the far x end by the 3D transforms' rule
    (``grids._padded_sizes``: a fast size whose zero gap holds one cell plus
    the rays' reach y_extent * tan(beta), and at least ``pad_factor`` times
    nx), so no ray wraps around the period.  Each column is transformed,
    pushed through the cosine-kernel relation per frequency (trapezoid rule
    in y, by ``grids._lag_kernel_apply``) and transformed back, and the first
    nx columns are copied out.  The kernel is (2/cos(beta)) cos(u h), with
    u = lambda tan(beta) and the relation's constant included.
    """
    nx = f.x_axis.n_samples
    (n_pad,) = _padded_sizes(f, geometry, _pad_factor(pad_factor))
    spectrum = np.fft.rfft(f.values, n_pad, axis=0)  # fhat, turned into ghat in place
    lam = 2.0 * np.pi * np.fft.rfftfreq(n_pad, f.x_axis.spacing)
    scale = 2.0 / geometry.cos_beta
    table = _lag_taps(
        geometry.tan_beta * lam, f.y_axis.spacing, f.y_axis.n_samples,
        lambda u, h: scale * np.cos(u * h),
    )
    spectrum[:, -1] *= 0.5  # the trapezoid half weight at the top end
    _lag_kernel_apply(spectrum, *table)
    g = np.fft.irfft(spectrum, n_pad, axis=0)[:nx].copy()  # not a view of the padded period
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
    lam = 2.0 * np.pi * np.fft.rfftfreq(f.x_axis.n_samples, f.x_axis.spacing)

    dgdz = _derivative(big_g, dy, 1, (-1, 0, 1), 2, axis=1)
    tail = cumint_from_top(big_g, dy, axis=1)
    rhs = -dgdz + (lam[:, None] * geom.tan_beta) ** 2 * tail

    lhs_norms = np.linalg.norm(fhat, axis=1)
    peak = float(lhs_norms.max())
    if peak == 0.0:
        consistent = np.linalg.norm(rhs) <= 1e-12 * max(1.0, float(np.linalg.norm(grid.values)))
        return 0.0 if consistent else float("inf")
    resid = np.linalg.norm(fhat - rhs, axis=1) / np.maximum(lhs_norms, _SIGNAL_FRACTION * peak)
    return float(resid.max())
