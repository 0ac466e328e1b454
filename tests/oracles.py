"""Independent numerical oracles used by the test suite.

Everything here is deliberately written from scratch against the defining
integrals (quadrature of integral representations, ray marching, surface
quadrature) and stays independent of the library code paths it checks; only
plain numpy is used.  The one exception, ``invert_profiles_stagewise``, is
the 3D inversion's per-bin stage as separate library passes, the reference
for their composition into one correlation.
"""

import math

import numpy as np


def j0_quadrature(a, nodes: int = 4096):
    """J0 via the integral representation (1/2pi) int_0^2pi exp(i a cos t) dt,
    with the periodic trapezoid rule (spectrally accurate)."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    phases = np.multiply.outer(np.asarray(a, dtype=float), np.cos(theta))
    return np.real(np.exp(1j * phases)).mean(axis=-1)


def j0_first_zero(nodes: int = 4096, tol: float = 1e-12) -> float:
    """First positive zero of J0, by bisection on the quadrature oracle."""
    lo, hi = 2.0, 3.0
    flo = float(j0_quadrature(lo, nodes))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = float(j0_quadrature(mid, nodes))
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bilinear_sample(values, x_axis, y_axis, xq, yq):
    """Standalone bilinear interpolation with zero outside the rectangle."""
    xq = np.asarray(xq, dtype=float)
    yq = np.asarray(yq, dtype=float)
    nx, ny = values.shape
    tx = (xq - x_axis.min) / x_axis.spacing
    ty = (yq - y_axis.min) / y_axis.spacing
    inside = (tx >= 0) & (tx <= nx - 1) & (ty >= 0) & (ty <= ny - 1)
    tx = np.clip(tx, 0, nx - 1)
    ty = np.clip(ty, 0, ny - 1)
    i = np.minimum(tx.astype(int), nx - 2)
    j = np.minimum(ty.astype(int), ny - 2)
    fx, fy = tx - i, ty - j
    val = (
        values[i, j] * (1 - fx) * (1 - fy)
        + values[i + 1, j] * fx * (1 - fy)
        + values[i, j + 1] * (1 - fx) * fy
        + values[i + 1, j + 1] * fx * fy
    )
    return np.where(inside, val, 0.0)


def vline_ray_march(f, geometry, x_v: float, y_v: float, oversample: int = 10) -> float:
    """V-line integral at one vertex by marching both rays in arclength.

    Steps are ``oversample`` times finer than the grid-level quadrature of the
    implementation (arclength step dy / (oversample cos(beta))), trapezoid rule,
    sampling the grid's bilinear interpolant.
    """
    cos_b, sin_b = geometry.cos_beta, np.sin(geometry.beta)
    y_top = f.y_axis.max
    height = y_top - y_v
    if height <= 0:
        return 0.0
    n_grid_steps = max(1, int(np.ceil(height / f.y_axis.spacing)))
    n_steps = oversample * n_grid_steps
    r = np.linspace(0.0, height / cos_b, n_steps + 1)
    y = y_v + r * cos_b
    total = 0.0
    for sign in (+1.0, -1.0):
        x = x_v + sign * r * sin_b
        samples = bilinear_sample(f.values, f.x_axis, f.y_axis, x, y)
        total += float(np.trapezoid(samples, r))
    return total


def vline_ray_march_grid(f, geometry, oversample: int = 10) -> np.ndarray:
    """Ray-marching V-line data on every vertex of f's own grid (vectorized
    across x for each vertex row)."""
    cos_b, sin_b = geometry.cos_beta, np.sin(geometry.beta)
    xs = f.x_axis.coordinates()
    ys = f.y_axis.coordinates()
    n_x, n_y = xs.size, ys.size
    out = np.zeros((n_x, n_y))
    for j in range(n_y - 1):
        height = f.y_axis.max - ys[j]
        n_steps = oversample * (n_y - 1 - j)
        r = np.linspace(0.0, height / cos_b, n_steps + 1)
        y = ys[j] + r * cos_b
        acc = np.zeros((n_x, r.size))
        for sign in (+1.0, -1.0):
            x = xs[:, None] + sign * r[None, :] * sin_b
            acc += bilinear_sample(f.values, f.x_axis, f.y_axis, x, y[None, :])
        out[:, j] = np.trapezoid(acc, r, axis=1)
    return out


def trilinear_sample(volume, x_axis, y_axis, z_axis, xq, yq, zq):
    """Standalone trilinear interpolation with zero outside the box."""
    xq = np.asarray(xq, dtype=float)
    yq = np.asarray(yq, dtype=float)
    zq = np.asarray(zq, dtype=float)
    xq, yq, zq = np.broadcast_arrays(xq, yq, zq)
    nx, ny, nz = volume.shape
    tx = (xq - x_axis.min) / x_axis.spacing
    ty = (yq - y_axis.min) / y_axis.spacing
    tz = (zq - z_axis.min) / z_axis.spacing
    inside = (
        (tx >= 0) & (tx <= nx - 1) & (ty >= 0) & (ty <= ny - 1) & (tz >= 0) & (tz <= nz - 1)
    )
    tx = np.clip(tx, 0, nx - 1)
    ty = np.clip(ty, 0, ny - 1)
    tz = np.clip(tz, 0, nz - 1)
    i = np.minimum(tx.astype(int), nx - 2)
    j = np.minimum(ty.astype(int), ny - 2)
    k = np.minimum(tz.astype(int), nz - 2)
    fx, fy, fz = tx - i, ty - j, tz - k
    val = np.zeros(tx.shape)
    for di, wx in ((0, 1 - fx), (1, fx)):
        for dj, wy in ((0, 1 - fy), (1, fy)):
            for dk, wz in ((0, 1 - fz), (1, fz)):
                val += volume[i + di, j + dj, k + dk] * wx * wy * wz
    return np.where(inside, val, 0.0)


def cone_surface_quadrature(f, geometry, x_v, y_v, z_v, oversample: int = 4) -> float:
    """Cone-surface integral at one vertex with ``oversample`` times finer z
    steps and phi sampling than the implementation's grid-driven quadrature,
    sampling the volume's trilinear interpolant."""
    t, cos_b = geometry.tan_beta, geometry.cos_beta
    z_top = f.z_axis.max
    height = z_top - z_v
    if height <= 0:
        return 0.0
    dz = f.z_axis.spacing
    n_steps = oversample * max(1, int(np.ceil(height / dz)))
    z = np.linspace(z_v, z_top, n_steps + 1)
    ring_means = np.zeros(z.size)
    for m, zm in enumerate(z):
        r = (zm - z_v) * t
        n_phi = oversample * max(16, int(np.ceil(2 * np.pi * r / f.x_axis.spacing)))
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        samples = trilinear_sample(
            f.values, f.x_axis, f.y_axis, f.z_axis,
            x_v + r * np.cos(phi), y_v + r * np.sin(phi), np.full(n_phi, zm),
        )
        ring_means[m] = samples.mean()
    integrand = (z - z_v) * ring_means
    return float(2.0 * np.pi * (t / cos_b) * np.trapezoid(integrand, z))


def cone_bump_integral(bumps, geometry, x_v, y_v, z_v, z_steps: int = 2000,
                       n_phi: int = 512) -> float:
    """Cone-surface integral at one vertex of a sum of smooth 3D bumps, with no
    grid: each bump's formula intensity * exp(-r^2 / (r^2 - rho^2)) is evaluated
    directly on the cone.

    Only heights inside a bump's support contribute, so each bump is integrated
    over its own z range by the trapezoid rule with ``z_steps`` steps, and each
    circle by the periodic trapezoid rule with ``n_phi`` angles; both converge
    fast because the integrand is smooth and vanishes with all its derivatives
    at the support's edge.
    """
    t, cos_b = geometry.tan_beta, geometry.cos_beta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    total = 0.0
    for bump in bumps:
        cx, cy, cz = bump.center
        r2 = bump.radius * bump.radius
        lo, hi = max(z_v, cz - bump.radius), cz + bump.radius
        if hi <= lo:
            continue
        z = np.linspace(lo, hi, z_steps + 1)
        ring = (z - z_v)[:, None] * t
        rho2 = (
            (x_v + ring * np.cos(phi) - cx) ** 2
            + (y_v + ring * np.sin(phi) - cy) ** 2
            + ((z - cz) ** 2)[:, None]
        )
        values = np.zeros(rho2.shape)
        inside = rho2 < r2
        values[inside] = bump.intensity * np.exp(-r2 / (r2 - rho2[inside]))
        total += float(np.trapezoid((z - z_v) * values.mean(axis=1), z))
    return 2.0 * np.pi * (t / cos_b) * total


def smooth_bump_1d(z, center: float = 0.0, radius: float = 0.5):
    """C-infinity compactly supported bump profile for 1D oracle tests."""
    z = np.asarray(z, dtype=float)
    rho2 = (z - center) ** 2
    out = np.zeros_like(z)
    mask = rho2 < radius * radius
    out[mask] = np.exp(-radius * radius / (radius * radius - rho2[mask]))
    return out


def kernel_profile_quadrature(fhat_fn, z_nodes, z_top: float, u: float,
                              j0_fn, oversample: int = 8) -> np.ndarray:
    """G(z_v) = int_{z_v}^{z_top} fhat(z) (z - z_v) J0(u (z - z_v)) dz on each
    node, by trapezoid on an ``oversample`` times finer subgrid."""
    n = z_nodes.size
    out = np.zeros(n)
    for j in range(n):
        m = (n - 1 - j) * oversample + 1
        if m < 2:
            continue
        zf = np.linspace(z_nodes[j], z_top, m)
        gap = zf - z_nodes[j]
        out[j] = float(np.trapezoid(fhat_fn(zf) * gap * j0_fn(u * gap), zf))
    return out


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


def ring_quadrature(vol: np.ndarray, ring) -> np.ndarray:
    """Trapezoidal integral, from every level of ``vol`` (last axis) to the top,
    of ring averages that widen with the lag: a shift-and-add engine sampling
    the zero-extended linear interpolant of ``vol``, where the points of a
    ring are whole shifted copies of the array, never per-point gathers.

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


_MIN_PHI_SAMPLES = 16


def _n_phi(radius: float, dx: float) -> int:
    # At least one sample per transverse grid cell along the circle, rounded up
    # to a multiple of 4 so 90-degree rotations map the sample set to itself.
    needed = max(_MIN_PHI_SAMPLES, math.ceil(2.0 * math.pi * radius / dx))
    return 4 * math.ceil(needed / 4)


def cone_forward_rings(f, geometry) -> np.ndarray:
    """Spatial route for the cone transform's values on f's own grid.

    The cone-surface integral split into circles of radius
    r = (z - z_v) tan(beta),

        g = (tan(beta)/cos(beta)) * int_{z_v}^{z_top} (z - z_v)
            * [2 pi * mean_phi f(x_v + r cos(phi), y_v + r sin(phi), z)] dz,

    by the trapezoid in z over the grid levels, uniform phi samples on each
    circle and zero-extended linear sampling in (x, y); the cone opens toward
    +z only.
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

    return ring_quadrature(f.values, circle)


def vline_lag_loop(f, geometry, n_below: int = 0) -> np.ndarray:
    """The V-line forward as a loop over fine lags: g on f's x axis and f's
    rows extended downward by ``n_below`` zero rows, shape (nx, n_below + ny).

    Trapezoid rule over quadrature nodes that subdivide the y rows into
    n_sub = ceil(2 tan(beta) dy/dx), one node phase at a time; each lag adds
    both rays' two linear-interpolation taps of f's zero extension, one
    scaled contiguous read each, straight into the vertex rows whose integral
    reaches that many nodes up.  The library sums the same terms per mirror
    pair of columns instead.
    """
    t = geometry.tan_beta
    dx = f.x_axis.spacing
    dy = f.y_axis.spacing
    n_sub = max(1, math.ceil(2.0 * t * dy / dx))
    h = dy / n_sub
    nx, ny = f.x_axis.n_samples, f.y_axis.n_samples + n_below
    levels = np.concatenate([np.zeros((n_below, nx)), f.values.T])
    ray_weight = h / geometry.cos_beta  # half of the two-ray weight

    out = np.zeros(ny * nx)  # out[j * nx + i]: vertex row j, column i
    scratch = np.empty(ny * nx)
    # One phase's node rows, between a row of zeros at each end.
    flat = np.zeros((ny + 2) * nx)
    nodes = flat[nx:-nx].reshape(ny, nx)
    top = n_sub * (ny - 1)
    for phase in range(n_sub):
        # Node n_sub * r + phase; the top node is the upper endpoint of every
        # integral (weight 1/2).
        s = phase / n_sub
        nodes[:-1] = (1.0 - s) * levels[:-1] + s * levels[1:]
        nodes[-1] = 0.5 * levels[-1] if phase == 0 else 0.0
        held = np.flatnonzero(nodes.any(axis=1))
        if held.size == 0:
            continue
        first, last = int(held[0]), int(held[-1])
        for lag in range(phase, top + 1, n_sub):
            # Vertex row j reads node n_sub * j + lag.  At lag 0 the vertex node
            # is the lower endpoint (weight 1/2), and the top row's integral is
            # empty.
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
                    # Where i + shift leaves f it wrapped into a neighbouring
                    # row, and f is 0 there.
                    if shift > 0:
                        buf_rows[:, nx - shift :] = 0.0
                    elif shift < 0:
                        buf_rows[:, :-shift] = 0.0
                    acc += buf
    return np.ascontiguousarray(out.reshape(ny, nx).T)


def invert_profiles_stagewise(profiles, us, dz: float, inverse, taps):
    """The 3D inversion's per-bin stage as separate passes, the route
    ``cone3d._invert_bins`` composes into one correlation: one profile G per
    row of u us[row] and J0 taps taps[inverse[row]] (``grids._lag_taps``),
    on z spacing dz.

    H^2 of the tail integral P(x) = int_x^top G is evaluated through the
    exact relation P' = -G, i.e. H^2(P) = -G''' - 2 u^2 G' + u^4 P:
    differencing the data G directly keeps the one-sided boundary errors from
    being amplified by repeated division by dz^2.  Then the J0 correlation
    with the trapezoid's half weight at the top end.  At u = 0 the kernel
    degenerates: G(z_v) = int (z - z_v) fhat dz, so those rows are
    overwritten with fhat = G''.  Unlike the rest of this module it runs the
    library's stencil helper, tail integral and lag-kernel engine, each
    checked on its own elsewhere.
    """
    from coneradon.grids import _derivative, _lag_kernel_apply, cumint_from_top

    u2 = (us * us)[:, None]
    q = -_derivative(profiles, dz, 3, (-2, -1, 0, 1, 2), 6)
    q -= 2.0 * u2 * _derivative(profiles, dz, 1, (-1, 0, 1), 4)
    q += u2 * u2 * cumint_from_top(profiles, dz)
    q[:, -1] *= 0.5
    _lag_kernel_apply(q, inverse, taps)
    for row in np.flatnonzero(us == 0.0):
        q[row] = _derivative(profiles[row], dz, 2, (-1, 0, 1), 5)
    return q
