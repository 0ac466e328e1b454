"""Property-based checks: the grid file formats on arbitrary finite payloads,
linearity and nonnegativity of the V-line forward transform, linearity and
support vanishing of the 3D cone transforms, and exactness and mirror symmetry
of the finite-difference stencils both inversions use."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as poly

from coneradon.cone3d import cone_forward, cone_invert
from coneradon.grids import AxisSpec, ConeGeometry, RealGrid2D, RealGrid3D, _derivative
from coneradon.gridio import read_grid, write_grid, write_grid_csv
from coneradon.vline2d import vline_forward

SETTINGS = settings(deadline=None, max_examples=40)
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
COEFFICIENT = st.floats(-2.0, 2.0)


@st.composite
def axes(draw, n_samples):
    lo, hi = sorted((draw(FINITE), draw(FINITE)))
    assume(hi > lo and math.isfinite(hi - lo))
    return AxisSpec(n_samples, lo, hi)


@st.composite
def grids(draw):
    dims = draw(st.lists(st.integers(2, 6), min_size=2, max_size=3))
    grid_axes = [draw(axes(n)) for n in dims]
    values = draw(hnp.arrays(np.float64, tuple(dims), elements=FINITE))
    cls = RealGrid2D if len(dims) == 2 else RealGrid3D
    return cls(*grid_axes, values)


def bits(values) -> bytes:
    # Distinguishes -0.0 from 0.0, which == does not.
    return np.asarray(values, dtype="<f8").tobytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


class TestGridFormats:
    @SETTINGS
    @given(grid=grids())
    def test_crtg_round_trip_is_bit_exact(self, workdir, grid):
        path = workdir / "g.crtg"
        write_grid(path, grid)
        back = read_grid(path)
        assert type(back) is type(grid)
        assert bits(back.values) == bits(grid.values)
        for a, b in zip(back.axes(), grid.axes()):
            assert a.n_samples == b.n_samples
            assert bits([a.min, a.max]) == bits([b.min, b.max])

    @SETTINGS
    @given(grid=grids())
    def test_csv_parses_back_to_the_same_bits(self, workdir, grid):
        # Every token is format(v, ".17g"), subnormals and both zeros included.
        path = workdir / "g.csv"
        write_grid_csv(path, grid)
        lines = path.read_text(encoding="ascii").splitlines()
        dims = [ax.n_samples for ax in grid.axes()]
        assert lines[2] == "# dims " + " ".join(map(str, dims))
        for i, ax in enumerate(grid.axes()):
            name, lo, hi = lines[3 + i].split()[1:]
            assert name == f"axis{i}"
            assert bits([float(lo), float(hi)]) == bits([ax.min, ax.max])
        rows = [ln.split(",") for ln in lines[3 + len(dims) :]]
        assert all(len(row) == dims[0] for row in rows)
        values = grid.values.ravel(order="F")
        assert bits([[float(tok) for tok in row] for row in rows]) == bits(values)
        assert [tok for row in rows for tok in row] == [format(v, ".17g") for v in values.tolist()]


@st.composite
def vline_cases(draw, elements):
    nx, ny = draw(st.integers(3, 12)), draw(st.integers(2, 12))
    x_axis = AxisSpec(nx, 0.0, draw(st.floats(0.5, 4.0)))
    y_axis = AxisSpec(ny, 0.0, draw(st.floats(0.5, 4.0)))
    n_below = draw(st.integers(0, 4))
    vertex_y = AxisSpec(ny + n_below, -n_below * y_axis.spacing, y_axis.max)
    geometry = ConeGeometry(draw(st.floats(0.05, 1.3)))
    values = [draw(hnp.arrays(np.float64, (nx, ny), elements=elements)) for _ in range(2)]
    return x_axis, y_axis, (x_axis, vertex_y), geometry, values


class TestVlineForwardProperties:
    @SETTINGS
    @given(case=vline_cases(st.floats(-1.0, 1.0)), a=COEFFICIENT, b=COEFFICIENT)
    def test_linear(self, case, a, b):
        x_axis, y_axis, vertex_axes, geometry, (v1, v2) = case

        def forward(values):
            f = RealGrid2D(x_axis, y_axis, values)
            return vline_forward(f, geometry, vertex_axes).grid.values

        combined = forward(a * v1 + b * v2)
        split = a * forward(v1) + b * forward(v2)
        # Round-off is relative to the transform of |f|, which bounds every
        # term; 1e-300 absorbs products that underflow.
        scale = abs(a) * forward(np.abs(v1)).max() + abs(b) * forward(np.abs(v2)).max()
        np.testing.assert_allclose(combined, split, rtol=0.0, atol=1e-12 * scale + 1e-300)

    @SETTINGS
    @given(case=vline_cases(st.floats(0.0, 1e3)))
    def test_nonnegative_with_empty_top_row(self, case):
        x_axis, y_axis, vertex_axes, geometry, (values, _) = case
        f = RealGrid2D(x_axis, y_axis, values)
        g = vline_forward(f, geometry, vertex_axes).grid.values
        assert g.shape == (x_axis.n_samples, vertex_axes[1].n_samples)
        assert g.min() >= 0.0
        assert np.all(g[:, -1] == 0.0)
        if not np.any(values):
            assert not np.any(g)


@st.composite
def cone_cases(draw, min_xy, min_z):
    shape = tuple(draw(st.integers(lo, 8)) for lo in (min_xy, min_xy, min_z))
    grid_axes = [AxisSpec(n, 0.0, draw(st.floats(0.5, 4.0))) for n in shape]
    geometry = ConeGeometry(draw(st.floats(0.05, 1.3)))
    values = [draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))) for _ in range(2)]
    return grid_axes, geometry, values


def forward_bound(grid_axes, geometry):
    # Bounds |g| / max|f|: the kernel integrates 2 pi tan(beta)/cos(beta) * h
    # over h up to the z extent.
    extent = grid_axes[2].max - grid_axes[2].min
    return np.pi * geometry.tan_beta / geometry.cos_beta * extent**2


def invert_bound(grid_axes, geometry):
    # Bounds every intermediate of cone_invert per unit max|g|: the 2D DFT
    # sums nx * ny samples, the normalization is cos(beta)/(2 pi tan(beta)),
    # H^2 of the tail integral is at most a third difference (16/dz^3) plus
    # u^4 times the z extent with u < pi/dz, and the J0 integral adds one
    # more factor of the extent.
    nx, ny = grid_axes[0].n_samples, grid_axes[1].n_samples
    dz = grid_axes[2].spacing
    extent = grid_axes[2].max - grid_axes[2].min
    h2 = 16.0 / dz**3 + (np.pi / dz) ** 4 * extent
    return nx * ny * geometry.cos_beta / (2.0 * np.pi * geometry.tan_beta) * h2 * extent


class TestConeProperties:
    @SETTINGS
    @given(case=cone_cases(2, 2), a=COEFFICIENT, b=COEFFICIENT)
    def test_forward_linear(self, case, a, b):
        grid_axes, geometry, (v1, v2) = case

        def forward(values):
            return cone_forward(RealGrid3D(*grid_axes, values), geometry).values

        combined = forward(a * v1 + b * v2)
        split = a * forward(v1) + b * forward(v2)
        # Round-off is relative to the largest output the inputs can give
        # (the spectral route's interpolant may overshoot the bound a little);
        # 1e-300 absorbs products that underflow.
        size = abs(a) * np.abs(v1).max() + abs(b) * np.abs(v2).max()
        scale = forward_bound(grid_axes, geometry) * size
        np.testing.assert_allclose(combined, split, rtol=0.0, atol=1e-12 * scale + 1e-300)

    @SETTINGS
    @given(case=cone_cases(2, 2), top=st.integers(0, 7))
    def test_forward_vanishes_above_support(self, case, top):
        # A vertex above f's highest nonzero level sees nothing, exactly; so
        # does every vertex on the top level.
        grid_axes, geometry, (values, _) = case
        values[:, :, top + 1 :] = 0.0
        g = cone_forward(RealGrid3D(*grid_axes, values), geometry).values
        levels = np.flatnonzero(np.any(values != 0.0, axis=(0, 1)))
        above = levels[-1] + 1 if levels.size else 0
        assert np.all(g[:, :, above:] == 0.0)
        assert np.all(g[:, :, -1] == 0.0)

    @SETTINGS
    @given(case=cone_cases(4, 6), pad=st.integers(1, 3), a=COEFFICIENT, b=COEFFICIENT)
    def test_invert_linear(self, case, pad, a, b):
        grid_axes, geometry, (v1, v2) = case

        def invert(values):
            return cone_invert(RealGrid3D(*grid_axes, values), geometry, pad).values

        combined = invert(a * v1 + b * v2)
        split = a * invert(v1) + b * invert(v2)
        # The output can cancel to round-off (constant data), so the scale is
        # the largest intermediate the inputs can give, times machine epsilon.
        size = abs(a) * np.abs(v1).max() + abs(b) * np.abs(v2).max()
        scale = invert_bound(grid_axes, geometry) * size
        np.testing.assert_allclose(
            combined, split, rtol=0.0, atol=np.finfo(float).eps * scale + 1e-300
        )


# (order, offsets, n_edge) of every _derivative stencil in the library.
STENCILS = {
    "vline-dy": (1, (0, 1), 2),
    "vline-d2x": (2, (-1, 0, 1), 3),
    "cone-d1": (1, (-1, 0, 1), 4),
    "cone-d2": (2, (-1, 0, 1), 5),
    "cone-d3": (3, (-2, -1, 0, 1, 2), 6),
}
EPS = np.finfo(float).eps


class TestDerivativeStencils:
    @pytest.mark.parametrize("name", STENCILS)
    @SETTINGS
    @given(data=st.data())
    def test_exact_on_polynomials(self, name, data):
        # Every stencil, the one-sided ones at the ends included, is exact on
        # polynomials of degree below its number of points.
        order, offsets, n_edge = STENCILS[name]
        degree = min(len(offsets), n_edge) - 1
        coef = data.draw(hnp.arrays(np.float64, degree + 1, elements=st.floats(-1.0, 1.0)))
        spacing = data.draw(st.floats(0.01, 10.0))
        n = data.draw(st.integers(n_edge, n_edge + 20))
        x = data.draw(st.floats(-5.0, 5.0)) + spacing * np.arange(n)
        exact_coef = poly.polyder(coef, order)
        out = _derivative(poly.polyval(x, coef), spacing, order, offsets, n_edge)
        exact = poly.polyval(x, exact_coef)
        # Rounding of the samples, amplified by the stencil weights (|w| sums
        # to < 100) over spacing^order, plus rounding of the exact value;
        # 1e-300 absorbs products that underflow.
        powers = np.abs(x).max() ** np.arange(degree + 1)
        size = np.abs(coef) @ powers
        size_exact = np.abs(exact_coef) @ powers[: exact_coef.size]
        tol = 1e3 * EPS * (size / spacing**order + size_exact) + 1e-300
        np.testing.assert_allclose(out, exact, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("name", [k for k, s in STENCILS.items() if s[1][0] == -s[1][-1]])
    @SETTINGS
    @given(data=st.data())
    def test_reversal_symmetry(self, name, data):
        # A symmetric stencil treats both ends alike: reversing the input
        # gives (-1)^order times the reversed output, to rounding.
        order, offsets, n_edge = STENCILS[name]
        n = data.draw(st.integers(n_edge, n_edge + 20))
        values = data.draw(hnp.arrays(np.float64, (3, n), elements=st.floats(-1.0, 1.0)))
        spacing = data.draw(st.floats(0.01, 10.0))
        out = _derivative(values, spacing, order, offsets, n_edge)
        reversed_out = _derivative(values[:, ::-1], spacing, order, offsets, n_edge)
        tol = 1e3 * EPS * np.abs(values).max() / spacing**order + 1e-300
        np.testing.assert_allclose(reversed_out, (-1) ** order * out[:, ::-1], rtol=0.0, atol=tol)
