import struct

import numpy as np
import pytest

from coneradon.grids import AxisSpec, RealGrid2D, RealGrid3D
from coneradon.gridio import (
    GridFormatError,
    export_heatmap,
    read_grid,
    write_grid,
    write_grid_csv,
)
from coneradon.phantoms import BumpSpec, render_bumps_2d


def random_grid2d(rng, nx=7, ny=5):
    return RealGrid2D(
        AxisSpec(nx, -1.5, 2.0), AxisSpec(ny, 0.25, 0.75), rng.normal(size=(nx, ny))
    )


class TestBinaryRoundTrip:
    def test_2d_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = random_grid2d(rng)
        path = tmp_path / "g.crtg"
        write_grid(path, grid)
        back = read_grid(path)
        assert back.axes() == grid.axes()
        np.testing.assert_array_equal(back.values, grid.values)
        # repeated writes are byte-identical
        path2 = tmp_path / "g2.crtg"
        write_grid(path2, grid)
        assert path.read_bytes() == path2.read_bytes()

    def test_3d_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = RealGrid3D(
            AxisSpec(4, -1, 1), AxisSpec(5, -2, 2), AxisSpec(6, 0, 3),
            rng.normal(size=(4, 5, 6)),
        )
        path = tmp_path / "g3.crtg"
        write_grid(path, grid)
        back = read_grid(path)
        assert back.axes() == grid.axes()
        np.testing.assert_array_equal(back.values, grid.values)

    def test_payload_order_x_fastest(self, tmp_path):
        grid = RealGrid2D(
            AxisSpec(3, 0, 1), AxisSpec(2, 0, 1), np.arange(6, dtype=float).reshape(3, 2)
        )
        path = tmp_path / "order.crtg"
        write_grid(path, grid)
        raw = path.read_bytes()
        header = 4 + 4 + 2 * 4 + 2 * 16
        payload = np.frombuffer(raw[header:], dtype="<f8")
        # values[ix, iy] flattened with ix fastest
        np.testing.assert_array_equal(payload, [0, 2, 4, 1, 3, 5])


class TestFormatErrors:
    def test_truncation_names_offset(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = random_grid2d(rng)
        path = tmp_path / "g.crtg"
        write_grid(path, grid)
        clipped = tmp_path / "clipped.crtg"
        clipped.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(GridFormatError, match="byte offset"):
            read_grid(clipped)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.crtg"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(GridFormatError, match="magic"):
            read_grid(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "zero.crtg"
        header = b"CRTG" + struct.pack("<HH", 1, 2) + struct.pack("<II", 0, 4)
        path.write_bytes(header + struct.pack("<dddd", 0, 1, 0, 1))
        with pytest.raises(GridFormatError, match="dimension"):
            read_grid(path)

    def test_bad_version_and_rank(self, tmp_path):
        path = tmp_path / "v.crtg"
        path.write_bytes(b"CRTG" + struct.pack("<HH", 9, 2) + b"\x00" * 40)
        with pytest.raises(GridFormatError, match="version"):
            read_grid(path)
        path.write_bytes(b"CRTG" + struct.pack("<HH", 1, 5) + b"\x00" * 40)
        with pytest.raises(GridFormatError, match="rank"):
            read_grid(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.crtg"
        header = b"CRTG" + struct.pack("<HH", 1, 2) + struct.pack("<II", 2, 2)
        bounds = struct.pack("<dddd", 0, 1, 0, 1)
        payload = struct.pack("<dddd", 1.0, 2.0, float("nan"), 4.0)
        path.write_bytes(header + bounds + payload)
        with pytest.raises(GridFormatError, match="non-finite"):
            read_grid(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        # 100 bytes that declare 65535^3 samples: refused, not allocated.
        path = tmp_path / "huge.crtg"
        header = b"CRTG" + struct.pack("<HH", 1, 3) + struct.pack("<3I", 65535, 65535, 65535)
        data = header + struct.pack("<6d", 0, 1, 0, 1, 0, 1)
        path.write_bytes(data + b"\x00" * (100 - len(data)))
        with pytest.raises(GridFormatError, match="truncated.*byte offset"):
            read_grid(path)

    def test_wrapping_dimensions_rejected(self, tmp_path):
        # 2^22 * 2^22 * 2^20 samples wrap to 0 in int64; the header alone is no grid.
        path = tmp_path / "wrap.crtg"
        header = b"CRTG" + struct.pack("<HH", 1, 3) + struct.pack("<3I", 2**22, 2**22, 2**20)
        path.write_bytes(header + struct.pack("<6d", 0, 1, 0, 1, 0, 1))
        with pytest.raises(GridFormatError, match="truncated.*payload"):
            read_grid(path)

    def test_infinite_axis_extent_rejected(self, tmp_path):
        path = tmp_path / "inf.crtg"
        header = b"CRTG" + struct.pack("<HH", 1, 2) + struct.pack("<II", 8, 8)
        bounds = struct.pack("<dddd", -1e308, 1e308, 0, 1)
        path.write_bytes(header + bounds + b"\x00" * (8 * 64))
        with pytest.raises(GridFormatError, match="invalid axis 0"):
            read_grid(path)

    def test_trailing_data_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = random_grid2d(rng)
        path = tmp_path / "g.crtg"
        write_grid(path, grid)
        padded = tmp_path / "padded.crtg"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(GridFormatError, match="trailing"):
            read_grid(padded)


class TestCsvExport:
    def test_header_and_lossless_values(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = random_grid2d(rng, nx=4, ny=3)
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# CRTG-CSV")
        assert "# rank 2" in lines[1]
        data_lines = [ln for ln in lines if not ln.startswith("#")]
        parsed = np.array([[float(tok) for tok in ln.split(",")] for ln in data_lines])
        np.testing.assert_array_equal(parsed.ravel(), grid.values.ravel(order="F"))

    def test_tokens_are_17_significant_digits(self, tmp_path):
        # Parsing back cannot tell formats apart; pin the exact tokens.
        special = [-0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0, 2.0]
        grid = RealGrid2D(
            AxisSpec(2, -0.1, 1.0 / 3.0), AxisSpec(3, 0.0, 1e300),
            np.array(special).reshape((2, 3), order="F"),
        )
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        lines = path.read_text().splitlines()
        assert lines[3:5] == [
            "# axis0 -0.10000000000000001 0.33333333333333331",
            "# axis1 0 1.0000000000000001e+300",
        ]
        rows = [ln.split(",") for ln in lines[5:]]
        assert rows == [
            ["-0", "4.9406564584124654e-324"],
            ["1.0000000000000001e+300", "0.10000000000000001"],
            ["0.33333333333333331", "2"],
        ]
        assert [tok for row in rows for tok in row] == [format(v, ".17g") for v in special]


class TestHeatmap:
    def test_constant_is_mid_gray(self, tmp_path):
        grid = RealGrid2D(AxisSpec(4, 0, 1), AxisSpec(3, 0, 1), np.full((4, 3), 2.5))
        path = tmp_path / "c.pgm"
        vmin, vmax = export_heatmap(grid, path)
        assert (vmin, vmax) == (2.5, 2.5)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert set(raw[len(b"P5\n4 3\n255\n"):]) == {128}

    def test_brightest_pixel_at_bump_center(self, tmp_path):
        ax = AxisSpec(21, -1.0, 1.0)
        f = render_bumps_2d([BumpSpec((0.2, 0.1), 0.25, 1.0)], ax, ax)
        path = tmp_path / "b.pgm"
        export_heatmap(f, path)
        raw = path.read_bytes()
        body = raw.split(b"\n", 3)[3]
        img = np.frombuffer(body, dtype=np.uint8).reshape(21, 21)  # rows = y top-down
        r, c = np.unravel_index(np.argmax(img), img.shape)
        ix = round((0.2 + 1) / ax.spacing)
        iy = round((0.1 + 1) / ax.spacing)
        assert (r, c) == (21 - 1 - iy, ix)
        assert img[r, c] == 255

    def test_two_bump_intensity_ordering(self, tmp_path):
        ax = AxisSpec(41, -1.0, 1.0)
        f = render_bumps_2d(
            [BumpSpec((0.5, 0.3), 0.25, 3.0), BumpSpec((-0.2, -0.2), 0.25, 4.0)], ax, ax
        )
        path = tmp_path / "two.pgm"
        export_heatmap(f, path)
        body = path.read_bytes().split(b"\n", 3)[3]
        img = np.frombuffer(body, dtype=np.uint8).reshape(41, 41)

        def pixel(x0, y0):
            ix = round((x0 + 1) / ax.spacing)
            iy = round((y0 + 1) / ax.spacing)
            return img[41 - 1 - iy, ix]

        assert pixel(-0.2, -0.2) == 255
        assert pixel(0.5, 0.3) < pixel(-0.2, -0.2)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            export_heatmap(np.zeros((3, 3, 3)), tmp_path / "x.pgm")
