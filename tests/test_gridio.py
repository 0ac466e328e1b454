import os
import stat
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from coneradon import gridio
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


def reference_csv(grid) -> bytes:
    # The CSV writer as one %-format per row: the byte-for-byte reference.
    axes = grid.axes()
    nx = axes[0].n_samples
    lines = ["# CRTG-CSV 1", f"# rank {len(axes)}"]
    lines.append("# dims " + " ".join(str(ax.n_samples) for ax in axes))
    lines += [f"# axis{i} {ax.min:.17g} {ax.max:.17g}" for i, ax in enumerate(axes)]
    row_format = ",".join(["%.17g"] * nx)
    rows = grid.values.ravel(order="F").reshape(-1, nx).tolist()
    lines += [row_format % tuple(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def csv_tokens(values, tmp_path, nx):
    # Write values as rows of nx (zero-padded to whole rows, at least two);
    # returns the tokens of the given values in file order.
    values = np.asarray(values, dtype=float)
    padded = np.concatenate([values, np.zeros(max(-values.size % nx, 2 * nx - values.size))])
    grid = RealGrid2D(AxisSpec(nx, 0, 1), AxisSpec(padded.size // nx, 0, 1),
                      padded.reshape((nx, -1), order="F"))
    path = tmp_path / "t.csv"
    write_grid_csv(path, grid)
    lines = path.read_text(encoding="ascii").splitlines()[5:]
    tokens = [tok for ln in lines for tok in ln.split(",")]
    return tokens[: values.size]


def hard_cases():
    powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
    fixed = [1.2345678901234567 * 10.0**k for k in range(-4, 17)]
    values = [
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300],
        [1e16, 1e17], np.nextafter([1e16, 1e17], 0), np.nextafter([1e16, 1e17], np.inf),
        [9.999999999999999e22], fixed, [0.0, -0.0],
        # Exact ties at the 18th digit, scaled by 10**24, which is no double.
        [2.0**-25, 3 * 2.0**-25],
    ]
    return np.concatenate([np.ravel(v) for v in values])


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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_hard_cases_match_format(self, tmp_path, sign):
        # Powers of ten and their neighbours (log10 may land one off near
        # them), the subnormal and normal extremes, both ends of the 17-digit
        # range, the double nearest 1e23 (9.9999999999999992e+22), every
        # fixed-notation exponent, both zeros and half-way cases.
        values = sign * hard_cases()
        assert csv_tokens(values, tmp_path, nx=2) == [format(v, ".17g") for v in values.tolist()]

    def test_random_bit_patterns_match_format(self, tmp_path):
        # About one value in ten is +0.0 or -0.0, scattered among the others.
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
        bits[rng.random(bits.size) < 0.1] &= np.uint64(1 << 63)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:199_000]
        assert np.count_nonzero(values == 0) > 15_000
        assert csv_tokens(values, tmp_path, nx=7) == [format(v, ".17g") for v in values.tolist()]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zeros_between_hard_cases(self, tmp_path, sign):
        # Each hard case followed by +0.0 and -0.0, in rows of 3 and of 4.
        cases = sign * hard_cases()
        values = np.stack([cases, np.zeros_like(cases), np.full_like(cases, -0.0)], axis=1).ravel()
        for nx in (3, 4):
            assert csv_tokens(values, tmp_path, nx) == [format(v, ".17g") for v in values.tolist()]

    # Wide rows, and rows of 2 to 16 values, whose runs of zero rows hold few
    # values (fewer than 128 in every run of (2, 11) and (16, 6)).
    @pytest.mark.parametrize("shape", [
        (7, 9), (6, 5, 4), (gridio._CSV_BLOCK + 5, 4), (2, 11), (16, 6), (2, 3, 7),
    ])
    def test_zero_rows(self, tmp_path, shape):
        # Rows of +0.0, rows of -0.0, rows of both zeros, rows of zeros and
        # values, and neighbouring rows of one kind, against the %-loop writer;
        # every row of zeros of one sign is a cached line, however short its run.
        rng = np.random.default_rng(9)
        rows = rng.normal(size=shape).reshape(shape[0], -1, order="F")
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[rng.random(rows.shape) < 0.3] = -0.0
        kinds = np.arange(rows.shape[1]) % 7  # 5 and 6: zeros and values
        rows[:, kinds == 0] = 0.0
        rows[:, (kinds == 1) | (kinds == 2)] = -0.0
        rows[:, kinds == 3] = 0.0
        rows[::2, kinds == 3] = -0.0
        rows[:, kinds == 4] = rng.normal(size=shape[0])[:, None]
        values = rows.reshape(shape, order="F")
        axes = [AxisSpec(n, -1.0, 1.0) for n in shape]
        grid = (RealGrid2D if len(shape) == 2 else RealGrid3D)(*axes, values)
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        assert path.read_bytes() == reference_csv(grid)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("shape", [(4, 3), (3, 4, 5), (131, 2)])
    def test_all_zero_grid(self, tmp_path, shape, zero):
        axes = [AxisSpec(n, -1.0, 1.0) for n in shape]
        grid = (RealGrid2D if len(shape) == 2 else RealGrid3D)(*axes, np.full(shape, zero))
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        assert path.read_bytes() == reference_csv(grid)
        assert path.read_text().splitlines()[-1] == ",".join([format(zero, ".17g")] * shape[0])

    @pytest.mark.parametrize("shape", [(gridio._CSV_BLOCK + 5, 3), (48, 47, 5), (97, 90, 2)])
    def test_block_edges(self, tmp_path, shape):
        # A row longer than the block budget, and element counts that are no
        # multiple of it (whole z slices per block, and runs of rows within one).
        values = np.random.default_rng(6).normal(size=shape) * 10.0 ** np.arange(shape[-1])
        axes = [AxisSpec(n, -1.0, 1.0) for n in shape]
        grid = (RealGrid2D if len(shape) == 2 else RealGrid3D)(*axes, values)
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        assert path.read_bytes() == reference_csv(grid)

    @pytest.mark.parametrize("budget", [1, 12, 20, 40])
    def test_every_block_split(self, tmp_path, monkeypatch, budget):
        # Rows of 4 values, 5 per z slice: one row per block, runs of 3 rows,
        # one whole slice, and two slices then one.
        monkeypatch.setattr(gridio, "_CSV_BLOCK", budget)
        values = np.random.default_rng(7).normal(size=(4, 5, 3))
        ax = AxisSpec(4, 0.0, 1.0)
        grid = RealGrid3D(ax, AxisSpec(5, 0.0, 1.0), AxisSpec(3, 0.0, 1.0), values)
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        assert path.read_bytes() == reference_csv(grid)

    @pytest.mark.parametrize("nx", [4, 2, 17])
    @pytest.mark.parametrize("budget", [1, 4, 12, 20, 40])
    def test_zero_rows_at_block_edges(self, tmp_path, monkeypatch, budget, nx):
        # The grid of test_every_block_split, with rows of nx values, with rows
        # of +0.0 and -0.0 that open, close and fill blocks, and its last z
        # slice all +0.0; every zero row is a cached line.  Rows of 2 put 1 to
        # 20 rows in a block, rows of 17 one or two.
        monkeypatch.setattr(gridio, "_CSV_BLOCK", budget)
        values = np.random.default_rng(7).normal(size=(nx, 5, 3))
        values[:, [0, 1], 0] = 0.0
        values[:, 4, 0] = -0.0
        values[:, 0, 1] = -0.0
        values[:, 2, 1] = 0.0
        values[1, 3, 1] = -0.0
        values[:, :, 2] = 0.0
        ax = AxisSpec(nx, 0.0, 1.0)
        grid = RealGrid3D(ax, AxisSpec(5, 0.0, 1.0), AxisSpec(3, 0.0, 1.0), values)
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid)
        assert path.read_bytes() == reference_csv(grid)

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # Blocks of ~8192 values: the traced peak was 2.9 MiB at 48^3 (a
        # 0.84 MiB grid) and 3.4 MiB at 96^3 (6.75 MiB), whose blocks are larger.
        # The second grid of each size has its top third of z levels +0.0 and
        # a tenth of its other values -0.0.
        rng = np.random.default_rng(8)
        write_grid_csv(tmp_path / "warm.csv", random_grid2d(rng))  # builds the lookup tables
        for n, zeros in ((48, False), (48, True), (96, False), (96, True)):
            ax = AxisSpec(n, -1.0, 1.0)
            values = rng.normal(size=(n, n, n))
            if zeros:
                values[:, :, 2 * n // 3 :] = 0.0
                values[rng.random(values.shape) < 0.1] = -0.0
            grid = RealGrid3D(ax, ax, ax, values)
            tracemalloc.start()
            try:
                write_grid_csv(tmp_path / "g.csv", grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**20


def zero_lines_grid(rng, shape=(6, 40, 3)):
    # Runs of rows of +0.0 and of -0.0, written as cached lines.
    values = rng.normal(size=shape)
    values[:, :25, 0] = 0.0
    values[:, 10:30, 1] = -0.0
    return RealGrid3D(*(AxisSpec(n, -1.0, 1.0) for n in shape), values)


def write_heatmap(path, grid):
    export_heatmap(grid, path)


# (writer, grid): every writer, with the .crtg format in 2D and 3D.
WRITERS = [
    pytest.param(write_grid, lambda rng: random_grid2d(rng, 9, 7), id="crtg-2d"),
    pytest.param(write_grid, lambda rng: RealGrid3D(
        AxisSpec(4, -1, 1), AxisSpec(5, -2, 2), AxisSpec(6, 0, 3), rng.normal(size=(4, 5, 6))),
        id="crtg-3d"),
    pytest.param(write_grid_csv, zero_lines_grid, id="csv-zero-lines"),
    pytest.param(write_heatmap, lambda rng: random_grid2d(rng, 9, 7), id="pgm"),
]


def permuted(grid, rng):
    # The same values in another order: a file of the same size, other contents.
    values = rng.permutation(grid.values.ravel()).reshape(grid.values.shape)
    return type(grid)(*grid.axes(), values)


class TestRewriteInPlace:
    @pytest.mark.parametrize("old", ["longer", "shorter", "same-size"])
    @pytest.mark.parametrize("write, make", WRITERS)
    def test_rewrite_matches_a_fresh_write(self, tmp_path, write, make, old):
        rng = np.random.default_rng(20)
        grid = make(rng)
        (tmp_path / "fresh").mkdir()
        write(tmp_path / "fresh" / "out", grid)
        expected = (tmp_path / "fresh" / "out").read_bytes()
        path = tmp_path / "out"
        if old == "same-size":
            write(path, permuted(grid, rng))
            assert path.stat().st_size == len(expected)
            assert path.read_bytes() != expected
        else:
            size = len(expected) * 2 + 4096 if old == "longer" else len(expected) // 3
            path.write_bytes(rng.bytes(size))
        write(path, grid)
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("existing", [True, False])
    def test_interrupted_write_is_refused(self, tmp_path, existing):
        # A body chunk fails part-way, over a same-size .crtg or on a new path:
        # the header is never written, so the file has no magic.
        rng = np.random.default_rng(21)
        grid = random_grid2d(rng, 40, 30)
        (tmp_path / "fresh").mkdir()
        write_grid(tmp_path / "fresh" / "g.crtg", grid)
        data = (tmp_path / "fresh" / "g.crtg").read_bytes()
        header_size = 4 + 4 + 2 * 4 + 2 * 16
        header, body = data[:header_size], data[header_size:]
        path = tmp_path / "g.crtg"
        if existing:
            write_grid(path, permuted(grid, rng))

        def chunks():
            yield body[: len(body) // 2]
            raise OSError("disk gone")

        with pytest.raises(OSError, match="disk gone"):
            gridio._write_file(path, header, chunks())
        with pytest.raises(GridFormatError, match="magic"):
            read_grid(path)

    @pytest.mark.parametrize("write, make", WRITERS)
    def test_symlink_to_dev_null(self, tmp_path, write, make):
        path = tmp_path / "null"
        path.symlink_to(os.devnull)
        write(path, make(np.random.default_rng(22)))
        assert path.is_symlink() and path.stat().st_size == 0

    def test_fifo_gets_header_then_body(self, tmp_path):
        grid = random_grid2d(np.random.default_rng(23), 9, 7)
        write_grid(tmp_path / "g.crtg", grid)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            write_grid(fifo, grid)
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [(tmp_path / "g.crtg").read_bytes()]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_matches_open_wb(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "reference", "wb"):
                pass
            write_grid(tmp_path / "g.crtg", random_grid2d(np.random.default_rng(24)))
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "g.crtg").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference").stat().st_mode) == 0o666 & ~umask


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

    @pytest.mark.parametrize("extreme", [1e308, np.finfo(float).max])
    def test_extreme_finite_values(self, tmp_path, extreme):
        # vmax - vmin overflows; neither a warning nor a NaN cast may follow.
        values = np.array([[-extreme, 0.0], [extreme, -extreme]])
        path = tmp_path / "x.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert export_heatmap(values, path) == (-extreme, extreme)
        img = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=np.uint8).reshape(2, 2)
        # Row 0 is the top of the y axis, column 0 the left of the x axis;
        # 0.0 lies half-way, where a rounding error may tip it either way.
        assert (img[0, 1], img[1, 0], img[1, 1]) == (0, 0, 255)
        assert img[0, 0] in (127, 128)

    def test_pixels_follow_the_min_max_formula(self, tmp_path):
        # Wherever 255·(vmax - vmin) is finite the pixels are
        # round(255·(v - vmin) / (vmax - vmin)) exactly.
        rng = np.random.default_rng(25)
        for scale in (1.0, 1e-300, 1e300):
            values = rng.normal(size=(17, 11)) * scale
            path = tmp_path / "x.pgm"
            export_heatmap(values, path)
            vmin, vmax = values.min(), values.max()
            expected = np.round(255.0 * (values - vmin) / (vmax - vmin)).astype(np.uint8)
            assert path.read_bytes() == b"P5\n17 11\n255\n" + expected.T[::-1].tobytes()

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            export_heatmap(np.zeros((3, 3, 3)), tmp_path / "x.pgm")
