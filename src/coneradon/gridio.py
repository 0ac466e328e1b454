"""Grid serialization: a little-endian binary format, a CSV mirror and 8-bit
grayscale heatmap export.

Binary layout (all little-endian): magic ``CRTG``, u16 version, u16 rank, then
rank u32 dimension counts, rank (f64 min, f64 max) axis-bound pairs, and the
payload as f64 in x-fastest order (then y, then z).  The format round-trips
bit-exactly for every finite payload.
"""

import math
import os
import struct

import numpy as np

from .grids import AxisSpec, NonFiniteGridError, RealGrid2D, RealGrid3D

__all__ = [
    "GridFormatError",
    "export_heatmap",
    "read_grid",
    "write_grid",
    "write_grid_csv",
]

_MAGIC = b"CRTG"
_VERSION = 1


class GridFormatError(ValueError):
    """Raised when a grid file is missing, malformed or truncated."""


def write_grid(path, grid) -> None:
    """Serialize a RealGrid2D or RealGrid3D to ``path`` (bit-exact round trip)."""
    axes = grid.axes()
    rank = len(axes)
    header = bytearray(_MAGIC)
    header += struct.pack("<HH", _VERSION, rank)
    header += struct.pack(f"<{rank}I", *(ax.n_samples for ax in axes))
    for ax in axes:
        header += struct.pack("<dd", ax.min, ax.max)
    payload = np.ascontiguousarray(grid.values.ravel(order="F"), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(payload.tobytes())


def _read_exact(fh, count: int, offset: int, what: str) -> bytes:
    # Read no more than the file holds, so a header that declares a huge
    # payload is refused here instead of allocating it.
    available = os.fstat(fh.fileno()).st_size - offset
    data = fh.read(min(count, available))
    if len(data) != count:
        raise GridFormatError(
            f"truncated grid file: wanted {count} bytes for {what} at byte offset "
            f"{offset}, got {len(data)}"
        )
    return data


def read_grid(path):
    """Read a grid written by :func:`write_grid`; returns RealGrid2D or RealGrid3D."""
    with open(path, "rb") as fh:
        offset = 0
        magic = _read_exact(fh, 4, offset, "magic")
        if magic != _MAGIC:
            raise GridFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        offset += 4
        version, rank = struct.unpack("<HH", _read_exact(fh, 4, offset, "version/rank"))
        offset += 4
        if version != _VERSION:
            raise GridFormatError(f"unsupported format version {version}")
        if rank not in (2, 3):
            raise GridFormatError(f"unsupported rank {rank}")
        dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, offset, "dimensions"))
        offset += 4 * rank
        if any(d < 2 for d in dims):
            raise GridFormatError(f"dimension counts must be >= 2, got {dims}")
        axes = []
        for i in range(rank):
            lo, hi = struct.unpack("<dd", _read_exact(fh, 16, offset, f"axis {i} bounds"))
            offset += 16
            try:
                axes.append(AxisSpec(dims[i], lo, hi))
            except ValueError as exc:
                raise GridFormatError(f"invalid axis {i}: {exc}") from exc
        count = math.prod(dims)
        raw = _read_exact(fh, 8 * count, offset, "payload")
        offset += 8 * count
        if fh.read(1):
            raise GridFormatError(f"trailing data after payload at byte offset {offset}")
    values = np.frombuffer(raw, dtype="<f8").reshape(dims, order="F").copy()
    try:
        if rank == 2:
            return RealGrid2D(axes[0], axes[1], values)
        return RealGrid3D(axes[0], axes[1], axes[2], values)
    except NonFiniteGridError as exc:
        raise GridFormatError(f"non-finite payload: {exc}") from exc


def write_grid_csv(path, grid) -> None:
    """CSV mirror of the binary format: header comments, then payload rows of
    n_x comma-separated values in x-fastest order (17 significant digits)."""
    axes = grid.axes()
    nx = axes[0].n_samples
    rows = grid.values.ravel(order="F").reshape(-1, nx)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# CRTG-CSV {_VERSION}\n")
        fh.write(f"# rank {len(axes)}\n")
        fh.write("# dims " + " ".join(str(ax.n_samples) for ax in axes) + "\n")
        for i, ax in enumerate(axes):
            fh.write(f"# axis{i} {ax.min:.17g} {ax.max:.17g}\n")
        row_format = ",".join(["%.17g"] * nx) + "\n"
        for row in rows:
            fh.write(row_format % tuple(row.tolist()))


def export_heatmap(grid, path) -> tuple[float, float]:
    """Write an 8-bit binary PGM (P5) heatmap of a 2D grid or z-slice array.

    Values are min-max normalized to [0, 255]; a constant grid renders as
    uniform mid-gray (128).  Rows run from the top of the y-axis downward,
    columns from the left of the x-axis; returns the (min, max) normalization
    bounds so callers can record them.
    """
    values = grid.values if hasattr(grid, "values") else np.asarray(grid, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"heatmap export needs a 2D array, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteGridError("heatmap input must be finite")
    vmin = float(values.min())
    vmax = float(values.max())
    if vmax > vmin:
        img = np.round(255.0 * (values - vmin) / (vmax - vmin)).astype(np.uint8)
    else:
        img = np.full(values.shape, 128, dtype=np.uint8)
    pixels = np.ascontiguousarray(img.T[::-1])  # row 0 = top of the y axis
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    return vmin, vmax
