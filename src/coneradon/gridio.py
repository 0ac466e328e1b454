"""Grid serialization: a little-endian binary format, a CSV mirror and 8-bit
grayscale heatmap export.

Binary layout (all little-endian): magic ``CRTG``, u16 version, u16 rank, then
rank u32 dimension counts, rank (f64 min, f64 max) axis-bound pairs, and the
payload as f64 in x-fastest order (then y, then z).  The format round-trips
bit-exactly for every finite payload.

Every writer rewrites an existing regular file in place and cuts it to the
new length, instead of truncating it first: the kernel then keeps the file's
cached pages rather than freeing and allocating them again.  The header goes
in last, over NULs written first, so a write that stops part-way (an
exception or a kill) leaves a ``.crtg`` file with no magic, which
:func:`read_grid` refuses.  A reader that opens the file while it is being
rewritten may see a mix of the old and the new contents.
"""

import functools
import itertools
import math
import os
import stat
import struct
from typing import NamedTuple

import numpy as np

from .grids import AxisSpec, NonFiniteGridError, RealGrid2D, RealGrid3D, _blocks

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


def _write_file(path, header: bytes, chunks) -> None:
    """Write ``header`` and then the byte chunks to ``path``.

    A regular file is rewritten in place: NULs over the header's length, the
    chunks, a cut at the end of the body, then the header at offset 0.  Any
    other target (``/dev/null``, a FIFO) gets the header and the chunks in
    order.  A new file gets the mode bits ``open(path, "wb")`` would give it.
    """
    # No O_TRUNC; O_BINARY (Windows only) keeps newlines untranslated.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            fh.write(header)
            fh.writelines(chunks)
            return
        fh.write(bytes(len(header)))
        fh.writelines(chunks)
        fh.truncate()
        fh.seek(0)
        fh.write(header)


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
    _write_file(path, bytes(header), [payload])


def _read_exact(fh, count: int, what: str) -> bytes:
    # Read no more than the file holds past the current position, so a header
    # that declares a huge payload is refused here instead of allocating it.
    offset = fh.tell()
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
        magic = _read_exact(fh, 4, "magic")
        if magic != _MAGIC:
            raise GridFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        version, rank = struct.unpack("<HH", _read_exact(fh, 4, "version/rank"))
        if version != _VERSION:
            raise GridFormatError(f"unsupported format version {version}")
        if rank not in (2, 3):
            raise GridFormatError(f"unsupported rank {rank}")
        dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dimensions"))
        if any(d < 2 for d in dims):
            raise GridFormatError(f"dimension counts must be >= 2, got {dims}")
        axes = []
        for i in range(rank):
            lo, hi = struct.unpack("<dd", _read_exact(fh, 16, f"axis {i} bounds"))
            try:
                axes.append(AxisSpec(dims[i], lo, hi))
            except ValueError as exc:
                raise GridFormatError(f"invalid axis {i}: {exc}") from exc
        count = math.prod(dims)
        raw = _read_exact(fh, 8 * count, "payload")
        if fh.read(1):
            raise GridFormatError(f"trailing data after payload at byte offset {fh.tell() - 1}")
    values = np.frombuffer(raw, dtype="<f8").reshape(dims, order="F").copy()
    try:
        if rank == 2:
            return RealGrid2D(axes[0], axes[1], values)
        return RealGrid3D(axes[0], axes[1], axes[2], values)
    except NonFiniteGridError as exc:
        raise GridFormatError(f"non-finite payload: {exc}") from exc


# The CSV formatter works on blocks of about this many values, rounded to
# whole rows of n_x (at least one row), so its temporaries stay a fixed size
# whatever the grid's.
_CSV_BLOCK = 8192

# Decimal exponents the vectorized formatter handles: on |x| in about
# [1e-280, 1e280] no step of the scaled product below overflows or underflows.
# The table spans one exponent more on each side, since log10 can land one off.
_X_MIN, _X_MAX = -281, 281
_CSV_MIN, _CSV_MAX = 1e-280, 1e280

# A scaled value whose fractional part lies this close to 1/2 may round
# either way; the product's error is below 1e-14, so this is a wide margin.
_TIE_MARGIN = 2.0**-40

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for doubles

# Each value becomes one row of four little-endian 64-bit words (32 bytes)
# holding every byte a %.17g token can use, NUL where the token has none:
#   byte 0       sign
#   bytes 1-5    "0.000", the lead of a fixed token below 1 ("0." and up to 3 zeros)
#   byte 7       d0, the first digit
#   bytes 8-24   digit columns 1..17: d1..d16 with one point slot
#   bytes 26-30  exponent, "e+NN" or "e+NNN"
#   byte 31      separator
# Deleting the NULs from the rows' bytes gives the CSV text.
_WORD = np.dtype("<u8")
_LEADS = 6  # lead lengths 0..5
_KEEPS = 18  # last kept digit column: 0 (d0 alone) .. 17
_TOP_BYTE = np.uint64(56)  # shift to or from a word's last byte


class _CsvTables(NamedTuple):
    pow10: np.ndarray  # column x - _X_MIN: 10**(16 - x) as hi, lo, and hi's Veltkamp halves
    chunk: np.ndarray  # k < 10**4 -> its 4 ASCII digits in the low 4 bytes of a word
    trailing: np.ndarray  # k < 10**4 -> trailing zero digits of k written as 4 digits
    exponent: np.ndarray  # row x - _X_MIN: word 3 with x's exponent; last row empty
    head: np.ndarray  # _LEADS * sign + lead length -> word 0 without d0
    tail: np.ndarray  # _KEEPS * (P + 1) + last kept column -> words 1-3 masks


def _tail_masks(point: int, keep: int) -> bytes:
    # Masks of words 1-3, which hold digit columns 1..17 at bytes 0..16, for
    # a point after digit P (P = -1: no point): column j holds d_j while
    # j <= P, the point at j = P + 1 and d_(j-1) beyond.  Columns after the
    # last kept one are NUL.  Returns the masks of d_j, of d_(j-1) and the
    # point itself.
    digit, moved, dot = bytearray(24), bytearray(24), bytearray(24)
    for j in range(1, keep + 1):
        if point < 0 or j <= point:
            digit[j - 1] = 0xFF
        elif j == point + 1:
            dot[j - 1] = ord(".")
        else:
            moved[j - 1] = 0xFF
    return bytes(digit + moved + dot)


@functools.cache
def _csv_tables() -> _CsvTables:
    # Exact by construction: int / int and int -> float round correctly, so
    # hi is 10**s rounded and lo is the exact remainder 10**s - hi rounded.
    pairs = []
    for x in range(_X_MIN, _X_MAX + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        pairs.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(pairs).T
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    pow10 = np.stack([hi, lo, hi_h, hi - hi_h])
    pow10.flags.writeable = False

    k = np.arange(10**4)
    digits = np.zeros((10**4, 8), dtype=np.uint8)
    digits[:, :4] = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + ord("0")
    chunk = digits.view(_WORD).ravel()
    chunk.flags.writeable = False
    trailing = (k % 10 == 0).astype(np.int64) + (k % 100 == 0) + (k % 1000 == 0) + (k == 0)
    trailing.flags.writeable = False

    def words(rows):
        return np.frombuffer(b"".join(rows), dtype=_WORD)  # read-only

    exponent = words(
        [f"\0\0e{x:+03d}".encode("ascii").ljust(8, b"\0") for x in range(_X_MIN, _X_MAX + 1)]
        + [bytes(8)]
    )
    head = words(
        [(b"-" if sign else b"\0") + b"0.000"[:lead].ljust(7, b"\0")
         for sign in (0, 1) for lead in range(_LEADS)]
    )
    tail = words([_tail_masks(p, k) for p in range(-1, 17) for k in range(_KEEPS)]).reshape(-1, 9)
    return _CsvTables(pow10, chunk, trailing, exponent, head, tail)


def _digit_rows(v: np.ndarray) -> np.ndarray:
    """Rows of nonzero values, each token exactly ``format(x, ".17g")``, separator NUL."""
    t = _csv_tables()
    n = v.size
    a = np.abs(v)
    in_range = (a >= _CSV_MIN) & (a <= _CSV_MAX)
    a = np.where(in_range, a, 1.0)  # fallbacks format 1.0 meanwhile
    x = np.floor(np.log10(a)).astype(np.intp)

    # a * 10**(16 - x) = p + e up to ~1e-14: Dekker's exact product of a with
    # the table's hi, plus a * lo.  p >= 1e16 > 2**53 is integer-valued
    # wherever the digits below are used.
    hi, lo, hi_h, hi_l = np.take(t.pow10, x - _X_MIN, axis=1)
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    p = a * hi
    e = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    e_floor = np.floor(e)
    frac = e - e_floor
    d_floor = p.astype(np.int64) + e_floor.astype(np.int64)
    # Where 10**(16 - x) is a double (lo == 0) p + e is exact, so a half is a
    # true tie: round it to even, as %.17g does.
    exact_scale = lo == 0
    d = d_floor + ((frac > 0.5) | (exact_scale & (frac == 0.5) & ((d_floor & 1) == 1)))
    # The 17 digits d hold only if the rounding is clear and x is the exponent
    # of the rounded value; any other value takes the exact per-value path.
    fallback = ~in_range | (~exact_scale & (np.abs(frac - 0.5) < _TIE_MARGIN))
    fallback |= (d_floor < 10**16) | (d >= 10**17)

    # Digits: d0, then d1..d16 as four 4-digit chunks.
    d0 = d // 10**16
    rest = d - d0 * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    c1 = upper // 10**4
    c3 = lower // 10**4
    chunks = (c1, upper - c1 * 10**4, c3, lower - c3 * 10**4)
    # Trailing zeros of d1..d16: the last chunk's, or where it is 0000 a scan
    # of all four chunks.
    zeros = t.trailing[chunks[3]]
    empty = np.flatnonzero(chunks[3] == 0)
    if empty.size:
        scan = 0
        for chunk in chunks:
            z = t.trailing[chunk[empty]]
            scan = np.where(z == 4, scan + 4, z)
        zeros[empty] = scan
    last = 16 - zeros  # column of the last nonzero digit, 0 for d0 alone
    word1 = t.chunk[chunks[0]] | (t.chunk[chunks[1]] << np.uint64(32))
    word2 = t.chunk[chunks[2]] | (t.chunk[chunks[3]] << np.uint64(32))

    # %g: fixed notation for -4 <= x < 17, exponent notation otherwise.  The
    # point follows digit x (fixed, x >= 0) or d0 (exponent notation); fixed
    # tokens below 1 carry "0." and -x - 1 zeros instead.  Trailing zeros of
    # the fraction and a bare point are dropped: the last kept column is the
    # last nonzero digit's, counting the point when it is kept.
    fixed = (x >= -4) & (x < 17)
    below = fixed & (x < 0)
    point = np.where(below, -1, np.where(fixed, x, 0))
    # A kept point is one more column.
    keep = np.where(below, last, np.where(last > point, last + 1, point))
    masks = np.take(t.tail, (point + 1) * _KEEPS + keep, axis=0)

    row = np.empty((n, 4), dtype=_WORD)
    lead = np.where(below, 1 - x, 0)
    d0_byte = (d0 + ord("0")).astype(np.uint64) << _TOP_BYTE
    row[:, 0] = t.head[np.signbit(v) * _LEADS + lead] | d0_byte
    row[:, 1] = (word1 & masks[:, 0]) | ((word1 << np.uint64(8)) & masks[:, 3]) | masks[:, 6]
    moved = (word2 << np.uint64(8)) | (word1 >> _TOP_BYTE)
    row[:, 2] = (word2 & masks[:, 1]) | (moved & masks[:, 4]) | masks[:, 7]
    row[:, 3] = ((word2 >> _TOP_BYTE) & masks[:, 5]) | masks[:, 8]
    row[:, 3] |= t.exponent[np.where(fixed, len(t.exponent) - 1, x - _X_MIN)]

    text = row.view(np.uint8)
    for i in np.flatnonzero(fallback):
        token = format(float(v[i]), ".17g").encode("ascii")
        text[i, :-1] = 0
        text[i, : len(token)] = np.frombuffer(token, dtype=np.uint8)
    return row


# Word 0 of the rows of +0.0 and -0.0, the tokens "0" and "-0"; their other
# words are NUL.
_ZERO_WORDS = np.frombuffer(b"0".ljust(8, b"\0") + b"-0".ljust(8, b"\0"), dtype=_WORD)
_NEGATIVE_ZERO = np.uint64(1 << 63)


def _text(row: np.ndarray, nx: int) -> bytes:
    # CSV text of whole lines of n_x rows: the separators, then the NULs deleted.
    row[:, 3] |= np.uint64(ord(",")) << _TOP_BYTE
    row[nx - 1 :: nx, 3] ^= np.uint64(ord(",") ^ ord("\n")) << _TOP_BYTE
    return row.tobytes().translate(None, b"\0")


def _format_block(v: np.ndarray, nx: int, zero_lines: tuple[bytes, bytes]) -> list[bytes]:
    """Lines of n_x values as CSV text, every token exactly ``format(x, ".17g")``.

    Zeros, found on their bit pattern, never reach ``_digit_rows``: +0.0 and
    -0.0 take the fixed rows of "0" and "-0", and a line of n_x zeros of one
    sign is ``zero_lines[0]`` (+0.0) or ``zero_lines[1]`` (-0.0) as it is.
    """
    bits = v.view(_WORD)
    zero = (bits << np.uint64(1)) == 0
    if not zero.any():
        return [_text(_digit_rows(v), nx)]
    lines = bits.reshape(-1, nx)
    # Per line: 0 to format, 1 for zero_lines[0], 2 for zero_lines[1].
    kind = (lines == 0).all(axis=1) + 2 * (lines == _NEGATIVE_ZERO).all(axis=1)
    # First line and length of each run of lines of one kind.
    starts = np.flatnonzero(np.diff(kind, prepend=-1))
    lengths = np.diff(starts, append=kind.size)
    formatted = np.repeat(kind == 0, nx)
    v, zero = v[formatted], zero[formatted]
    # Every row as a zero of its value's sign, then the nonzero values' rows.
    row = np.zeros((v.size, 4), dtype=_WORD)
    row[:, 0] = np.where(np.signbit(v), _ZERO_WORDS[1], _ZERO_WORDS[0])
    if not zero.all():
        row[~zero] = _digit_rows(v[~zero])
    # Runs of lines of one kind, in order; each formatted run takes the next
    # lines of row.
    segments, done = [], 0
    for k, count in zip(kind[starts].tolist(), lengths.tolist()):
        if k:
            segments.append(zero_lines[k - 1] * count)
        else:
            segments.append(_text(row[done : done + count * nx], nx))
            done += count * nx
    return segments


def _row_blocks(values: np.ndarray):
    # Whole rows of the x-fastest payload, about _CSV_BLOCK values at a time:
    # whole z slices when a slice fits, else runs of rows within one slice.
    nx, ny = values.shape[:2]
    v = values.reshape(nx, ny, -1)
    for z_run in _blocks(v.shape[2], nx * ny, _CSV_BLOCK):
        for y_run in _blocks(ny, nx, _CSV_BLOCK):
            yield v[:, y_run, z_run].T.reshape(-1)


def write_grid_csv(path, grid) -> None:
    """CSV mirror of the binary format: header comments, then payload rows of
    n_x comma-separated values in x-fastest order.

    Every value token is exactly ``format(value, ".17g")``: 17 significant
    digits that parse back to the same double.  numpy builds the tokens in
    blocks of whole rows (about 8192 values), so memory does not grow with
    the grid.  A value whose digits the block's error bound cannot decide (a
    near tie, a magnitude outside about [1e-280, 1e280], a subnormal) is
    formatted exactly by Python, one value at a time.

    Zeros are found on their bit pattern and never formatted: +0.0 is the
    token ``0`` and -0.0 the token ``-0``, which is ``format(value, ".17g")``
    too, and a line of n_x zeros of one sign is written as one cached line.
    """
    axes = grid.axes()
    nx = axes[0].n_samples
    header = [
        f"# CRTG-CSV {_VERSION}",
        f"# rank {len(axes)}",
        "# dims " + " ".join(str(ax.n_samples) for ax in axes),
    ]
    header += [f"# axis{i} {ax.min:.17g} {ax.max:.17g}" for i, ax in enumerate(axes)]
    zero_lines = tuple((",".join([token] * nx) + "\n").encode("ascii") for token in ("0", "-0"))
    body = itertools.chain.from_iterable(
        _format_block(block, nx, zero_lines) for block in _row_blocks(grid.values)
    )
    _write_file(path, ("\n".join(header) + "\n").encode("ascii"), body)


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
        lo, span = vmin, vmax - vmin
        if not math.isfinite(255.0 * span):
            # 255·(v − vmin) would overflow: scale by 2**-10 first, which
            # keeps both ends exact.
            scale = 2.0**-10
            values, lo, span = values * scale, vmin * scale, vmax * scale - vmin * scale
        img = np.round(255.0 * (values - lo) / span).astype(np.uint8)
    else:
        img = np.full(values.shape, 128, dtype=np.uint8)
    pixels = np.ascontiguousarray(img.T[::-1])  # row 0 = top of the y axis
    height, width = pixels.shape
    _write_file(path, f"P5\n{width} {height}\n255\n".encode("ascii"), [pixels])
    return vmin, vmax
