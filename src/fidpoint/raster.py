"""8-bit grayscale rasters, PGM I/O, and summed-area tables.

The tables answer axis-aligned rectangle sums, squared sums, and
45-degree rotated rectangle sums in constant time.  All accumulators
are 64-bit, so sums over any window of 8-bit pixels are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PgmFormatError(ValueError):
    """Malformed PGM content; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BoundsError(ValueError):
    """A rectangle or window does not lie inside the image."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: top-left (x, y), extent (w, h) in pixels.

    The same type doubles as a 45-degree rotated rectangle for
    :func:`rotated_rect_sum`, where (x, y) is the apex pixel, ``w`` the
    number of pixels stepped along the down-right diagonal and ``h``
    along the down-left diagonal (see that function for the exact
    membership rule).
    """

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect extent must be >= 1, got {self.w}x{self.h}")


class GrayImage:
    """Immutable 8-bit grayscale image; pixel (x, y) is ``pixels[y, x]``."""

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"expected a non-empty 2-d array, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("pixel values outside [0, 255]")
            arr = arr.astype(np.uint8)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GrayImage is immutable")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"

    def mirrored(self) -> "GrayImage":
        """Horizontal mirror: pixel (x, y) -> (width-1-x, y)."""
        return GrayImage(self.pixels[:, ::-1])


def _tokenize_pgm(data: bytes, start: int, count: int):
    """Yield (token, offset) pairs from a PGM header, skipping # comments."""
    pos = start
    got = 0
    n = len(data)
    while got < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos] == ord("#"):
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise PgmFormatError("unterminated comment", pos)
            pos = nl + 1
            continue
        if pos >= n:
            raise PgmFormatError("truncated data", pos)
        end = pos
        while end < n and not data[end : end + 1].isspace():
            end += 1
        yield data[pos:end], pos
        got += 1
        pos = end
    yield b"", pos  # final cursor position


def load_pgm(data: bytes) -> GrayImage:
    """Decode binary (P5) or ASCII (P2) PGM content with maxval <= 255.

    Header comments (``#`` to end of line) are skipped.  Raises
    :class:`PgmFormatError` naming the offending byte offset on any
    malformed input.
    """
    if len(data) < 2 or data[:1] != b"P" or data[1:2] not in (b"5", b"2"):
        raise PgmFormatError("not a P5/P2 PGM file", 0)
    binary = data[1:2] == b"5"
    fields = []
    for token, off in _tokenize_pgm(data, 2, 3):
        fields.append((token, off))
    (w_tok, w_off), (h_tok, h_off), (mv_tok, mv_off), (_, cursor) = fields
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(mv_tok)
    except ValueError:
        bad = next(off for tok, off in fields[:3] if not tok.isdigit())
        raise PgmFormatError("non-numeric header field", bad) from None
    if width < 1 or height < 1:
        raise PgmFormatError("image dimensions must be >= 1", w_off if width < 1 else h_off)
    if not 0 < maxval <= 255:
        raise PgmFormatError(f"unsupported maxval {maxval}", mv_off)
    npix = width * height
    if binary:
        # Exactly one whitespace byte separates the header from the raster.
        if cursor >= len(data) or not data[cursor : cursor + 1].isspace():
            raise PgmFormatError("missing whitespace after maxval", cursor)
        cursor += 1
        if len(data) - cursor < npix:
            raise PgmFormatError("truncated pixel data", len(data))
        arr = np.frombuffer(data, dtype=np.uint8, count=npix, offset=cursor)
    else:
        # every sample needs a separator and a digit; checking that before
        # allocating keeps a forged header from requesting a huge array
        if len(data) - cursor < 2 * npix:
            raise PgmFormatError("truncated pixel data", len(data))
        vals = np.empty(npix, dtype=np.uint8)
        i = 0
        for token, off in _tokenize_pgm(data, cursor, npix):
            if i == npix:
                break
            if not token.isdigit():
                raise PgmFormatError("non-numeric sample", off)
            v = int(token)
            if v > maxval:
                raise PgmFormatError(f"sample {v} exceeds maxval", off)
            vals[i] = v
            i += 1
        arr = vals
    return GrayImage(arr.reshape(height, width))


def save_pgm(image: GrayImage) -> bytes:
    """Encode as binary P5 with maxval 255; inverse of :func:`load_pgm`."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


class IntegralTables:
    """Cumulative sum tables over one image.

    ``sums`` and ``sq_sums`` have shape (height+1, width+1), zero-padded
    on the top and left, so ``sums[y, x]`` is the sum over all pixels
    (x', y') with x' < x and y' < y.  When built with ``want_rotated``,
    two per-parity prefix tables over diagonal coordinates answer
    45-degree rotated rectangle sums.
    """

    __slots__ = ("width", "height", "sums", "sq_sums", "_rot", "_rot_off")

    def __init__(self, image: GrayImage, want_rotated: bool = False):
        px = image.pixels.astype(np.int64)
        self.width = image.width
        self.height = image.height
        self.sums = _prefix2d(px)
        self.sq_sums = _prefix2d(px * px)
        self._rot = None
        self._rot_off = 0
        if want_rotated:
            self._build_rotated(px)

    @property
    def has_rotated(self) -> bool:
        return self._rot is not None

    def _build_rotated(self, px: np.ndarray) -> None:
        # Pixels of one checkerboard class c are re-gridded on diagonal
        # coordinates alpha = (x+y-c)/2, beta = (y-x-c)/2; a prefix sum on
        # that grid yields the class-c pyramid sum for any apex lattice
        # point of class c in O(1).
        h, w = px.shape
        ys, xs = np.mgrid[0:h, 0:w]
        off = (w + 1) // 2 + 1  # keeps beta indices positive with slack
        self._rot_off = off
        na = (w + h) // 2 + 2
        tables = []
        for c in (0, 1):
            mask = ((xs + ys) & 1) == c
            alpha = (xs[mask] + ys[mask] - c) // 2
            beta = (ys[mask] - xs[mask] - c) // 2 + off
            grid = np.zeros((na, na + off), dtype=np.int64)
            grid[alpha, beta] = px[mask]
            tables.append(_prefix2d(grid))
        self._rot = tables

    def _pyramid(self, ax: int, ay: int) -> int:
        """Sum of all pixels (x, y) of apex parity with x+y <= ax+ay and y-x <= ay-ax."""
        c = (ax + ay) & 1
        alpha = (ax + ay - c) // 2
        beta = (ay - ax - c) // 2 + self._rot_off
        tab = self._rot[c]
        if alpha < 0 or beta < 0:
            return 0
        return int(tab[min(alpha, tab.shape[0] - 2) + 1, min(beta, tab.shape[1] - 2) + 1])


def _prefix2d(a: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + 1, a.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=out[1:, 1:])
    return out


def build_tables(image: GrayImage, want_rotated: bool = False) -> IntegralTables:
    """Build sum / squared-sum tables (and rotated tables on request)."""
    return IntegralTables(image, want_rotated=want_rotated)


def rect_sum(tables: IntegralTables, r: Rect) -> int:
    """Sum of pixels inside ``r`` via four table references."""
    if r.x < 0 or r.y < 0 or r.x + r.w > tables.width or r.y + r.h > tables.height:
        raise BoundsError(f"rect {r} outside {tables.width}x{tables.height} image")
    s = tables.sums
    return int(s[r.y + r.h, r.x + r.w] - s[r.y, r.x + r.w] - s[r.y + r.h, r.x] + s[r.y, r.x])


def rotated_rect_members(r: Rect):
    """Pixels of the 45-degree rotated rect, per the fixed membership rule.

    A pixel belongs iff it equals (r.x + a - b, r.y + a + b) for some
    integers 0 <= a < r.w, 0 <= b < r.h: exactly the r.w * r.h pixels
    reachable from the apex by down-right then down-left diagonal steps.
    """
    for b in range(r.h):
        for a in range(r.w):
            yield r.x + a - b, r.y + a + b


def _rotated_bounds(r: Rect):
    return r.x - (r.h - 1), r.y, r.x + (r.w - 1), r.y + r.w + r.h - 2


def rotated_rect_sum(tables: IntegralTables, r: Rect) -> int:
    """Sum over the rotated rect's pixel set using four pyramid lookups.

    Membership rule is the one documented on :func:`rotated_rect_members`.
    """
    if tables._rot is None:
        raise ValueError("tables were built without rotated sums")
    x0, y0, x1, y1 = _rotated_bounds(r)
    if x0 < 0 or y0 < 0 or x1 >= tables.width or y1 >= tables.height:
        raise BoundsError(f"rotated rect {r} outside {tables.width}x{tables.height} image")
    x, y, w, h = r.x, r.y, r.w, r.h
    return (
        tables._pyramid(x + w - h, y + w + h - 2)
        - tables._pyramid(x - h, y + h - 2)
        - tables._pyramid(x + w, y + w - 2)
        + tables._pyramid(x, y - 2)
    )


def window_inv_stddev(tables: IntegralTables, r: Rect) -> float:
    """1/sigma over the window, clamped to 1 when sigma < 1 intensity unit."""
    n = r.w * r.h
    s1 = rect_sum(tables, r)
    sq = tables.sq_sums
    s2 = int(sq[r.y + r.h, r.x + r.w] - sq[r.y, r.x + r.w] - sq[r.y + r.h, r.x] + sq[r.y, r.x])
    mean = s1 / n
    var = s2 / n - mean * mean
    sigma = np.sqrt(var) if var > 0 else 0.0
    return 1.0 if sigma < 1.0 else 1.0 / float(sigma)
