"""8-bit grayscale rasters, PGM I/O, the line reader of the text formats, and summed-area tables.

The tables answer axis-aligned rectangle sums, squared sums, and
45-degree rotated rectangle sums in constant time.  All accumulators
are 64-bit, so sums over any window of 8-bit pixels are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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

    The same type doubles as a 45-degree rotated rectangle, where (x, y)
    is the apex pixel, ``w`` the number of pixels stepped along the
    down-right diagonal and ``h`` along the down-left diagonal (see
    :func:`rotated_rect_members` for the exact membership rule).
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
            if not (arr.min() >= 0 and arr.max() <= 255):  # NaN compares false: fails too
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


def _pgm_int(token: bytes, offset: int, what: str) -> int:
    """A PGM field of ASCII decimal digits."""
    if not token.isdigit():
        raise PgmFormatError(f"non-numeric {what}", offset)
    digits = token.lstrip(b"0")
    if len(digits) > 18:  # int() refuses strings past 4300 digits
        raise PgmFormatError(f"{what} too large", offset)
    return int(digits or b"0")


def load_pgm(data: bytes) -> GrayImage:
    """Decode binary (P5) or ASCII (P2) PGM content with maxval <= 255.

    Header comments (``#`` to end of line) are skipped.  Samples of a
    file whose maxval is below 255 are rescaled to 0..255 with exact
    round-half-up, v -> round(v * 255 / maxval).  Raises
    :class:`PgmFormatError` naming the offending byte offset on any
    malformed input.
    """
    if len(data) < 2 or data[:1] != b"P" or data[1:2] not in (b"5", b"2"):
        raise PgmFormatError("not a P5/P2 PGM file", 0)
    binary = data[1:2] == b"5"
    fields = []
    for token, off in _tokenize_pgm(data, 2, 3):
        fields.append((token, off))
    (_, w_off), (_, h_off), (_, mv_off), (_, cursor) = fields
    width, height, maxval = (_pgm_int(tok, off, "header field") for tok, off in fields[:3])
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
        over = np.flatnonzero(arr > maxval)
        if len(over):
            raise PgmFormatError(f"sample {arr[over[0]]} exceeds maxval", cursor + int(over[0]))
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
            v = _pgm_int(token, off, "sample")
            if v > maxval:
                raise PgmFormatError(f"sample {v} exceeds maxval", off)
            vals[i] = v
            i += 1
        arr = vals
    if maxval != 255:
        arr = ((arr.astype(np.int64) * 510 + maxval) // (2 * maxval)).astype(np.uint8)
    return GrayImage(arr.reshape(height, width))


def save_pgm(image: GrayImage) -> bytes:
    """Encode as binary P5 with maxval 255; inverse of :func:`load_pgm`."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


class LineFormatError(ValueError):
    """Malformed line-based text; ``line`` is the offending line, 0 for the whole file."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class LineReader:
    """The one line rule of the text formats, cascade files and PTS points files.

    A file is ASCII, else it raises "not ASCII" at line 0, which stands
    for the whole file.  It breaks into lines where ``str.splitlines``
    breaks it (LF, CRLF, CR, and VT, FF, FS, GS, RS), numbered from 1, and
    a line's tokens are its whitespace-separated words.  Records are read
    in order, a tagged one with :meth:`next` and an untagged one with
    :meth:`tokens`.  After the last record, :meth:`end` allows only blank
    or whitespace-only lines; the first line that holds anything else is
    trailing content, reported at its own number.  Every error is raised
    as ``error``, a :class:`LineFormatError`, at the line it concerns.
    """

    def __init__(self, data: bytes, error: type[LineFormatError]):
        self.error = error
        try:
            self.lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError:
            raise error("not ASCII", 0) from None
        self.no = 0  # lines read so far

    def tokens(self, expected: str) -> list[str]:
        """The tokens of the next line, ``expected`` naming it if the file has ended."""
        if self.no == len(self.lines):  # the message is built only here, off the per-line path
            raise self.error(f"unexpected end of file, expected '{expected}'", self.no + 1)
        self.no += 1
        return self.lines[self.no - 1].split()

    def next(self, *lead: str, count: int = 0, keys: tuple[str, ...] = ()) -> tuple[str, ...]:
        """The values of the next line: ``lead``, then ``count`` values or a value per key.

        The line must start with the tag ``lead[0]``, else "expected '<tag>'
        line".  Then it holds the rest of ``lead`` and either exactly
        ``count`` values, returned as they are, or each of ``keys`` followed
        by its value, and only the values are returned; else "malformed
        <tag> line".
        """
        tag = lead[0]
        # tokens' end-of-file check, restated: calling tokens per line slows deserialize ~1.5 %
        if self.no == len(self.lines):
            raise self.error(f"unexpected end of file, expected '{tag}'", self.no + 1)
        parts = tuple(self.lines[self.no].split())
        self.no += 1
        if not parts or parts[0] != tag:
            raise self.error(f"expected '{tag}' line", self.no)
        n = len(lead)
        if keys:
            if len(parts) == n + 2 * len(keys) and parts[:n] == lead and parts[n::2] == keys:
                return parts[n + 1 :: 2]
        elif len(parts) == n + count and parts[:n] == lead:
            return parts[n:]
        raise self.error(f"malformed {tag} line", self.no)

    def integer(self, tok: str) -> int:
        """``tok`` as an int, else "bad integer" at the current line (``int`` takes ``1_0``)."""
        if "_" not in tok:
            try:
                return int(tok)
            except ValueError:
                pass
        raise self.error(f"bad integer {tok!r}", self.no)

    def real(self, tok: str, allow_inf: bool = False) -> float:
        """``tok`` as a finite float (or an infinite one if ``allow_inf``), else "bad real"."""
        try:
            v = math.nan if "_" in tok else float(tok)  # float alone takes 1_0
        except ValueError:
            v = math.nan  # rejected below, like "nan" itself
        if not math.isfinite(v) and (math.isnan(v) or not allow_inf):
            raise self.error(f"bad real {tok!r}", self.no)
        return v

    def end(self) -> None:
        """Raise "trailing content" at the first line after the last record that is not blank."""
        for no in range(self.no, len(self.lines)):
            if self.lines[no].strip():
                raise self.error("trailing content", no + 1)


class IntegralTables:
    """Summed-area tables over one image, all three in one layout.

    ``sums`` and ``sq_sums`` have shape (height+1, width+1), zero-padded
    on the top and left, so ``sums[y, x]`` is the sum over all pixels
    (x', y') with x' < x and y' < y.

    ``tilted`` answers 45-degree rotated rectangle sums.  It is built on
    request (else None), has shape (height+2, width+2) and is aligned
    with the image: ``tilted[ay + 2, ax + 1]`` is the sum of the pyramid
    with apex (ax, ay), the pixels (x, y) with y <= ay - |x - ax| whose
    x + y has the parity of ax + ay, for -1 <= ax <= width and
    -2 <= ay < height.  That range is exactly what the four corner reads
    of a rotated rect inside the image touch (:func:`cell_corners`), so
    a rotated cell costs the same four plain reads as an upright one.
    ``sums`` and ``sq_sums`` view one zero-padded buffer of two such planes,
    so all three flattened tables put entry [y, x] at y * ``stride`` + x.
    """

    __slots__ = ("width", "height", "stride", "sums", "sq_sums", "tilted", "_flat")

    def __init__(self, image: GrayImage, want_rotated: bool = False):
        h, w = image.pixels.shape
        self.width, self.height, self.stride = w, h, w + 2
        buf = np.zeros((2, h + 2, w + 2), dtype=np.int64)
        both = buf[:, 1:-1, 1:-1]  # the pixels, then their squares, summed in place
        both[0] = image.pixels
        np.multiply(both[0], both[0], out=both[1])
        self.tilted = _tilted(both[0]) if want_rotated else None
        np.add.accumulate(np.add.accumulate(both, axis=1, out=both), axis=2, out=both)
        self.sums, self.sq_sums = buf[0, :-1, :-1], buf[1, :-1, :-1]
        self._flat = (buf[0].ravel(), buf[1].ravel(), self.tilted.ravel() if want_rotated else None)

    def flat(self, rotated: bool) -> np.ndarray:
        """The flattened ``tilted`` table for rotated cells, else the flattened ``sums``."""
        if rotated and self.tilted is None:
            raise ValueError("tables were built without rotated sums")
        return self._flat[2 if rotated else 0]


def _tilted(px: np.ndarray) -> np.ndarray:
    # P(x, y) = px(x, y) + P(x-1, y-1) + P(x+1, y-1) - P(x, y-2): the
    # pyramids one row up to the left and right together hold every
    # pixel of P(x, y) but its apex, and overlap in P(x, y-2).  An apex
    # left of the image sees only pixels to its right, so
    # P(-1, y) = P(0, y-1); likewise P(w, y) = P(w-1, y-1).
    h, w = px.shape
    t = np.zeros((h + 2, w + 2), dtype=np.int64)
    for r in range(2, h + 2):
        row = t[r, 1 : w + 1]
        np.add(t[r - 1, :w], t[r - 1, 2:], out=row)
        row += px[r - 2]
        row -= t[r - 2, 1 : w + 1]
        t[r, 0] = t[r - 1, 1]
        t[r, w + 1] = t[r - 1, w]
    return t


def build_tables(image: GrayImage, want_rotated: bool = False) -> IntegralTables:
    """Build sum / squared-sum tables (and rotated tables on request)."""
    return IntegralTables(image, want_rotated=want_rotated)


def cell_box(x, y, w, h, rotated: bool):
    """Inclusive pixel box (x0, y0, x1, y1) of an upright or rotated cell.

    A rotated cell is in apex form (see :func:`rotated_rect_members`).
    Works on ints and on numpy arrays alike.
    """
    if rotated:
        return x - (h - 1), y, x + w - 1, y + w + h - 2
    return x, y, x + w - 1, y + h - 1


def cell_corners(x, y, w, h, rotated: bool, stride: int):
    """Flat offsets (a, b, c, d) of a cell: its sum is t[a] - t[b] - t[c] + t[d].

    ``t`` is ``IntegralTables.flat(rotated)``, of row stride ``stride``:
    ``sums`` for an upright cell, ``tilted`` for a rotated one, whose sum
    is P(x+w-h, y+w+h-2) - P(x-h, y+h-2) - P(x+w, y+w-2) + P(x, y-2) in
    pyramid sums P.  Works on ints and on numpy arrays alike.
    """
    if rotated:
        return (
            (y + w + h) * stride + x + w - h + 1,
            (y + h) * stride + x - h + 1,
            (y + w) * stride + x + w + 1,
            y * stride + x + 1,
        )
    return (y + h) * stride + x + w, y * stride + x + w, (y + h) * stride + x, y * stride + x


def is_inside(width: int, height: int, x, y, w, h, rotated: bool):
    """Whether the cell lies inside a width x height image.

    The one inside rule.  Works on ints (a bool) and on numpy arrays (a mask) alike.
    """
    x0, y0, x1, y1 = cell_box(x, y, w, h, rotated)
    return (x0 >= 0) & (y0 >= 0) & (x1 < width) & (y1 < height)


def require_inside(tables: IntegralTables | GrayImage, x, y, w, h, rotated: bool) -> None:
    """Raise :class:`BoundsError` unless every cell lies inside the image (or its tables)."""
    inside = is_inside(tables.width, tables.height, x, y, w, h, rotated)
    # a plain bool for int geometry, which np.all would take microseconds to wrap
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        kind = "rotated rect" if rotated else "rect"
        where = f"({x}, {y}, {w}, {h}) outside {tables.width}x{tables.height} image"
        raise BoundsError(f"{kind} {where}")


def rotated_rect_members(r: Rect):
    """Pixels of the 45-degree rotated rect, per the fixed membership rule.

    A pixel belongs iff it equals (r.x + a - b, r.y + a + b) for some
    integers 0 <= a < r.w, 0 <= b < r.h: exactly the r.w * r.h pixels
    reachable from the apex by down-right then down-left diagonal steps.
    """
    for b in range(r.h):
        for a in range(r.w):
            yield r.x + a - b, r.y + a + b


def window_inv_stddevs(tables: IntegralTables, at, w: int, h: int) -> np.ndarray:
    """1/sigma of the w x h windows at flat origin offsets ``at``, 1 where sigma < 1.

    ``at`` is an int or an array of y * ``tables.stride`` + x, the offsets a scan already
    reads its cells at; corners are read at their flat offsets through views of the
    flattened tables, so every window must lie inside the image (unchecked).  Window
    sums and squared sums of 8-bit pixels stay below 2**53, so they convert to float
    exactly and the result does not depend on how many windows are evaluated at once.
    """
    return _inv_stddevs(*tables._flat[:2], tables.stride, at, w, h)


def require_same_size(tables_list: Sequence[IntegralTables]) -> None:
    """Raise ``ValueError`` naming the first sample whose size differs from the first's."""
    t0 = tables_list[0]
    for t in tables_list:
        if (t.width, t.height) != (t0.width, t0.height):
            raise ValueError(f"{t.width}x{t.height} sample among {t0.width}x{t0.height} samples")


def stack_tables(tables_list: Sequence[IntegralTables], rotations):
    """(tables_by_kind, stride, bases, inv): one stacking of same-size sample tables.

    ``tables_by_kind`` maps rotated -> the samples' flat tables end to end, for each of
    ``rotations`` and always the sums; every stacked table has row stride ``stride``, and
    sample s starts at ``bases[s]`` in each.  ``inv`` is each whole sample's
    :func:`window_inv_stddevs`, bit for bit, from the stacked sums and squared sums.
    Raises ``ValueError`` from :func:`require_same_size`.
    """
    require_same_size(tables_list)
    t0 = tables_list[0]
    stacks = {r: np.concatenate([t.flat(r) for t in tables_list]) for r in {False, *rotations}}
    sq = np.concatenate([t._flat[1] for t in tables_list])
    bases = np.arange(len(tables_list)) * t0.flat(False).size
    inv = _inv_stddevs(stacks[False], sq, t0.stride, bases, t0.width, t0.height)
    return stacks, t0.stride, bases, inv


def _inv_stddevs(s: np.ndarray, sq: np.ndarray, stride: int, at, w: int, h: int) -> np.ndarray:
    n = w * h
    a, b, c, _ = cell_corners(0, 0, w, h, False, stride)
    s1 = s[a:][at] - s[b:][at] - s[c:][at] + s[at]
    s2 = sq[a:][at] - sq[b:][at] - sq[c:][at] + sq[at]
    mean = s1 / n
    sigma = np.sqrt(np.maximum(s2 / n - mean * mean, 0.0))
    return 1.0 / np.maximum(sigma, 1.0)
