"""Ground-truth markup, training-sample generation, and patch archives.

Point id table
--------------

Markups carry 20 points; ids are list positions.  The default table
below names them with left/right taken from the viewer's perspective.
It is this artifact's own convention (datasets vary).

    0 left_pupil          1 right_pupil
    2 left_mouth_corner   3 right_mouth_corner
    4 left_brow_outer     5 left_brow_inner
    6 right_brow_inner    7 right_brow_outer
    8 left_temple         9 left_eye_outer
    10 left_eye_inner     11 right_eye_inner
    12 right_eye_outer    13 right_temple
    14 nose_tip           15 left_nostril
    16 right_nostril      17 upper_lip
    18 lower_lip          19 chin

Only left-side and midline points are sampled for training; right-side
detectors come from mirroring a left-side cascade.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geom import Point2, estimate_tilt, rotate_image, rotate_point, VerticalLineError
from .haar import round_half_up
from .raster import BoundsError, GrayImage, Rect, is_inside, require_inside


class PointsFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PatchSetFormatError(ValueError):
    pass


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class PointScheme:
    names: tuple[str, ...]
    left_ids: frozenset[int]
    right_ids: frozenset[int]
    # eye corner ids in the order (left outer, left inner, right inner, right outer)
    eye_corners: tuple[int, int, int, int]

    @property
    def size(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        return self.names.index(name)

    def side(self, point_id: int) -> str:
        if point_id in self.left_ids:
            return "left"
        if point_id in self.right_ids:
            return "right"
        return "mid"

    def eye_widths(self, points: list[Point2]) -> tuple[float, float]:
        lo, li, ri, ro = (points[i] for i in self.eye_corners)
        return (math.hypot(li.x - lo.x, li.y - lo.y),
                math.hypot(ro.x - ri.x, ro.y - ri.y))

    def local_eye_width(self, points: list[Point2], point_id: int) -> float:
        """Scale reference: the eye on the point's side, or the mean for midline points."""
        left, right = self.eye_widths(points)
        side = self.side(point_id)
        if side == "left":
            return left
        if side == "right":
            return right
        return (left + right) / 2.0


DEFAULT_SCHEME = PointScheme(
    names=(
        "left_pupil", "right_pupil", "left_mouth_corner", "right_mouth_corner",
        "left_brow_outer", "left_brow_inner", "right_brow_inner", "right_brow_outer",
        "left_temple", "left_eye_outer", "left_eye_inner", "right_eye_inner",
        "right_eye_outer", "right_temple", "nose_tip", "left_nostril",
        "right_nostril", "upper_lip", "lower_lip", "chin",
    ),
    left_ids=frozenset({0, 2, 4, 5, 8, 9, 10, 15}),
    right_ids=frozenset({1, 3, 6, 7, 11, 12, 13, 16}),
    eye_corners=(9, 10, 11, 12),
)


@dataclass
class Markup:
    image_path: str
    points: list[Point2]


@dataclass
class SampleDescription:
    image_path: str
    entries: list[Rect]


@dataclass
class PatchSet:
    w: int
    h: int
    records: list[tuple[int, np.ndarray]] = field(default_factory=list)


# --- points files (PTS 1) -----------------------------------------------------

def parse_points_file(data: bytes) -> list[Point2]:
    """Parse the ``PTS 1`` / ``n <count>`` / ``<x> <y>`` per line format."""
    lines = data.decode("ascii", errors="replace").splitlines()
    if not lines or lines[0].split() != ["PTS", "1"]:
        raise PointsFormatError("expected 'PTS 1' header", 1)
    if len(lines) < 2 or len(lines[1].split()) != 2 or lines[1].split()[0] != "n":
        raise PointsFormatError("expected 'n <count>' line", 2)
    try:
        count = int(lines[1].split()[1])
    except ValueError:
        raise PointsFormatError("bad point count", 2) from None
    if count < 0:
        raise PointsFormatError("negative point count", 2)
    points = []
    for i in range(count):
        lineno = 3 + i
        if 2 + i >= len(lines):
            raise PointsFormatError(f"expected {count} points, file ends early", lineno)
        toks = lines[2 + i].split()
        if len(toks) != 2:
            raise PointsFormatError("expected '<x> <y>'", lineno)
        try:
            x, y = float(toks[0]), float(toks[1])
        except ValueError:
            raise PointsFormatError("non-numeric coordinate", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PointsFormatError("non-finite coordinate", lineno)
        points.append(Point2(x, y))
    for extra in lines[2 + count :]:
        if extra.strip():
            raise PointsFormatError("trailing content after declared points", 3 + count)
    return points


def write_points_file(points: list[Point2]) -> bytes:
    lines = ["PTS 1", f"n {len(points)}"]
    lines += [f"{format(p.x, '.17g')} {format(p.y, '.17g')}" for p in points]
    return ("\n".join(lines) + "\n").encode("ascii")


# --- tilt correction -----------------------------------------------------------

def tilt_correct_markup(image: GrayImage, markup: Markup) -> tuple[GrayImage, Markup, float]:
    """Level the eye-corner line: rotate image and ground truths by -alpha.

    The rotation centre is the image centre, so discarded border data is
    evenly distributed.  A vertical eye-corner line leaves the markup
    untouched (with a warning) and reports alpha = 0.
    """
    corners = [markup.points[i] for i in DEFAULT_SCHEME.eye_corners]
    try:
        alpha = estimate_tilt(corners)
    except VerticalLineError:
        warnings.warn(f"{markup.image_path}: vertical eye-corner line, markup not corrected")
        return image, markup, 0.0
    if abs(alpha) < 1e-12:  # numerically level already
        return image, markup, 0.0
    center = Point2((image.width - 1) / 2.0, (image.height - 1) / 2.0)
    rotated = rotate_image(image, center, -alpha)
    points = [rotate_point(p, center, -alpha) for p in markup.points]
    return rotated, Markup(markup.image_path, points), alpha


# --- scale normalisation ---------------------------------------------------------

def nearest_odd(v: float) -> int:
    """Nearest odd integer; an exact midpoint between odds takes the larger."""
    return 2 * round_half_up((v - 1.0) / 2.0) + 1


MIN_SAMPLE_SIDE = 7  # smallest sample side s; the smallest of its three squares is s - 2 = 5


def compute_scales(
    markups: list[Markup],
    point_id: int,
    base: int = 13,
) -> list[int | None]:
    """Per-image odd sample size normalising the mean local eye width to ``base``.

    Images with zero eye width get None (with a warning) and do not
    contribute to the mean.  Sizes are clamped to at least MIN_SAMPLE_SIDE.
    """
    widths = []
    for m in markups:
        w = DEFAULT_SCHEME.local_eye_width(m.points, point_id)
        if w == 0:
            warnings.warn(f"{m.image_path}: zero eye width, image skipped")
            widths.append(None)
        else:
            widths.append(w)
    usable = [w for w in widths if w is not None]
    if not usable:
        raise GenerationError("no image has a usable eye width")
    factor = base / (sum(usable) / len(usable))
    return [None if w is None else max(MIN_SAMPLE_SIDE, nearest_odd(w * factor)) for w in widths]


# --- positive descriptions --------------------------------------------------------

def positive_descriptions(
    markup: Markup,
    point_id: int,
    s: int,
    image_w: int,
    image_h: int,
) -> SampleDescription:
    """Three concentric squares (sides s+2, s, s-2) centred on the point.

    Emitted largest first.  Raises BoundsError when any square leaves
    the image (callers skip the image with a warning).
    """
    if s % 2 == 0 or s < MIN_SAMPLE_SIDE:
        raise ValueError(f"sample size must be odd and >= {MIN_SAMPLE_SIDE}, got {s}")
    p = markup.points[point_id]
    cx, cy = round_half_up(p.x), round_half_up(p.y)
    entries = []
    for side in (s + 2, s, s - 2):
        half = (side - 1) // 2
        r = Rect(cx - half, cy - half, side, side)
        if not is_inside(image_w, image_h, r.x, r.y, r.w, r.h, False):
            raise BoundsError(
                f"{markup.image_path}: {side}x{side} sample at point {point_id} leaves the image"
            )
        entries.append(r)
    return SampleDescription(markup.image_path, entries)


# --- description log ---------------------------------------------------------------

def write_description_log(descriptions: list[SampleDescription]) -> bytes:
    lines = []
    for d in descriptions:
        quads = " ".join(f"{r.x} {r.y} {r.w} {r.h}" for r in d.entries)
        lines.append(f"{d.image_path} {len(d.entries)} {quads}" if quads else f"{d.image_path} {len(d.entries)}")
    return ("".join(line + "\n" for line in lines)).encode("ascii")


def parse_description_log(data: bytes) -> list[SampleDescription]:
    """Parse ``<image> <count> <x> <y> <w> <h> ...`` lines; blank lines are skipped.

    Any malformed line, including a non-ASCII byte, a negative count and a
    rect of zero extent, raises :class:`PointsFormatError` with its line
    number.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        # the bad byte is on the line that a character in its place would end
        lineno = len((data[: e.start].decode("ascii") + "x").splitlines())
        raise PointsFormatError("non-ASCII byte", lineno) from None
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        toks = line.split()
        try:
            n = int(toks[1])
            vals = [int(t) for t in toks[2:]]
        except (IndexError, ValueError):
            raise PointsFormatError("malformed description line", lineno) from None
        if n < 0:
            raise PointsFormatError(f"negative rect count {n}", lineno)
        if len(vals) != 4 * n:
            raise PointsFormatError(f"expected {4 * n} rect values, got {len(vals)}", lineno)
        try:
            rects = [Rect(*vals[i : i + 4]) for i in range(0, len(vals), 4)]
        except ValueError as e:
            raise PointsFormatError(str(e), lineno) from None
        out.append(SampleDescription(toks[0], rects))
    return out


# --- negative sampling ---------------------------------------------------------------

INNER_DISTANCES = (3, 4, 5)  # Chebyshev band just outside the positive block + guard
OUTER_MIN_DISTANCE = 6  # keeps outer samples disjoint from the inner band
MAX_ATTEMPTS = 1000


def generate_negatives(
    image: GrayImage,
    markup: Markup,
    point_id: int,
    count_inner: int = 8,
    count_outer: int = 8,
    patch_side: int = 13,
    rng_seed: int = 0,
) -> list[Rect]:
    """Seeded negative patches around one feature point.

    Inner centres sit at a Chebyshev distance drawn uniformly from
    {3, 4, 5}, uniformly placed on that ring; outer centres are uniform
    over the axis-aligned square of one local eye width centred on the
    point, rejecting anything closer than Chebyshev 6.  Candidates whose
    patch leaves the image are rejected and redrawn.
    """
    rng = np.random.default_rng(rng_seed)
    p = markup.points[point_id]
    cx, cy = round_half_up(p.x), round_half_up(p.y)
    half_patch = (patch_side - 1) // 2
    eye_w = DEFAULT_SCHEME.local_eye_width(markup.points, point_id)
    half_sq = round_half_up(eye_w / 2.0)

    def patch_at(px: int, py: int) -> Rect | None:
        r = Rect(px - half_patch, py - half_patch, patch_side, patch_side)
        return r if is_inside(image.width, image.height, r.x, r.y, r.w, r.h, False) else None

    def ring_cell(d: int, k: int) -> tuple[int, int]:
        """k-th cell (0 <= k < 8d) walking the Chebyshev ring of radius d."""
        side, off = divmod(k, 2 * d)
        if side == 0:
            return -d + off, -d  # top edge, left to right
        if side == 1:
            return d, -d + off  # right edge, top to bottom
        if side == 2:
            return d - off, d  # bottom edge, right to left
        return -d, d - off  # left edge, bottom to top

    rects: list[Rect] = []
    attempts = 0
    while len(rects) < count_inner:
        if attempts >= MAX_ATTEMPTS:
            raise GenerationError(f"{markup.image_path}: cannot place inner negatives")
        attempts += 1
        d = int(rng.choice(INNER_DISTANCES))
        dx, dy = ring_cell(d, int(rng.integers(0, 8 * d)))
        r = patch_at(cx + dx, cy + dy)
        if r is not None:
            rects.append(r)
    attempts = 0
    outer = 0
    while outer < count_outer:
        if attempts >= MAX_ATTEMPTS:
            raise GenerationError(f"{markup.image_path}: cannot place outer negatives")
        attempts += 1
        dx = int(rng.integers(-half_sq, half_sq + 1))
        dy = int(rng.integers(-half_sq, half_sq + 1))
        if max(abs(dx), abs(dy)) < OUTER_MIN_DISTANCE:
            continue
        r = patch_at(cx + dx, cy + dy)
        if r is not None:
            rects.append(r)
            outer += 1
    return rects


# --- patch extraction ------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _resample_maps(w: int, h: int, target_side: int) -> tuple[np.ndarray, ...]:
    """Bilinear source maps (rows, cols, 1 - fx, fx, 1 - fy, fy) from a w x h crop.

    Output column j reads crop columns x0[j] and x1[j], held in ``cols``
    as x0 then x1, with weights 1 - fx[j] and fx[j]; rows and their
    weights likewise, as column vectors.  Each size is built once, and
    read-only because the cache shares the arrays between calls.
    """

    def axis(n: int):  # (i0 then i1, f) along a side of n pixels
        pos = np.clip((np.arange(target_side) + 0.5) * n / target_side - 0.5, 0, n - 1)
        i0 = np.floor(pos).astype(int)
        return np.concatenate([i0, np.minimum(i0 + 1, n - 1)]), pos - i0

    (cols, fx), (rows, fy) = axis(w), axis(h)
    maps = (rows[:, None], cols, 1 - fx, fx, (1 - fy)[:, None], fy[:, None])
    for a in maps:
        a.setflags(write=False)
    return maps


def extract_and_rescale(image: GrayImage, rect: Rect, target_side: int = 13) -> np.ndarray:
    """Crop ``rect`` and bilinearly resample to target_side x target_side.

    A rect already at the target size is copied byte-identically.  Else
    output pixel (i, j) blends crop rows y0[i], y1[i] and columns x0[j],
    x1[j] of the sample-centre maps of :func:`_resample_maps`, built once
    per (rect size, target side).  One fancy index gathers those rows and
    columns; the top and bottom rows blend across columns in one pass,
    then across rows.  ``target_side`` must be an int >= 1.
    """
    integral = isinstance(target_side, (int, np.integer)) and not isinstance(target_side, bool)
    if not integral or target_side < 1:
        raise ValueError(f"target_side must be an int >= 1, got {target_side!r}")
    require_inside(image, rect.x, rect.y, rect.w, rect.h, False)
    crop = image.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
    if rect.w == target_side and rect.h == target_side:
        return crop.copy()
    rows, cols, wx0, wx1, wy0, wy1 = _resample_maps(rect.w, rect.h, target_side)
    # uint8 samples convert to float64 exactly, so the products and sums
    # are those of the float crop
    g = crop[rows, cols]  # (y0 then y1) x (x0 then x1)
    across = g[:, :target_side] * wx0 + g[:, target_side:] * wx1  # top rows, then bottom
    out = across[:target_side] * wy0 + across[target_side:] * wy1
    # blends of 0..255 lie in [0, 255.5), so truncating out + 0.5 rounds half up
    return (out + 0.5).astype(np.uint8)


# --- patch archive -----------------------------------------------------------------------

PATCHSET_MAGIC = b"FPSET1"


def write_patchset(patchset: PatchSet) -> bytes:
    """Binary archive: magic, u32le count, u16le w, u16le h, then records.

    Each record is one label byte followed by w*h row-major intensity
    bytes.
    """
    out = bytearray()
    out += PATCHSET_MAGIC
    out += struct.pack("<IHH", len(patchset.records), patchset.w, patchset.h)
    npix = patchset.w * patchset.h
    for label, pixels in patchset.records:
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        arr = np.asarray(pixels, dtype=np.uint8)
        if arr.shape != (patchset.h, patchset.w):
            raise ValueError(f"record shape {arr.shape} != {(patchset.h, patchset.w)}")
        out.append(label)
        out += arr.tobytes()
    return bytes(out)


def read_patchset(data: bytes) -> PatchSet:
    if data[:6] != PATCHSET_MAGIC:
        raise PatchSetFormatError("bad magic")
    if len(data) < 14:
        raise PatchSetFormatError("truncated header")
    count, w, h = struct.unpack("<IHH", data[6:14])
    npix = w * h
    want = 14 + count * (1 + npix)
    if len(data) != want:
        raise PatchSetFormatError(f"expected {want} bytes, got {len(data)}")
    ps = PatchSet(w, h)
    pos = 14
    for _ in range(count):
        label = data[pos]
        if label not in (0, 1):
            raise PatchSetFormatError(f"bad label byte {label}")
        pixels = np.frombuffer(data, dtype=np.uint8, count=npix, offset=pos + 1)
        ps.records.append((label, pixels.reshape(h, w).copy()))
        pos += 1 + npix
    return ps
