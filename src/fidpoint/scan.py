"""Multi-scale sliding-window detection and the face->feature->point hierarchy.

Scan schedule
-------------

Every scan moves and scales the detector over one set of integral
tables of the whole frame, as Viola and Jones do; no ROI is cut out,
flipped or given tables of its own.  Window sizes grow from the
configured minimum width by ``scale_factor`` until they no longer fit
the ROI (duplicate rounded sizes are scanned once, sizes shorter than
``min_h`` not at all).  At each size the step is
max(1, round(size / cascade_window)) and the position grid contains the
multiples of the step from both ends of the feasible range, so the grid
maps onto itself under horizontal or vertical mirroring about the ROI.
Each size reads its cells from one cached ``haar.scan_plan`` at one
array of window offsets, which serves every table of the frame (they
share one row stride).  Windows whose scaled cells would read outside
the frame (possible for rotated cells at fractional scales) are
skipped.  Right-side scans (``on_right_side``) reflect the scaled cells
about each window, so each window's margin is bit for bit that of its
mirror image in a left-side scan of the mirrored frame; with the
mirror-closed grid and the mirror-covariant grouping below, a
right-side point is exactly the mirror image of the left-side point on
the mirrored frame.

Grouping
--------

:func:`group_detections` clusters the ``RAW_WINDOW`` records that
:func:`scan_roi` returns.  Raw rects a, b are similar iff their
top-left corners and their bottom-right corners each agree within
0.2*max of the sizes (|a.x-b.x| <= 0.2*max(a.w,b.w) and
|(a.x+a.w)-(b.x+b.w)| <= the same bound, likewise for y) and the sizes
agree within 20 percent.  Testing both corners makes the relation
invariant under mirroring, so grouping commutes with mirroring.
Clusters are the connected components of that relation; each cluster
of at least ``min_neighbors`` members emits one :class:`Detection`
whose point is the round-half-even exact mean of the member centres (a
reflection-equivariant rounding) and whose rect is the mean size
centred on that point.

The components are found without testing all n^2 pairs.  For integer
sizes below 2**50, |a.w-b.w| <= 0.2*max(a.w, b.w) holds exactly when
5*|a.w-b.w| <= max(a.w, b.w).  So the wider window of a similar pair is
at most 5*w//4 wide, w being the narrower width, and the same bound on
|a.x-b.x| puts the left corners within 0.2 * 5*w/4 = w/4 of each other.
With the windows sorted by (w, x), the candidate partners of window i
are the later windows of each width W present with w_i <= W <= 5*w_i//4
and |x - x_i| <= w_i // 4 + 1 (the +1 is slack); each (window, width)
range is one pair of binary searches.  Candidates are tested in blocks
of consecutive ranges holding at most ``_GROUP_BLOCK_PAIRS`` pairs (a
single range may exceed it, and holds at most n pairs), with exactly
the float predicate of :func:`rects_similar`, and each block's edges are
merged into a flat union-find array.  Memory is O(n*k) plus one block,
whatever the number of raw windows, where k is the number of distinct
widths within 5/4 of a window's own (at most 3 for a scan at
``scale_factor`` 1.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cascade import Cascade, run_stages
from .geom import (
    EyeCorner,
    InsufficientPointsError,
    Point2,
    TiltState,
    VerticalLineError,
    estimate_tilt,
    infer_fourth_corner,
    rotate_image,
    rotate_point,
)
from .haar import FeatureSet, round_half_up, scan_plan
from .raster import GrayImage, IntegralTables, Rect, build_tables, require_inside, window_inv_stddevs

# the fourteen detectable points, grouped by their parent facial feature
POINT_PARENTS = {
    "left_brow_inner": "left_eye",
    "left_brow_outer": "left_eye",
    "right_brow_inner": "right_eye",
    "right_brow_outer": "right_eye",
    "left_eye_outer": "left_eye",
    "left_eye_inner": "left_eye",
    "left_pupil": "left_eye",
    "right_eye_inner": "right_eye",
    "right_eye_outer": "right_eye",
    "right_pupil": "right_eye",
    "left_nostril": "nose",
    "right_nostril": "nose",
    "left_mouth_corner": "mouth",
    "right_mouth_corner": "mouth",
}
DETECTED_POINT_NAMES = tuple(POINT_PARENTS)
FEATURE_NAMES = ("left_eye", "right_eye", "nose", "mouth")

EYE_CORNER_POINTS = {
    "left_eye_outer": EyeCorner.LEFT_OUTER,
    "left_eye_inner": EyeCorner.LEFT_INNER,
    "right_eye_inner": EyeCorner.RIGHT_INNER,
    "right_eye_outer": EyeCorner.RIGHT_OUTER,
}


@dataclass
class DetectorConfig:
    cascade: Cascade
    roi: Rect | None = None  # None scans the whole image
    scale_factor: float = 1.1
    min_neighbors: int = 3
    min_w: int = 0  # 0 means the cascade window size
    min_h: int = 0
    is_point: bool = True
    on_right_side: bool = False
    # optional per-detector search prior inside the parent feature rect:
    # (dx, dy, half) in units of the parent's size; the hierarchy then
    # searches a square of half-width half*parent_w centred at
    # parent_centre + (dx*parent_w, dy*parent_h) instead of the whole
    # expanded parent rect
    sub_roi: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not 1.0 < self.scale_factor < math.inf:
            raise ValueError("scale_factor must be finite and exceed 1")
        if self.min_w == 0:
            self.min_w = self.cascade.window_w
        if self.min_h == 0:
            self.min_h = self.cascade.window_h
        if self.min_w < self.cascade.window_w or self.min_h < self.cascade.window_h:
            raise ValueError("min size is below the cascade window")


# one accepted window of scan_roi: its rect and summed stump margin
RAW_WINDOW = np.dtype([("x", "i8"), ("y", "i8"), ("w", "i8"), ("h", "i8"), ("margin", "f8")])


@dataclass(frozen=True)
class Detection:
    """One grouped cluster of raw windows, its centre in half-pixel units.

    ``point2x`` is twice the rounded mean member centre (2x + w - 1,
    2y + h - 1 for one window); keeping it doubled makes mirroring exact,
    since the reflection axis 2*(extent - 1) is always even.  ``point``
    floors it to whole pixels (the centre pixel for odd sizes, the
    left/upper of the two central pixels for even sizes).
    """

    rect: Rect
    neighbors: int
    point2x: tuple[int, int]
    # the members' summed stump margins sum(alpha * parity * (threshold - value));
    # exactly mirror-invariant, used to break otherwise symmetric selection ties
    margin: float

    @property
    def point(self) -> tuple[int, int]:
        return self.point2x[0] // 2, self.point2x[1] // 2


@dataclass
class HierarchyResult:
    """Outcome of one face->features->points pass."""

    face_found: bool = False
    face: Rect | None = None
    features: dict = field(default_factory=dict)
    points: dict = field(default_factory=lambda: {n: None for n in DETECTED_POINT_NAMES})
    tilt_applied: float = 0.0


# --- position grids -------------------------------------------------------------


def _grid_positions(extent: int, step: int) -> np.ndarray:
    """Multiples of ``step`` in [0, extent] taken from both ends.

    The result is its own mirror image (x -> extent - x), which keeps a
    mirrored-cascade scan aligned with a direct scan of the mirrored frame.
    """
    fwd = np.arange(0, extent + 1, step)
    # extent - fwd is fwd itself when step divides extent, else fwd + extent % step
    r = extent % step
    return np.add.outer(fwd, (0, r)).ravel() if r else fwd


def _scan_sizes(c: Cascade, cfg: DetectorConfig, roi: Rect):
    """Deduplicated ((width, height), exact scale) pairs that fit the ROI.

    Widths follow min_w * factor^k; the height comes from the same exact
    width ratio so cells and window box stay mutually consistent.  Sizes
    shorter than min_h are skipped, as OpenCV's ``minSize`` does.
    """
    sizes = []
    k = 0
    while True:
        w = round_half_up(cfg.min_w * cfg.scale_factor**k)
        frac = Fraction(w, c.window_w)
        h = round_half_up(c.window_h * frac)
        if w > roi.w or h > roi.h:
            break
        if h >= cfg.min_h and (not sizes or sizes[-1][0] != (w, h)):
            sizes.append(((w, h), frac))
        # jump to one k before min_w * factor^k reaches w + 0.5, where the next width starts
        k = max(k + 1, math.floor(math.log((w + 0.5) / cfg.min_w, cfg.scale_factor)) - 1)
    return sizes


def scan_roi(c: Cascade, image, cfg: DetectorConfig) -> np.ndarray:
    """All accepted windows over the scan schedule, one ``RAW_WINDOW`` record each.

    Records are ordered by window size ascending, then ``y``, then ``x``.
    ``image`` may be a GrayImage or prebuilt IntegralTables (built with
    rotated sums when the cascade uses the extended feature set).
    """
    if isinstance(image, IntegralTables):
        tables = image
    else:
        tables = build_tables(image, want_rotated=c.feature_set is FeatureSet.ALL)
    roi = cfg.roi or Rect(0, 0, tables.width, tables.height)
    require_inside(tables, roi.x, roi.y, roi.w, roi.h, False)
    found = []  # per size: (xs, ys, w, h, margins) of the accepted windows
    features = tuple(weak.feature for st in c.stages for _, weak in st.strong.rounds)
    tables_by_kind = {rot: tables.flat(rot) for rot in {f.kind.rotated for f in features}}
    for (w_k, h_k), frac in _scan_sizes(c, cfg, roi):
        scaled, (l, t, rgt, btm) = scan_plan(
            c.window_w, c.window_h, features, frac, cfg.on_right_side
        )
        step_x = max(1, round_half_up(w_k / c.window_w))
        step_y = max(1, round_half_up(h_k / c.window_h))
        xs = _grid_positions(roi.w - w_k, step_x) + roi.x
        ys = _grid_positions(roi.h - h_k, step_y) + roi.y
        # drop positions whose overhanging cells would leave the image
        xs = xs[(xs >= l) & (xs <= tables.width - w_k - rgt)]
        ys = ys[(ys >= t) & (ys <= tables.height - h_k - btm)]
        oxs, oys = np.tile(xs, len(ys)), np.repeat(ys, len(xs))  # y-major grid
        at = oys * tables.stride + oxs  # one offset array serves every table
        inv = window_inv_stddevs(tables, at, w_k, h_k)
        alive, margin = run_stages(c, scaled, tables_by_kind, tables.stride, at, inv)
        found.append((oxs[alive], oys[alive], w_k, h_k, margin[alive]))
    win = np.empty(sum(len(f[0]) for f in found), RAW_WINDOW)
    if found:
        xs, ys, ws, hs, margins = zip(*found)
        counts = [len(m) for m in margins]
        win["x"], win["y"], win["margin"] = map(np.concatenate, (xs, ys, margins))
        win["w"], win["h"] = np.repeat(ws, counts), np.repeat(hs, counts)
    return win


# candidate pairs tested at once by group_detections; bounds its working
# memory to a few MB beyond the O(n) per-window arrays
_GROUP_BLOCK_PAIRS = 1 << 16


def group_detections(raw: np.ndarray, min_neighbors: int) -> list[Detection]:
    """Connected-component clustering of ``RAW_WINDOW`` records under the documented rule."""
    n = len(raw)
    if n == 0:
        return []
    rects = np.stack([raw["x"], raw["y"], raw["w"], raw["h"]], axis=1)
    order = np.lexsort((rects[:, 0], rects[:, 2]))
    x, y, w, h = rects[order].T
    x2, y2 = x + w, y + h
    # one row per (window i, width class of a width W in w_i..5*w_i//4); its
    # candidates are the later windows of that class with |x - x_i| <= w_i // 4 + 1
    # (the candidate bound in the module docstring)
    widths, cls = np.unique(w, return_inverse=True)
    span = np.searchsorted(widths, 5 * w // 4, side="right") - cls
    row = np.repeat(np.arange(n), span)
    row_cls = cls[row] + np.arange(len(row)) - np.repeat(np.cumsum(span) - span, span)
    # keys ordered by (class, x), so one searchsorted pair bounds each row
    x0, ext = x.min(), x.max() - x.min() + 1
    key = cls * ext + (x - x0)
    reach, xr = (w // 4 + 1)[row], x[row] - x0
    first = np.maximum(np.searchsorted(key, row_cls * ext + np.maximum(xr - reach, 0)), row + 1)
    stop = np.searchsorted(key, row_cls * ext + np.minimum(xr + reach, ext - 1), side="right")
    counts = stop - first
    ends = np.cumsum(counts)
    parent = np.arange(n)
    r0 = 0
    while r0 < len(row):
        base = ends[r0] - counts[r0]
        r1 = max(r0 + 1, int(np.searchsorted(ends, base + _GROUP_BLOCK_PAIRS, side="right")))
        c = counts[r0:r1]
        i = np.repeat(row[r0:r1], c)
        j = np.arange(base, ends[r1 - 1]) + np.repeat(first[r0:r1] - ends[r0:r1] + c, c)
        # the exact predicate of rects_similar; the y terms go first because
        # the candidate bound has already limited x
        hi, hj = h[i], h[j]
        mh = 0.2 * np.maximum(hi, hj)
        keep = (
            (np.abs(y[i] - y[j]) <= mh)
            & (np.abs(y2[i] - y2[j]) <= mh)
            & (np.abs(hi - hj) <= mh)
        )
        i, j = i[keep], j[keep]
        wi, wj = w[i], w[j]
        mw = 0.2 * np.maximum(wi, wj)
        keep = (
            (np.abs(x[i] - x[j]) <= mw)
            & (np.abs(x2[i] - x2[j]) <= mw)
            & (np.abs(wi - wj) <= mw)
        )
        _union_edges(parent, order[i[keep]], order[j[keep]])
        r0 = r1
    # roots are the smallest member index, so clusters come out ordered by
    # their first raw window
    members = np.argsort(parent, kind="stable")
    sizes = np.bincount(parent)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    x, y, w, h = rects[members].T
    sums = np.add.reduceat(np.stack([2 * x + w - 1, 2 * y + h - 1, w, h], axis=1), starts)
    margins = raw["margin"][members].tolist()
    out = []
    for s, k, (sx2, sy2, sw, sh) in zip(starts.tolist(), sizes.tolist(), sums.tolist()):
        if k < min_neighbors:
            continue
        # centre means in half-pixel units, rounded half-to-even exactly; the
        # doubled axis keeps the rounding reflection-equivariant, so a
        # mirrored cluster rounds to exactly the mirrored centre
        px2, py2 = round(Fraction(sx2, k)), round(Fraction(sy2, k))
        w_c = max(1, round_half_up(sw / k))
        h_c = max(1, round_half_up(sh / k))
        rect = Rect((px2 - w_c + 1) // 2, (py2 - h_c + 1) // 2, w_c, h_c)
        # fsum: exactly rounded, so the cluster margin is independent of
        # member order and survives mirroring bit-for-bit
        mg = math.fsum(margins[s : s + k])
        out.append(Detection(rect, neighbors=k, point2x=(px2, py2), margin=mg))
    out.sort(key=lambda d: (d.rect.y, d.rect.x, d.rect.h, d.rect.w, d.neighbors))
    return out


def _union_edges(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the components joined by edges (a[k], b[k]) into ``parent``.

    ``parent`` is kept flat (every entry points at its root) and every
    pointer goes to a smaller index, so a root is its component's
    smallest member.
    """
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            return
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent[:] = jumped


def rects_similar(a: Rect, b: Rect) -> bool:
    mw = 0.2 * max(a.w, b.w)
    mh = 0.2 * max(a.h, b.h)
    return (
        abs(a.x - b.x) <= mw
        and abs(a.y - b.y) <= mh
        and abs((a.x + a.w) - (b.x + b.w)) <= mw
        and abs((a.y + a.h) - (b.y + b.h)) <= mh
        and abs(a.w - b.w) <= mw
        and abs(a.h - b.h) <= mh
    )


def select_result(
    ds: list[Detection], is_point: bool, roi_center: tuple[float, float] | None = None
) -> Detection | None:
    """Single result: largest region for features, most neighbours for points."""
    if not ds:
        return None
    if not is_point:
        return min(
            ds,
            key=lambda d: (-d.rect.w * d.rect.h, -d.neighbors, d.rect.y, d.rect.x),
        )

    def point_key(d: Detection):
        if roi_center is None:
            dist = 0
        else:
            # roi_center in pixels; compare in exact half-pixel units
            px2, py2 = d.point2x
            dist = (px2 - round_half_up(2 * roi_center[0])) ** 2 + (
                py2 - round_half_up(2 * roi_center[1])
            ) ** 2
        # the margin breaks mirror-symmetric position ties by content
        return (-d.neighbors, dist, -d.margin, d.rect.y, d.rect.x)

    return min(ds, key=point_key)


def detect_point(image, cfg: DetectorConfig) -> tuple[int, int] | None:
    """One point coordinate inside cfg.roi, in frame coordinates.

    ``image`` may be a GrayImage or prebuilt IntegralTables, as for
    :func:`detect_region`.  Right-side points scan ``cfg.cascade`` with
    reflected cells (see "Scan schedule" above).  Of the clusters with the
    most neighbours, the one whose centre is nearest the ROI centre wins.
    """
    roi = cfg.roi or Rect(0, 0, image.width, image.height)
    grouped = group_detections(scan_roi(cfg.cascade, image, cfg), cfg.min_neighbors)
    best = select_result(
        grouped, True, roi_center=(roi.x + (roi.w - 1) / 2.0, roi.y + (roi.h - 1) / 2.0)
    )
    return best.point if best else None


def detect_region(image, cfg: DetectorConfig) -> Rect | None:
    """One grouped detection rect inside cfg.roi (faces and facial features).

    Selection honours ``cfg.is_point``: region detectors normally want
    the largest cluster, but a config may prefer the most corroborated
    one.
    """
    raw = scan_roi(cfg.cascade, image, cfg)
    grouped = group_detections(raw, cfg.min_neighbors)
    best = select_result(grouped, cfg.is_point)
    return best.rect if best else None


# feature search regions as (x0, y0, x1, y1) fractions of the face rect:
# eyes and brows share the upper band, split at the midline.  Plain
# configuration, not measurements.
FEATURE_BANDS = {
    "left_eye": (0.0, 0.0, 0.5, 0.55),
    "right_eye": (0.5, 0.0, 1.0, 0.55),
    "nose": (0.30, 0.35, 0.70, 0.75),
    "mouth": (0.15, 2.0 / 3.0, 0.85, 1.0),
}
POINT_EXPAND = 0.40  # point search margin on each side of a feature rect


def feature_roi(face: Rect, name: str) -> Rect:
    """The search region of feature ``name`` inside the face rect."""
    if name not in FEATURE_BANDS:
        raise ValueError(f"unknown feature {name!r}")
    fx0, fy0, fx1, fy1 = FEATURE_BANDS[name]
    x0 = face.x + round_half_up(face.w * fx0)
    y0 = face.y + round_half_up(face.h * fy0)
    x1 = face.x + round_half_up(face.w * fx1)
    y1 = face.y + round_half_up(face.h * fy1)
    return Rect(x0, y0, max(1, x1 - x0), max(1, y1 - y0))


def point_roi(feature: Rect, image_w: int, image_h: int) -> Rect | None:
    """The feature rect grown by POINT_EXPAND of its size on each side, clamped to the image."""
    ex = round_half_up(feature.w * POINT_EXPAND)
    ey = round_half_up(feature.h * POINT_EXPAND)
    grown = Rect(feature.x - ex, feature.y - ey, feature.w + 2 * ex, feature.h + 2 * ey)
    return _clamp_rect(grown, image_w, image_h)


def detect_hierarchy(
    image: GrayImage,
    face_cfg: DetectorConfig,
    feature_cfgs: dict[str, DetectorConfig],
    point_cfgs: dict[str, DetectorConfig],
    tilt_state: TiltState,
) -> HierarchyResult:
    """Face, then features, then points, with inter-frame tilt correction.

    The working image is counter-rotated by the mode's share of the
    carried tilt before detection; detected coordinates are mapped back
    to the input frame, and the tilt estimate from the detected eye
    corners (after fourth-corner inference) updates ``tilt_state`` for
    the next frame.  A face-absent frame resets the carried tilt.
    """
    result = HierarchyResult()
    correction = tilt_state.mode.correction(tilt_state.alpha)
    center = Point2((image.width - 1) / 2.0, (image.height - 1) / 2.0)
    work = image if correction == 0.0 else rotate_image(image, center, -correction)
    result.tilt_applied = correction
    # one set of frame tables serves the face, feature and point scans
    cfgs = (face_cfg, *feature_cfgs.values(), *point_cfgs.values())
    rotated = any(cfg.cascade.feature_set is FeatureSet.ALL for cfg in cfgs)
    tables = build_tables(work, want_rotated=rotated)

    face = detect_region(tables, face_cfg)
    if face is None:
        tilt_state.alpha = 0.0
        return result
    result.face_found = True
    result.face = face

    feature_rects: dict[str, Rect | None] = {}
    for name in FEATURE_NAMES:
        cfg = feature_cfgs.get(name)
        if cfg is None:
            feature_rects[name] = None
            continue
        cfg.roi = _clamp_rect(feature_roi(face, name), work.width, work.height)
        feature_rects[name] = None if cfg.roi is None else detect_region(tables, cfg)
    result.features = feature_rects

    for name, cfg in point_cfgs.items():
        parent = feature_rects.get(POINT_PARENTS[name])
        if parent is None:
            continue
        if cfg.sub_roi is not None:
            cfg.roi = _sub_roi_rect(
                parent, cfg.sub_roi, cfg.cascade.window_w, work.width, work.height
            )
        else:
            cfg.roi = point_roi(parent, work.width, work.height)
        # a search square wholly outside the frame leaves the point undetected
        coord = None if cfg.roi is None else detect_point(tables, cfg)
        if coord is not None:
            result.points[name] = Point2(float(coord[0]), float(coord[1]))

    corners = {
        corner: result.points[name]
        for name, corner in EYE_CORNER_POINTS.items()
        if result.points.get(name) is not None
    }
    if len(corners) == 3:
        missing = next(c for c in EyeCorner if c not in corners)
        inferred = infer_fourth_corner(corners, missing)  # the other eye is complete
        name = next(n for n, c in EYE_CORNER_POINTS.items() if c is missing)
        result.points[name] = inferred
        corners[missing] = inferred

    if len(corners) >= 2:
        try:
            measured = estimate_tilt(list(corners.values()))
            tilt_state.alpha = correction + measured
        except (VerticalLineError, InsufficientPointsError):
            pass  # keep the carried tilt

    if correction != 0.0:
        for name, p in result.points.items():
            if p is not None:
                result.points[name] = rotate_point(p, center, correction)
    return result


def _clamp_rect(r: Rect, w: int, h: int) -> Rect | None:
    """The part of ``r`` inside a w x h image, or None when they do not meet."""
    x0 = max(0, r.x)
    y0 = max(0, r.y)
    x1 = min(w, r.x + r.w)
    y1 = min(h, r.y + r.h)
    if x1 <= x0 or y1 <= y0:
        return None
    return Rect(x0, y0, x1 - x0, y1 - y0)


def _sub_roi_rect(parent: Rect, sub_roi, window: int, image_w: int, image_h: int) -> Rect | None:
    """Per-detector search square inside/around the parent feature rect."""
    dx, dy, half_u = sub_roi
    cx = parent.x + (parent.w - 1) / 2.0 + dx * parent.w
    cy = parent.y + (parent.h - 1) / 2.0 + dy * parent.h
    half = max(half_u * parent.w, window / 2.0 + 1)
    r = Rect(
        round_half_up(cx - half),
        round_half_up(cy - half),
        max(window, round_half_up(2 * half)),
        max(window, round_half_up(2 * half)),
    )
    return _clamp_rect(r, image_w, image_h)
