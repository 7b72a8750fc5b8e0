"""Multi-scale sliding-window detection and the face->feature->point hierarchy.

Scan schedule
-------------

Every scan moves and scales the detector over one set of integral
tables of the whole frame, as Viola and Jones do; no ROI is cut out,
flipped or given tables of its own.  Window sizes grow from the
configured minimum width by ``scale_factor`` until they no longer fit
the ROI (duplicate rounded sizes are scanned once, sizes shorter than
``min_h`` not at all).  The schedule depends only on the cascade
window, the minimum size, the factor and the ROI size, and is worked
out once per such tuple and cached.  At each size the step is
max(1, round(size / cascade_window)) and the position grid contains the
multiples of the step from both ends of the feasible range, so the grid
maps onto itself under horizontal or vertical mirroring about the ROI.
Each size reads its cells from one ``cascade.scaled_cells`` plan at one
array of window offsets, which serves every table of the frame (they
share one row stride).  Windows whose scaled cells would read outside
the frame (possible for rotated cells at fractional scales) are
skipped.  Right-side scans (``on_right_side``) reflect the scaled cells
about each window, so each window's margin is bit for bit that of its
mirror image in a left-side scan of the mirrored frame; with the
mirror-closed grid and the mirror-covariant grouping below, a
right-side point is exactly the mirror image of the left-side point on
the mirrored frame.

:func:`scan_rois` scans several configs, each with its own cascade.
The configs that scan a window size with one cascade on one side share
a stage pass at that size: their windows go through one
``window_inv_stddevs`` and one ``run_stages`` call, and the survivors
are split back per config.  A window's verdict and margin do not depend
on the batch it is read in, so each config gets exactly its own
:func:`scan_roi` records.

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

The components are found without testing all n^2 pairs.  Coordinates
must lie in (-2**31, 2**31) and sizes in [1, 2**31), else ValueError;
within those bounds every key and centre sum below fits int64.  For
integer sizes below 2**50, |d| <= 0.2*m holds exactly when
|d| <= m // 5, so every term of the relation is an integer test.

The unit joined is a *column run*: with the windows sorted by
(w, x, h, y), a stretch of consecutive windows of equal w, x and h, each
y at most h // 5 below the previous one.  Neighbouring members are
similar, so a run is connected; scans yield a few windows per run.  For
runs A and B, the x and w terms are the same for every member pair.
The y terms are exact: with M = max(h_a, h_b) // 5 and dH = h_b - h_a, a
member pair is similar iff |dH| <= M and y_b - y_a lies in
[lo, hi] = [-M + max(0, -dH), M - max(0, dH)].  That interval is
2M - |dH| >= M wide, at least either run's largest y step, so the
intervals [y + lo, y + hi] over A's members y form the one interval
[a0 + lo, a1 + hi] (A spanning a0..a1), and B, whose steps cannot jump
over it, has a member inside it iff B's span [b0, b1] meets it.  Runs A
and B are therefore joined iff |dH| <= M, b0 <= a1 + hi and
b1 >= a0 + lo.

The wider run of a similar pair is at most 5*w//4 wide, w being the
narrower width, and for a wider width W the two x terms put the wider
run's left corner in [x - W//5, x - (W - w) + W//5], x being the
narrower one's.  With the runs in (w, x) order, the candidate partners
of run i are the later runs of each width W present with
w_i <= W <= 5*w_i//4 whose x lies in that range: exactly the runs that
meet the x and w terms.  Each (run, width) range is one pair of binary
searches.  Candidates are tested in blocks of consecutive ranges holding
at most ``_GROUP_BLOCK_PAIRS`` pairs (a single range may exceed it, and
holds at most one pair per run), on the run test above, and each
block's edges are merged into a flat union-find array over runs.  Each
window takes its run's component, named by its smallest raw index, so
clusters come out in order of their first raw window.  Memory is O(n*k)
plus one block, whatever the number of raw windows, where k is the
number of distinct widths within 5/4 of a window's own (at most 3 for a
scan at ``scale_factor`` 1.1).

:func:`group_rois` groups several raw arrays in one pass, as
:func:`scan_rois` scans several ROIs: the array index leads the sort key
and the width-class key, so runs, classes and candidate ranges never
cross arrays, and each array gets exactly its own
:func:`group_detections` result; :func:`group_detections` is the
one-array case.

Search step
-----------

``_select`` is the one detector-search step: one :func:`scan_rois` call
and one :func:`group_rois` call over its configs, then one
:func:`select_result` call per config.  Region searches pick the largest
cluster (or, with ``is_point``, the most corroborated one); point
searches pick the most corroborated cluster nearest the ROI centre.
:func:`detect_region` and :func:`detect_point` are its one-search case,
and each layer of :func:`detect_hierarchy` is one call: the face through
:func:`detect_region`, then the four features, then the fourteen points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .cascade import Cascade, run_stages, scaled_cells
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
from .haar import FeatureSet, round_half_up
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
        sub = self.sub_roi
        if sub is not None and (len(sub) != 3 or not all(map(math.isfinite, sub))):
            raise ValueError("sub_roi must be three finite numbers")
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
    """Outcome of one face->features->points pass.

    ``face`` and ``features`` are rects of the counter-rotated working
    frame, turned by ``tilt_applied`` from the input; only ``points``
    are mapped back to the input frame.
    """

    face: Rect | None = None
    features: dict = field(default_factory=dict)
    points: dict = field(default_factory=lambda: {n: None for n in DETECTED_POINT_NAMES})
    tilt_applied: float = 0.0

    @property
    def face_found(self) -> bool:
        return self.face is not None


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


def _scan_sizes(cfg: DetectorConfig, roi: Rect) -> list:
    """Deduplicated ((width, height), exact scale) pairs of ``cfg.cascade`` that fit the ROI.

    Widths follow min_w * factor^k; the height comes from the same exact
    width ratio so cells and window box stay mutually consistent.  Sizes
    shorter than min_h are skipped, as OpenCV's ``minSize`` does.  A
    fresh list of a cached schedule, so a caller may change it.
    """
    c = cfg.cascade
    return list(
        _size_schedule(
            c.window_w, c.window_h, cfg.min_w, cfg.min_h, cfg.scale_factor, roi.w, roi.h
        )
    )


@functools.lru_cache(maxsize=1 << 10)
def _size_schedule(window_w, window_h, min_w, min_h, factor, roi_w, roi_h) -> tuple:
    """:func:`_scan_sizes` of one (window, minimum size, factor, ROI size), as a tuple."""
    sizes = []
    k = 0
    while True:
        exact = min_w * factor**k
        # round_half_up(exact) > roi_w, tested before rounding: exact may be inf
        if exact + 0.5 >= roi_w + 1:
            break
        w = round_half_up(exact)
        frac = Fraction(w, window_w)
        h = round_half_up(window_h * frac)
        if h > roi_h:
            break
        if h >= min_h and (not sizes or sizes[-1][0] != (w, h)):
            sizes.append(((w, h), frac))
        # jump to one k before min_w * factor^k reaches w + 0.5, where the next width starts
        k = max(k + 1, math.floor(math.log((w + 0.5) / min_w, factor)) - 1)
    return tuple(sizes)


def scan_roi(c: Cascade, image, cfg: DetectorConfig) -> np.ndarray:
    """All accepted windows over the scan schedule, one ``RAW_WINDOW`` record each.

    Records are ordered by window size ascending, then ``y``, then ``x``.
    ``image`` may be a GrayImage or prebuilt IntegralTables (built with
    rotated sums when the cascade uses the extended feature set).  This
    is :func:`scan_rois` of ``cfg`` with ``c`` as its cascade.
    """
    return scan_rois(image, [cfg if cfg.cascade is c else replace(cfg, cascade=c)])[0]


def scan_rois(image, cfgs) -> list[np.ndarray]:
    """:func:`scan_roi` of each config with its own cascade, one stage pass per window size.

    The windows of every config that scans a size with one cascade on one
    side go through one ``window_inv_stddevs`` and one ``run_stages``
    call; each window's verdict and margin do not depend on its batch, so
    every array equals the config's own :func:`scan_roi` bit for bit.
    """
    tables = _tables(image, cfgs)
    # (w, h, on_right_side, id(cascade)) -> (exact scale, [(config index, roi)]) of every
    # config scanning it; sorted, each config's sizes come in ascending order
    sizes: dict[tuple[int, int, bool, int], tuple[Fraction, list]] = {}
    for n, cfg in enumerate(cfgs):
        roi = _roi(cfg, tables)
        require_inside(tables, roi.x, roi.y, roi.w, roi.h, False)
        for (w_k, h_k), frac in _scan_sizes(cfg, roi):
            key = w_k, h_k, cfg.on_right_side, id(cfg.cascade)
            sizes.setdefault(key, (frac, []))[1].append((n, roi))
    found = [[] for _ in cfgs]  # per config, per size: (offsets, w, h, margins) accepted
    for w_k, h_k, right, c_id in sorted(sizes):
        frac, members = sizes[w_k, h_k, right, c_id]
        c = cfgs[members[0][0]].cascade
        scaled, (l, t, rgt, btm) = scaled_cells(c, frac, right)
        tables_by_kind = {rot: tables.flat(rot) for rot in {sc.rotated for sc in scaled}}
        step_x = max(1, round_half_up(w_k / c.window_w))
        step_y = max(1, round_half_up(h_k / c.window_h))
        ats = []
        for n, roi in members:
            xs = _grid_positions(roi.w - w_k, step_x) + roi.x
            ys = _grid_positions(roi.h - h_k, step_y) + roi.y
            # drop positions whose overhanging cells would leave the image
            xs = xs[(xs >= l) & (xs <= tables.width - w_k - rgt)]
            ys = ys[(ys >= t) & (ys <= tables.height - h_k - btm)]
            ats.append((ys[:, None] * tables.stride + xs).ravel())  # y-major grid
        at = np.concatenate(ats)  # one offset array serves every table
        inv = window_inv_stddevs(tables, at, w_k, h_k)
        alive, margin, _ = run_stages(c, scaled, tables_by_kind, tables.stride, at, inv)
        bounds = [0, *accumulate(map(len, ats))]
        for (n, _), a, b in zip(members, bounds, bounds[1:]):
            keep = alive[a:b]
            found[n].append((at[a:b][keep], w_k, h_k, margin[a:b][keep]))
    return [_raw_windows(f, tables.stride) for f in found]


def _tables(image, cfgs) -> IntegralTables:
    """``image`` if it is tables, else its tables, rotated sums included iff a config needs them."""
    if isinstance(image, IntegralTables):
        return image
    rotated = any(cfg.cascade.feature_set is FeatureSet.ALL for cfg in cfgs)
    return build_tables(image, want_rotated=rotated)


def _roi(cfg: DetectorConfig, image) -> Rect:
    """The region ``cfg`` searches: its ROI, or the whole frame when that is None."""
    return cfg.roi or Rect(0, 0, image.width, image.height)


def _raw_windows(found, stride: int) -> np.ndarray:
    """One ``RAW_WINDOW`` array from per-size (offsets, w, h, margins) of accepted windows."""
    win = np.empty(sum(len(f[0]) for f in found), RAW_WINDOW)
    if found:
        at, ws, hs, margins = zip(*found)
        counts = [len(m) for m in margins]
        win["y"], win["x"] = np.divmod(np.concatenate(at), stride)
        win["margin"] = np.concatenate(margins)
        win["w"], win["h"] = np.repeat(ws, counts), np.repeat(hs, counts)
    return win


# candidate run pairs tested at once by group_rois; bounds its working
# memory to a few MB beyond the O(n) per-window arrays
_GROUP_BLOCK_PAIRS = 1 << 16
# every x and y lies in (-_COORD_LIMIT, _COORD_LIMIT) and every w and h in
# [1, _COORD_LIMIT), so every grouping key and centre sum fits int64
_COORD_LIMIT = 1 << 31


def group_detections(raw: np.ndarray, min_neighbors: int) -> list[Detection]:
    """Connected-component clustering of ``RAW_WINDOW`` records under the documented rule."""
    return group_rois([raw], [min_neighbors])[0]


def group_rois(raws, min_neighbors) -> list[list[Detection]]:
    """:func:`group_detections` of each raw array with its own ``min_neighbors``, in one pass.

    Windows of different arrays are never joined: the array index leads
    the sort key and the width-class key, so runs, classes and candidate
    ranges stay inside one array.
    """
    if len(min_neighbors) != len(raws):
        raise ValueError(f"{len(raws)} raw arrays but {len(min_neighbors)} min_neighbors")
    counts = [len(r) for r in raws]
    n = sum(counts)
    if n == 0:
        return [[] for _ in raws]
    raw = np.concatenate([np.asarray(r, RAW_WINDOW) for r in raws])
    rects = np.stack([raw["x"], raw["y"], raw["w"], raw["h"]], axis=1)
    (x0, y0, w0, h0), (x1, y1, w1, h1) = rects.min(axis=0).tolist(), rects.max(axis=0).tolist()
    if min(x0, y0) <= -_COORD_LIMIT or min(w0, h0) < 1 or max(x1, y1, w1, h1) >= _COORD_LIMIT:
        raise ValueError("raw windows need x, y in (-2**31, 2**31) and w, h in [1, 2**31)")
    src = np.repeat(np.arange(len(raws)), counts)
    # one key for (array, w): the array index leads the sort and the width classes
    aw = src * _COORD_LIMIT + rects[:, 2]
    order = np.lexsort((rects[:, 1], rects[:, 3], rects[:, 0], aw))
    x, y, w, h = rects[order].T
    aw = aw[order]
    # column runs: equal (array, w, x, h), each y at most h // 5 below the last
    head = np.empty(n, bool)
    head[0] = True
    head[1:] = (
        (aw[1:] != aw[:-1]) | (x[1:] != x[:-1]) | (h[1:] != h[:-1]) | (y[1:] - y[:-1] > h[1:] // 5)
    )
    run = head.cumsum() - 1
    first_at = np.flatnonzero(head)
    a0, a1 = y[first_at], np.maximum.reduceat(y, first_at)  # each run's y span
    x, w, h, aw = x[first_at], w[first_at], h[first_at], aw[first_at]
    # one row per (run i, width class of a width W in w_i..5*w_i//4 of its
    # array); its candidates are the later runs of that class with x in
    # [x_i - W//5, x_i - (W - w_i) + W//5] (the exact range in the module docstring)
    head = np.append(True, aw[1:] != aw[:-1])  # first run of each width class
    cls, widths = head.cumsum() - 1, w[head]
    reach = aw - w + np.minimum(5 * w // 4, _COORD_LIMIT - 1)
    span = np.searchsorted(aw[head], reach, side="right") - cls
    row = np.repeat(np.arange(len(x)), span)
    row_cls = cls[row] + np.arange(len(row)) - np.repeat(np.cumsum(span) - span, span)
    # keys ordered by (class, x), so one searchsorted pair bounds each row
    ext = x1 - x0 + 1
    key = cls * ext + (x - x0)
    wide, xr = widths[row_cls], x[row] - x0
    x_lo, x_hi = xr - wide // 5, xr - (wide - w[row]) + wide // 5
    first = np.maximum(np.searchsorted(key, row_cls * ext + np.maximum(x_lo, 0)), row + 1)
    stop = np.searchsorted(key, row_cls * ext + np.minimum(x_hi, ext - 1), side="right")
    pairs = stop - first
    ends = np.cumsum(pairs)
    parent = np.arange(len(x))
    r0 = 0
    while r0 < len(row):
        base = ends[r0] - pairs[r0]
        r1 = max(r0 + 1, int(np.searchsorted(ends, base + _GROUP_BLOCK_PAIRS, side="right")))
        c = pairs[r0:r1]
        i = np.repeat(row[r0:r1], c)
        j = np.arange(base, ends[r1 - 1]) + np.repeat(first[r0:r1] - ends[r0:r1] + c, c)
        # the range has settled x and w; runs i, j hold a similar pair iff
        # the h term holds and the y spans meet (the interval argument in
        # the module docstring)
        hi, hj = h[i], h[j]
        dh, mh = hj - hi, np.maximum(hi, hj) // 5
        keep = (
            (np.abs(dh) <= mh)
            & (a0[j] <= a1[i] + mh - np.maximum(dh, 0))
            & (a1[j] >= a0[i] - mh + np.maximum(-dh, 0))
        )
        _union_edges(parent, i[keep], j[keep])
        r0 = r1
    # name each component by its smallest raw index, so clusters come out
    # ordered by their first raw window
    root = parent[run]
    smallest = np.full(len(x), n)
    np.minimum.at(smallest, root, order)
    label = np.empty(n, np.int64)
    label[order] = smallest[root]
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    owner = src[members[starts]]
    kept = np.flatnonzero(sizes >= np.asarray(min_neighbors)[owner])
    x, y, w, h = rects[members].T
    sums = np.add.reduceat(np.stack([2 * x + w - 1, 2 * y + h - 1, w, h], axis=1), starts)
    margins = raw["margin"][members].tolist()
    out = [[] for _ in raws]
    for s, k, a, (sx2, sy2, sw, sh) in zip(
        starts[kept].tolist(), sizes[kept].tolist(), owner[kept].tolist(), sums[kept].tolist()
    ):
        # centre means in half-pixel units, rounded half-to-even exactly; the
        # doubled axis keeps the rounding reflection-equivariant, so a
        # mirrored cluster rounds to exactly the mirrored centre
        px2, py2 = _div_half_even(sx2, k), _div_half_even(sy2, k)
        w_c = max(1, round_half_up(sw / k))
        h_c = max(1, round_half_up(sh / k))
        rect = Rect((px2 - w_c + 1) // 2, (py2 - h_c + 1) // 2, w_c, h_c)
        # fsum: exactly rounded, so the cluster margin is independent of
        # member order and survives mirroring bit-for-bit
        mg = math.fsum(margins[s : s + k])
        out[a].append(Detection(rect, neighbors=k, point2x=(px2, py2), margin=mg))
    for ds in out:
        ds.sort(key=lambda d: (d.rect.y, d.rect.x, d.rect.h, d.rect.w, d.neighbors))
    return out


def _div_half_even(s: int, k: int) -> int:
    """s / k rounded half to even, exactly (``k`` > 0)."""
    q, r = divmod(s, k)
    return q + (2 * r > k or (2 * r == k and q % 2 == 1))


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


def _select(image, cfgs, points: bool) -> list[Detection | None]:
    """Each config's chosen cluster, or None: the "Search step" above."""
    grouped = group_rois(scan_rois(image, cfgs), [cfg.min_neighbors for cfg in cfgs])
    best = []
    for cfg, ds in zip(cfgs, grouped):
        roi = _roi(cfg, image)
        centre = (roi.x + (roi.w - 1) / 2.0, roi.y + (roi.h - 1) / 2.0) if points else None
        best.append(select_result(ds, points or cfg.is_point, centre))
    return best


def detect_point(image, cfg: DetectorConfig) -> tuple[int, int] | None:
    """One point coordinate inside cfg.roi, in frame coordinates.

    ``image`` may be a GrayImage or prebuilt IntegralTables, as for
    :func:`detect_region`.  Right-side points scan ``cfg.cascade`` with
    reflected cells (see "Scan schedule" above).  Of the clusters with the
    most neighbours, the one whose centre is nearest the ROI centre wins.
    """
    best = _select(image, [cfg], True)[0]
    return best.point if best else None


def detect_region(image, cfg: DetectorConfig) -> Rect | None:
    """One grouped detection rect inside cfg.roi (faces and facial features).

    Selection honours ``cfg.is_point``: region detectors normally want
    the largest cluster, but a config may prefer the most corroborated
    one.
    """
    best = _select(image, [cfg], False)[0]
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
    carried tilt before detection.  The face and feature rects are those
    of the working frame (``tilt_applied`` says how far it is turned);
    only the points are mapped back to the input frame.  The tilt
    estimate from the detected eye corners (after fourth-corner
    inference) updates ``tilt_state`` for the next frame, and a
    face-absent frame resets the carried tilt.

    ``feature_cfgs`` keys must be in ``FEATURE_NAMES`` and ``point_cfgs``
    keys in ``POINT_PARENTS``, else ValueError before any scan.  Each
    feature and point config's ``roi`` is set to the region it searched
    this frame, None if it searched none.
    """
    layers = ("feature", feature_cfgs, FEATURE_NAMES), ("point", point_cfgs, POINT_PARENTS)
    for layer, cfgs, known in layers:
        for name in cfgs:
            if name not in known:
                raise ValueError(f"unknown {layer} {name!r}")
    result = HierarchyResult()
    correction = tilt_state.mode.correction(tilt_state.alpha)
    center = Point2((image.width - 1) / 2.0, (image.height - 1) / 2.0)
    work = image if correction == 0.0 else rotate_image(image, center, -correction)
    result.tilt_applied = correction
    # one set of frame tables serves the face, feature and point scans
    tables = _tables(work, (face_cfg, *feature_cfgs.values(), *point_cfgs.values()))

    face = detect_region(tables, face_cfg)
    if face is None:
        tilt_state.alpha = 0.0
        return result
    result.face = face

    # every feature ROI depends only on the face rect
    for name, cfg in feature_cfgs.items():
        cfg.roi = _clamp_rect(feature_roi(face, name), work.width, work.height)
    found = _select_searched(tables, feature_cfgs, False)
    result.features = {n: found[n].rect if found.get(n) else None for n in FEATURE_NAMES}

    # every point ROI depends only on the feature rects
    for name, cfg in point_cfgs.items():
        parent = result.features[POINT_PARENTS[name]]
        if parent is None:
            cfg.roi = None
        elif cfg.sub_roi is None:
            cfg.roi = point_roi(parent, work.width, work.height)
        else:
            cfg.roi = _sub_roi_rect(parent, cfg, work.width, work.height)
    for name, best in _select_searched(tables, point_cfgs, True).items():
        if best is not None:
            result.points[name] = Point2(float(best.point[0]), float(best.point[1]))

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


def _select_searched(tables, cfgs: dict, points: bool) -> dict:
    """:func:`_select` of the named configs whose ROI is set, by name."""
    searched = {name: cfg for name, cfg in cfgs.items() if cfg.roi is not None}
    return dict(zip(searched, _select(tables, list(searched.values()), points)))


def _clamp_rect(r: Rect, w: int, h: int) -> Rect | None:
    """The part of ``r`` inside a w x h image, or None when they do not meet."""
    x0 = max(0, r.x)
    y0 = max(0, r.y)
    x1 = min(w, r.x + r.w)
    y1 = min(h, r.y + r.h)
    if x1 <= x0 or y1 <= y0:
        return None
    return Rect(x0, y0, x1 - x0, y1 - y0)


def _sub_roi_rect(parent: Rect, cfg: DetectorConfig, image_w: int, image_h: int) -> Rect | None:
    """The search square of ``cfg.sub_roi`` inside/around the parent feature rect.

    Its side is at least the cascade window's longer side.
    """
    dx, dy, half_u = cfg.sub_roi
    window = max(cfg.cascade.window_w, cfg.cascade.window_h)
    cx = parent.x + (parent.w - 1) / 2.0 + dx * parent.w
    cy = parent.y + (parent.h - 1) / 2.0 + dy * parent.h
    half = max(half_u * parent.w, window / 2.0 + 1)
    side = max(window, round_half_up(2 * half))
    r = Rect(round_half_up(cx - half), round_half_up(cy - half), side, side)
    return _clamp_rect(r, image_w, image_h)
