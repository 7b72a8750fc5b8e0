"""Haar-like features over integral tables.

Cell layouts and sign conventions
---------------------------------

Upright kinds are grids of equal base cells (w x h pixels each); the
feature value is the signed, area-balanced sum of cell pixel sums,
multiplied by the window's inverse standard deviation.  Diagrams show
the sign of each cell (``-`` subtracts, ``+`` adds):

    EDGE_H   [-][+]          value = right - left
    EDGE_V   [-]             value = bottom - top
             [+]
    LINE_H   [-][2+][-]      centre counts twice
    LINE_V   [-]
             [2+]
             [-]
    DIAG     [+][-]          opposing diagonals
             [-][+]
    CENTER_SURROUND          outer 3w x 3h weighted -1,
             [- - -]         inner w x h weighted +9
             [- 9 -]
             [- - -]

45-degree kinds place rotated cells along the image diagonals.  A
rotated cell with apex pixel (x, y) covers the w*h pixels
(x + a - b, y + a + b) for 0 <= a < w, 0 <= b < h.  ``_45`` kinds chain
cells along the down-right diagonal (EDGE_H_45, LINE_H_45) or the
down-left diagonal (EDGE_V_45, LINE_V_45), first cell negative.

Every kind satisfies sum(weight * pixel_count) = 0, so all features
respond 0 on uniform input; rescaled cells are re-balanced to keep that
exact after rounding.

Enumeration convention
----------------------

:func:`enumerate_features` is exhaustive with unit steps in position
and base-cell size: every feature whose footprint fits the window
appears exactly once, ordered by (kind, y, x, h, w) ascending.  One
fit rule serves both orientations: a feature whose kind has footprint
multiples (n_a, n_b) fits iff the one cell (x, y, n_a*w, n_b*h),
upright or rotated like the kind, lies inside the window.  Under this
convention a 24x24 window yields 162,336 BASIC features; smaller
published counts for the same window come from coarser scale or
position grids.

Evaluation
----------

Upright and rotated cells alike are four corner reads in one table
(``sums`` or ``tilted`` of :class:`~fidpoint.raster.IntegralTables`),
and the tables share one row stride, so one array of window offsets
serves both.  A feature's cells at a scale are :class:`ScaledCells`,
stored as the (x, y, w, h, weight) slots that :func:`cells_at`, the one
window evaluator, reads.  :func:`cells_value` and the cascade's stage
loop (``cascade.run_stages``, which serves the scanner and bootstrap
filtering) pass those slots unconverted, and :func:`cells_at` reads
each corner offset k through the view ``table[k:]``.

:func:`feature_matrix` serves stage training (every feature on every
sample).  A feature's value is a linear functional of one table, so
per block of features it is one matrix product ``T @ C`` per table:
``T`` holds the samples' tables as rows, and ``C`` each feature's
cell weights at its corner offsets.  The product is exact integer
arithmetic in float64, hence bit-identical to :func:`cells_at`.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .raster import IntegralTables, Rect, cell_box, cell_corners, require_inside, stack_tables


def round_half_up(v) -> int:
    """Deterministic scaling round: nearest integer, halves toward +inf.

    Accepts floats and Fractions; Fraction input is rounded exactly,
    which keeps scaled cell geometry consistent under mirroring.
    """
    if isinstance(v, Fraction):
        return (2 * v.numerator + v.denominator) // (2 * v.denominator)
    return int(math.floor(v + 0.5))


class FeatureKind(enum.Enum):
    EDGE_H = "EDGE_H"
    EDGE_V = "EDGE_V"
    LINE_H = "LINE_H"
    LINE_V = "LINE_V"
    DIAG = "DIAG"
    CENTER_SURROUND = "CENTER_SURROUND"
    EDGE_H_45 = "EDGE_H_45"
    EDGE_V_45 = "EDGE_V_45"
    LINE_H_45 = "LINE_H_45"
    LINE_V_45 = "LINE_V_45"

    @property
    def rotated(self) -> bool:
        return self.value.endswith("_45")


# Upright layouts: (cx, cy, cw, ch, weight) in base-cell units.
_UPRIGHT_CELLS = {
    FeatureKind.EDGE_H: ((0, 0, 1, 1, -1.0), (1, 0, 1, 1, 1.0)),
    FeatureKind.EDGE_V: ((0, 0, 1, 1, -1.0), (0, 1, 1, 1, 1.0)),
    FeatureKind.LINE_H: ((0, 0, 1, 1, -1.0), (1, 0, 1, 1, 2.0), (2, 0, 1, 1, -1.0)),
    FeatureKind.LINE_V: ((0, 0, 1, 1, -1.0), (0, 1, 1, 1, 2.0), (0, 2, 1, 1, -1.0)),
    FeatureKind.DIAG: (
        (0, 0, 1, 1, 1.0),
        (1, 0, 1, 1, -1.0),
        (0, 1, 1, 1, -1.0),
        (1, 1, 1, 1, 1.0),
    ),
    FeatureKind.CENTER_SURROUND: ((0, 0, 3, 3, -1.0), (1, 1, 1, 1, 9.0)),
}

# Rotated layouts: (a_step, b_step, weight); cell apex = base apex
# + a_step*w*(1,1) + b_step*h*(-1,1).
_ROTATED_CELLS = {
    FeatureKind.EDGE_H_45: ((0, 0, -1.0), (1, 0, 1.0)),
    FeatureKind.EDGE_V_45: ((0, 0, -1.0), (0, 1, 1.0)),
    FeatureKind.LINE_H_45: ((0, 0, -1.0), (1, 0, 2.0), (2, 0, -1.0)),
    FeatureKind.LINE_V_45: ((0, 0, -1.0), (0, 1, 2.0), (0, 2, -1.0)),
}

# Footprint multiples (n_a, n_b): upright footprint is (n_a*w, n_b*h)
# pixels; rotated features span n_a*w diagonal steps down-right and
# n_b*h down-left.
_GRID = {
    FeatureKind.EDGE_H: (2, 1),
    FeatureKind.EDGE_V: (1, 2),
    FeatureKind.LINE_H: (3, 1),
    FeatureKind.LINE_V: (1, 3),
    FeatureKind.DIAG: (2, 2),
    FeatureKind.CENTER_SURROUND: (3, 3),
    FeatureKind.EDGE_H_45: (2, 1),
    FeatureKind.EDGE_V_45: (1, 2),
    FeatureKind.LINE_H_45: (3, 1),
    FeatureKind.LINE_V_45: (1, 3),
}

BASIC_KINDS = (
    FeatureKind.EDGE_H,
    FeatureKind.EDGE_V,
    FeatureKind.LINE_H,
    FeatureKind.LINE_V,
    FeatureKind.DIAG,
)
ALL_KINDS = BASIC_KINDS + (
    FeatureKind.CENTER_SURROUND,
    FeatureKind.EDGE_H_45,
    FeatureKind.EDGE_V_45,
    FeatureKind.LINE_H_45,
    FeatureKind.LINE_V_45,
)


class FeatureSet(enum.Enum):
    BASIC = "BASIC"
    ALL = "ALL"

    @property
    def kinds(self) -> tuple[FeatureKind, ...]:
        return BASIC_KINDS if self is FeatureSet.BASIC else ALL_KINDS


class HaarFeature(NamedTuple):
    """Five-dimensional feature: layout kind, window position, base-cell scale.

    A plain tuple that checks nothing: enumeration and mirroring build only fitting
    features, and ``cascade.deserialize`` rejects a cell below 1x1 before building one.
    """

    kind: FeatureKind
    x: int
    y: int
    w: int
    h: int


def _fits(kind: FeatureKind, x, y, w, h, window_w: int, window_h: int):
    """Whether the footprint, one n_a*w x n_b*h cell, lies inside the window.

    Works on ints and on numpy arrays alike.
    """
    na, nb = _GRID[kind]
    x0, y0, x1, y1 = cell_box(x, y, na * w, nb * h, kind.rotated)
    return (x0 >= 0) & (y0 >= 0) & (x1 < window_w) & (y1 < window_h)


def footprint(f: HaarFeature) -> Rect:
    """Window-relative bounding box of all member pixels."""
    na, nb = _GRID[f.kind]
    x0, y0, x1, y1 = cell_box(f.x, f.y, na * f.w, nb * f.h, f.kind.rotated)
    return Rect(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def fits_window(f: HaarFeature, window_w: int, window_h: int) -> bool:
    return _fits(f.kind, f.x, f.y, f.w, f.h, window_w, window_h)


def enumerate_features(
    window_w: int, window_h: int, feature_set: FeatureSet = FeatureSet.BASIC
) -> list[HaarFeature]:
    """Every fitting feature exactly once, ordered by (kind, y, x, h, w)."""
    if window_w < 1 or window_h < 1:
        raise ValueError("window must be at least 1x1")
    out: list[HaarFeature] = []
    for kind in feature_set.kinds:
        na, nb = _GRID[kind]
        # every (x, h, w) a fitting footprint can take, x-major; a feature
        # that fits at some row also fits at row 0, so keep only those
        grid = np.mgrid[:window_w, 1 : window_h // nb + 1, 1 : window_w // na + 1]
        x, h, w = grid.reshape(3, -1)
        top = _fits(kind, x, 0, w, h, window_w, window_h)
        x, h, w = x[top], h[top], w[top]
        rows = _fits(kind, x, np.arange(window_h)[:, None], w, h, window_w, window_h)
        for y, keep in enumerate(rows):
            xywh = x[keep].tolist(), itertools.repeat(y), w[keep].tolist(), h[keep].tolist()
            out += map(HaarFeature, itertools.repeat(kind), *xywh)
    return out


@dataclass(frozen=True)
class ScaledCells:
    """Concrete integer cells of a feature at a given scale.

    ``slots`` holds the cells in layout order as (x, y, w, h, weight),
    the form :func:`cells_at` reads: int window-relative geometry, in
    apex form for rotated kinds, and weights re-balanced so that
    sum(weight * w * h) is exactly zero at the rounded geometry.
    """

    rotated: bool
    slots: tuple[tuple[int, int, int, int, float], ...]

    @property
    def rects(self) -> tuple[Rect, ...]:
        return tuple(Rect(x, y, w, h) for x, y, w, h, _ in self.slots)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(slot[4] for slot in self.slots)


def _unit_cells(kind: FeatureKind, x, y, w, h) -> list[tuple]:
    """Scale-1 cells of ``kind`` as (x, y, w, h, weight) slots in layout order.

    (x, y) is the feature position and w x h its base cell; they may be
    ints or arrays holding one entry per feature.
    """
    if kind.rotated:
        layout = _ROTATED_CELLS[kind]
        return [(x + a * w - b * h, y + a * w + b * h, w, h, wt) for a, b, wt in layout]
    layout = _UPRIGHT_CELLS[kind]
    return [(x + cx * w, y + cy * h, cw * w, ch * h, wt) for cx, cy, cw, ch, wt in layout]


@functools.lru_cache(maxsize=1 << 12)
def scale_feature(f: HaarFeature, factor) -> ScaledCells:
    """Round each cell to the nearest pixel grid at ``factor`` and re-balance.

    Both orientations start from the layout of :func:`_unit_cells`, in
    exact rational arithmetic.  Upright cells round each edge on its own
    (so adjacent cells stay adjacent); rotated kinds are laid out again
    from the rounded apex and the rounded cell size.  Weights are
    re-balanced to restore the zero-mean invariant.

    Results are cached; the arguments and the returned cells are all
    immutable, so an entry never goes stale.
    """
    if factor < 1:
        raise ValueError("scale factor must be >= 1")
    frac = Fraction(factor)  # exact for ints, floats and Fractions
    if f.kind.rotated:
        w, h = (max(1, round_half_up(v * frac)) for v in (f.w, f.h))
        cells = _unit_cells(f.kind, round_half_up(f.x * frac), round_half_up(f.y * frac), w, h)
    else:
        cells = []
        for x, y, w, h, wt in _unit_cells(f.kind, f.x, f.y, f.w, f.h):
            x0, y0 = round_half_up(x * frac), round_half_up(y * frac)
            x1, y1 = round_half_up((x + w) * frac), round_half_up((y + h) * frac)
            cells.append((x0, y0, max(1, x1 - x0), max(1, y1 - y0), wt))
    # an upright or rotated w x h cell holds w * h pixels
    pos = sum(wt * w * h for _, _, w, h, wt in cells if wt > 0)
    neg = sum(-wt * w * h for _, _, w, h, wt in cells if wt < 0)
    if neg > 0 and pos != neg:
        # symmetric re-balance: both sides meet at the mean weighted area,
        # so a mirrored feature (whose cells swap roles) scales by the
        # same factors and its value is the exact negation
        target = (pos + neg) / 2.0
        rp, rn = target / pos, target / neg
        cells = [(x, y, w, h, wt * rn if wt < 0 else wt * rp) for x, y, w, h, wt in cells]
    return ScaledCells(f.kind.rotated, tuple(cells))


@functools.lru_cache(maxsize=1 << 10)
def scan_plan(window_w: int, window_h: int, features: tuple, frac: Fraction, mirrored: bool):
    """(cells, overhang) of ``features`` in a window_w x window_h window scaled by ``frac``.

    The overhang (left, top, right, bottom) is how far the cells reach
    beyond the scaled w_k x h_k window.  ``mirrored`` reflects the scaled
    cells about that window: upright x -> w_k - x - w, rotated apex
    x -> w_k - 1 - x with w and h swapped.  Weights stay with their cells
    in layout order, so reflected cells on a mirrored window give the
    plain cells' value bit for bit.  Cached on feature values, so an
    edited cascade never reads a stale plan.
    """
    win_w, win_h = round_half_up(window_w * frac), round_half_up(window_h * frac)
    plan = []
    left = top = right = bottom = 0
    for f in features:
        cells = scale_feature(f, frac)
        if mirrored:
            slots = tuple(
                (win_w - 1 - x, y, h, w, wt) if cells.rotated else (win_w - x - w, y, w, h, wt)
                for x, y, w, h, wt in cells.slots
            )
            cells = ScaledCells(cells.rotated, slots)
        for x, y, w, h, _ in cells.slots:
            x0, y0, x1, y1 = cell_box(x, y, w, h, cells.rotated)
            left, top = max(left, -x0), max(top, -y0)
            right, bottom = max(right, x1 - (win_w - 1)), max(bottom, y1 - (win_h - 1))
        plan.append(cells)
    return tuple(plan), (left, top, right, bottom)


def cells_at(table: np.ndarray, stride: int, base: np.ndarray, slots, rotated: bool) -> np.ndarray:
    """(N,) values pos - neg of one feature's cells at N windows.

    ``table`` is a flattened ``sums`` table (upright cells) or ``tilted``
    table (rotated cells) with row stride ``stride``, and ``base`` holds
    the N flat offsets of the window origins.  ``slots`` lists the cells
    in layout order as (x, y, w, h, weight) with int window-relative
    geometry.  Positive and negative cells are accumulated separately,
    each in layout order, and differenced at the end; mirrored features
    then evaluate to the exact float negation on mirrored input.  A
    corner offset k is read through the view ``table[k:]``.
    """
    pos = neg = 0.0
    for x, y, w, h, wt in slots:
        a, b, c, d = cell_corners(x, y, w, h, rotated, stride)
        if min(a, b, c, d) < 0:
            raise ValueError(f"corner offset {min(a, b, c, d)} < 0: table[k:] counts from the end")
        s = table[a:][base] - table[b:][base] - table[c:][base] + table[d:][base]
        if wt > 0:
            pos += wt * s
        else:
            neg += -wt * s
    return pos - neg


def cells_value(
    cells: ScaledCells,
    tables: IntegralTables,
    origin_x: int,
    origin_y: int,
    inv_sigma: float,
) -> float:
    """Evaluate pre-scaled cells at an absolute window origin.

    The N = 1 case of :func:`cells_at`, after checking that every cell
    lies inside the image.
    """
    for x, y, w, h, _ in cells.slots:
        require_inside(tables, x + origin_x, y + origin_y, w, h, cells.rotated)
    at = np.array([origin_y * tables.stride + origin_x])
    value = cells_at(tables.flat(cells.rotated), tables.stride, at, cells.slots, cells.rotated)
    return float(value[0]) * inv_sigma


def feature_value(
    f: HaarFeature,
    tables: IntegralTables,
    origin: tuple[int, int] = (0, 0),
    scale: float = 1.0,
    inv_sigma: float = 1.0,
) -> float:
    """inv_sigma times the signed sum of scaled cell sums."""
    return cells_value(scale_feature(f, scale), tables, origin[0], origin[1], inv_sigma)


def mirror_feature(f: HaarFeature, window_w: int) -> tuple[HaarFeature, bool]:
    """Horizontal mirror of a feature inside its window.

    Returns the mirrored feature and whether the feature value changes
    sign under mirroring.  Horizontally symmetric layouts (EDGE_V,
    LINE_H, LINE_V, CENTER_SURROUND) keep their value; EDGE_H and DIAG
    swap their signed columns, so their value is negated; 45-degree
    kinds map onto the opposite-diagonal kind with swapped cell
    dimensions and keep their value.
    """
    kind, x, y, w, h = f.kind, f.x, f.y, f.w, f.h
    if not kind.rotated:
        na, _ = _GRID[kind]
        nx = window_w - x - na * w
        flips = kind in (FeatureKind.EDGE_H, FeatureKind.DIAG)
        return HaarFeature(kind, nx, y, w, h), flips
    swap = {
        FeatureKind.EDGE_H_45: FeatureKind.EDGE_V_45,
        FeatureKind.EDGE_V_45: FeatureKind.EDGE_H_45,
        FeatureKind.LINE_H_45: FeatureKind.LINE_V_45,
        FeatureKind.LINE_V_45: FeatureKind.LINE_H_45,
    }[kind]
    return HaarFeature(swap, window_w - 1 - x, y, h, w), False


# --- batch evaluation (training path) --------------------------------------

# features per feature_matrix block; bounds its (table size x block)
# coefficients and (samples x block) products
_MATRIX_BLOCK = 2048


def feature_matrix(
    features: Sequence[HaarFeature],
    tables_list: Sequence[IntegralTables],
) -> np.ndarray:
    """1/sigma-normalised values of every feature on every window-sized sample patch.

    Returns an (n_samples, n_features) float64 array; row s is scaled by
    sample s's whole-window 1/sigma, which the samples' one
    :func:`~fidpoint.raster.stack_tables` call returns with their tables.
    A feature's value is a linear functional of one table, so each block
    of features is one product ``T @ C`` per table: ``T`` holds the
    samples' tables as rows, cut to the flat offsets from the block's
    first cell corner to its last, and column j of ``C`` holds feature
    j's cell weights, +-weight at each cell corner's offset (corners
    shared by adjacent cells merge into one coefficient).  Table entries
    are integers of at most 255 * W * H and scale-1 weights small
    integers, so every partial sum is an integer below 2**53 and the
    product is exact in any summation order (and with or without zero
    terms); entries are therefore bit-identical to the scalar path at
    scale 1.
    """
    n = len(tables_list)
    out = np.empty((n, len(features)))
    if n == 0 or not features:
        return out
    code = {kind: i for i, kind in enumerate(ALL_KINDS)}
    soa = np.array([(code[f.kind], f.x, f.y, f.w, f.h) for f in features], dtype=np.int64)
    rotated = np.array([kind.rotated for kind in ALL_KINDS])[soa[:, 0]]
    kinds = set(rotated.tolist())
    flat, stride, _, inv = stack_tables(tables_list, kinds)
    stacks = {r: flat[r].reshape(n, -1).astype(np.float64) for r in kinds}
    for lo in range(0, len(features), _MATRIX_BLOCK):
        for rot, table in stacks.items():
            cols = lo + np.flatnonzero(rotated[lo : lo + _MATRIX_BLOCK] == rot)
            m = len(cols)
            if m == 0:
                continue
            corners, slots, weights = [], [], []
            for k in np.unique(soa[cols, 0]):
                j = np.flatnonzero(soa[cols, 0] == k)
                for x, y, w, h, wt in _unit_cells(ALL_KINDS[k], *soa[cols[j], 1:].T):
                    require_inside(tables_list[0], x, y, w, h, rot)
                    for corner, sign in zip(cell_corners(x, y, w, h, rot, stride), (1, -1, -1, 1)):
                        corners.append(corner)
                        slots.append(j)
                        weights.append(np.full(len(j), sign * wt))
            # only the offsets from the block's first to its last corner:
            # the entries outside would multiply zero rows of C
            at = np.concatenate(corners)
            first, last = int(at.min()), int(at.max())
            at = (at - first) * m + np.concatenate(slots)
            coef = np.bincount(at, np.concatenate(weights), (last - first + 1) * m)
            if cols[-1] - cols[0] == m - 1:
                # a run of columns, as in any enumeration: a slice writes
                # the fresh output several times faster than an index array
                cols = slice(cols[0], cols[-1] + 1)
            out[:, cols] = (table[:, first : last + 1] @ coef.reshape(-1, m)) * inv[:, None]
    return out
