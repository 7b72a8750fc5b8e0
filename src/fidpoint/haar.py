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
appears exactly once, ordered by (kind, y, x, h, w) ascending.  Under
this convention a 24x24 window yields 162,336 BASIC features; smaller
published counts for the same window come from coarser scale or
position grids.

Evaluation
----------

Upright and rotated cells alike are four corner reads in one table
(``sums`` or ``tilted`` of :class:`~fidpoint.raster.IntegralTables`).
:func:`cells_at` is the one evaluator: :func:`cells_value`, the
cascade's stage loop and :func:`feature_matrix` all call it.
:func:`feature_matrix` serves only stage training (every feature on
every sample); cascades, in the scanner and in bootstrap filtering, are
evaluated by ``cascade.run_stages``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .raster import BoundsError, IntegralTables, Rect, cell_box, cell_corners, require_inside


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


@dataclass(frozen=True)
class HaarFeature:
    """Five-dimensional feature: layout kind, window position, base-cell scale."""

    kind: FeatureKind
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError("base cell must be at least 1x1")


def footprint(f: HaarFeature) -> Rect:
    """Window-relative bounding box of all member pixels."""
    na, nb = _GRID[f.kind]
    if not f.kind.rotated:
        return Rect(f.x, f.y, na * f.w, nb * f.h)
    a_tot, b_tot = na * f.w, nb * f.h
    return Rect(f.x - (b_tot - 1), f.y, a_tot + b_tot - 1, a_tot + b_tot - 1)


def fits_window(f: HaarFeature, window_w: int, window_h: int) -> bool:
    fp = footprint(f)
    return fp.x >= 0 and fp.y >= 0 and fp.x + fp.w <= window_w and fp.y + fp.h <= window_h


def enumerate_features(
    window_w: int, window_h: int, feature_set: FeatureSet = FeatureSet.BASIC
) -> list[HaarFeature]:
    """Every fitting feature exactly once, ordered by (kind, y, x, h, w)."""
    if window_w < 1 or window_h < 1:
        raise ValueError("window must be at least 1x1")
    out: list[HaarFeature] = []
    for kind in feature_set.kinds:
        na, nb = _GRID[kind]
        if not kind.rotated:
            for y in range(window_h):
                for x in range(window_w):
                    for h in range(1, (window_h - y) // nb + 1):
                        for w in range(1, (window_w - x) // na + 1):
                            out.append(HaarFeature(kind, x, y, w, h))
        else:
            for y in range(window_h):
                for x in range(window_w):
                    h = 1
                    while True:
                        b_tot = nb * h
                        if x - (b_tot - 1) < 0 or y + b_tot - 1 >= window_h:
                            break
                        w = 1
                        while True:
                            a_tot = na * w
                            if (
                                x + a_tot - 1 >= window_w
                                or y + a_tot + b_tot - 2 >= window_h
                            ):
                                break
                            out.append(HaarFeature(kind, x, y, w, h))
                            w += 1
                        h += 1
    return out


@dataclass(frozen=True)
class ScaledCells:
    """Concrete integer cells of a feature at a given scale.

    ``rects`` are window-relative; for rotated kinds each Rect is a
    rotated rect in apex form.  ``weights`` are re-balanced so that
    sum(weight * pixel_count) is exactly zero at the rounded geometry.
    """

    rotated: bool
    rects: tuple[Rect, ...]
    weights: tuple[float, ...]

    @property
    def slots(self) -> list[tuple[int, int, int, int, float]]:
        """The cells as (x, y, w, h, weight) slots for :func:`cells_at`."""
        return [(r.x, r.y, r.w, r.h, wt) for r, wt in zip(self.rects, self.weights)]


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
def scale_feature(
    f: HaarFeature,
    factor,
    window_w: int | None = None,
    window_h: int | None = None,
) -> ScaledCells:
    """Round each cell to the nearest pixel grid at ``factor`` and re-balance.

    Upright cell edges are rounded independently (so adjacent cells stay
    adjacent); rotated cells round apex position and diagonal step
    counts.  Rounding happens in exact rational arithmetic, so mirrored
    features at the same scale land on exactly mirrored cells whenever
    the scaled window width recovers the scale (odd windows never hit an
    exact rounding midpoint).  Negative weights are rescaled to restore
    the zero-mean invariant.  If window dimensions are given, the scaled
    footprint is checked against the scaled window.

    Results are cached; the arguments and the returned cells are all
    immutable, so an entry never goes stale.
    """
    if factor < 1:
        raise ValueError("scale factor must be >= 1")
    frac = Fraction(factor)  # exact for ints, floats and Fractions
    rotated = f.kind.rotated
    rects = []
    weights = []
    if not rotated:
        for cx, cy, cw, ch, wt in _UPRIGHT_CELLS[f.kind]:
            x1 = round_half_up((f.x + cx * f.w) * frac)
            x2 = round_half_up((f.x + (cx + cw) * f.w) * frac)
            y1 = round_half_up((f.y + cy * f.h) * frac)
            y2 = round_half_up((f.y + (cy + ch) * f.h) * frac)
            rects.append(Rect(x1, y1, max(1, x2 - x1), max(1, y2 - y1)))
            weights.append(wt)
    else:
        w_s = max(1, round_half_up(f.w * frac))
        h_s = max(1, round_half_up(f.h * frac))
        for a_step, b_step, wt in _ROTATED_CELLS[f.kind]:
            ax = round_half_up(f.x * frac) + a_step * w_s - b_step * h_s
            ay = round_half_up(f.y * frac) + a_step * w_s + b_step * h_s
            rects.append(Rect(ax, ay, w_s, h_s))
            weights.append(wt)
    # an upright or rotated w x h cell holds w * h pixels
    pos = sum(wt * r.w * r.h for r, wt in zip(rects, weights) if wt > 0)
    neg = sum(-wt * r.w * r.h for r, wt in zip(rects, weights) if wt < 0)
    if neg > 0 and pos != neg:
        # symmetric re-balance: both sides meet at the mean weighted area,
        # so a mirrored feature (whose cells swap roles) scales by the
        # same factors and its value is the exact negation
        target = (pos + neg) / 2.0
        rp, rn = target / pos, target / neg
        weights = [wt * rn if wt < 0 else wt * rp for wt in weights]
    if window_w is not None and window_h is not None:
        win_w = round_half_up(window_w * frac)
        win_h = round_half_up(window_h * frac)
        for r in rects:
            x0, y0, x1, y1 = cell_box(r.x, r.y, r.w, r.h, rotated)
            if x0 < 0 or y0 < 0 or x1 >= win_w or y1 >= win_h:
                raise BoundsError(f"scaled cell {r} exceeds {win_w}x{win_h} window")
    return ScaledCells(rotated, tuple(rects), tuple(weights))


def cells_at(table: np.ndarray, stride: int, base: np.ndarray, slots, rotated: bool) -> np.ndarray:
    """(N, F) values pos - neg of the cells of F features at N windows.

    ``table`` is a flattened ``sums`` table (upright cells) or ``tilted``
    table (rotated cells) with row stride ``stride``, and ``base`` holds
    the N flat offsets of the window origins.  ``slots`` lists the cells
    in layout order as (x, y, w, h, weight): window-relative geometry as
    ints or as arrays of F entries, and one weight per slot.  Positive
    and negative cells are accumulated separately, each in layout order,
    and differenced at the end; mirrored features then evaluate to the
    exact float negation on mirrored input.
    """
    at = base[:, None]
    pos = neg = 0.0
    for x, y, w, h, wt in slots:
        a, b, c, d = cell_corners(x, y, w, h, rotated, stride)
        s = table[at + a] - table[at + b] - table[at + c] + table[at + d]
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
    table = tables.tilted if cells.rotated else tables.sums
    if table is None:
        raise ValueError("tables were built without rotated sums")
    for r in cells.rects:
        require_inside(tables, r.x + origin_x, r.y + origin_y, r.w, r.h, cells.rotated)
    stride = table.shape[1]
    base = np.array([origin_y * stride + origin_x])
    value = cells_at(table.ravel(), stride, base, cells.slots, cells.rotated)
    return float(value[0, 0]) * inv_sigma


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

# features per feature_matrix block; bounds its (samples x block) temporaries
_MATRIX_BLOCK = 2048


def stack_tables(tables_list: Sequence[IntegralTables], rotations) -> dict:
    """rotated -> (the samples' tables stacked flat, row stride, sample s's base s * size)."""
    if True in rotations and any(t.tilted is None for t in tables_list):
        raise ValueError("rotated features require tables built with want_rotated")
    stacks = {r: np.stack([t.tilted if r else t.sums for t in tables_list]) for r in rotations}
    return {r: (s.ravel(), s.shape[2], np.arange(len(s)) * s[0].size) for r, s in stacks.items()}


def feature_matrix(
    features: Sequence[HaarFeature],
    tables_list: Sequence[IntegralTables],
    inv_sigmas: np.ndarray | None = None,
) -> np.ndarray:
    """Values of every feature on every window-sized sample patch.

    Returns an (n_samples, n_features) float64 array.  Each block of
    features is read kind by kind with :func:`cells_at` from the
    :func:`stack_tables` stack, so entries are bit-identical to the
    scalar path at scale 1.
    """
    n = len(tables_list)
    out = np.empty((n, len(features)))
    if n == 0 or not features:
        return out
    code = {kind: i for i, kind in enumerate(ALL_KINDS)}
    soa = np.array([(code[f.kind], f.x, f.y, f.w, f.h) for f in features], dtype=np.int64)
    flat = stack_tables(tables_list, {ALL_KINDS[k].rotated for k in np.unique(soa[:, 0])})
    inv = np.ones(n) if inv_sigmas is None else np.asarray(inv_sigmas, dtype=np.float64)
    for lo in range(0, len(features), _MATRIX_BLOCK):
        block = soa[lo : lo + _MATRIX_BLOCK]
        for k in np.unique(block[:, 0]):
            kind = ALL_KINDS[k]
            cols = np.nonzero(block[:, 0] == k)[0]
            slots = _unit_cells(kind, *block[cols, 1:].T)
            for x, y, w, h, _ in slots:
                require_inside(tables_list[0], x, y, w, h, kind.rotated)
            table, stride, base = flat[kind.rotated]
            out[:, lo + cols] = cells_at(table, stride, base, slots, kind.rotated) * inv[:, None]
    return out
