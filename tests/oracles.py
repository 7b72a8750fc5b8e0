"""The scalar reference evaluators that the batch paths of ``fidpoint`` are tested against.

Each function here evaluates one window (or one cell, or one pair of
rects) at a time, in plain scalar steps, and is kept verbatim as the
reference; ``fidpoint`` itself evaluates windows only through
``cascade.run_stages``.  The chain, from the bottom up:

- :func:`rect_sum` and :func:`rotated_rect_sum`: one cell's sum from four
  reads of ``IntegralTables.flat`` (``raster.cell_corners``), after
  ``raster.require_inside``; :func:`window_inv_stddev`: one window's
  1/sigma, the N = 1 case of ``raster.window_inv_stddevs``;
- :func:`footprint`: a feature's window-relative bounding box;
  :func:`cells_value` and :func:`feature_value`: one feature's value at
  one window, the N = 1 case of ``haar.cells_at``;
- :func:`eval_strong`: one stage's score and verdict, ``not score <
  threshold``;
- :func:`classify_window`: the cascade's stages in order at one window,
  stopping at the first that rejects; it checks only the cells of the
  stages it reaches, where ``cascade.classify_window`` checks every cell;
- :func:`rects_similar`: the pairwise similarity rule that
  ``scan.group_rois`` joins column runs by.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from fidpoint.boost import StrongClassifier
from fidpoint.cascade import Cascade
from fidpoint.haar import _GRID, HaarFeature, ScaledCells, cells_at, round_half_up, scale_feature
from fidpoint.raster import (
    IntegralTables,
    Rect,
    cell_box,
    cell_corners,
    require_inside,
    window_inv_stddevs,
)


def _cell_sum(tables: IntegralTables, r: Rect, rotated: bool) -> int:
    t = tables.flat(rotated)
    require_inside(tables, r.x, r.y, r.w, r.h, rotated)
    a, b, c, d = cell_corners(r.x, r.y, r.w, r.h, rotated, tables.stride)
    return int(t[a] - t[b] - t[c] + t[d])


def rect_sum(tables: IntegralTables, r: Rect) -> int:
    """Sum of pixels inside ``r`` via four table references."""
    return _cell_sum(tables, r, False)


def rotated_rect_sum(tables: IntegralTables, r: Rect) -> int:
    """Sum over the rotated rect's pixel set via four ``tilted`` references.

    Membership rule is the one documented on :func:`rotated_rect_members`.
    """
    return _cell_sum(tables, r, True)


def window_inv_stddev(tables: IntegralTables, r: Rect) -> float:
    """1/sigma of one window inside the image: the N = 1 case of :func:`window_inv_stddevs`."""
    require_inside(tables, r.x, r.y, r.w, r.h, False)
    return float(window_inv_stddevs(tables, r.y * tables.stride + r.x, r.w, r.h))


def footprint(f: HaarFeature) -> Rect:
    """Window-relative bounding box of all member pixels."""
    na, nb = _GRID[f.kind]
    x0, y0, x1, y1 = cell_box(f.x, f.y, na * f.w, nb * f.h, f.kind.rotated)
    return Rect(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


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


def eval_strong(
    sc: StrongClassifier,
    tables: IntegralTables,
    origin: tuple[int, int] = (0, 0),
    scale: float = 1.0,
    inv_sigma: float = 1.0,
) -> tuple[float, bool]:
    """(score, decision): alpha-weighted vote against the threshold.

    The decision is ``not score < threshold``, the stage loop's rule, so a
    NaN threshold accepts like ``cascade.run_stages`` does.
    """
    score = 0.0
    for alpha, weak in sc.rounds:
        v = feature_value(weak.feature, tables, origin, scale, inv_sigma)
        if weak.predict_value(v):
            score += alpha
    return score, not score < sc.threshold


def classify_window(
    c: Cascade,
    tables: IntegralTables,
    origin: tuple[int, int] = (0, 0),
    scale: float = 1.0,
) -> tuple[bool, int | None]:
    """Evaluate stages in order; (accepted, index of the rejecting stage).

    The effective cell scale is the exact ratio of the realized window
    width round(window_w * scale) to the base window width, so windows
    produced by the scanner evaluate identically here.  A zero-stage
    cascade accepts every window by convention (the recursion base for
    bootstrapping).  Raises ``BoundsError`` if the window leaves the tables.
    """
    frac = Fraction(round_half_up(c.window_w * scale), c.window_w)
    win_w = round_half_up(c.window_w * frac)
    win_h = round_half_up(c.window_h * frac)
    inv_sigma = window_inv_stddev(tables, Rect(*origin, win_w, win_h))
    for i, stage in enumerate(c.stages):
        if not eval_strong(stage.strong, tables, origin, frac, inv_sigma)[1]:
            return False, i
    return True, None


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
