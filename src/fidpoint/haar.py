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

:func:`feature_table` is exhaustive with unit steps in position and
base-cell size: every feature whose footprint fits the window appears
exactly once, as an int (kind, x, y, w, h) row (kind is the
:class:`FeatureKind` number) ordered by (kind, y, x, h, w) ascending;
:func:`enumerate_features` gives the rows as :class:`HaarFeature`.  One
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

:class:`FeatureValues` serves stage training (every feature on every
sample), one block of features at a time, and :func:`feature_matrix`
reads it whole.  A feature's value is a linear functional of one
table, so per block of features it is one matrix product ``T @ C`` per
table: ``T`` holds the samples' tables as rows, and ``C`` each
feature's cell weights at its corner offsets.  The product is exact
integer arithmetic in float64, hence bit-identical to :func:`cells_at`
whatever the block.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .raster import (
    IntegralTables,
    Rect,
    cell_box,
    cell_corners,
    is_inside,
    require_inside,
    stack_tables,
)


def round_half_up(v) -> int:
    """Deterministic scaling round: nearest integer, halves toward +inf.

    Accepts floats and Fractions; Fraction input is rounded exactly,
    which keeps scaled cell geometry consistent under mirroring.
    """
    if isinstance(v, Fraction):
        return (2 * v.numerator + v.denominator) // (2 * v.denominator)
    return int(math.floor(v + 0.5))


class FeatureKind(enum.IntEnum):
    EDGE_H = 0
    EDGE_V = 1
    LINE_H = 2
    LINE_V = 3
    DIAG = 4
    CENTER_SURROUND = 5
    EDGE_H_45 = 6
    EDGE_V_45 = 7
    LINE_H_45 = 8
    LINE_V_45 = 9

    @property
    def rotated(self) -> bool:
        return self.name.endswith("_45")


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

ALL_KINDS = tuple(FeatureKind)
BASIC_KINDS = ALL_KINDS[:5]


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
    As ``kind`` is an int, a feature is also a (kind, x, y, w, h) row of :func:`feature_table`.
    """

    kind: FeatureKind
    x: int
    y: int
    w: int
    h: int


def footprint(f: HaarFeature) -> Rect:
    """Window-relative bounding box of all member pixels."""
    na, nb = _GRID[f.kind]
    x0, y0, x1, y1 = cell_box(f.x, f.y, na * f.w, nb * f.h, f.kind.rotated)
    return Rect(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def fits_window(f: HaarFeature, window_w: int, window_h: int):
    """Whether the footprint of f, one n_a*w x n_b*h cell, lies inside the window.

    f is a (kind, x, y, w, h) row whose x, y, w and h may be ints or numpy arrays.
    """
    kind, x, y, w, h = f
    na, nb = _GRID[kind]
    return is_inside(window_w, window_h, x, y, na * w, nb * h, kind.rotated)


def feature_table(
    window_w: int, window_h: int, feature_set: FeatureSet = FeatureSet.BASIC
) -> np.ndarray:
    """Every fitting feature once: (n, 5) int64 rows (kind, x, y, w, h), by (kind, y, x, h, w)."""
    if window_w < 1 or window_h < 1:
        raise ValueError("window must be at least 1x1")
    out = []
    for kind in feature_set.kinds:
        na, nb = _GRID[kind]
        # every (x, h, w) a fitting footprint can take, x-major; a feature
        # that fits at some row also fits at row 0, so keep only those
        grid = np.mgrid[:window_w, 1 : window_h // nb + 1, 1 : window_w // na + 1]
        x, h, w = grid.reshape(3, -1)
        top = fits_window((kind, x, 0, w, h), window_w, window_h)
        x, h, w = x[top], h[top], w[top]
        rows = fits_window((kind, x, np.arange(window_h)[:, None], w, h), window_w, window_h)
        y, i = np.nonzero(rows)  # row-major: y, then the x-major candidates
        out.append(np.stack([np.full_like(y, kind), x[i], y, w[i], h[i]], axis=1))
    return np.concatenate(out)


def enumerate_features(
    window_w: int, window_h: int, feature_set: FeatureSet = FeatureSet.BASIC
) -> list[HaarFeature]:
    """The rows of :func:`feature_table` as :class:`HaarFeature` values, in the same order."""
    k, *cols = feature_table(window_w, window_h, feature_set).T.tolist()
    # column lists zipped into rows: cheaper than unpacking each table row
    return list(map(HaarFeature._make, zip(map(ALL_KINDS.__getitem__, k), *cols)))


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

    Results are cached (an int kind shares its ``FeatureKind``'s entry,
    so the kind is read as one); arguments and cells are immutable.
    """
    if factor < 1:
        raise ValueError("scale factor must be >= 1")
    kind = FeatureKind(f.kind)
    frac = Fraction(factor)  # exact for ints, floats and Fractions
    if kind.rotated:
        w, h = (max(1, round_half_up(v * frac)) for v in (f.w, f.h))
        cells = _unit_cells(kind, round_half_up(f.x * frac), round_half_up(f.y * frac), w, h)
    else:
        cells = []
        for x, y, w, h, wt in _unit_cells(kind, f.x, f.y, f.w, f.h):
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
    return ScaledCells(kind.rotated, tuple(cells))


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


def cells_at(
    table: np.ndarray, stride: int, base: np.ndarray, slots, rotated: bool, out=None
) -> np.ndarray:
    """(N,) values pos - neg of one feature's cells at N windows.

    ``table`` is a flattened ``sums`` table (upright cells) or ``tilted``
    table (rotated cells) with row stride ``stride``, and ``base`` holds
    the N flat offsets of the window origins.  ``slots`` lists the cells
    in layout order as (x, y, w, h, weight) with int window-relative
    geometry.  Positive and negative cells are accumulated separately,
    each in layout order, and differenced at the end; mirrored features
    then evaluate to the exact float negation on mirrored input.  A
    corner offset k is read through the view ``table[k:]``.

    The values go into ``out`` (a float64 (N,) buffer) when it is given,
    so a scan reuses one buffer for every weak classifier.  The int64
    cell sums are worked in place and are exact.  Each of the two sums
    starts as its first product rather than 0.0 plus it, which is the
    same value: a cell sum is an integer and its weight is nonzero, so
    no weighted product (weight of the sum's own sign) is -0.0.
    """
    v = np.empty(len(base)) if out is None else out
    pos, neg = None, None
    for x, y, w, h, wt in slots:
        a, b, c, d = cell_corners(x, y, w, h, rotated, stride)
        if min(a, b, c, d) < 0:
            raise ValueError(f"corner offset {min(a, b, c, d)} < 0: table[k:] counts from the end")
        s = table[a:][base]
        s -= table[b:][base]
        s -= table[c:][base]
        s += table[d:][base]
        if wt > 0:
            if pos is None:
                pos = np.multiply(s, wt, out=v)
            else:
                pos += wt * s
        elif neg is None:
            neg = -wt * s
        else:
            neg += -wt * s
    if pos is None:
        v.fill(0.0)
    if neg is not None:
        v -= neg
    return v


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

# features per product block; bounds the (table size x block) coefficients
# and (samples x block) products of one FeatureValues read
_MATRIX_BLOCK = 2048


class FeatureValues:
    """The value matrix of :func:`feature_matrix`, computed a block of columns at a time.

    ``values.shape`` is (n_samples, n_features); ``values[:, lo:hi]``
    returns a fresh (n_samples, hi - lo) float64 array in Fortran order,
    so each feature's values are contiguous, and ``values[:, j]`` a fresh
    (n_samples,) one.  ``features`` is any sequence of (kind, x, y, w, h)
    int rows: a :func:`feature_table` or a list of :class:`HaarFeature`,
    which are such rows already.  The samples are stacked once, with
    their 1/sigma, by :func:`~fidpoint.raster.stack_tables`; a read builds
    only the coefficients of the columns it asks for, so it holds no more
    than ``_MATRIX_BLOCK`` features' temporaries at a time.

    Row s of column j is sample s's 1/sigma times feature j's value on it.
    A feature's value is a linear functional of one table, so each block
    of features is one product ``T @ C`` per table: ``T`` holds the
    samples' tables as rows, cut to the flat offsets from the block's
    first cell corner to its last, and column j of ``C`` holds feature
    j's cell weights, +-weight at each cell corner's offset (corners
    shared by adjacent cells merge into one coefficient).  It is computed
    transposed, ``C.T @ T.T``, which writes the Fortran-order output
    contiguously.

    Every block is exact, so a column does not depend on the block it is
    read in.  Table entries are integers of at most 255 * W * H, and the
    scale-1 weights are integers whose absolute values sum to at most 40
    per feature (CENTER_SURROUND: 4 corners of weight 1, 4 of weight 9),
    so every term of a column's dot product is an integer, and so is
    every partial sum of them in any order, fused or not, with or without
    the zero terms of other features' offsets: all are bounded by
    40 * 255 * W * H < 2**53, so no addition rounds.  The dot product is
    therefore the same float whatever the block, its cut and the BLAS
    summation order, and the one rounding left, the product with 1/sigma,
    takes the same two operands.  Entries are thus bit-identical to the
    scalar path at scale 1, which reads the same integer cell sums.
    """

    def __init__(self, features: np.ndarray | Sequence, tables_list: Sequence[IntegralTables]):
        n = len(tables_list)
        self._soa = np.asarray(features, dtype=np.int64).reshape(-1, 5)
        self.shape = (n, len(self._soa))
        self._rotated = np.array([kind.rotated for kind in ALL_KINDS])[self._soa[:, 0]]
        self._stacks = {}
        if n and len(self._soa):
            kinds = set(self._rotated.tolist())
            flat, self._stride, _, self._inv = stack_tables(tables_list, kinds)
            self._stacks = {r: flat[r].reshape(n, -1).astype(np.float64) for r in kinds}
            self._sample = tables_list[0]

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        if not (isinstance(rows, slice) and rows == slice(None)):
            raise IndexError("FeatureValues reads whole columns: values[:, lo:hi] or values[:, j]")
        if not isinstance(cols, slice):
            j = range(self.shape[1])[cols]  # IndexError when out of range
            return self[:, j : j + 1][:, 0]
        lo, hi, step = cols.indices(self.shape[1])
        if step != 1:
            raise IndexError("FeatureValues reads a run of columns")
        out = np.empty((max(0, hi - lo), self.shape[0])).T
        if self._stacks:
            for b in range(lo, hi, _MATRIX_BLOCK):
                self._block(b, min(hi, b + _MATRIX_BLOCK), out[:, b - lo :])
        return out

    def _block(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Write columns lo..hi-1 to the first hi - lo columns of ``out``."""
        stride = self._stride
        for rot, table in self._stacks.items():
            cols = np.flatnonzero(self._rotated[lo:hi] == rot)
            m = len(cols)
            if m == 0:
                continue
            soa = self._soa[lo + cols]
            corners, slots, weights = [], [], []
            for k in np.unique(soa[:, 0]):
                j = np.flatnonzero(soa[:, 0] == k)
                for x, y, w, h, wt in _unit_cells(ALL_KINDS[k], *soa[j, 1:].T):
                    require_inside(self._sample, x, y, w, h, rot)
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
            prod = coef.reshape(-1, m).T @ table[:, first : last + 1].T
            prod *= self._inv
            out[:, cols] = prod.T


def feature_matrix(
    features: Sequence[HaarFeature],
    tables_list: Sequence[IntegralTables],
) -> np.ndarray:
    """1/sigma-normalised values of every feature on every window-sized sample patch.

    Returns the (n_samples, n_features) float64 array :class:`FeatureValues`
    reads whole; row s is scaled by sample s's whole-window 1/sigma.
    """
    return FeatureValues(features, tables_list)[:, :]
