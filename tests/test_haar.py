import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fidpoint import haar
from fidpoint.haar import (
    ALL_KINDS,
    BASIC_KINDS,
    FeatureKind,
    FeatureSet,
    FeatureValues,
    HaarFeature,
    _GRID,
    enumerate_features,
    feature_matrix,
    feature_table,
    feature_value,
    fits_window,
    footprint,
    mirror_feature,
    scale_feature,
)
from fidpoint.raster import (
    BoundsError,
    GrayImage,
    Rect,
    build_tables,
    cell_corners,
    rect_sum,
    rotated_rect_members,
    window_inv_stddev,
)


# --- independent counting oracle -------------------------------------------

def closed_form_count(kind: FeatureKind, W: int, H: int) -> int:
    na, nb = _GRID[kind]
    total = 0
    if not kind.rotated:
        for w in range(1, W // na + 1):
            for h in range(1, H // nb + 1):
                total += (W - na * w + 1) * (H - nb * h + 1)
    else:
        for w in range(1, W + 1):
            for h in range(1, H + 1):
                s = na * w + nb * h - 1
                if s <= W and s <= H:
                    total += (W - s + 1) * (H - s + 1)
    return total


def cell_weight_mask(f: HaarFeature, W: int, H: int, scale=1.0) -> np.ndarray:
    """Per-pixel weight map of a feature; independent re-derivation."""
    cells = scale_feature(f, scale)
    mask = np.zeros((H, W), dtype=np.float64)
    for r, wt in zip(cells.rects, cells.weights):
        if cells.rotated:
            for px, py in rotated_rect_members(r):
                mask[py, px] += wt
        else:
            mask[r.y : r.y + r.h, r.x : r.x + r.w] += wt
    return mask


# --- enumeration -------------------------------------------------------------

def test_1x1_window_empty():
    assert enumerate_features(1, 1, FeatureSet.BASIC) == []


def test_4x4_edge_h_count_is_40():
    feats = [f for f in enumerate_features(4, 4, FeatureSet.BASIC) if f.kind is FeatureKind.EDGE_H]
    assert len(feats) == 40
    assert closed_form_count(FeatureKind.EDGE_H, 4, 4) == 40


@pytest.mark.parametrize("win", [(4, 4), (7, 5), (13, 13), (1, 9), (9, 1), (2, 17), (24, 24)])
def test_counts_match_oracle_per_kind(win):
    W, H = win
    feats = enumerate_features(W, H, FeatureSet.ALL)
    by_kind = {}
    for f in feats:
        by_kind[f.kind] = by_kind.get(f.kind, 0) + 1
    for kind in ALL_KINDS:
        assert by_kind.get(kind, 0) == closed_form_count(kind, W, H), kind
    if win == (24, 24):  # the count the module docstring quotes
        assert sum(by_kind.get(kind, 0) for kind in BASIC_KINDS) == 162_336


def test_enumeration_unique_fitting_deterministic():
    feats = enumerate_features(6, 6, FeatureSet.ALL)
    assert len(set(feats)) == len(feats)
    assert all(fits_window(f, 6, 6) for f in feats)
    assert feats == enumerate_features(6, 6, FeatureSet.ALL)
    # ordering: kind groups in declared order, then (y, x, h, w) ascending
    keys = [(ALL_KINDS.index(f.kind), f.y, f.x, f.h, f.w) for f in feats]
    assert keys == sorted(keys)


def test_basic_subset_of_all():
    basic = set(enumerate_features(5, 5, FeatureSet.BASIC))
    full = set(enumerate_features(5, 5, FeatureSet.ALL))
    assert basic < full


def test_kind_numbers_are_table_codes():
    # a feature table stores each kind as its number; the file format stores its name
    assert ALL_KINDS == tuple(FeatureKind)
    assert [int(k) for k in ALL_KINDS] == list(range(10))
    assert [k.name for k in ALL_KINDS] == [
        "EDGE_H", "EDGE_V", "LINE_H", "LINE_V", "DIAG",
        "CENTER_SURROUND", "EDGE_H_45", "EDGE_V_45", "LINE_H_45", "LINE_V_45",
    ]
    assert BASIC_KINDS == ALL_KINDS[:5]
    assert [k.rotated for k in ALL_KINDS] == [False] * 6 + [True] * 4


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(1, 16),
    height=st.integers(1, 16),
    feature_set=st.sampled_from(FeatureSet),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=1, height=1, feature_set=FeatureSet.ALL, seed=0)
@example(width=16, height=16, feature_set=FeatureSet.ALL, seed=1)
@example(width=3, height=16, feature_set=FeatureSet.BASIC, seed=2)
def test_feature_table_equals_enumeration(width, height, feature_set, seed):
    # the table's rows are the enumeration in order, and either form gives
    # the same value matrix bit for bit
    table = feature_table(width, height, feature_set)
    feats = enumerate_features(width, height, feature_set)
    assert table.dtype == np.int64 and table.shape == (len(feats), 5)
    assert table.tolist() == [list(f) for f in feats]
    assert all(type(f.kind) is FeatureKind for f in feats)
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (3, height, width), dtype=np.uint8)
    tables = [build_tables(GrayImage(px), want_rotated=True) for px in pixels]
    got = FeatureValues(table, tables)[:, :]
    assert got.tobytes() == feature_matrix(feats, tables).tobytes()


# --- values -------------------------------------------------------------------

def test_zero_on_uniform():
    img = GrayImage(np.full((9, 9), 131, dtype=np.uint8))
    t = build_tables(img, want_rotated=True)
    for f in enumerate_features(9, 9, FeatureSet.ALL):
        assert feature_value(f, t) == 0.0, f


def test_edge_h_two_pixel_sign():
    img = GrayImage(np.array([[0, 255]], dtype=np.uint8))
    t = build_tables(img)
    f = HaarFeature(FeatureKind.EDGE_H, 0, 0, 1, 1)
    assert feature_value(f, t, inv_sigma=2.0) == 255 * 2.0  # black(right) - white(left)


def test_values_match_pixel_oracle():
    rng = np.random.default_rng(5)
    count = 0
    while count < 1000:
        W = int(rng.integers(6, 26))
        H = int(rng.integers(6, 26))
        img = GrayImage(rng.integers(0, 256, (H, W), dtype=np.uint8))
        t = build_tables(img, want_rotated=True)
        feats = enumerate_features(min(W, 10), min(H, 10), FeatureSet.ALL)
        scale = float(rng.uniform(1.0, min(W, H) / 10.0)) if min(W, H) > 10 else 1.0
        for _ in range(8):
            f = feats[int(rng.integers(0, len(feats)))]
            try:
                got = feature_value(f, t, scale=scale, inv_sigma=1.7)
            except BoundsError:
                continue
            mask = cell_weight_mask(f, W, H, scale)
            want = 1.7 * float((mask * img.pixels.astype(np.float64)).sum())
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
            count += 1


def test_value_linear_in_intensity():
    rng = np.random.default_rng(9)
    base = rng.integers(0, 128, (13, 13), dtype=np.uint8)
    t1 = build_tables(GrayImage(base), want_rotated=True)
    t2 = build_tables(GrayImage(2 * base), want_rotated=True)
    feats = enumerate_features(13, 13, FeatureSet.ALL)
    for i in rng.integers(0, len(feats), 200):
        f = feats[int(i)]
        assert feature_value(f, t2) == 2 * feature_value(f, t1)


# --- scaling -------------------------------------------------------------------

def test_scale_identity():
    f = HaarFeature(FeatureKind.LINE_H, 2, 3, 2, 4)
    c1 = scale_feature(f, 1.0)
    assert c1.weights == (-1.0, 2.0, -1.0)
    assert c1.rects == (Rect(2, 3, 2, 4), Rect(4, 3, 2, 4), Rect(6, 3, 2, 4))


def test_scale_integer_doubling():
    for kind in ALL_KINDS:
        f = HaarFeature(kind, 1, 2, 2, 1)
        c1 = scale_feature(f, 1.0)
        c2 = scale_feature(f, 2.0)
        assert c2.weights == c1.weights
        if not kind.rotated:
            for a, b in zip(c1.rects, c2.rects):
                assert (b.x, b.y, b.w, b.h) == (2 * a.x, 2 * a.y, 2 * a.w, 2 * a.h)


@pytest.mark.parametrize(
    "scale", [Fraction(k, 9) for k in range(9, 40)] + [1.1, 1.37, 2.5], ids=str
)
def test_scale_feature_rounding_rule(scale):
    # restated from the scale-1 slots: upright cells round each edge on their
    # own; rotated cells keep their layout steps (a, b) from the rounded apex
    # of the first cell and the rounded cell size
    def rnd(v):
        return math.floor(v * Fraction(scale) + Fraction(1, 2))

    for f in enumerate_features(9, 9, FeatureSet.ALL)[::7]:
        unit, got = scale_feature(f, 1).slots, scale_feature(f, scale).slots
        if f.kind.rotated:
            ax, ay, w, h, _ = unit[0]
            sw, sh = max(1, rnd(w)), max(1, rnd(h))
            want = []
            for x, y, _, _, _ in unit:
                a, b = (x - ax + y - ay) // (2 * w), (y - ay - x + ax) // (2 * h)
                want.append((rnd(ax) + a * sw - b * sh, rnd(ay) + a * sw + b * sh, sw, sh))
        else:
            want = [
                (rnd(x), rnd(y), max(1, rnd(x + w) - rnd(x)), max(1, rnd(y + h) - rnd(y)))
                for x, y, w, h, _ in unit
            ]
        assert [slot[:4] for slot in got] == want, f
        assert [np.sign(slot[4]) for slot in got] == [np.sign(slot[4]) for slot in unit], f


@pytest.mark.parametrize("kind", [FeatureKind.EDGE_H, FeatureKind.EDGE_H_45])
@pytest.mark.parametrize("int_first", [True, False])
def test_scale_feature_int_kind_equals_enum_kind(kind, int_first):
    # an int kind and its FeatureKind hash alike, so they share one cache
    # entry; each must give the same cells whichever is cached first
    as_int, as_enum = HaarFeature(int(kind), 2, 2, 1, 1), HaarFeature(kind, 2, 2, 1, 1)
    scale_feature.cache_clear()
    first, second = (as_int, as_enum) if int_first else (as_enum, as_int)
    got = scale_feature(first, 1.5), scale_feature(second, 1.5)
    scale_feature.cache_clear()
    assert got[0] == got[1] == scale_feature(as_enum, 1.5)
    assert got[0].rotated == kind.rotated


def test_scale_rebalanced_zero_mean():
    rng = np.random.default_rng(17)
    feats = enumerate_features(13, 13, FeatureSet.ALL)
    for _ in range(300):
        f = feats[int(rng.integers(0, len(feats)))]
        factor = float(rng.uniform(1.0, 4.0))
        cells = scale_feature(f, factor)
        total = sum(wt * r.w * r.h for r, wt in zip(cells.rects, cells.weights))
        assert abs(total) < 1e-9


# --- mirroring -------------------------------------------------------------------

def test_mirror_feature_paper_example():
    mf, _ = mirror_feature(HaarFeature(FeatureKind.LINE_V, 10, 0, 2, 3), 13)
    assert footprint(mf) == Rect(1, 0, 2, 9)


def test_mirror_feature_centered_fixed():
    f = HaarFeature(FeatureKind.LINE_H, 5, 2, 1, 4)
    assert mirror_feature(f, 13) == (f, False)


def test_mirror_involution_and_value():
    rng = np.random.default_rng(23)
    W = 13
    img = GrayImage(rng.integers(0, 256, (W, W), dtype=np.uint8))
    t = build_tables(img, want_rotated=True)
    t_m = build_tables(img.mirrored(), want_rotated=True)
    feats = enumerate_features(W, W, FeatureSet.ALL)
    for _ in range(400):
        f = feats[int(rng.integers(0, len(feats)))]
        mf, flips = mirror_feature(f, W)
        mmf, flips2 = mirror_feature(mf, W)
        assert mmf == f and flips2 == flips
        v = feature_value(f, t)
        vm = feature_value(mf, t_m)
        assert vm == pytest.approx(-v if flips else v, rel=1e-12, abs=1e-9)


# --- batch path ------------------------------------------------------------------

def test_feature_matrix_matches_scalar():
    rng = np.random.default_rng(29)
    tables = [
        build_tables(GrayImage(rng.integers(0, 256, (9, 9), dtype=np.uint8)), want_rotated=True)
        for _ in range(7)
    ]
    feats = enumerate_features(9, 9, FeatureSet.ALL)[:: 17]
    mat = feature_matrix(feats, tables)
    for si in range(len(tables)):
        inv = window_inv_stddev(tables[si], Rect(0, 0, 9, 9))
        for fi in range(0, len(feats), 13):
            scalar = feature_value(feats[fi], tables[si], inv_sigma=inv)
            assert mat[si, fi] == scalar


@pytest.mark.parametrize("block", [None, 64])
def test_feature_matrix_shuffled_mixed_kinds(block, monkeypatch):
    # a cascade's features, as _batch_accept passes them: kinds interleave
    # and a feature may repeat; block = 64 puts block edges inside the list
    if block is not None:
        monkeypatch.setattr(haar, "_MATRIX_BLOCK", block)
    rng = np.random.default_rng(31)
    tables = [
        build_tables(GrayImage(rng.integers(0, 256, (11, 11), dtype=np.uint8)), want_rotated=True)
        for _ in range(5)
    ]
    pool = enumerate_features(11, 11, FeatureSet.ALL)
    feats = [pool[int(i)] for i in rng.integers(0, len(pool), 300)]
    feats += feats[:60]
    rng.shuffle(feats)
    mat = feature_matrix(feats, tables)
    for si, t in enumerate(tables):
        inv = window_inv_stddev(t, Rect(0, 0, 11, 11))
        for fi, f in enumerate(feats):
            assert mat[si, fi] == feature_value(f, t, inv_sigma=inv)


@pytest.mark.parametrize("block", [None, 5])
def test_feature_values_columns_equal_the_full_matrix(block, monkeypatch):
    # any run of columns, read in any product blocks, is the full matrix's bit for bit
    rng = np.random.default_rng(37)
    tables = [
        build_tables(GrayImage(rng.integers(0, 256, (9, 9), dtype=np.uint8)), want_rotated=True)
        for _ in range(6)
    ]
    tables.append(build_tables(GrayImage(np.full((9, 9), 4, dtype=np.uint8)), want_rotated=True))
    feats = enumerate_features(9, 9, FeatureSet.ALL)
    nf = len(feats)
    full = feature_matrix(feats, tables)
    if block is not None:
        monkeypatch.setattr(haar, "_MATRIX_BLOCK", block)
    values = FeatureValues(feats, tables)
    assert values.shape == full.shape == (7, nf)
    for lo, hi in [(0, 1), (3, 40), (nf - 7, nf), (10, 10), (0, nf), (-5, None)]:
        assert values[:, lo:hi].tobytes() == full[:, lo:hi].tobytes()
    for j in (0, 17, nf - 1, -1):
        assert values[:, j].tobytes() == full[:, j].tobytes()
    for key in ((slice(None), nf), (0, slice(None)), (slice(None), slice(0, 9, 2))):
        with pytest.raises(IndexError):
            values[key]
    empty = FeatureValues(feats, [])
    assert empty.shape == (0, nf) and empty[:, 2:5].shape == (0, 3)


def test_feature_matrix_rejects_feature_outside_window():
    t = build_tables(GrayImage(np.zeros((9, 9), dtype=np.uint8)))
    with pytest.raises(BoundsError):
        feature_matrix([HaarFeature(FeatureKind.EDGE_H, 6, 0, 2, 1)], [t])


def test_feature_matrix_rejects_mixed_sample_sizes():
    tables = [build_tables(GrayImage(np.zeros((9, 9), dtype=np.uint8))) for _ in range(3)]
    tables[1] = build_tables(GrayImage(np.zeros((9, 8), dtype=np.uint8)))
    with pytest.raises(ValueError, match="8x9 sample among 9x9 samples"):
        feature_matrix([HaarFeature(FeatureKind.EDGE_H, 0, 0, 2, 1)], tables)


@settings(max_examples=120, deadline=None)
@given(
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    fill=st.sampled_from([None, 0, 255]),  # None: random pixels; else a constant patch
    block=st.sampled_from([None, 1, 3, 64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=1, height=24, fill=None, block=None, seed=0)
@example(width=24, height=1, fill=None, block=3, seed=1)
@example(width=24, height=24, fill=255, block=None, seed=2)  # CENTER_SURROUND 8x8: largest sums
@example(width=24, height=24, fill=0, block=64, seed=3)
def test_feature_matrix_bit_exact(width, height, fill, block, seed):
    # every entry == feature_value, sign bit included (0.0 on a flat patch, never -0.0)
    rng = np.random.default_rng(seed)
    table = feature_table(width, height, FeatureSet.ALL)  # enumerate_features' order
    if not len(table):
        return
    picks = rng.integers(0, len(table), 40).tolist()
    surround = np.flatnonzero(table[:, 0] == FeatureKind.CENTER_SURROUND)
    if len(surround):  # the first largest CENTER_SURROUND: the largest sums
        picks.append(surround[np.argmax(table[surround, 3] * table[surround, 4])])
    feats = [HaarFeature(FeatureKind(k), *rest) for k, *rest in table[picks].tolist()]
    feats += feats[:8]
    rng.shuffle(feats)
    tables = []
    for _ in range(3):
        if fill is None:
            px = rng.integers(0, 256, (height, width), dtype=np.uint8)
        else:
            px = np.full((height, width), fill, dtype=np.uint8)
        tables.append(build_tables(GrayImage(px), want_rotated=True))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(haar, "_MATRIX_BLOCK", block)
        mat = feature_matrix(feats, tables)
    for si, t in enumerate(tables):
        inv = window_inv_stddev(t, Rect(0, 0, width, height))
        for fi, f in enumerate(feats):
            want = feature_value(f, t, inv_sigma=inv)
            assert mat[si, fi] == want and np.signbit(mat[si, fi]) == np.signbit(want)


# --- corner reads ---------------------------------------------------------------

def test_cells_at_rejects_negative_corner_offset():
    # a scalar corner offset k is read through table[k:], where a negative k
    # would silently count from the end of the table
    t = build_tables(GrayImage(np.arange(36, dtype=np.uint8).reshape(6, 6)))
    table, stride = t.sums.ravel(), t.width + 1
    base = np.array([2 * stride + 2])
    with pytest.raises(ValueError, match="corner offset"):
        haar.cells_at(table, stride, base, [(-1, -1, 2, 2, 1.0)], False)


@pytest.mark.parametrize(
    "slots",
    [
        [(0, 0, 2, 3, -1.0), (2, 0, 2, 3, 1.0)],
        [(0, 0, 2, 2, 1.0), (2, 0, 2, 2, -1.0), (0, 2, 2, 2, -1.0), (2, 2, 2, 2, 1.0)],
        [(0, 0, 1, 3, -1.0), (1, 0, 1, 3, 2.0), (2, 0, 1, 3, -1.0)],
        [(0, 0, 3, 3, -0.75), (3, 1, 1, 2, -2.5)],  # no positive cell
        [(1, 1, 2, 2, 9.0)],  # no negative cell
    ],
)
def test_cells_at_into_a_used_buffer_matches_scalar_sums(slots):
    # a scan passes one value buffer for every weak classifier; whatever it
    # holds, the result is pos - neg of the cell sums, each summed from 0.0
    # in layout order
    rng = np.random.default_rng(29)
    t = build_tables(GrayImage(rng.integers(0, 256, (9, 11), dtype=np.uint8)))
    origins = [(0, 0), (1, 0), (3, 1), (5, 4)]
    want = []
    for ox, oy in origins:
        pos = neg = 0.0
        for x, y, w, h, wt in slots:
            s = rect_sum(t, Rect(ox + x, oy + y, w, h))
            if wt > 0:
                pos += wt * s
            else:
                neg += -wt * s
        want.append(pos - neg)
    base = np.array([oy * t.stride + ox for ox, oy in origins])
    out = np.full(len(base), np.nan)
    got = haar.cells_at(t.flat(False), t.stride, base, slots, False, out=out)
    assert got is out
    assert out.tobytes() == np.array(want).tobytes()
    fresh = haar.cells_at(t.flat(False), t.stride, base, slots, False)
    assert fresh.tobytes() == out.tobytes()


def test_rotated_corner_offsets_nonnegative_up_to_4x():
    # the scanner reads scalar offsets relative to the window origin, so a
    # negative one would raise; none occurs for window 8 at scales up to 4,
    # even at the smallest row stride (an image as wide as the window)
    rotated = [f for f in enumerate_features(8, 8, FeatureSet.ALL) if f.kind.rotated]
    for width in range(8, 33):
        for f in rotated:
            for x, y, w, h, _ in scale_feature(f, Fraction(width, 8)).slots:
                assert min(cell_corners(x, y, w, h, True, width + 2)) >= 0
