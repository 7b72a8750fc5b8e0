import numpy as np
import pytest

from fidpoint import haar
from fidpoint.haar import (
    ALL_KINDS,
    BASIC_KINDS,
    FeatureKind,
    FeatureSet,
    HaarFeature,
    _GRID,
    enumerate_features,
    feature_matrix,
    feature_value,
    fits_window,
    footprint,
    mirror_feature,
    scale_feature,
)
from fidpoint.raster import BoundsError, GrayImage, Rect, build_tables, rotated_rect_members


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


@pytest.mark.parametrize("win", [(4, 4), (7, 5), (13, 13)])
def test_counts_match_oracle_per_kind(win):
    W, H = win
    feats = enumerate_features(W, H, FeatureSet.ALL)
    by_kind = {}
    for f in feats:
        by_kind[f.kind] = by_kind.get(f.kind, 0) + 1
    for kind in ALL_KINDS:
        assert by_kind.get(kind, 0) == closed_form_count(kind, W, H), kind


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


def test_scale_rebalanced_zero_mean():
    rng = np.random.default_rng(17)
    feats = enumerate_features(13, 13, FeatureSet.ALL)
    for _ in range(300):
        f = feats[int(rng.integers(0, len(feats)))]
        factor = float(rng.uniform(1.0, 4.0))
        cells = scale_feature(f, factor)
        total = sum(wt * r.w * r.h for r, wt in zip(cells.rects, cells.weights))
        assert abs(total) < 1e-9


def test_scale_bounds_error():
    f = HaarFeature(FeatureKind.EDGE_H, 9, 0, 2, 3)  # footprint 4 wide at x=9 in 13
    scale_feature(f, 1.0, 13, 13)
    with pytest.raises(BoundsError):
        scale_feature(HaarFeature(FeatureKind.EDGE_H, 12, 0, 2, 3), 1.0, 13, 13)


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
    inv = rng.uniform(0.2, 2.0, len(tables))
    mat = feature_matrix(feats, tables, inv)
    for si in range(len(tables)):
        for fi in range(0, len(feats), 13):
            scalar = feature_value(feats[fi], tables[si], inv_sigma=float(inv[si]))
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
    inv = rng.uniform(0.2, 2.0, len(tables))
    mat = feature_matrix(feats, tables, inv)
    for si, t in enumerate(tables):
        for fi, f in enumerate(feats):
            assert mat[si, fi] == feature_value(f, t, inv_sigma=float(inv[si]))


def test_feature_matrix_rejects_feature_outside_window():
    t = build_tables(GrayImage(np.zeros((9, 9), dtype=np.uint8)))
    with pytest.raises(BoundsError):
        feature_matrix([HaarFeature(FeatureKind.EDGE_H, 6, 0, 2, 1)], [t])
