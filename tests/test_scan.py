import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fidpoint.scan as scan_module

from fidpoint.boost import StrongClassifier, WeakClassifier
from fidpoint.cascade import Cascade, Stage, classify_window, mirror
from fidpoint.geom import Point2, TiltMode, TiltState
from fidpoint.haar import (
    FeatureKind,
    FeatureSet,
    HaarFeature,
    cells_value,
    enumerate_features,
    round_half_up,
    scale_feature,
)
from fidpoint.raster import BoundsError, GrayImage, Rect, build_tables, window_inv_stddev
from fidpoint.scan import (
    Detection,
    DetectorConfig,
    detect_point,
    detect_region,
    group_detections,
    rects_similar,
    scan_roi,
    select_result,
)


def zero_stage_cascade(window=13):
    return Cascade(window, window, FeatureSet.BASIC, [])


def reject_all_cascade(window=13):
    f = HaarFeature(FeatureKind.EDGE_H, 0, 0, 2, 4)
    sc = StrongClassifier(rounds=[(1.0, WeakClassifier(0.0, 1, feature=f))], threshold=2.0)
    return Cascade(window, window, FeatureSet.BASIC, [Stage(sc)])


def random_stump_cascade(rng, window=13, n_stages=2, feature_set=FeatureSet.BASIC):
    feats = enumerate_features(window, window, feature_set)
    stages = []
    for _ in range(n_stages):
        rounds = []
        for _ in range(int(rng.integers(1, 4))):
            f = feats[int(rng.integers(0, len(feats)))]
            rounds.append(
                (
                    float(rng.uniform(0.3, 1.2)),
                    WeakClassifier(float(rng.normal(0, 40)), int(rng.choice([-1, 1])), feature=f),
                )
            )
        sc = StrongClassifier(rounds=rounds)
        sc.threshold = float(rng.uniform(0.2, 0.6) * sc.alpha_sum)
        stages.append(Stage(sc))
    return Cascade(window, window, feature_set, stages)


# --- slow reference scanner (independent oracle) ------------------------------

def reference_scan(c, image, cfg):
    from fractions import Fraction

    tables = build_tables(image, want_rotated=True)
    roi = cfg.roi or Rect(0, 0, image.width, image.height)
    out = []
    sizes = []
    k = 0
    while True:
        w = round_half_up(cfg.min_w * cfg.scale_factor**k)
        h = round_half_up(Fraction(c.window_h * w, c.window_w))
        if w > roi.w or h > roi.h:
            break
        if (w, h) not in sizes:
            sizes.append((w, h))
        k += 1
    for w, h in sizes:
        step_x = max(1, round_half_up(w / c.window_w))
        step_y = max(1, round_half_up(h / c.window_h))
        xs = sorted({x for x in range(0, roi.w - w + 1, step_x)}
                    | {roi.w - w - x for x in range(0, roi.w - w + 1, step_x)})
        ys = sorted({y for y in range(0, roi.h - h + 1, step_y)}
                    | {roi.h - h - y for y in range(0, roi.h - h + 1, step_y)})
        for y in ys:
            for x in xs:
                try:
                    accepted, _ = classify_window(
                        c, tables, (roi.x + x, roi.y + y), w / c.window_w
                    )
                except BoundsError:
                    continue
                if accepted:
                    out.append(Rect(roi.x + x, roi.y + y, w, h))
    return out


# --- scan_roi -------------------------------------------------------------------

def test_scan_pinned_grid_example():
    rng = np.random.default_rng(3)
    img = GrayImage(rng.integers(0, 256, (15, 15), dtype=np.uint8))
    cfg = DetectorConfig(cascade=zero_stage_cascade(13), scale_factor=1.2, min_neighbors=1)
    dets = scan_roi(cfg.cascade, img, cfg)
    got = set(dets[["x", "y", "w"]].tolist())
    assert got == {(x, y, 13) for x in (0, 1, 2) for y in (0, 1, 2)}
    assert len(dets) == 9


def test_scan_always_reject_empty():
    rng = np.random.default_rng(5)
    img = GrayImage(rng.integers(0, 256, (30, 30), dtype=np.uint8))
    cfg = DetectorConfig(cascade=reject_all_cascade(13))
    assert len(scan_roi(cfg.cascade, img, cfg)) == 0


def test_scan_roi_smaller_than_min_size():
    rng = np.random.default_rng(7)
    img = GrayImage(rng.integers(0, 256, (30, 30), dtype=np.uint8))
    cfg = DetectorConfig(cascade=zero_stage_cascade(13), roi=Rect(0, 0, 9, 9))
    assert len(scan_roi(cfg.cascade, img, cfg)) == 0


def test_scan_roi_out_of_image():
    rng = np.random.default_rng(9)
    img = GrayImage(rng.integers(0, 256, (30, 30), dtype=np.uint8))
    cfg = DetectorConfig(cascade=zero_stage_cascade(13), roi=Rect(20, 20, 13, 13))
    with pytest.raises(BoundsError):
        scan_roi(cfg.cascade, img, cfg)


@pytest.mark.parametrize("feature_set", [FeatureSet.BASIC, FeatureSet.ALL])
def test_scan_matches_reference_scanner(feature_set):
    rng = np.random.default_rng(11)
    for _ in range(8):
        c = random_stump_cascade(rng, window=8, n_stages=2, feature_set=feature_set)
        side = int(rng.integers(14, 28))
        img = GrayImage(rng.integers(0, 256, (side, side), dtype=np.uint8))
        rx = int(rng.integers(0, side - 10))
        ry = int(rng.integers(0, side - 10))
        roi = Rect(rx, ry, int(rng.integers(9, side - rx + 1)), int(rng.integers(9, side - ry + 1)))
        cfg = DetectorConfig(cascade=c, roi=roi, scale_factor=1.15, min_neighbors=1, min_w=8, min_h=8)
        got = [Rect(*r) for r in scan_roi(c, img, cfg)[["x", "y", "w", "h"]].tolist()]
        want = reference_scan(c, img, cfg)
        assert sorted(got, key=lambda r: (r.w, r.y, r.x)) == sorted(
            want, key=lambda r: (r.w, r.y, r.x)
        )


@pytest.mark.parametrize("feature_set", [FeatureSet.BASIC, FeatureSet.ALL])
def test_scan_margins_match_scalar(feature_set):
    # the reported margin is the scalar stump margin summed over every weak
    # classifier in cascade order, bit for bit (point selection breaks ties on it)
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(12):
        c = random_stump_cascade(rng, window=8, n_stages=2, feature_set=feature_set)
        side = int(rng.integers(14, 24))
        img = GrayImage(rng.integers(0, 256, (side, side), dtype=np.uint8))
        tables = build_tables(img, want_rotated=True)
        cfg = DetectorConfig(cascade=c, scale_factor=1.15, min_neighbors=1)
        for x, y, w, h, margin in scan_roi(c, tables, cfg).tolist():
            inv = window_inv_stddev(tables, Rect(x, y, w, h))
            want = 0.0
            for stage in c.stages:
                for alpha, weak in stage.strong.rounds:
                    cells = scale_feature(weak.feature, Fraction(w, c.window_w))
                    v = cells_value(cells, tables, x, y, inv)
                    want += alpha * (weak.parity * (weak.threshold - v))
            assert margin == want
            checked += 1
    assert checked > 100  # the comparison must exercise real windows


# --- grouping ---------------------------------------------------------------------

def raw_windows(rects, margins=None):
    """scan_roi-style raw windows: one RAW_WINDOW record per rect."""
    margins = [0.0] * len(rects) if margins is None else margins
    return np.array(
        [(r.x, r.y, r.w, r.h, m) for r, m in zip(rects, margins)], dtype=scan_module.RAW_WINDOW
    )


def half_even(num, den):
    """Round-half-even of num/den via exact integer arithmetic."""
    q, r = divmod(num, den)
    if 2 * r < den:
        return q
    if 2 * r > den:
        return q + 1
    return q if q % 2 == 0 else q + 1


def closure_clusters(rects):
    """O(n^2) breadth-first transitive closure oracle."""
    n = len(rects)
    seen = [False] * n
    clusters = []
    for i in range(n):
        if seen[i]:
            continue
        frontier = [i]
        seen[i] = True
        members = []
        while frontier:
            a = frontier.pop()
            members.append(a)
            for b in range(n):
                if not seen[b] and rects_similar(rects[a], rects[b]):
                    seen[b] = True
                    frontier.append(b)
        clusters.append(frozenset(members))
    return set(clusters)


def test_group_empty():
    assert group_detections([], 1) == []


def test_group_three_identical():
    r = Rect(5, 6, 10, 10)
    out = group_detections(raw_windows([r] * 3), 3)
    assert out == [Detection(r, neighbors=3, point2x=(19, 21), margin=0.0)]


def test_group_min_neighbors_filters():
    out = group_detections(raw_windows([Rect(0, 0, 10, 10)]), 2)
    assert out == []


def test_group_matches_closure_oracle():
    rng = np.random.default_rng(13)
    for _ in range(500):
        n = int(rng.integers(0, 25))
        rects = [
            Rect(int(rng.integers(0, 40)), int(rng.integers(0, 40)),
                 int(rng.integers(5, 30)), int(rng.integers(5, 30)))
            for _ in range(n)
        ]
        want = closure_clusters(rects)
        # recover the implementation's partition via a labelled run
        out = group_detections(raw_windows(rects), 1)
        assert sum(d.neighbors for d in out) == n
        # cluster membership check: each oracle cluster appears with its size
        got_sizes = sorted(d.neighbors for d in out)
        want_sizes = sorted(len(c) for c in want)
        assert got_sizes == want_sizes

        # cluster points / rects recomputed independently from the oracle partition
        def expected(mset):
            k = len(mset)
            px2 = half_even(sum(2 * rects[i].x + rects[i].w - 1 for i in mset), k)
            py2 = half_even(sum(2 * rects[i].y + rects[i].h - 1 for i in mset), k)
            w = max(1, round_half_up(sum(rects[i].w for i in mset) / k))
            h = max(1, round_half_up(sum(rects[i].h for i in mset) / k))
            return ((px2 - w + 1) // 2, (py2 - h + 1) // 2, w, h, px2, py2)

        want_out = sorted(expected(c) for c in want)
        got_out = sorted(
            (d.rect.x, d.rect.y, d.rect.w, d.rect.h, d.point2x[0], d.point2x[1])
            for d in out
        )
        assert got_out == want_out


def test_group_permutation_invariant():
    rng = np.random.default_rng(17)
    rects = [
        Rect(int(rng.integers(0, 30)), int(rng.integers(0, 30)),
             int(rng.integers(8, 20)), int(rng.integers(8, 20)))
        for _ in range(20)
    ]
    dets = raw_windows(rects)
    base = group_detections(dets, 2)
    for _ in range(5):
        perm = list(rng.permutation(len(dets)))
        assert group_detections(dets[perm], 2) == base


SCAN_SIDES = (13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45)  # 13 * 1.1**k


def clustered_rects(rng, n, spread):
    """Scan-like raw windows: jittered blobs over neighbouring scan sizes,
    some non-square, plus uniformly scattered strays."""
    rects = []
    while len(rects) < n:
        cx, cy = (int(v) for v in rng.integers(0, spread + 1, 2))
        k = int(rng.integers(0, len(SCAN_SIDES)))
        for _ in range(int(rng.integers(1, 12))):
            side = SCAN_SIDES[min(len(SCAN_SIDES) - 1, max(0, k + int(rng.integers(-1, 2))))]
            h = side if rng.random() < 0.8 else int(rng.integers(5, 60))
            jx, jy = (int(v) for v in rng.integers(-side // 4, side // 4 + 1, 2))
            rects.append(Rect(cx + jx, cy + jy, side, h))
        if rng.random() < 0.3:
            rects.append(Rect(*(int(v) for v in rng.integers(0, spread + 1, 2)),
                              int(rng.integers(5, 60)), int(rng.integers(5, 60))))
    return rects[:n]


def cluster_fingerprint(rects, labels, members):
    """(member count, label sum, point2x, mean size) of one cluster, in exact arithmetic."""
    k = len(members)
    px2 = half_even(sum(2 * rects[i].x + rects[i].w - 1 for i in members), k)
    py2 = half_even(sum(2 * rects[i].y + rects[i].h - 1 for i in members), k)
    w = max(1, round_half_up(sum(rects[i].w for i in members) / k))
    h = max(1, round_half_up(sum(rects[i].h for i in members) / k))
    return (k, sum(labels[i] for i in members), px2, py2, w, h)


@settings(max_examples=50, deadline=None)
@given(
    n=st.one_of(st.sampled_from([0, 1, 2, 63, 64, 65, 362, 363, 600]), st.integers(0, 600)),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([0, 4, 40, 200, 1000]),
    block=st.sampled_from([1, 3, 64, None]),
    data=st.data(),
)
def test_group_partition_matches_closure_property(n, seed, spread, block, data):
    # spread 0 stacks every window in one column, so all n(n-1)/2 pairs are
    # candidates and n = 362 / 363 fall just under / over the default block
    # budget; the small drawn budgets put block boundaries inside clusters
    rng = np.random.default_rng(seed)
    if spread == 0:
        rects = [Rect(0, r.y, r.w, r.h) for r in clustered_rects(rng, n, 200)]
    else:
        rects = clustered_rects(rng, n, spread)
    # distinct 32-bit labels in the margins: each cluster's fsum is the
    # exact label sum, which identifies its member set
    labels = [(i * 2654435761) % 2**32 for i in range(n)]
    dets = raw_windows(rects, [float(lab) for lab in labels])
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(scan_module, "_GROUP_BLOCK_PAIRS", block)
        out = group_detections(dets, 1)
        perm = data.draw(st.permutations(range(n)))
        assert group_detections(dets[perm], 1) == out
    want = sorted(cluster_fingerprint(rects, labels, c) for c in closure_clusters(rects))
    got = sorted(
        (d.neighbors, int(d.margin), d.point2x[0], d.point2x[1], d.rect.w, d.rect.h)
        for d in out
    )
    assert got == want


def test_group_mirror_equivariant_large():
    # mirroring the raw windows across an image of width W mirrors every
    # cluster centre (2*(W-1) - px2 in half-pixel units) and keeps its
    # size, neighbour count and margin
    rng = np.random.default_rng(43)
    for n, spread in ((65, 30), (400, 120), (1500, 300)):
        rects = clustered_rects(rng, n, spread)
        width = max(r.x + r.w for r in rects) + int(rng.integers(0, 5))
        margins = rng.standard_normal(n).tolist()
        dets = raw_windows(rects, margins)
        flipped = raw_windows([Rect(width - r.x - r.w, r.y, r.w, r.h) for r in rects], margins)
        for min_neighbors in (1, 3):
            out = group_detections(dets, min_neighbors)
            assert len(out) > 0
            want = sorted(
                (2 * (width - 1) - d.point2x[0], d.point2x[1], d.rect.w, d.rect.h,
                 d.neighbors, d.margin)
                for d in out
            )
            got = sorted(
                (d.point2x[0], d.point2x[1], d.rect.w, d.rect.h, d.neighbors, d.margin)
                for d in group_detections(flipped, min_neighbors)
            )
            assert got == want


def similar_pairs_union_find(rects):
    """Component sizes of the rects_similar graph, via a grid hash.

    Similar rects differ by at most 0.2 * max extent in x and in y, so
    with cells at least that large every similar pair lies in the same
    or an adjacent cell.
    """
    cw = int(0.2 * max(r.w for r in rects)) + 1
    ch = int(0.2 * max(r.h for r in rects)) + 1
    cells: dict[tuple[int, int], list[int]] = {}
    for i, r in enumerate(rects):
        cells.setdefault((r.x // cw, r.y // ch), []).append(i)
    parent = list(range(len(rects)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (gx, gy), members in cells.items():
        near = [j for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                for j in cells.get((gx + dx, gy + dy), ())]
        for i in members:
            for j in near:
                if i < j and rects_similar(rects[i], rects[j]):
                    parent[find(j)] = find(i)
    sizes: dict[int, int] = {}
    for i in range(len(rects)):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    return sorted(sizes.values())


def test_group_memory_bounded_at_20k_windows():
    # 20k windows: the dense n x n formulation would need gigabytes
    rng = np.random.default_rng(47)
    rects = clustered_rects(rng, 20_000, 2400)
    dets = raw_windows(rects)
    start = time.perf_counter()
    out = group_detections(dets, 1)
    assert time.perf_counter() - start < 5.0
    tracemalloc.start()
    try:
        assert group_detections(dets, 1) == out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert sorted(d.neighbors for d in out) == similar_pairs_union_find(rects)


# --- selection ---------------------------------------------------------------------

def test_select_single():
    d = Detection(Rect(1, 2, 10, 10), 4, point2x=(11, 13), margin=0.0)
    assert select_result([d], True) == d
    assert select_result([d], False) == d


def test_select_largest_region():
    a = Detection(Rect(0, 0, 10, 10), 9, point2x=(9, 9), margin=0.0)
    b = Detection(Rect(5, 5, 20, 20), 2, point2x=(29, 29), margin=0.0)
    assert select_result([a, b], False) == b


def test_select_most_neighbors_for_points():
    a = Detection(Rect(0, 0, 10, 10), 5, point2x=(9, 9), margin=0.0)
    b = Detection(Rect(8, 8, 10, 10), 9, point2x=(25, 25), margin=0.0)
    assert select_result([a, b], True) == b


def test_select_empty_none():
    assert select_result([], True) is None


# --- point detection and mirroring ---------------------------------------------------

def dot_cascade(window=13):
    """Single hand-built stage firing on a bright centre dot.

    After variance normalisation a centred 255 dot over dim noise
    scores around 90-98 and off-dot windows stay within about +/-20, so
    55 separates them with margin.
    """
    f = HaarFeature(FeatureKind.CENTER_SURROUND, window // 2 - 1, window // 2 - 1, 1, 1)
    wk = WeakClassifier(threshold=55.0, parity=-1, feature=f)  # fire when value > 55
    sc = StrongClassifier(rounds=[(1.0, wk)], threshold=0.5)
    return Cascade(window, window, FeatureSet.BASIC, [Stage(sc)])


def dotted_image(rng, size=48, at=(20, 23)):
    px = rng.integers(0, 30, (size, size)).astype(np.uint8)
    px[at[1], at[0]] = 255
    return GrayImage(px)


def test_detect_point_finds_planted_dot():
    rng = np.random.default_rng(19)
    img = dotted_image(rng, at=(21, 25))
    cfg = DetectorConfig(
        cascade=dot_cascade(), roi=Rect(14, 18, 15, 15), min_neighbors=1, scale_factor=1.4
    )
    got = detect_point(img, cfg)
    assert got is not None
    assert abs(got[0] - 21) <= 1 and abs(got[1] - 25) <= 1


def test_detect_point_none_when_empty():
    rng = np.random.default_rng(23)
    img = GrayImage(rng.integers(0, 30, (40, 40), dtype=np.uint8))
    cfg = DetectorConfig(cascade=dot_cascade(), roi=Rect(5, 5, 15, 15), min_neighbors=1)
    assert detect_point(img, cfg) is None


def test_detect_point_mirror_symmetry():
    # a left-side detection on I corresponds exactly to a right-side
    # detection on mirror(I) at the mirrored coordinate; the 13x13 roi
    # admits only the odd base window size, whose centres sit on whole
    # pixels (even cluster sizes leave a half-pixel that floors toward
    # opposite sides in the two frames)
    rng = np.random.default_rng(29)
    for _ in range(10):
        at = (int(rng.integers(16, 26)), int(rng.integers(16, 26)))
        img = dotted_image(rng, size=44, at=at)
        roi = Rect(at[0] - 6, at[1] - 6, 13, 13)
        cfg_l = DetectorConfig(cascade=dot_cascade(), roi=roi, min_neighbors=1)
        got_l = detect_point(img, cfg_l)
        mirrored_roi = Rect(img.width - roi.x - roi.w, roi.y, roi.w, roi.h)
        cfg_r = DetectorConfig(
            cascade=dot_cascade(), roi=mirrored_roi, min_neighbors=1, on_right_side=True
        )
        got_r = detect_point(img.mirrored(), cfg_r)
        assert got_l is not None and got_r is not None
        assert got_r == (img.width - 1 - got_l[0], got_l[1])


def patch_flip_point(img, cfg):
    """Right-side point by the patch route: cut the ROI out, flip it, scan it
    with the left-side cascade and mirror the winning centre back."""
    roi = cfg.roi
    patch = GrayImage(img.pixels[roi.y : roi.y + roi.h, roi.x : roi.x + roi.w]).mirrored()
    local = replace(cfg, roi=Rect(0, 0, roi.w, roi.h))
    raw = scan_roi(cfg.cascade, build_tables(patch, want_rotated=True), local)
    best = select_result(
        group_detections(raw, cfg.min_neighbors), True, ((roi.w - 1) / 2.0, (roi.h - 1) / 2.0)
    )
    if best is None:
        return None
    px2, py2 = best.point2x
    return roi.x + (2 * (roi.w - 1) - px2) // 2, roi.y + py2 // 2


def assert_patch_flip_agrees(feature_set, widths):
    rng = np.random.default_rng(31)
    agreements = 0
    for _ in range(50):
        c = random_stump_cascade(rng, window=13, n_stages=2, feature_set=feature_set)
        side = int(rng.integers(26, 40))
        img = GrayImage(rng.integers(0, 256, (side, side), dtype=np.uint8))
        rx = int(rng.integers(0, side - 20))
        ry = int(rng.integers(0, side - 20))
        roi = Rect(rx, ry, int(rng.integers(*widths)), int(rng.integers(13, 21)))
        cfg = DetectorConfig(cascade=c, roi=roi, min_neighbors=1, on_right_side=True)
        got = detect_point(img, cfg)
        assert got == patch_flip_point(img, cfg)
        agreements += got is not None
    assert agreements > 0  # the comparison must exercise real detections


def test_patch_flip_equals_mirrored_cascade():
    # acceptance: the mirrored cascade on the frame finds the point the
    # patch route finds
    assert_patch_flip_agrees(FeatureSet.BASIC, (13, 21))


def test_patch_flip_equals_mirrored_cascade_rotated_base_scale():
    # 13 px wide ROIs scan only the base scale.  At fractional scales a
    # mirrored rotated feature's rounded cells are not the exact mirror
    # image of the original's, so the two routes may accept different
    # windows there.
    assert_patch_flip_agrees(FeatureSet.ALL, (13, 14))


def test_detect_region_picks_largest():
    rng = np.random.default_rng(37)
    img = GrayImage(rng.integers(0, 256, (40, 40), dtype=np.uint8))
    cfg = DetectorConfig(
        cascade=zero_stage_cascade(13), min_neighbors=1, scale_factor=1.5, is_point=False
    )
    rect = detect_region(img, cfg)
    assert rect is not None
    assert rect.w > 13  # grouping across scales still prefers large regions
