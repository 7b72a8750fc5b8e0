import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fidpoint.scan as scan_module

from fidpoint.boost import StrongClassifier, WeakClassifier
from fidpoint.cascade import Cascade, Stage, _batch_accept, classify_window
from fidpoint.geom import Point2, TiltMode, TiltState
from fidpoint.haar import (
    FeatureKind,
    FeatureSet,
    HaarFeature,
    enumerate_features,
    feature_matrix,
    round_half_up,
    scale_feature,
)
from fidpoint.raster import (
    BoundsError,
    GrayImage,
    Rect,
    build_tables,
    cell_box,
)
from fidpoint.scan import (
    RAW_WINDOW,
    Detection,
    DetectorConfig,
    _grid_positions,
    _scan_sizes,
    detect_point,
    detect_region,
    group_detections,
    group_rois,
    scan_roi,
    scan_rois,
    select_result,
)
import oracles
from oracles import cells_value, rects_similar, rotated_rect_sum, window_inv_stddev


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
                    accepted, _ = oracles.classify_window(
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


def test_scan_no_fitting_size_is_empty_raw_window_array():
    rng = np.random.default_rng(7)
    img = GrayImage(rng.integers(0, 256, (30, 30), dtype=np.uint8))
    c = zero_stage_cascade(13)
    for roi in (Rect(0, 0, 12, 30), Rect(3, 4, 27, 12)):  # too narrow, too short
        raw = scan_roi(c, img, DetectorConfig(cascade=c, roi=roi))
        assert raw.dtype == RAW_WINDOW and raw.shape == (0,)


def test_grid_positions_match_set_union_oracle():
    for extent in range(301):
        for step in range(1, 41):
            fwd = np.arange(0, extent + 1, step)
            want = np.unique(np.concatenate([fwd, extent - fwd]))
            got = _grid_positions(extent, step)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, want)
            assert np.array_equal(extent - got[::-1], got)  # its own mirror image


def test_scan_sizes_honour_min_h():
    # a pass-all 8x8 cascade admits every grid position, so the raw windows
    # list exactly the scanned sizes: min_h=11 drops the sizes below 11 px
    # tall and keeps every taller one, grid and all
    rng = np.random.default_rng(71)
    img = GrayImage(rng.integers(0, 256, (40, 36), dtype=np.uint8))
    c = zero_stage_cascade(8)
    every = scan_roi(c, img, DetectorConfig(cascade=c, scale_factor=1.1))
    tall = scan_roi(c, img, DetectorConfig(cascade=c, scale_factor=1.1, min_h=11))
    assert {8, 9, 10} <= set(every["h"].tolist())
    assert tall["h"].min() == 11
    assert tall.tobytes() == every[every["h"] >= 11].tobytes()


def unit_step_scan_sizes(c, cfg, roi):
    """The scan schedule with one step of k at a time: the reference for ``_scan_sizes``."""
    sizes = []
    k = 0
    while True:
        w = round_half_up(cfg.min_w * cfg.scale_factor**k)
        frac = Fraction(w, c.window_w)
        h = round_half_up(c.window_h * frac)
        if w > roi.w or h > roi.h:
            return sizes
        if h >= cfg.min_h and (not sizes or sizes[-1][0] != (w, h)):
            sizes.append(((w, h), frac))
        k += 1


@settings(max_examples=50, deadline=None)
@given(
    # factors down to 1 + 1e-4, where the reference takes ~10^4 steps
    factor=st.one_of(
        st.floats(1 + 1e-4, 2.0),
        st.floats(-4.0, 0.0).map(lambda e: 1.0 + 10.0**e),
    ),
    window_w=st.integers(1, 24),
    window_h=st.integers(1, 24),
    extra_w=st.integers(0, 12),
    extra_h=st.integers(0, 12),
    roi_w=st.integers(1, 200),
    roi_h=st.integers(1, 200),
)
def test_scan_sizes_match_unit_steps(factor, window_w, window_h, extra_w, extra_h, roi_w, roi_h):
    c = Cascade(window_w, window_h, FeatureSet.BASIC, [])
    cfg = DetectorConfig(
        cascade=c, scale_factor=factor, min_w=window_w + extra_w, min_h=window_h + extra_h
    )
    roi = Rect(0, 0, roi_w, roi_h)
    assert _scan_sizes(cfg, roi) == unit_step_scan_sizes(c, cfg, roi)


def test_scan_sizes_near_one_factor_is_fast():
    # the unit-step loop takes about 2.9 million steps here, about 18 s on a 2-core x86 box
    c = zero_stage_cascade(13)
    cfg = DetectorConfig(cascade=c, scale_factor=1 + 1e-6)
    t0 = time.perf_counter()
    sizes = _scan_sizes(cfg, Rect(0, 0, 320, 240))
    assert time.perf_counter() - t0 < 1.0
    assert [wh for wh, _ in sizes] == [(w, w) for w in range(13, 241)]


def test_scan_sizes_are_a_fresh_list_each_call():
    # the schedule is cached; a caller changing its copy must not change the next one
    c = Cascade(11, 9, FeatureSet.BASIC, [])
    cfg = DetectorConfig(cascade=c, scale_factor=1.17, min_w=12)
    roi = Rect(0, 0, 70, 52)
    want = unit_step_scan_sizes(c, cfg, roi)
    assert len(want) > 2
    for _ in range(3):
        sizes = _scan_sizes(cfg, roi)
        assert sizes == want
        sizes[0] = ((1, 1), Fraction(1, 11))
        sizes.pop()


@pytest.mark.parametrize("roi_w", [19, 20])
def test_scan_sizes_stop_where_a_half_rounds_past_the_roi(roi_w):
    # 13 * 1.5 = 19.5 rounds up to 20, so a 19-px ROI ends the schedule at 13
    # and a 20-px one takes the 20-px size too
    c = zero_stage_cascade(13)
    cfg = DetectorConfig(cascade=c, scale_factor=1.5)
    roi = Rect(0, 0, roi_w, 40)
    want = unit_step_scan_sizes(c, cfg, roi)
    assert [wh for wh, _ in want] == [(13, 13), (20, 20)][: roi_w - 18]
    assert _scan_sizes(cfg, roi) == want


@pytest.mark.parametrize("factor", [1e300, 1.5e307, 1e308, 1.7e308])
def test_scan_sizes_with_huge_scale_factors_keep_the_base_size(factor):
    # 13 * factor overflows to inf from about 1.4e307; the schedule stops there
    c = zero_stage_cascade(13)
    cfg = DetectorConfig(cascade=c, scale_factor=factor)
    assert _scan_sizes(cfg, Rect(0, 0, 40, 40)) == [((13, 13), Fraction(1))]


def test_scan_roi_with_huge_scale_factor_returns_the_base_size_windows():
    rng = np.random.default_rng(73)
    img = GrayImage(rng.integers(0, 256, (30, 34), dtype=np.uint8))
    c = zero_stage_cascade(13)
    raw = scan_roi(c, img, DetectorConfig(cascade=c, scale_factor=1e308))
    # a pass-all cascade accepts every position of the one 13x13 size, y-major
    want = np.zeros(18 * 22, RAW_WINDOW)
    want["y"], want["x"] = np.divmod(np.arange(18 * 22), 22)
    want["w"] = want["h"] = 13
    assert raw.tobytes() == want.tobytes()


def test_missing_rotated_sums_raise_one_error():
    f = HaarFeature(FeatureKind.EDGE_H_45, 4, 0, 2, 2)
    sc = StrongClassifier(rounds=[(1.0, WeakClassifier(0.0, 1, feature=f))], threshold=0.5)
    c = Cascade(13, 13, FeatureSet.ALL, [Stage(sc)])
    rng = np.random.default_rng(5)
    tables = build_tables(GrayImage(rng.integers(0, 256, (13, 13), dtype=np.uint8)))
    calls = [
        lambda: scan_roi(c, tables, DetectorConfig(cascade=c)),
        lambda: _batch_accept(c, [tables]),
        lambda: classify_window(c, tables),
        lambda: feature_matrix([f], [tables]),
        lambda: cells_value(scale_feature(f, 1), tables, 0, 0, 1.0),
        lambda: rotated_rect_sum(tables, Rect(4, 0, 2, 2)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^tables were built without rotated sums$"):
            call()


@pytest.mark.parametrize("scale_factor", [1.0, math.nan, math.inf])
def test_config_rejects_scale_factor(scale_factor):
    with pytest.raises(ValueError, match="scale_factor"):
        DetectorConfig(cascade=zero_stage_cascade(13), scale_factor=scale_factor)


@pytest.mark.parametrize("sub_roi", [(0.0, 0.0, math.inf), (math.nan, 0.0, 0.3), (0.0, 0.3)])
def test_config_rejects_sub_roi(sub_roi):
    # the hierarchy turns sub_roi into integer pixels, which needs finite numbers
    with pytest.raises(ValueError, match="sub_roi"):
        DetectorConfig(cascade=zero_stage_cascade(13), sub_roi=sub_roi)


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


def scalar_margin(c, tables, x, y, w, h):
    inv = window_inv_stddev(tables, Rect(x, y, w, h))
    total = 0.0
    for stage in c.stages:
        for alpha, weak in stage.strong.rounds:
            v = cells_value(scale_feature(weak.feature, Fraction(w, c.window_w)), tables, x, y, inv)
            total += alpha * (weak.parity * (weak.threshold - v))
    return total


def window_reach(c, x, y, w, h):
    """Bounding box of a window and of every cell its cascade reads there."""
    x0, y0, x1, y1 = x, y, x + w - 1, y + h - 1
    for stage in c.stages:
        for _, weak in stage.strong.rounds:
            cells = scale_feature(weak.feature, Fraction(w, c.window_w))
            for r in cells.rects:
                bx0, by0, bx1, by1 = cell_box(r.x + x, r.y + y, r.w, r.h, cells.rotated)
                x0, y0, x1, y1 = min(x0, bx0), min(y0, by0), max(x1, bx1), max(y1, by1)
    return x0, y0, x1, y1


@pytest.mark.parametrize("scale_factor", [1.15, 1.3])
def test_scan_edges_match_reference_and_scalar(scale_factor):
    # whole-image ROIs, so the admitted windows reach the first and last rows
    # and columns, and fractional scales make rotated cells overhang the window
    rng = np.random.default_rng(61)
    overhanging = 0
    for _ in range(4):
        cascades = [random_stump_cascade(rng, 8, 2, FeatureSet.ALL) for _ in range(5)]
        reject_2, pass_1, pass_all = cascades[2:]
        reject_2.stages[1].strong.threshold = 2 * reject_2.stages[1].strong.alpha_sum
        pass_1.stages[0].strong.threshold = 0.0
        for stage in pass_all.stages:
            stage.strong.threshold = 0.0
        width, height = (int(v) for v in rng.integers(12, 22, size=2))
        img = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
        tables = build_tables(img, want_rotated=True)
        for c in cascades:
            cfg = DetectorConfig(cascade=c, scale_factor=scale_factor, min_neighbors=1)
            raw = scan_roi(c, tables, cfg)
            got = [Rect(*r) for r in raw[["x", "y", "w", "h"]].tolist()]
            assert sorted(got, key=lambda r: (r.w, r.y, r.x)) == sorted(
                reference_scan(c, img, cfg), key=lambda r: (r.w, r.y, r.x)
            )
            for x, y, w, h, margin in raw.tolist():
                assert margin == scalar_margin(c, tables, x, y, w, h)
                reach = window_reach(c, x, y, w, h)
                overhanging += reach[0] < x or reach[1] < y or reach[2] >= x + w or reach[3] >= y + h
            if c is reject_2:
                assert len(raw) == 0
            if c is pass_all:
                # every admitted window passes; together they read up to every border
                reach = np.array([window_reach(c, r.x, r.y, r.w, r.h) for r in got])
                assert reach[:, :2].min(axis=0).tolist() == [0, 0]
                assert reach[:, 2:].max(axis=0).tolist() == [width - 1, height - 1]
    assert overhanging > 0


FRAME_W, FRAME_H = 44, 36
# (x, y, w, h, on_right_side, scale_factor) of one config's ROI, clipped to the frame
ROI_DRAWS = st.tuples(
    st.integers(0, 40), st.integers(0, 32), st.integers(9, 44), st.integers(9, 36),
    st.booleans(), st.sampled_from([1.1, 1.2, 1.25]),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.tuples(st.sampled_from([8, 9]), st.sampled_from([FeatureSet.BASIC, FeatureSet.ALL])),
                   min_size=1, max_size=3),
    rois=st.lists(st.tuples(ROI_DRAWS, st.integers(0, 2)), min_size=1, max_size=6),
)
@example(seed=0, kinds=[(9, FeatureSet.ALL)], rois=[((0, 0, 44, 36, False, 1.1), 0)] * 2)
@example(seed=1, kinds=[(9, FeatureSet.ALL)],
         rois=[((35, 27, 9, 9, True, 1.2), 0), ((0, 0, 44, 36, True, 1.2), 0)])
@example(seed=2, kinds=[(9, FeatureSet.BASIC)],
         rois=[((0, 0, 30, 20, False, 1.2), 0), ((10, 5, 34, 31, True, 1.2), 0),
               ((10, 5, 34, 31, False, 1.25), 0)])
@example(seed=3, kinds=[(9, FeatureSet.BASIC), (9, FeatureSet.ALL)],
         rois=[((0, 0, 44, 36, False, 1.1), 1), ((35, 27, 9, 9, True, 1.1), 1),
               ((10, 5, 34, 31, True, 1.1), 0), ((10, 5, 34, 31, False, 1.1), 1),
               ((0, 0, 44, 36, True, 1.1), 1)])
def test_scan_rois_equal_one_scan_roi_per_config(seed, kinds, rois):
    # each config scans its own cascade (the k-th of 1-3); configs of one
    # cascade that share a size and side share one stage pass, other
    # cascades of the same window size never join it, and a GrayImage gets
    # rotated tables if any config's cascade needs them.  Each config's raw
    # windows are still exactly its own scan's, overlapping ROIs and ROIs
    # at the frame edge (where rotated cells may overhang) included
    rng = np.random.default_rng(seed)
    cascades = [random_stump_cascade(rng, window=w, n_stages=2, feature_set=fs) for w, fs in kinds]
    img = GrayImage(rng.integers(0, 256, (FRAME_H, FRAME_W), dtype=np.uint8))
    tables = build_tables(img, want_rotated=any(c.feature_set is FeatureSet.ALL for c in cascades))
    cfgs = []
    for (x, y, w, h, right, factor), k in rois:
        x, y = min(x, FRAME_W - 9), min(y, FRAME_H - 9)
        roi = Rect(x, y, min(w, FRAME_W - x), min(h, FRAME_H - y))
        cfgs.append(DetectorConfig(cascade=cascades[k % len(cascades)], roi=roi,
                                   scale_factor=factor, on_right_side=right))
    for image in (tables, img):
        got = scan_rois(image, cfgs)
        assert len(got) == len(cfgs)
        for cfg, raw in zip(cfgs, got):
            assert raw.dtype == RAW_WINDOW
            assert raw.tobytes() == scan_roi(cfg.cascade, image, cfg).tobytes()


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


def test_group_widths_at_the_five_to_four_bound():
    # similar widths differ by at most a fifth of the wider one: 4:5, 16:20
    # and 20:25 are similar, 16:21 is not; each wider window sits up-left of
    # the narrower one by the width difference (w // 4 for the similar pairs),
    # so the bottom-right corners agree
    for w, wide, similar in ((4, 5, True), (16, 20, True), (20, 25, True), (16, 21, False)):
        d = wide - w
        a, b = Rect(30, 40, w, w), Rect(30 - d, 40 - d, wide, wide)
        assert rects_similar(a, b) == rects_similar(b, a) == similar
        for pair in ([a, b], [b, a]):
            out = group_detections(raw_windows(pair), 1)
            assert sorted(det.neighbors for det in out) == ([2] if similar else [1, 1])


def test_group_x_offsets_at_w_over_4():
    # equal widths: left corners w // 5 apart (0.2 * w) are similar, one pixel
    # more is not; the wider of a 5:4 pair may sit up to w // 4 left of the
    # narrower one, at the edge of the narrower one's candidate range
    for w in (5, 8, 13, 20, 44):
        for dx, similar in ((w // 5, True), (w // 5 + 1, False)):
            pair = [Rect(7, 9, w, w), Rect(7 + dx, 9, w, w)]
            assert sorted(d.neighbors for d in group_detections(raw_windows(pair), 1)) == (
                [2] if similar else [1, 1]
            )
    for w in (4, 8, 12, 16, 40):
        wide = 5 * w // 4
        for dx in (0, w // 4, wide - w):
            pair = [Rect(50, 50, w, w), Rect(50 - dx, 50, wide, w)]
            assert [d.neighbors for d in group_detections(raw_windows(pair), 1)] == [2]


def test_group_y_offsets_at_h_over_5():
    # the y twin of the x test above; the exact x ranges leave y the only
    # per-pair test.  The taller height's h // 5 bounds both the top-edge
    # and the bottom-edge offset: at each bound the pair is similar, one
    # pixel past it is not (equal heights make the two bounds one)
    for h, tall in ((5, 5), (8, 8), (13, 13), (20, 20), (44, 44), (4, 5), (13, 15), (16, 20), (40, 50)):
        m, d = tall // 5, tall - h
        # dy moves the taller window's top edge; dy + d is then its bottom edge's offset
        for dy, similar in ((-m, True), (-m - 1, False), (m - d, True), (m - d + 1, False)):
            a, b = Rect(7, 30, 10, h), Rect(7, 30 + dy, 10, tall)
            assert rects_similar(a, b) == rects_similar(b, a) == similar
            for pair in ([a, b], [b, a]):
                assert sorted(det.neighbors for det in group_detections(raw_windows(pair), 1)) == (
                    [2] if similar else [1, 1]
                )


def test_group_negative_coordinates():
    # raw windows left of and above the origin cluster as their translates do
    rng = np.random.default_rng(73)
    for shift_x, shift_y in ((-1000, -37), (-3, 0), (0, -501)):
        rects = clustered_rects(rng, 300, 120)
        moved = [Rect(r.x + shift_x, r.y + shift_y, r.w, r.h) for r in rects]
        assert min(r.x for r in moved) < 0 or min(r.y for r in moved) < 0
        margins = rng.standard_normal(len(rects)).tolist()
        want = [
            (d.point2x[0] + 2 * shift_x, d.point2x[1] + 2 * shift_y, d.rect.w, d.rect.h,
             d.neighbors, d.margin)
            for d in group_detections(raw_windows(rects, margins), 1)
        ]
        got = [
            (d.point2x[0], d.point2x[1], d.rect.w, d.rect.h, d.neighbors, d.margin)
            for d in group_detections(raw_windows(moved, margins), 1)
        ]
        assert sorted(got) == sorted(want)
        assert sorted(d[4] for d in got) == sorted(len(c) for c in closure_clusters(moved))


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


def column_stacks(rng, n):
    """One width on a few columns: stacks of one height at y steps of
    h // 5 - 1, h // 5 and h // 5 + 1 (a column run continues only up to
    h // 5), each topped by a taller or shorter window at, or one pixel
    past, an end of the y interval in which it is similar to the stack's
    last window."""
    w = int(rng.integers(5, 40))
    columns = [int(v) for v in rng.integers(0, w // 3 + 1, int(rng.integers(1, 4)))]
    heights = [int(v) for v in rng.choice(np.arange(5, 40), 3, replace=False)]
    rects = []
    while len(rects) < n:
        x = columns[int(rng.integers(len(columns)))]
        h = heights[int(rng.integers(len(heights)))]
        y = int(rng.integers(0, 120))
        for _ in range(int(rng.integers(1, 8))):
            rects.append(Rect(x, y, w, h))
            y += h // 5 + int(rng.integers(-1, 2))
        top = rects[-1].y
        h2 = heights[int(rng.integers(len(heights)))]
        m, dh = max(h, h2) // 5, h2 - h
        lo, hi = -m + max(0, -dh), m - max(0, dh)
        rects.append(Rect(x, top + int(rng.choice([lo - 1, lo, hi, hi + 1])), w, h2))
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
    spread=st.sampled_from([0, 4, 40, 200, 1000, "stacks"]),
    block=st.sampled_from([1, 3, 64, None]),
    data=st.data(),
)
def test_group_partition_matches_closure_property(n, seed, spread, block, data):
    # spread 0 puts every window in one column, so every pair of its column
    # runs is a candidate; "stacks" builds runs and breaks them at the y
    # step and interval bounds; the small drawn budgets put block
    # boundaries inside clusters
    rng = np.random.default_rng(seed)
    if spread == 0:
        rects = [Rect(0, r.y, r.w, r.h) for r in clustered_rects(rng, n, 200)]
    elif spread == "stacks":
        rects = column_stacks(rng, n)
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


@pytest.mark.parametrize("n", [362, 363])
def test_group_single_width_single_column_straddles_block(n):
    # one width and one column make every pair of column runs a candidate;
    # 362 singleton runs would fit one default block of candidate pairs and
    # 363 would not, but these windows form fewer runs (302 runs, 45,451
    # pairs, for n = 363), so the singleton-run test below straddles the block
    assert 362 * 361 // 2 <= scan_module._GROUP_BLOCK_PAIRS < 363 * 362 // 2
    rng = np.random.default_rng(n)
    rects = [Rect(5, int(rng.integers(0, 400)), 20, int(rng.integers(12, 30))) for _ in range(n)]
    labels = [(i * 2654435761) % 2**32 for i in range(n)]
    out = group_detections(raw_windows(rects, [float(lab) for lab in labels]), 1)
    clusters = closure_clusters(rects)
    assert 1 < len(clusters) < n  # real clusters, not one blob or all singletons
    want = sorted(cluster_fingerprint(rects, labels, c) for c in clusters)
    got = sorted(
        (d.neighbors, int(d.margin), d.point2x[0], d.point2x[1], d.rect.w, d.rect.h)
        for d in out
    )
    assert got == want


@pytest.mark.parametrize("n", [362, 363])
def test_group_singleton_runs_straddle_block(n):
    # one width and one column, and same-height windows more than h // 5
    # apart, so every window is its own column run and every one of the
    # n(n-1)/2 pairs is a candidate: 362 windows fit one default block of
    # candidate pairs, 363 do not
    assert 362 * 361 // 2 <= scan_module._GROUP_BLOCK_PAIRS < 363 * 362 // 2
    rng = np.random.default_rng(n + 1000)
    heights = rng.integers(12, 30, n)
    rects = []
    for h in np.unique(heights):
        ys = np.cumsum(rng.integers(h // 5 + 1, h // 5 + 40, np.count_nonzero(heights == h)))
        rects += [Rect(5, int(y), 20, int(h)) for y in ys]
    rng.shuffle(rects)
    labels = [(i * 2654435761) % 2**32 for i in range(n)]
    out = group_detections(raw_windows(rects, [float(lab) for lab in labels]), 1)
    clusters = closure_clusters(rects)
    assert 1 < len(clusters) < n  # real clusters, not one blob or all singletons
    want = sorted(cluster_fingerprint(rects, labels, c) for c in clusters)
    got = sorted(
        (d.neighbors, int(d.margin), d.point2x[0], d.point2x[1], d.rect.w, d.rect.h)
        for d in out
    )
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([0, 1, 5, 40, 150]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_group_rois_never_mixes_arrays(sizes, seed, data):
    # several arrays grouped in one pass, some empty and some holding the
    # same windows as an earlier one, each with its own min_neighbors, give
    # exactly one group_detections call per array
    rng = np.random.default_rng(seed)
    raws = []
    for size in sizes:
        if raws and data.draw(st.booleans()):
            raws.append(raws[data.draw(st.integers(0, len(raws) - 1))].copy())
        else:
            rects = clustered_rects(rng, size, 60)
            raws.append(raw_windows(rects, rng.standard_normal(size).tolist()))
    mins = [data.draw(st.integers(1, 4)) for _ in raws]
    assert group_rois(raws, mins) == [group_detections(r, m) for r, m in zip(raws, mins)]
    with pytest.raises(ValueError, match="min_neighbors"):
        group_rois(raws, mins[1:])


def test_group_rejects_coordinates_past_int32():
    # windows at x = 2**61 of widths 10 and 12 are similar, and their
    # centre sum 2x + w - 1 wraps int64; every coordinate past 31 bits,
    # and every size below 1, is refused
    near = raw_windows([Rect(1, 1, 10, 10)] * 4 + [Rect(2**61, 0, 10, 10), Rect(2**61, 0, 12, 10)])
    with pytest.raises(ValueError, match="2\\*\\*31"):
        group_detections(near, 1)
    for bad in ((2**31, 0, 5, 5), (-(2**31), 0, 5, 5), (0, 2**31, 5, 5), (0, -(2**31), 5, 5),
                (0, 0, 2**31, 5), (0, 0, 5, 2**31), (0, 0, 0, 5), (0, 0, 5, -1)):
        raw = np.array([(3, 3, 5, 5, 0.0), (*bad, 0.0)], RAW_WINDOW)
        with pytest.raises(ValueError):
            group_detections(raw, 1)
        with pytest.raises(ValueError):
            group_rois([raw[:1], raw[1:]], [1, 1])
    # the extremes inside the bounds group exactly
    edge = 2**31 - 1
    for rects in ([Rect(edge - 12, -edge, 12, 12), Rect(edge - 10, -edge + 2, 10, 10)],
                  [Rect(-edge, edge - 10, edge, 10), Rect(-edge, edge - 10, edge, 10)]):
        out = group_detections(raw_windows(rects), 1)
        want = {frozenset(range(len(rects)))}
        assert closure_clusters(rects) == want
        k = len(rects)
        px2 = half_even(sum(2 * r.x + r.w - 1 for r in rects), k)
        py2 = half_even(sum(2 * r.y + r.h - 1 for r in rects), k)
        assert [(d.neighbors, d.point2x) for d in out] == [(k, (px2, py2))]


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


@pytest.mark.parametrize("is_point", [True, False])
def test_detect_point_prefers_the_cluster_nearest_the_roi_centre(is_point):
    # a 4x4 cascade without stages accepts every window, and windows below
    # 5 pixels are similar only to themselves: 25 one-member clusters tie
    # on neighbours, and the ROI centre (13.5, 13.5) picks the window at
    # (12, 12), whatever the config's is_point says
    rng = np.random.default_rng(31)
    img = GrayImage(rng.integers(0, 256, (30, 30), dtype=np.uint8))
    cfg = DetectorConfig(
        cascade=zero_stage_cascade(4), roi=Rect(10, 10, 8, 8), min_neighbors=1,
        scale_factor=3.0, is_point=is_point,
    )
    assert detect_point(img, cfg) == (13, 13)


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
    local = replace(cfg, roi=Rect(0, 0, roi.w, roi.h), on_right_side=False)
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
    # acceptance: the right-side scan on the frame finds the point the
    # patch route finds
    assert_patch_flip_agrees(FeatureSet.BASIC, (13, 21))


def test_patch_flip_equals_mirrored_cascade_rotated_base_scale():
    # ROIs 13 to 20 px wide scan the base scale and fractional scales,
    # where rotated cells are rounded before they are reflected
    assert_patch_flip_agrees(FeatureSet.ALL, (13, 21))


def test_right_side_scan_mirrors_left_side_scan():
    # a right-side scan of I is, record for record and margin bit for bit,
    # the mirror image of a left-side scan of mirror(I) over the mirrored ROI;
    # every other ROI is the whole image, where cells overhanging the
    # window decide which windows stay inside the frame
    rng = np.random.default_rng(67)
    checked = 0
    for i in range(20):
        c = random_stump_cascade(rng, window=8, n_stages=2, feature_set=FeatureSet.ALL)
        width, height = (int(v) for v in rng.integers(12, 26, size=2))
        img = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
        rx, ry = int(rng.integers(0, width - 8)), int(rng.integers(0, height - 8))
        rw, rh = int(rng.integers(8, width - rx + 1)), int(rng.integers(8, height - ry + 1))
        roi = Rect(rx, ry, rw, rh) if i % 2 else Rect(0, 0, width, height)
        cfg = DetectorConfig(
            cascade=c, roi=roi, scale_factor=1.15, min_neighbors=1, on_right_side=True
        )
        right = scan_roi(c, build_tables(img, want_rotated=True), cfg)
        mirrored_roi = Rect(width - roi.x - roi.w, roi.y, roi.w, roi.h)
        left_cfg = replace(cfg, roi=mirrored_roi, on_right_side=False)
        left = scan_roi(c, build_tables(img.mirrored(), want_rotated=True), left_cfg)
        left["x"] = width - left["x"] - left["w"]
        left = left[np.lexsort((left["x"], left["y"], left["w"]))]
        assert right.tobytes() == left.tobytes()
        checked += len(right)
    assert checked > 100  # the comparison must exercise real windows


def test_detect_region_picks_largest():
    rng = np.random.default_rng(37)
    img = GrayImage(rng.integers(0, 256, (40, 40), dtype=np.uint8))
    cfg = DetectorConfig(
        cascade=zero_stage_cascade(13), min_neighbors=1, scale_factor=1.5, is_point=False
    )
    rect = detect_region(img, cfg)
    assert rect is not None
    assert rect.w > 13  # grouping across scales still prefers large regions
