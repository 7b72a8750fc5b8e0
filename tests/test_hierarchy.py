import math

import numpy as np
import pytest

from conftest import POINT_PRIMARY, SIZE, build_face_image, point_type
from fidpoint.geom import Point2, TiltMode, TiltState, rotate_image, rotate_point
from fidpoint.raster import GrayImage
from fidpoint.scan import DETECTED_POINT_NAMES, POINT_PARENTS, detect_hierarchy, point_roi


def truth_points():
    return {n: Point2(float(x), float(y)) for n, (x, y) in POINT_PRIMARY.items()}


def test_upright_fixture_all_points_found(hierarchy_configs):
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    img = build_face_image(41)
    state = TiltState(mode=TiltMode.FULL)
    result = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, state)
    assert result.face_found
    truth = truth_points()
    for name in DETECTED_POINT_NAMES:
        got = result.points[name]
        assert got is not None, name
        err = math.hypot(got.x - truth[name].x, got.y - truth[name].y)
        assert err <= 2.5, (name, got, truth[name], err)
    assert abs(state.alpha) < math.radians(2)


def test_rotated_fixture_recovers_tilt(hierarchy_configs):
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    img = build_face_image(41)
    center = Point2((SIZE - 1) / 2, (SIZE - 1) / 2)
    phi = math.radians(15)
    tilted = rotate_image(img, center, phi)
    truth = {n: rotate_point(p, center, phi) for n, p in truth_points().items()}

    state = TiltState(mode=TiltMode.FULL)
    detect_hierarchy(tilted, face_cfg, feature_cfgs, point_cfgs, state)
    first_estimate = state.alpha
    assert abs(first_estimate - phi) < math.radians(3)

    result = detect_hierarchy(tilted, face_cfg, feature_cfgs, point_cfgs, state)
    assert result.face_found
    assert result.tilt_applied == pytest.approx(first_estimate)
    # after one correction pass the tilt estimate settles within a degree
    assert abs(state.alpha - phi) < math.radians(1.0)
    found = 0
    for name in DETECTED_POINT_NAMES:
        got = result.points[name]
        if got is None:
            continue
        err = math.hypot(got.x - truth[name].x, got.y - truth[name].y)
        assert err <= 3.0, (name, err)
        found += 1
    assert found >= 12  # rotation blur may cost the odd marker


def test_face_absent_resets_tilt(hierarchy_configs):
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    rng = np.random.default_rng(47)
    img = GrayImage(rng.integers(0, 25, (SIZE, SIZE), dtype=np.uint8))
    state = TiltState(alpha=0.3, mode=TiltMode.FULL)
    result = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, state)
    assert not result.face_found
    assert all(v is None for v in result.points.values())
    assert state.alpha == 0.0


def test_tilt_mode_none_never_rotates(hierarchy_configs, monkeypatch):
    import fidpoint.scan as scan_mod

    def boom(*a, **k):
        raise AssertionError("rotate_image must not be called in NONE mode")

    monkeypatch.setattr(scan_mod, "rotate_image", boom)
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    img = build_face_image(53)
    state = TiltState(alpha=0.4, mode=TiltMode.NONE)
    result = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, state)
    assert result.face_found


def test_half_mode_applies_half_correction(hierarchy_configs):
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    img = build_face_image(59)
    state = TiltState(alpha=0.2, mode=TiltMode.HALF)
    result = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, state)
    assert result.tilt_applied == pytest.approx(0.1)


def test_nan_tilt_raises_value_error(hierarchy_configs):
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    state = TiltState(alpha=math.nan, mode=TiltMode.FULL)
    with pytest.raises(ValueError, match="nan"):
        detect_hierarchy(build_face_image(41), face_cfg, feature_cfgs, point_cfgs, state)


def test_fourth_corner_inferred_when_one_missing(hierarchy_configs):
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    img = build_face_image(61)
    # erase the right outer eye corner glyph (paint over its disc)
    mx, my = POINT_PRIMARY["right_eye_outer"]
    px = img.pixels.copy()
    px[my - 6 : my + 7, mx - 6 : mx + 7] = 14
    img = GrayImage(px)
    state = TiltState(mode=TiltMode.FULL)
    result = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, state)
    got = result.points["right_eye_outer"]
    assert got is not None  # inferred from the other three corners
    truth = truth_points()["right_eye_outer"]
    assert math.hypot(got.x - truth.x, got.y - truth.y) <= 3.0


def test_frame_tables_built_once(hierarchy_configs, monkeypatch):
    # the face, the four feature and the fourteen point scans share one
    # set of full-frame tables
    import fidpoint.scan as scan_mod

    sizes = []
    real = scan_mod.build_tables

    def counting(image, *args, **kwargs):
        sizes.append((image.width, image.height))
        return real(image, *args, **kwargs)

    monkeypatch.setattr(scan_mod, "build_tables", counting)
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    img = build_face_image(41)
    result = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, TiltState(mode=TiltMode.NONE))
    assert result.face_found and all(result.features.values())
    assert sizes == [(img.width, img.height)]
    assert any(p is not None for p in result.points.values())  # the point scans ran


def test_point_square_outside_frame_is_skipped(hierarchy_configs):
    # a search prior far off the parent puts the square wholly right of
    # the frame; that point stays undetected and the others are unaffected
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    img = build_face_image(41)
    baseline = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, TiltState(mode=TiltMode.NONE))
    far = point_cfgs["right_pupil"]
    far.sub_roi = (20.0, 0.0, 0.3)
    result = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, TiltState(mode=TiltMode.NONE))
    assert far.roi is None
    assert baseline.points["right_pupil"] is not None
    assert result.points["right_pupil"] is None
    for name in DETECTED_POINT_NAMES:
        if name != "right_pupil":
            assert result.points[name] == baseline.points[name], name


def test_point_without_sub_roi_searches_expanded_parent(hierarchy_configs):
    # a point config without a search prior searches its parent feature
    # rect grown by POINT_EXPAND on each side
    face_cfg, feature_cfgs, point_cfgs = hierarchy_configs
    img = build_face_image(41)
    cfg = point_cfgs["left_pupil"]
    cfg.sub_roi = None
    state = TiltState(mode=TiltMode.NONE)
    result = detect_hierarchy(img, face_cfg, feature_cfgs, point_cfgs, state)
    parent = result.features[POINT_PARENTS["left_pupil"]]
    assert parent is not None
    assert cfg.roi == point_roi(parent, img.width, img.height)
    assert result.points["left_pupil"] is not None
