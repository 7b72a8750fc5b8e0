import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fidpoint import samples
from fidpoint.geom import Point2
from fidpoint.raster import BoundsError, GrayImage, Rect
from fidpoint.samples import (
    DEFAULT_SCHEME,
    GenerationError,
    Markup,
    PointsFormatError,
    compute_scales,
    extract_and_rescale,
    generate_negatives,
    nearest_odd,
    parse_points_file,
    positive_descriptions,
    tilt_correct_markup,
    write_points_file,
)


def level_markup(path="img.pgm", shift=Point2(0.0, 0.0)):
    """A 20-point markup with level eyes of width 13 on both sides."""
    pts = [Point2(0.0, 0.0)] * DEFAULT_SCHEME.size
    lo, li, ri, ro = DEFAULT_SCHEME.eye_corners
    pts[lo] = Point2(30.0 + shift.x, 60.0 + shift.y)
    pts[li] = Point2(43.0 + shift.x, 60.0 + shift.y)
    pts[ri] = Point2(73.0 + shift.x, 60.0 + shift.y)
    pts[ro] = Point2(86.0 + shift.x, 60.0 + shift.y)
    return Markup(path, pts)


# --- points files -----------------------------------------------------------

def test_parse_points_single():
    pts = parse_points_file(b"PTS 1\nn 1\n3.5 7.25\n")
    assert pts == [Point2(3.5, 7.25)]


def test_parse_points_count_mismatch_names_line():
    with pytest.raises(PointsFormatError) as err:
        parse_points_file(b"PTS 1\nn 3\n1 2\n3 4\n")
    assert err.value.line == 5


def test_parse_points_negative_count_names_count_line():
    with pytest.raises(PointsFormatError, match="negative point count") as err:
        parse_points_file(b"PTS 1\nn -3\n1 2\n")
    assert err.value.line == 2


@pytest.mark.parametrize("coords", [b"nan inf", b"1 nan", b"-inf 2", b"1e999 0"])
def test_parse_points_non_finite_coordinate_names_line(coords):
    with pytest.raises(PointsFormatError, match="non-finite") as err:
        parse_points_file(b"PTS 1\nn 2\n1 2\n" + coords + b"\n")
    assert err.value.line == 4


# one (file, line, message) per raise site of parse_points_file and the line reader
POINTS_ERRORS = [
    (b"PTS 1\nn 1\n1 \xb2\n", 0, "not ASCII"),
    (b"", 1, "unexpected end of file, expected 'PTS'"),
    (b"PTS1\nn 0\n", 1, "expected 'PTS' line"),
    (b"PTS 2\nn 0\n", 1, "malformed PTS line"),
    (b"PTS 1\n", 2, "unexpected end of file, expected 'n'"),
    (b"PTS 1\ncount 0\n", 2, "expected 'n' line"),
    (b"PTS 1\nn 1 1\n1 2\n", 2, "malformed n line"),
    (b"PTS 1\nn one\n1 2\n", 2, "bad integer 'one'"),
    (b"PTS 1\nn -3\n1 2\n", 2, "negative point count"),
    (b"PTS 1\nn 2\n1 2\n", 4, "unexpected end of file, expected '<x> <y>'"),
    (b"PTS 1\nn 1\n1 2 3\n", 3, "expected '<x> <y>'"),
    (b"PTS 1\nn 1\n1 y\n", 3, "non-numeric coordinate"),
    (b"PTS 1\nn 1\n1 inf\n", 3, "non-finite coordinate"),
    (b"PTS 1\nn 1\n1 2\n\n\njunk\n", 6, "trailing content"),
]


@pytest.mark.parametrize("data, line, message", POINTS_ERRORS, ids=[m for *_, m in POINTS_ERRORS])
def test_parse_points_error_line_and_message(data, line, message):
    with pytest.raises(PointsFormatError) as err:
        parse_points_file(data)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_parse_points_reads_any_line_break(end):
    pts = [Point2(1.5, -2.0), Point2(0.0, 3.25)]
    data = write_points_file(pts).replace(b"\n", end) + end + b"  " + end
    assert parse_points_file(data) == pts


def test_points_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = [
            Point2(float(rng.normal(0, 100)), float(rng.normal(0, 100)))
            for _ in range(int(rng.integers(0, 30)))
        ]
        assert parse_points_file(write_points_file(pts)) == pts


@pytest.mark.parametrize("count", [0, 5, DEFAULT_SCHEME.size - 1, DEFAULT_SCHEME.size + 1])
def test_markup_with_wrong_point_count_names_image_and_counts(count):
    # a well-formed PTS file of the wrong length is refused where it becomes
    # a markup, not with an IndexError deep inside sampling
    pts = parse_points_file(write_points_file([Point2(float(i), 1.0) for i in range(count)]))
    with pytest.raises(ValueError, match=f"short.pgm: markup has {count} points, expected 20"):
        Markup("short.pgm", pts)


# --- tilt correction -----------------------------------------------------------

def test_tilt_correct_level_markup_is_identity():
    rng = np.random.default_rng(5)
    img = GrayImage(rng.integers(0, 256, (120, 120), dtype=np.uint8))
    m = level_markup()
    rimg, rm, alpha = tilt_correct_markup(img, m)
    assert alpha == 0.0
    assert rimg == img
    assert rm.points == m.points


def test_tilt_correct_known_rotation():
    from fidpoint.geom import rotate_point

    rng = np.random.default_rng(7)
    img = GrayImage(rng.integers(0, 256, (120, 120), dtype=np.uint8))
    center = Point2(59.5, 59.5)
    phi = math.radians(10)
    m = level_markup()
    tilted = Markup(m.image_path, [rotate_point(p, center, phi) for p in m.points])
    _, corrected, alpha = tilt_correct_markup(img, tilted)
    assert alpha == pytest.approx(phi, abs=1e-9)
    lo, li, ri, ro = DEFAULT_SCHEME.eye_corners
    ys = [corrected.points[i].y for i in (lo, li, ri, ro)]
    xs = [corrected.points[i].x for i in (lo, li, ri, ro)]
    slope = (ys[-1] - ys[0]) / (xs[-1] - xs[0])
    assert abs(slope) < 1e-6


def test_tilt_correct_preserves_fit_residual():
    # rotated-level fixture: the corners are collinear, so both fits are
    # exact and their residuals agree to rounding (the isometry property
    # is exact on exact-fit corner sets)
    from fidpoint.geom import fit_line, rotate_point

    rng = np.random.default_rng(9)
    img = GrayImage(rng.integers(0, 256, (120, 120), dtype=np.uint8))
    m = level_markup()
    lo, li, ri, ro = DEFAULT_SCHEME.eye_corners
    center = Point2(59.5, 59.5)
    tilted = Markup("x", [rotate_point(p, center, math.radians(7)) for p in m.points])
    before = fit_line([tilted.points[i] for i in (lo, li, ri, ro)]).residual
    _, corrected, _ = tilt_correct_markup(img, tilted)
    after = fit_line([corrected.points[i] for i in (lo, li, ri, ro)]).residual
    assert after == pytest.approx(before, abs=1e-9)


# --- scale normalisation ----------------------------------------------------------

def test_nearest_odd_midpoint_takes_larger():
    assert nearest_odd(12.0) == 13
    assert nearest_odd(11.3043) == 11
    assert nearest_odd(14.6956) == 15


def test_compute_scales_equal_widths():
    ms = [level_markup(f"i{i}.pgm") for i in range(4)]
    lid = DEFAULT_SCHEME.id_of("left_eye_outer")
    assert compute_scales(ms, lid) == [13, 13, 13, 13]


def test_compute_scales_mixed_widths():
    lo, li = DEFAULT_SCHEME.eye_corners[0], DEFAULT_SCHEME.eye_corners[1]
    m1 = level_markup("a.pgm")
    m1.points[lo] = Point2(30.0, 60.0)
    m1.points[li] = Point2(50.0, 60.0)  # width 20
    m2 = level_markup("b.pgm")
    m2.points[lo] = Point2(30.0, 60.0)
    m2.points[li] = Point2(56.0, 60.0)  # width 26
    lid = DEFAULT_SCHEME.id_of("left_eye_outer")
    assert compute_scales([m1, m2], lid) == [11, 15]


def test_compute_scales_zero_width_skipped():
    lo, li = DEFAULT_SCHEME.eye_corners[0], DEFAULT_SCHEME.eye_corners[1]
    good = level_markup("good.pgm")
    bad = level_markup("bad.pgm")
    bad.points[lo] = bad.points[li] = Point2(40.0, 60.0)
    lid = DEFAULT_SCHEME.id_of("left_eye_outer")
    with pytest.warns(UserWarning, match="bad.pgm"):
        sizes = compute_scales([good, bad], lid)
    assert sizes == [13, None]


@settings(max_examples=100, deadline=None)
@given(widths=st.lists(st.floats(0.5, 80.0), min_size=1, max_size=8))
@example(widths=[40.0, 40.0, 40.0, 6.0])  # gave sides [17, 17, 17, 5]
def test_compute_scales_sides_are_accepted_by_positive_descriptions(widths):
    lo, li = DEFAULT_SCHEME.eye_corners[0], DEFAULT_SCHEME.eye_corners[1]
    lid = DEFAULT_SCHEME.id_of("left_eye_outer")
    ms = []
    for k, w in enumerate(widths):
        m = level_markup(f"i{k}.pgm")
        m.points[lo] = Point2(200.0, 200.0)
        m.points[li] = Point2(200.0 + w, 200.0)
        ms.append(m)
    for m, s in zip(ms, compute_scales(ms, lid)):
        assert s % 2 == 1 and s >= samples.MIN_SAMPLE_SIDE
        rects = positive_descriptions(m, lid, s, 401, 401)
        assert [r.w for r in rects] == [s + 2, s, s - 2]


# --- positive descriptions ----------------------------------------------------------

def test_positive_descriptions_paper_fixture():
    m = level_markup("BioID_0000.pgm")
    pid = DEFAULT_SCHEME.id_of("right_brow_outer")
    m.points[pid] = Point2(196.0, 175.0)
    rects = positive_descriptions(m, pid, 23, 384, 286)
    assert rects == [Rect(184, 163, 25, 25), Rect(185, 164, 23, 23), Rect(186, 165, 21, 21)]


def test_positive_descriptions_centered_and_nested():
    m = level_markup()
    pid = 0
    m.points[pid] = Point2(100.0, 100.0)
    rects = positive_descriptions(m, pid, 13, 201, 201)
    for r in rects:
        assert r.x + (r.w - 1) // 2 == 100 and r.y + (r.h - 1) // 2 == 100
        assert r.w % 2 == 1
    for big, small in zip(rects, rects[1:]):
        assert big.x < small.x and big.y < small.y
        assert big.x + big.w > small.x + small.w and big.y + big.h > small.y + small.h


def test_positive_descriptions_out_of_bounds():
    m = level_markup()
    m.points[0] = Point2(4.0, 4.0)
    with pytest.raises(BoundsError):
        positive_descriptions(m, 0, 13, 100, 100)


# --- negative sampling ------------------------------------------------------------------

def big_fixture(point=Point2(100.0, 100.0)):
    img = GrayImage(np.zeros((201, 201), dtype=np.uint8))
    m = level_markup("fix.pgm")
    pid = DEFAULT_SCHEME.id_of("left_eye_outer")
    lo, li = DEFAULT_SCHEME.eye_corners[0], DEFAULT_SCHEME.eye_corners[1]
    m.points[pid] = point
    m.points[lo] = point
    m.points[li] = Point2(point.x + 26.0, point.y)  # local eye width 26
    return img, m, pid


def test_negatives_deterministic_by_seed():
    img, m, pid = big_fixture()
    a = generate_negatives(img, m, pid, rng_seed=42)
    b = generate_negatives(img, m, pid, rng_seed=42)
    c = generate_negatives(img, m, pid, rng_seed=43)
    assert a == b
    assert a != c
    assert len(a) == 16


def test_negatives_exclude_center_block():
    img, m, pid = big_fixture()
    for seed in range(30):
        for r in generate_negatives(img, m, pid, rng_seed=seed):
            ccx = r.x + (r.w - 1) // 2
            ccy = r.y + (r.h - 1) // 2
            assert max(abs(ccx - 100), abs(ccy - 100)) >= 3


def test_negatives_patches_fit_image():
    img, m, pid = big_fixture(Point2(12.0, 12.0))
    for seed in range(10):
        for r in generate_negatives(img, m, pid, rng_seed=seed):
            assert r.x >= 0 and r.y >= 0
            assert r.x + r.w <= img.width and r.y + r.h <= img.height


def test_negatives_error_when_impossible():
    img = GrayImage(np.zeros((20, 20), dtype=np.uint8))
    m = level_markup("tiny.pgm")
    pid = DEFAULT_SCHEME.id_of("left_eye_outer")
    m.points[pid] = Point2(10.0, 10.0)
    with pytest.raises(GenerationError, match="tiny.pgm"):
        generate_negatives(img, m, pid, patch_side=13, rng_seed=0)


@pytest.mark.parametrize("patch_side, where", [(21, "inner"), (13, "outer")])
def test_negatives_error_names_the_placement_that_failed(patch_side, where):
    # a 21-pixel patch fits nowhere in the 20x20 frame; a 13-pixel one fits
    # on the inner ring but not at Chebyshev distance 6 or more
    img = GrayImage(np.zeros((20, 20), dtype=np.uint8))
    m = level_markup("tiny.pgm")
    pid = DEFAULT_SCHEME.id_of("left_eye_outer")
    m.points[pid] = Point2(10.0, 10.0)
    with pytest.raises(GenerationError) as err:
        generate_negatives(img, m, pid, patch_side=patch_side, rng_seed=0)
    assert str(err.value) == f"tiny.pgm: cannot place {where} negatives"


def chi2_critical(df: int, z: float = 3.09) -> float:
    # Wilson-Hilferty upper-tail approximation (z = 3.09 ~ alpha 1e-3)
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def test_negative_center_distributions():
    img, m, pid = big_fixture()
    inner_counts = {3: 0, 4: 0, 5: 0}
    outer_cells = {}
    draws = 0
    for seed in range(800):
        rects = generate_negatives(img, m, pid, count_inner=8, count_outer=8,
                                   rng_seed=seed)
        for r in rects[:8]:
            ccx, ccy = r.x + 6, r.y + 6
            d = max(abs(ccx - 100), abs(ccy - 100))
            inner_counts[d] += 1
            draws += 1
        for r in rects[8:]:
            key = (r.x + 6 - 100, r.y + 6 - 100)
            outer_cells[key] = outer_cells.get(key, 0) + 1
    # inner: distance uniform over {3,4,5} within 3 sigma
    n = draws
    for d in (3, 4, 5):
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        assert abs(inner_counts[d] - n / 3) <= 3 * sigma
    # outer: uniform over the admissible square (chi-squared goodness of fit)
    half = 13  # round_half_up(26 / 2)
    admissible = [
        (dx, dy)
        for dx in range(-half, half + 1)
        for dy in range(-half, half + 1)
        if max(abs(dx), abs(dy)) >= 6
    ]
    n_outer = sum(outer_cells.values())
    expected = n_outer / len(admissible)
    chi2 = sum(
        (outer_cells.get(cell, 0) - expected) ** 2 / expected for cell in admissible
    )
    assert set(outer_cells) <= set(admissible)
    assert chi2 <= chi2_critical(len(admissible) - 1)


# --- extraction -------------------------------------------------------------------------

def test_extract_identity_at_target_size():
    rng = np.random.default_rng(13)
    img = GrayImage(rng.integers(0, 256, (40, 40), dtype=np.uint8))
    r = Rect(5, 9, 13, 13)
    patch = extract_and_rescale(img, r, 13)
    assert np.array_equal(patch, img.pixels[9:22, 5:18])


def test_extract_uniform_any_size():
    img = GrayImage(np.full((60, 60), 99, dtype=np.uint8))
    for side in (7, 13, 25, 33):
        patch = extract_and_rescale(img, Rect(3, 3, side, side), 13)
        assert (patch == 99).all()


def test_extract_downscale_keeps_center_peak():
    px = np.zeros((33, 33), dtype=np.uint8)
    px[14:19, 14:19] = 255  # centered bright blob
    patch = extract_and_rescale(GrayImage(px), Rect(0, 0, 33, 33), 13)
    assert patch[6, 6] == patch.max()


def extract_and_rescale_per_call(image: GrayImage, rect: Rect, target_side: int = 13) -> np.ndarray:
    """Oracle: the resampler as it was before its maps were cached, verbatim."""
    if rect.x < 0 or rect.y < 0 or rect.x + rect.w > image.width or rect.y + rect.h > image.height:
        raise BoundsError(f"rect {rect} outside image")
    crop = image.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
    if rect.w == target_side and rect.h == target_side:
        return crop.copy()
    src = crop.astype(np.float64)
    js = (np.arange(target_side) + 0.5) * rect.w / target_side - 0.5
    iis = (np.arange(target_side) + 0.5) * rect.h / target_side - 0.5
    js = np.clip(js, 0, rect.w - 1)
    iis = np.clip(iis, 0, rect.h - 1)
    x0 = np.floor(js).astype(int)
    y0 = np.floor(iis).astype(int)
    fx = js - x0
    fy = iis - y0
    x1 = np.minimum(x0 + 1, rect.w - 1)
    y1 = np.minimum(y0 + 1, rect.h - 1)
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    out = top * (1 - fy)[:, None] + bot * fy[:, None]
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def test_extract_matches_per_call_maps_bytewise():
    # random rects scaled up and down, square and not, each size twice so
    # the second call reads the cached maps
    rng = np.random.default_rng(29)
    img = GrayImage(rng.integers(0, 256, (90, 90), dtype=np.uint8))
    for _ in range(300):
        side = int(rng.integers(1, 30))
        w, h = (int(v) for v in rng.integers(1, 60, 2))
        for _ in range(2):
            r = Rect(int(rng.integers(0, 91 - w)), int(rng.integers(0, 91 - h)), w, h)
            got = extract_and_rescale(img, r, side)
            want = extract_and_rescale_per_call(img, r, side)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (r, side)


@settings(max_examples=60, deadline=None)
@given(
    img_w=st.integers(1, 40),
    img_h=st.integers(1, 40),
    w=st.integers(1, 40),
    h=st.integers(1, 40),
    x=st.integers(0, 40),
    y=st.integers(0, 40),
    side=st.integers(1, 48),
    saturated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(img_w=9, img_h=30, w=1, h=23, x=4, y=3, side=7, saturated=False, seed=1)  # a 1xN crop
@example(img_w=30, img_h=9, w=23, h=1, x=3, y=4, side=7, saturated=False, seed=2)  # an Nx1 crop
@example(img_w=12, img_h=10, w=9, h=7, x=1, y=2, side=1, saturated=False, seed=3)  # one pixel
@example(img_w=12, img_h=10, w=5, h=4, x=2, y=2, side=31, saturated=True, seed=4)  # upsampling
@example(img_w=12, img_h=10, w=5, h=6, x=7, y=4, side=9, saturated=True, seed=5)  # a corner
def test_extract_matches_per_call_maps_property(img_w, img_h, w, h, x, y, side, saturated, seed):
    # clamping the rect into the image puts many rects on its border; each
    # rect is resampled twice, the second time from the cached maps.
    # Saturated images (0 and 255 only) blend right up to the ends of 0..255.
    w, h = min(w, img_w), min(h, img_h)
    r = Rect(min(x, img_w - w), min(y, img_h - h), w, h)
    px = np.random.default_rng(seed).integers(0, 256, (img_h, img_w))
    img = GrayImage(np.where(px < 128, 0, 255) if saturated else px)
    want = extract_and_rescale_per_call(img, r, side)
    for _ in range(2):
        got = extract_and_rescale(img, r, side)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (r, side)


def test_extract_cached_maps_are_read_only():
    img = GrayImage(np.arange(400, dtype=np.uint8).reshape(20, 20))
    extract_and_rescale(img, Rect(0, 0, 17, 11), 5)
    maps = samples._resample_maps(17, 11, 5)
    assert len(maps) == 6
    for a in maps:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("side", [0, -3, 2.5, True, "13", None])
def test_extract_rejects_bad_target_side(side):
    img = GrayImage(np.zeros((20, 20), dtype=np.uint8))
    with pytest.raises(ValueError, match="target_side"):
        extract_and_rescale(img, Rect(0, 0, 10, 10), side)


def test_extract_accepts_numpy_int_target_side():
    img = GrayImage(np.arange(400, dtype=np.uint8).reshape(20, 20))
    r = Rect(1, 2, 15, 9)
    want = extract_and_rescale(img, r, 7)
    assert extract_and_rescale(img, r, np.int64(7)).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(x=st.integers(-3, 12), y=st.integers(-3, 11), w=st.integers(1, 12), h=st.integers(1, 11))
@example(x=-1, y=0, w=5, h=5)  # straddles the left edge
@example(x=0, y=-1, w=5, h=5)  # the top edge
@example(x=6, y=0, w=5, h=5)  # the right edge
@example(x=0, y=5, w=5, h=5)  # the bottom edge
@example(x=0, y=0, w=10, h=9)  # the whole image
def test_extract_raises_exactly_when_rect_leaves_image(x, y, w, h):
    img = GrayImage(np.arange(90, dtype=np.uint8).reshape(9, 10))  # 10 wide, 9 tall
    r = Rect(x, y, w, h)
    if x < 0 or y < 0 or x + w > 10 or y + h > 9:
        with pytest.raises(BoundsError):
            extract_and_rescale(img, r, 5)
    else:
        assert extract_and_rescale(img, r, 5).shape == (5, 5)
