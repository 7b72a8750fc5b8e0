import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fidpoint.geom import (
    EyeCorner,
    InsufficientPointsError,
    Point2,
    TiltMode,
    VerticalLineError,
    estimate_tilt,
    fit_line,
    infer_fourth_corner,
    interocular_success,
    rotate_image,
    rotate_point,
    svd_lls,
)
from fidpoint.raster import GrayImage


def normal_equations(a, b):
    """Ridge-free normal-equations oracle for full-rank systems."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.solve(a.T @ a, a.T @ b)


# --- svd_lls -----------------------------------------------------------------

def test_svd_lls_exact_system():
    x = svd_lls(np.eye(2), np.array([3.0, 4.0]))
    assert x == pytest.approx([3.0, 4.0], abs=1e-12)


def test_svd_lls_rank_deficient_minimum_norm():
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    b = np.array([2.0, 4.0, 6.0])
    x = svd_lls(a, b)
    # residual matches any least-squares solution; x is the minimum-norm one
    assert np.linalg.norm(a @ x - b) == pytest.approx(0.0, abs=1e-10)
    assert x == pytest.approx([1.0, 1.0], abs=1e-10)


def test_svd_lls_matches_normal_equations():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        a = rng.normal(0, 5, (n, 2))
        if np.linalg.matrix_rank(a) < 2:
            continue
        b = rng.normal(0, 5, n)
        got = svd_lls(a, b)
        want = normal_equations(a, b)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_svd_lls_needs_two_rows():
    with pytest.raises(InsufficientPointsError):
        svd_lls(np.array([[1.0, 2.0]]), np.array([1.0]))


# --- fit_line ------------------------------------------------------------------

def test_fit_line_collinear():
    fit = fit_line([Point2(0, 1), Point2(1, 2), Point2(2, 3)])
    assert fit.m == pytest.approx(1.0, abs=1e-10)
    assert fit.c == pytest.approx(1.0, abs=1e-10)
    assert fit.residual == pytest.approx(0.0, abs=1e-10)


def test_fit_line_horizontal():
    fit = fit_line([Point2(0, 5), Point2(10, 5)])
    assert fit.m == pytest.approx(0.0, abs=1e-12)
    assert fit.c == pytest.approx(5.0, abs=1e-12)


def test_fit_line_slope_fifth():
    fit = fit_line([Point2(10, 10), Point2(20, 12), Point2(30, 14), Point2(40, 16)])
    assert fit.m == pytest.approx(0.2, abs=1e-10)
    assert fit.c == pytest.approx(8.0, abs=1e-10)


def test_fit_line_vertical_error():
    with pytest.raises(VerticalLineError):
        fit_line([Point2(4, 0), Point2(4, 9), Point2(4, 3)])


# --- estimate_tilt ---------------------------------------------------------------

def test_tilt_level_corners():
    assert estimate_tilt([Point2(0, 7), Point2(5, 7), Point2(11, 7)]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_tilt_slope_fifth():
    pts = [Point2(10, 10), Point2(20, 12), Point2(30, 14), Point2(40, 16)]
    assert estimate_tilt(pts) == pytest.approx(math.atan(0.2), abs=1e-12)
    assert estimate_tilt(pts) == pytest.approx(0.19740, abs=1e-5)


def test_tilt_mirrored_negates():
    rng = np.random.default_rng(5)
    for _ in range(30):
        pts = [Point2(float(x), float(rng.normal(0, 3))) for x in (0, 4, 9, 15)]
        alpha = estimate_tilt(pts)
        mirrored = [Point2(-p.x, p.y) for p in pts]
        assert estimate_tilt(mirrored) == pytest.approx(-alpha, abs=1e-12)


def test_tilt_equivariant_under_rotation():
    # y-on-x regression commutes with rotation exactly on collinear sets
    # (for scattered sets the residual direction itself rotates, so the
    # property cannot hold); the tilt fixtures are always collinear.
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = float(rng.uniform(-0.3, 0.3))
        c = float(rng.normal(0, 10))
        pts = [Point2(float(x), m * x + c) for x in (0.0, 7.0, 13.0, 20.0)]
        alpha = estimate_tilt(pts)
        phi = float(rng.uniform(-math.pi / 5, math.pi / 5))
        if abs(alpha + phi) > math.radians(44):
            continue
        center = Point2(float(rng.normal(0, 10)), float(rng.normal(0, 10)))
        rotated = [rotate_point(p, center, phi) for p in pts]
        assert estimate_tilt(rotated) == pytest.approx(alpha + phi, abs=1e-9)


# --- rotate_point -----------------------------------------------------------------

def test_rotate_point_identity():
    p = rotate_point(Point2(3.5, -2.0), Point2(1.0, 1.0), 0.0)
    assert (p.x, p.y) == (3.5, -2.0)


def test_rotate_point_quarter_turn():
    p = rotate_point(Point2(1, 0), Point2(0, 0), math.pi / 2)
    assert p.x == pytest.approx(0.0, abs=1e-12)
    assert p.y == pytest.approx(1.0, abs=1e-12)


def test_rotate_point_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = Point2(float(rng.normal(0, 20)), float(rng.normal(0, 20)))
        c = Point2(float(rng.normal(0, 5)), float(rng.normal(0, 5)))
        a = float(rng.uniform(-math.pi, math.pi))
        q = rotate_point(rotate_point(p, c, a), c, -a)
        assert q.x == pytest.approx(p.x, abs=1e-12)
        assert q.y == pytest.approx(p.y, abs=1e-12)


def test_rotate_point_isometry():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p1 = Point2(float(rng.normal(0, 9)), float(rng.normal(0, 9)))
        p2 = Point2(float(rng.normal(0, 9)), float(rng.normal(0, 9)))
        c = Point2(0.0, 3.0)
        a = float(rng.uniform(-2, 2))
        d0 = math.hypot(p1.x - p2.x, p1.y - p2.y)
        q1, q2 = rotate_point(p1, c, a), rotate_point(p2, c, a)
        d1 = math.hypot(q1.x - q2.x, q1.y - q2.y)
        assert d1 == pytest.approx(d0, abs=1e-12 * max(1.0, d0))


# --- rotate_image -----------------------------------------------------------------

def test_rotate_image_zero_angle_identity():
    rng = np.random.default_rng(17)
    img = GrayImage(rng.integers(0, 256, (15, 21), dtype=np.uint8))
    out = rotate_image(img, Point2(10.0, 7.0), 0.0)
    assert out == img


@pytest.mark.parametrize(
    "center, alpha, bad",
    [
        (Point2(3.5, 2.5), math.nan, "nan"),
        (Point2(3.5, 2.5), math.inf, "inf"),
        (Point2(3.5, 2.5), -math.inf, "-inf"),
        (Point2(math.nan, 2.5), 0.3, "nan"),
    ],
)
def test_rotate_image_rejects_non_finite(center, alpha, bad):
    # a typed error naming the value, not an IndexError from a NaN index
    img = GrayImage(np.zeros((6, 8), dtype=np.uint8))
    with pytest.raises(ValueError, match=bad):
        rotate_image(img, center, alpha)


def test_rotate_image_uniform_stays_uniform_inside():
    img = GrayImage(np.full((31, 31), 200, dtype=np.uint8))
    out = rotate_image(img, Point2(15.0, 15.0), 0.4)
    ys, xs = np.mgrid[0:31, 0:31]
    inside = (xs - 15.0) ** 2 + (ys - 15.0) ** 2 <= 13.0**2
    assert (out.pixels[inside] == 200).all()


def test_rotate_image_blobs_follow_points():
    rng = np.random.default_rng(19)
    size = 61
    pts = [Point2(18.0, 22.0), Point2(40.0, 19.0), Point2(30.0, 44.0)]
    px = np.zeros((size, size), dtype=np.uint8)
    for p in pts:
        px[int(p.y) - 1 : int(p.y) + 2, int(p.x) - 1 : int(p.x) + 2] = 255
    img = GrayImage(px)
    center = Point2((size - 1) / 2, (size - 1) / 2)
    alpha = math.radians(20)
    out = rotate_image(img, center, alpha)
    for p in pts:
        q = rotate_point(p, center, alpha)
        win = out.pixels[int(q.y) - 3 : int(q.y) + 4, int(q.x) - 3 : int(q.x) + 4]
        # the rotated blob is a plateau of maxima; its centroid tracks q
        peak_mask = win == win.max()
        my, mx = np.nonzero(peak_mask)
        peak = Point2(int(q.x) - 3 + mx.mean(), int(q.y) - 3 + my.mean())
        assert math.hypot(peak.x - q.x, peak.y - q.y) <= 1.0 + 1e-9


def scalar_rotate(img, center, alpha):
    """Per-pixel bilinear inverse mapping; neighbours outside the image add nothing."""
    h, w = img.pixels.shape
    ca, sa = math.cos(-alpha), math.sin(-alpha)
    out = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            dx, dy = float(x) - center.x, float(y) - center.y
            sx = center.x + dx * ca - dy * sa
            sy = center.y + dx * sa + dy * ca
            x0, y0 = math.floor(sx), math.floor(sy)
            fx, fy = sx - x0, sy - y0
            acc = 0.0
            for oy, ox, wgt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                                (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
                px, py = x0 + ox, y0 + oy
                if 0 <= px < w and 0 <= py < h:
                    acc += wgt * float(img.pixels[py, px])
            out[y, x] = min(255, max(0, math.floor(acc + 0.5)))
    return out


@settings(max_examples=80, deadline=None)
@given(
    height=st.integers(1, 12),
    width=st.integers(1, 12),
    cx=st.floats(-20, 32, allow_nan=False),
    cy=st.floats(-20, 32, allow_nan=False),
    alpha=st.floats(-7, 7, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
@example(height=1, width=1, cx=0.0, cy=0.0, alpha=0.3, seed=0)
@example(height=1, width=9, cx=4.0, cy=0.0, alpha=math.pi / 2, seed=1)
@example(height=9, width=1, cx=0.0, cy=4.5, alpha=-1.0, seed=2)
@example(height=5, width=7, cx=-15.0, cy=25.0, alpha=0.7, seed=3)
def test_rotate_image_matches_scalar_bilinear(height, width, cx, cy, alpha, seed):
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))
    center = Point2(cx, cy)
    assert (rotate_image(img, center, alpha).pixels == scalar_rotate(img, center, alpha)).all()


def mgrid_rotate(img, center, alpha):
    """rotate_image as first written, on full-size mgrid coordinate grids."""
    h, w = img.pixels.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    ca, sa = math.cos(-alpha), math.sin(-alpha)
    dx = xs - center.x
    dy = ys - center.y
    sx = center.x + dx * ca - dy * sa
    sy = center.y + dx * sa + dy * ca
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    # a zero border makes every out-of-image neighbour a read of 0
    src = np.zeros((h + 2, w + 2))
    src[1:-1, 1:-1] = img.pixels
    flat = src.ravel()
    cols = [np.clip(x0 + d, -1, w).astype(np.intp) + 1 for d in (0, 1)]
    rows = [(np.clip(y0 + d, -1, h).astype(np.intp) + 1) * (w + 2) for d in (0, 1)]
    out = (1 - fx) * (1 - fy) * flat[rows[0] + cols[0]]
    out += fx * (1 - fy) * flat[rows[0] + cols[1]]
    out += (1 - fx) * fy * flat[rows[1] + cols[0]]
    out += fx * fy * flat[rows[1] + cols[1]]
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("alpha", [0.26, -0.26, 1e-9, math.pi / 2, -3.0])
@pytest.mark.parametrize("center", [Point2(159.5, 119.5), Point2(41.25, 200.0)])
def test_rotate_image_full_frame_matches_mgrid_formula(center, alpha):
    # the hierarchy's frame size, where the scalar oracle above is too slow
    rng = np.random.default_rng(83)
    img = GrayImage(rng.integers(0, 256, (240, 320), dtype=np.uint8))
    assert (rotate_image(img, center, alpha).pixels == mgrid_rotate(img, center, alpha)).all()


# --- fourth corner -----------------------------------------------------------------

def test_fourth_corner_axis_aligned():
    known = {
        EyeCorner.LEFT_OUTER: Point2(10, 20),
        EyeCorner.LEFT_INNER: Point2(20, 20),
        EyeCorner.RIGHT_INNER: Point2(30, 20),
    }
    p = infer_fourth_corner(known, EyeCorner.RIGHT_OUTER)
    assert (p.x, p.y) == (40, 20)


def test_fourth_corner_vector_addition():
    known = {
        EyeCorner.LEFT_OUTER: Point2(0, 0),
        EyeCorner.LEFT_INNER: Point2(10, 2),
        EyeCorner.RIGHT_INNER: Point2(30, 21),
    }
    p = infer_fourth_corner(known, EyeCorner.RIGHT_OUTER)
    assert (p.x, p.y) == (40, 23)


def test_fourth_corner_consistent_roundtrip():
    corners = {
        EyeCorner.LEFT_OUTER: Point2(5.0, 11.0),
        EyeCorner.LEFT_INNER: Point2(17.0, 12.5),
        EyeCorner.RIGHT_INNER: Point2(29.0, 14.0),
        EyeCorner.RIGHT_OUTER: Point2(41.0, 15.5),
    }
    for missing in EyeCorner:
        known = {k: v for k, v in corners.items() if k is not missing}
        p = infer_fourth_corner(known, missing)
        assert p.x == pytest.approx(corners[missing].x, abs=1e-12)
        assert p.y == pytest.approx(corners[missing].y, abs=1e-12)


def test_fourth_corner_invalid_combination():
    with pytest.raises(ValueError):
        infer_fourth_corner(
            {EyeCorner.LEFT_OUTER: Point2(0, 0), EyeCorner.LEFT_INNER: Point2(1, 0)},
            EyeCorner.RIGHT_OUTER,
        )


# --- inter-ocular metric --------------------------------------------------------------

LEFT_EYE = Point2(0.0, 0.0)
RIGHT_EYE = Point2(100.0, 0.0)


def test_success_exact_match():
    p = Point2(31.0, 9.0)
    assert interocular_success(p, p, LEFT_EYE, RIGHT_EYE, 0.01)


def test_success_boundary_inclusive():
    assert interocular_success(Point2(10.0, 0.0), Point2(0.0, 0.0), LEFT_EYE, RIGHT_EYE)


def test_failure_past_boundary():
    assert not interocular_success(Point2(10.5, 0.0), Point2(0.0, 0.0), LEFT_EYE, RIGHT_EYE)


def test_metric_similarity_invariant():
    rng = np.random.default_rng(23)
    for _ in range(50):
        det = Point2(float(rng.normal(0, 5)), float(rng.normal(0, 5)))
        tru = Point2(float(rng.normal(0, 5)), float(rng.normal(0, 5)))
        before = interocular_success(det, tru, LEFT_EYE, RIGHT_EYE)
        s = float(rng.uniform(0.3, 4.0))
        phi = float(rng.uniform(-3, 3))
        t = Point2(float(rng.normal(0, 30)), float(rng.normal(0, 30)))
        ca, sa = math.cos(phi), math.sin(phi)

        def xf(p):
            return Point2(
                t.x + s * (p.x * ca - p.y * sa), t.y + s * (p.x * sa + p.y * ca)
            )

        after = interocular_success(xf(det), xf(tru), xf(LEFT_EYE), xf(RIGHT_EYE))
        assert after == before


def test_metric_undefined_for_coincident_eyes():
    with pytest.raises(ValueError):
        interocular_success(Point2(0, 0), Point2(0, 0), LEFT_EYE, LEFT_EYE)


def test_tilt_mode_correction():
    assert TiltMode.NONE.correction(0.5) == 0.0
    assert TiltMode.FULL.correction(0.5) == 0.5
    assert TiltMode.HALF.correction(0.5) == 0.25
