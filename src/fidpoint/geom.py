"""Line fitting, tilt estimation, rotation, and the inter-ocular metric.

Angles follow image coordinates (y grows downward): positive alpha
rotates the +x axis toward +y, i.e. clockwise on screen.  Tilt is the
angle of the least-squares line through the eye corners; correcting a
tilt of alpha means rotating image and points by -alpha about the image
centre.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .raster import GrayImage


class VerticalLineError(ValueError):
    """All points share one x coordinate; the slope is undefined."""


class InsufficientPointsError(ValueError):
    pass


class TiltMode(enum.Enum):
    NONE = "none"
    FULL = "full"
    HALF = "half"

    def correction(self, alpha: float) -> float:
        """Angle actually corrected for an estimated tilt ``alpha``."""
        if self is TiltMode.NONE:
            return 0.0
        if self is TiltMode.FULL:
            return alpha
        return alpha / 2.0


@dataclass(frozen=True)
class Point2:
    x: float
    y: float


@dataclass(frozen=True)
class LineFit:
    m: float
    c: float
    residual: float  # root-mean-square in y


@dataclass
class TiltState:
    alpha: float = 0.0
    mode: TiltMode = TiltMode.NONE


def svd_lls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares via the SVD pseudoinverse.

    Singular values below 1e-10 times the largest are treated as zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"need an n x 2 system, got {a.shape} and {b.shape}")
    if a.shape[0] < 2:
        raise InsufficientPointsError("need at least two rows")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0:
        return np.zeros(2)
    inv = np.where(s >= 1e-10 * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return vt.T @ (inv * (u.T @ b))


def fit_line(points: list[Point2]) -> LineFit:
    """Least-squares y = m*x + c through two or more points.

    The system is built from design rows (x, 1) against targets y;
    this is equivalent to normalising the line equation by its
    intercept wherever that intercept is nonzero, but stays regular for
    lines through the origin.
    """
    if len(points) < 2:
        raise InsufficientPointsError("need at least two points")
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    if np.ptp(xs) == 0:
        raise VerticalLineError(f"all points at x = {xs[0]}")
    a = np.column_stack([xs, np.ones_like(xs)])
    m, c = svd_lls(a, ys)
    resid = ys - (m * xs + c)
    return LineFit(float(m), float(c), float(np.sqrt(np.mean(resid * resid))))


def estimate_tilt(eye_corners: list[Point2]) -> float:
    """Tilt angle alpha = atan(m) of the best-fit eye-corner line."""
    return math.atan(fit_line(eye_corners).m)


def rotate_point(p: Point2, center: Point2, alpha: float) -> Point2:
    """Rotate ``p`` about ``center`` by ``alpha`` (clockwise on screen)."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    dx, dy = p.x - center.x, p.y - center.y
    return Point2(center.x + dx * ca - dy * sa, center.y + dx * sa + dy * ca)


def rotate_image(img: GrayImage, center: Point2, alpha: float) -> GrayImage:
    """Rotate image content by ``alpha`` about ``center``.

    A source point q appears at rotate_point(q, center, alpha) in the
    output; destination pixels are bilinearly sampled from the inverse
    mapping, with out-of-image samples black.  Output size equals input
    size, so corner data may be discarded.  Raises ``ValueError`` for a
    non-finite angle or centre.

    Each output pixel is ((gx*gy)*p00 + (fx*gy)*p01) + (gx*fy)*p10 +
    (fx*fy)*p11, plus 0.5, floored and clipped, in float64.  The maps are
    worked in place in a few (h, w) buffers (the fractions overwrite the
    source coordinates, their complements the floored ones), and the four
    neighbours are read from a zero-bordered ``uint8`` copy of the image:
    a byte converts to float64 exactly, so every product, and the image,
    is the one a float64 copy gives.
    """
    if not all(map(math.isfinite, (alpha, center.x, center.y))):
        raise ValueError(f"cannot rotate by {alpha} about ({center.x}, {center.y})")
    h, w = img.pixels.shape
    ca, sa = math.cos(-alpha), math.sin(-alpha)
    # a row of x offsets and a column of y offsets broadcast to the full maps
    dx = np.arange(w, dtype=np.float64) - center.x
    dy = np.arange(h, dtype=np.float64)[:, None] - center.y
    sx = np.subtract(center.x + dx * ca, dy * sa)
    sy = np.add(center.y + dx * sa, dy * ca)
    x0, y0 = np.floor(sx), np.floor(sy)
    fx, fy = np.subtract(sx, x0, out=sx), np.subtract(sy, y0, out=sy)
    # a two-pixel zero border: with the top-left neighbour clipped to [-2, extent]
    # every out-of-image neighbour reads 0; the other three read offset views
    stride = w + 4
    src = np.zeros((h + 4, stride), dtype=np.uint8)
    src[2:-2, 2:-2] = img.pixels
    flat = src.ravel()
    np.clip(y0, -2, h, out=y0)
    np.clip(x0, -2, w, out=x0)
    y0 += 2
    x0 += 2
    at = y0.astype(np.intp)
    at *= stride
    at += x0.astype(np.intp)
    gx, gy = np.subtract(1, fx, out=x0), np.subtract(1, fy, out=y0)
    out = np.multiply(gx, gy)
    out *= flat[at]
    term = np.multiply(fx, gy)
    term *= flat[1:][at]
    out += term
    np.multiply(gx, fy, out=term)
    term *= flat[stride:][at]
    out += term
    np.multiply(fx, fy, out=term)
    term *= flat[stride + 1 :][at]
    out += term
    out += 0.5
    return GrayImage(np.clip(np.floor(out, out=out), 0, 255, out=out).astype(np.uint8))


class EyeCorner(enum.Enum):
    """Eye corners from the viewer's perspective."""

    LEFT_OUTER = "left_outer"
    LEFT_INNER = "left_inner"
    RIGHT_INNER = "right_inner"
    RIGHT_OUTER = "right_outer"


# missing corner -> (the other corner of its eye, the sign of the eye vector from it)
_CORNER_PARTNER = {
    EyeCorner.LEFT_OUTER: (EyeCorner.LEFT_INNER, -1),
    EyeCorner.LEFT_INNER: (EyeCorner.LEFT_OUTER, 1),
    EyeCorner.RIGHT_INNER: (EyeCorner.RIGHT_OUTER, -1),
    EyeCorner.RIGHT_OUTER: (EyeCorner.RIGHT_INNER, 1),
}


def infer_fourth_corner(known: dict[EyeCorner, Point2], missing: EyeCorner) -> Point2:
    """Reconstruct a missing eye corner assuming equal eye width and alignment.

    ``known`` must contain the complete other eye plus the remaining
    corner of the incomplete eye.  The eye vector d runs from each
    eye's viewer-left corner to its viewer-right corner, identically
    for both eyes.
    """
    if missing in known or len(known) != 3:  # so the other eye is complete
        raise ValueError("exactly the three other corners must be supplied")
    if missing in (EyeCorner.RIGHT_INNER, EyeCorner.RIGHT_OUTER):
        a, b = known[EyeCorner.LEFT_OUTER], known[EyeCorner.LEFT_INNER]
    else:
        a, b = known[EyeCorner.RIGHT_INNER], known[EyeCorner.RIGHT_OUTER]
    dx, dy = b.x - a.x, b.y - a.y  # viewer-left corner -> viewer-right corner
    partner, sign = _CORNER_PARTNER[missing]
    base = known[partner]
    # base - d is base + (-d) bit for bit, so one expression serves both signs
    return Point2(base.x + sign * dx, base.y + sign * dy)


def interocular_success(
    detected: Point2,
    truth: Point2,
    left_eye_center: Point2,
    right_eye_center: Point2,
    fraction: float = 0.10,
) -> bool:
    """Success iff the error is within ``fraction`` of the inter-ocular distance.

    The boundary is inclusive: an error of exactly the allowed margin
    still counts as success.
    """
    iod = math.hypot(right_eye_center.x - left_eye_center.x,
                     right_eye_center.y - left_eye_center.y)
    if iod == 0:
        raise ValueError("eye centers coincide; metric undefined")
    err = math.hypot(detected.x - truth.x, detected.y - truth.y)
    return err <= fraction * iod
