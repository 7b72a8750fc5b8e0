"""Seeded inputs for the benchmark workloads.

Nothing here imports the test suite or calls fidpoint's own image
operations (rotation, resampling, drawing), so a change to the library
or to the tests cannot move the inputs the benchmark feeds the library.
The same seed always gives the same arrays.

Two kinds of scene are drawn:

* the glyph face: a bright disc in a dark ring marks the face, four
  dark discs mark the facial features and each of the fourteen points
  is one of seven high-contrast glyphs (right-side glyphs are mirrored);
* textured clutter: box-blurred noise with random bars and blocks, on
  which low-contrast "corner" objects (a bright arm, a dark arm and a
  bright dot) are planted at several sizes.
"""

from __future__ import annotations

import math

import numpy as np

FRAME_W, FRAME_H = 320, 240  # every benchmark frame

# --- glyph face ------------------------------------------------------------------

# offsets from the face centre, in pixels, for an upright face
FEATURE_OFFSETS = {
    "left_eye": (-20, -16),
    "right_eye": (20, -16),
    "nose": (-8, 16),
    "mouth": (4, 27),
}
POINT_OFFSETS = {
    "left_brow_outer": (-28, -30),
    "left_brow_inner": (-12, -30),
    "left_eye_outer": (-32, -16),
    "left_eye_inner": (-8, -16),
    "left_pupil": (-20, 0),
    "right_brow_inner": (12, -30),
    "right_brow_outer": (28, -30),
    "right_eye_inner": (8, -16),
    "right_eye_outer": (32, -16),
    "right_pupil": (20, 0),
    "left_nostril": (-20, 14),
    "right_nostril": (8, 14),
    "left_mouth_corner": (-11, 28),
    "right_mouth_corner": (19, 28),
}
POINT_TYPES = (
    "brow_outer", "brow_inner", "eye_outer", "eye_inner",
    "pupil", "nostril", "mouth_corner",
)
# glyph strokes as (dx0, dx1, dy0, dy1) boxes, inclusive, for left-side glyphs
_GLYPH_STROKES = {
    "brow_outer": ((-3, 2, -1, 0), (-3, -2, 1, 3)),
    "brow_inner": ((-2, 3, -1, 0), (2, 3, 1, 3)),
    "eye_outer": ((-3, -2, -1, 1), (-1, 0, -3, -2), (-1, 0, 2, 3)),
    "eye_inner": ((2, 3, -1, 1), (0, 1, -3, -2), (0, 1, 2, 3)),
    "nostril": ((-1, 1, -2, 2),),
    "mouth_corner": ((-3, 3, -1, 0), (-1, 0, -3, 3)),
}


def point_type(name: str) -> str:
    return name.split("_", 1)[1]


def _disc(px: np.ndarray, cx: int, cy: int, r: float, value: int) -> None:
    ys, xs = np.ogrid[0 : px.shape[0], 0 : px.shape[1]]
    px[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = value


def _glyph(px: np.ndarray, ptype: str, cx: int, cy: int, mirrored: bool) -> None:
    _disc(px, cx, cy, 5, 0)
    if ptype == "pupil":
        _disc(px, cx, cy, 2.4, 255)
        return
    for dx0, dx1, dy0, dy1 in _GLYPH_STROKES[ptype]:
        if mirrored:
            dx0, dx1 = -dx1, -dx0
        px[cy + dy0 : cy + dy1 + 1, cx + dx0 : cx + dx1 + 1] = 255


def draw_face(px: np.ndarray, cx: int, cy: int) -> None:
    """An upright glyph face centred at (cx, cy), drawn in place."""
    _disc(px, cx, cy, 11, 0)
    _disc(px, cx, cy, 6, 235)
    for dx, dy in FEATURE_OFFSETS.values():
        _disc(px, cx + dx, cy + dy, 7, 0)
    for name, (dx, dy) in POINT_OFFSETS.items():
        _glyph(px, point_type(name), cx + dx, cy + dy, name.startswith("right"))


CANVAS_SIDE = 220  # training canvas for the hierarchy cascades
CANVAS_CENTER = (110, 108)  # face centre on that canvas


def face_image(seed: int) -> np.ndarray:
    """The training canvas: dark noise with one upright face at CANVAS_CENTER."""
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 25, (CANVAS_SIDE, CANVAS_SIDE)).astype(np.int16)
    draw_face(px, *CANVAS_CENTER)
    return np.clip(px, 0, 255).astype(np.uint8)


def rotate(px: np.ndarray, cx: float, cy: float, angle: float) -> np.ndarray:
    """Content rotated by ``angle`` radians about (cx, cy), clockwise on screen.

    A source point q lands at (cx, cy) + R(angle) (q - (cx, cy)); each
    output pixel is bilinearly sampled from the inverse map, and samples
    outside the input read 0.
    """
    h, w = px.shape
    ys, xs = np.indices((h, w), dtype=np.float64)
    c, s = math.cos(angle), math.sin(angle)
    sx = cx + (xs - cx) * c + (ys - cy) * s
    sy = cy - (xs - cx) * s + (ys - cy) * c
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx, fy = sx - x0, sy - y0
    padded = np.zeros((h + 2, w + 2))
    padded[1:-1, 1:-1] = px
    xi = x0.astype(np.int64) + 1
    yi = y0.astype(np.int64) + 1

    def at(dy, dx):
        return padded[np.clip(yi + dy, 0, h + 1), np.clip(xi + dx, 0, w + 1)]

    out = (
        at(0, 0) * (1 - fx) * (1 - fy)
        + at(0, 1) * fx * (1 - fy)
        + at(1, 0) * (1 - fx) * fy
        + at(1, 1) * fx * fy
    )
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def _rotate_offset(dx: float, dy: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return dx * c - dy * s, dx * s + dy * c


FACE_RADIUS = 48  # every part of the face lies within this distance of its centre


def face_sequence(seed: list[int], count: int):
    """A video-like run of frames from the seed sequence ``seed``, one tilted face each.

    The face centre and tilt drift as seeded random walks; the tilt stays
    within +-12 degrees and the centre keeps the face at least 50 px from
    the frame border.  Only the face disc is rotated, so the frame has
    no black corners.  Returns (frames, truths) where each truth maps
    point names and the two eye-feature centres ("left_eye",
    "right_eye") to exact (x, y) positions in the frame.
    """
    rng = np.random.default_rng([*seed, 1])
    width, height = FRAME_W, FRAME_H
    limit = math.radians(12)
    tilt = float(rng.uniform(-limit, limit) * 0.6)
    cx = float(rng.uniform(110, width - 110))
    cy = float(rng.uniform(105, height - 105))
    ys, xs = np.indices((height, width))
    frames, truths = [], []
    for _ in range(count):
        tilt = float(np.clip(tilt + rng.normal(0, math.radians(2.5)), -limit, limit))
        cx = float(np.clip(cx + rng.normal(0, 6), 100, width - 100))
        cy = float(np.clip(cy + rng.normal(0, 4), 100, height - 100))
        ix, iy = int(round(cx)), int(round(cy))
        px = rng.integers(0, 25, (height, width)).astype(np.int16)
        face = px.copy()
        draw_face(face, ix, iy)
        disc = (xs - ix) ** 2 + (ys - iy) ** 2 <= FACE_RADIUS**2
        px[disc] = rotate(face, ix, iy, tilt)[disc]
        frames.append(px.astype(np.uint8))
        truth = {}
        for name, (dx, dy) in list(POINT_OFFSETS.items()) + [
            ("left_eye", FEATURE_OFFSETS["left_eye"]),
            ("right_eye", FEATURE_OFFSETS["right_eye"]),
        ]:
            rx, ry = _rotate_offset(dx, dy, tilt)
            truth[name] = (ix + rx, iy + ry)
        truths.append(truth)
    return frames, truths


# --- textured clutter and corner objects ---------------------------------------------

CORNER_SIDE = 13
CORNER_TEMPLATE = np.zeros((CORNER_SIDE, CORNER_SIDE))
CORNER_TEMPLATE[3:5, 1:9] = 1.0  # bright arm, left to right
CORNER_TEMPLATE[5:12, 5:7] = -1.0  # dark arm, downwards
CORNER_TEMPLATE[7:9, 8:10] = 1.0  # bright dot
# distractors: the corner with one of its three parts left out
_PARTS = (
    (np.s_[3:5, 1:9], 1.0),
    (np.s_[5:12, 5:7], -1.0),
    (np.s_[7:9, 8:10], 1.0),
)
OBJECT_SIDES = (13, 16, 19, 23, 27)


def clutter(rng: np.random.Generator, width: int, height: int, shapes: int = 40) -> np.ndarray:
    """Blurred mid-grey noise with random bars and blocks; float64 pixels."""
    base = rng.integers(0, 256, (height + 4, width + 4)).astype(np.float64)
    c = np.pad(np.cumsum(np.cumsum(base, 0), 1), ((1, 0), (1, 0)))
    px = (c[5:, 5:] - c[:-5, 5:] - c[5:, :-5] + c[:-5, :-5]) / 25.0
    px = 80.0 + (px - 127.5) * 1.2
    for _ in range(shapes):
        w = int(rng.integers(2, 30))
        h = int(rng.integers(2, 30))
        if rng.random() < 0.5:
            w, h = (w, 2) if rng.random() < 0.5 else (2, h)
        x = int(rng.integers(0, width - w))
        y = int(rng.integers(0, height - h))
        px[y : y + h, x : x + w] += float(rng.uniform(-45, 45))
    return px


def corner_patch(side: int, omit: int | None = None) -> np.ndarray:
    """The corner template resampled (nearest neighbour) to side x side.

    ``omit`` in 0..2 leaves out one part, which makes a distractor.
    """
    template = CORNER_TEMPLATE
    if omit is not None:
        template = np.zeros_like(CORNER_TEMPLATE)
        for k, (region, value) in enumerate(_PARTS):
            if k != omit:
                template[region] = value
    idx = ((np.arange(side) + 0.5) * CORNER_SIDE / side).astype(np.int64)
    return template[np.ix_(idx, idx)]


def plant(px: np.ndarray, x: int, y: int, side: int, amplitude: float,
          omit: int | None = None) -> None:
    px[y : y + side, x : x + side] += amplitude * corner_patch(side, omit)


def plant_distractors(rng: np.random.Generator, px: np.ndarray, count: int) -> None:
    """Partial corners anywhere in the image, at object sizes and contrasts."""
    height, width = px.shape
    for _ in range(count):
        side = int(rng.choice(OBJECT_SIDES))
        x = int(rng.integers(0, width - side))
        y = int(rng.integers(0, height - side))
        plant(px, x, y, side, float(rng.uniform(35, 60)), omit=int(rng.integers(0, 3)))


def to_u8(px: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(px + 0.5), 0, 255).astype(np.uint8)


def clutter_scene(seed: list[int], objects: int = 12):
    """Clutter and distractors with ``objects`` planted corners on top.

    Returns (pixels, [(x, y, side)]).
    """
    rng = np.random.default_rng([*seed, 2])
    width, height = FRAME_W, FRAME_H
    px = clutter(rng, width, height, shapes=60)
    plant_distractors(rng, px, 16)
    placed: list[tuple[int, int, int]] = []
    while len(placed) < objects:
        side = int(rng.choice(OBJECT_SIDES))
        x = int(rng.integers(2, width - side - 2))
        y = int(rng.integers(2, height - side - 2))
        if any(abs(x - ox) < max(side, os_) + 4 and abs(y - oy) < max(side, os_) + 4
               for ox, oy, os_ in placed):
            continue
        plant(px, x, y, side, float(rng.uniform(35, 60)))
        placed.append((x, y, side))
    return to_u8(px), placed
