"""Rebuild the pinned detector cascades in perfbench/data, byte for byte.

Run from the repository root:

    python3 perfbench/build_cascades.py

Training is fully seeded, so with the same fidpoint and numpy the files
come out identical; each file's SHA-256 is printed in the form
``perfbench/pins.json`` pins it.  The ``hierarchy`` group (face, feature
and seven point cascades) takes about 20 s, ``fullframe`` (the
14-stage ALL cascade) a few minutes, on a 2-core x86 box.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fidpoint.boost import StrongClassifier, WeakClassifier  # noqa: E402
from fidpoint.cascade import Cascade, Stage, TrainParams, serialize, train_cascade  # noqa: E402
from fidpoint.geom import Point2  # noqa: E402
from fidpoint.haar import FeatureKind, FeatureSet, HaarFeature  # noqa: E402
from fidpoint.raster import GrayImage, Rect, build_tables  # noqa: E402
from fidpoint.samples import DEFAULT_SCHEME, Markup, extract_and_rescale, generate_negatives  # noqa: E402

import scenes  # noqa: E402

DATA = HERE / "data"
POINT_WINDOW = 13


def face_cascade() -> Cascade:
    """Hand-set scale band on the centre-surround response of the face blob.

    The response grows with window size on this pattern, so accepting
    the band (3e3, 6.5e3) pins the detection to roughly 56-81 px windows
    centred on the blob.
    """
    f = HaarFeature(FeatureKind.CENTER_SURROUND, 1, 1, 6, 6)
    sc = StrongClassifier(
        rounds=[
            (1.0, WeakClassifier(3000.0, -1, feature=f)),
            (1.0, WeakClassifier(6500.0, 1, feature=f)),
        ],
        threshold=1.9,
    )
    return Cascade(20, 20, FeatureSet.BASIC, [Stage(sc)])


def _train(positives, negatives, params: TrainParams) -> Cascade:
    pos = [build_tables(GrayImage(p), want_rotated=params.mode is FeatureSet.ALL) for p in positives]
    neg = (build_tables(GrayImage(p), want_rotated=params.mode is FeatureSet.ALL) for p in negatives)
    return train_cascade(pos, neg, params)


def _crop(img: GrayImage, cx: int, cy: int, side: int, target: int) -> np.ndarray:
    half = (side - 1) // 2
    return extract_and_rescale(img, Rect(cx - half, cy - half, side, side), target)


def _abs(offset):
    return scenes.CANVAS_CENTER[0] + offset[0], scenes.CANVAS_CENTER[1] + offset[1]


def feature_cascade(seed: int = 88) -> Cascade:
    """One detector for the four dark feature discs.

    Positives are disc-centred crops; negatives are crops over the whole
    face at many scales, excluding only near-disc placements.
    """
    rng = np.random.default_rng(seed)
    anchors = [_abs(o) for o in scenes.FEATURE_OFFSETS.values()]
    positives, negatives = [], []
    for i in range(12):
        img = GrayImage(scenes.face_image(52000 + i))
        for ax, ay in anchors:
            for half in (9, 11):
                jx = ax + int(rng.integers(-1, 2))
                jy = ay + int(rng.integers(-1, 2))
                positives.append(
                    extract_and_rescale(img, Rect(jx - half, jy - half, 2 * half, 2 * half), 12)
                )
        drawn = 0
        while drawn < 80:
            side = int(rng.integers(14, 45))
            x = int(rng.integers(35, 185 - side))
            y = int(rng.integers(35, 185 - side))
            cx, cy = x + side / 2, y + side / 2
            if any(abs(cx - ax) < 7 and abs(cy - ay) < 7 and side < 30 for ax, ay in anchors):
                continue
            negatives.append(extract_and_rescale(img, Rect(x, y, side, side), 12))
            drawn += 1
    params = TrainParams(nstages=5, npos=len(positives), nneg=350, minhitrate=0.98,
                         maxfalsealarm=0.15, max_weak_per_stage=25, seed=seed)
    return _train(positives, negatives, params)


def point_cascade(ptype: str, seed: int) -> Cascade:
    """Three-scale positives; ring, other-glyph, wrong-scale and context negatives."""
    rng = np.random.default_rng(seed)
    name = next(n for n in scenes.POINT_OFFSETS
                if n.startswith("left") and scenes.point_type(n) == ptype)
    tx, ty = _abs(scenes.POINT_OFFSETS[name])
    others = [_abs(o) for n, o in scenes.POINT_OFFSETS.items() if n != name]
    markup_points = [Point2(0.0, 0.0)] * DEFAULT_SCHEME.size
    for n, o in scenes.POINT_OFFSETS.items():
        x, y = _abs(o)
        markup_points[DEFAULT_SCHEME.id_of(n)] = Point2(float(x), float(y))
    markup = Markup("face.pgm", markup_points)
    size = scenes.CANVAS_SIDE
    positives, negatives = [], []
    for i in range(12):
        px = scenes.face_image(41000 + 31 * seed + i)
        if i >= 8:  # gently rotated variants about the point
            px = scenes.rotate(px, tx, ty, float(rng.uniform(-math.radians(16), math.radians(16))))
        img = GrayImage(px)
        positives.extend(_crop(img, tx, ty, side, POINT_WINDOW) for side in (11, 13, 15))
        negatives.extend(
            extract_and_rescale(img, r, POINT_WINDOW)
            for r in generate_negatives(img, markup, DEFAULT_SCHEME.id_of(name), 8, 8,
                                        POINT_WINDOW, rng_seed=seed * 1000 + i)
        )
        for ox, oy in others:
            negatives.extend(_crop(img, ox, oy, side, POINT_WINDOW) for side in (13, 17, 21))
        negatives.extend(_crop(img, tx, ty, side, POINT_WINDOW) for side in (17, 23, 31))
        drawn = 0
        while drawn < 60:
            side = int(rng.integers(13, 38))
            x = int(rng.integers(max(0, tx - 45), min(size - side, tx + 45)))
            y = int(rng.integers(max(0, ty - 45), min(size - side, ty + 45)))
            if side <= 16 and abs(x + side // 2 - tx) <= 3 and abs(y + side // 2 - ty) <= 3:
                continue
            negatives.append(extract_and_rescale(img, Rect(x, y, side, side), POINT_WINDOW))
            drawn += 1
    params = TrainParams(nstages=5, npos=len(positives), nneg=380, minhitrate=0.98,
                         maxfalsealarm=0.2, max_weak_per_stage=25, seed=seed)
    return _train(positives, negatives, params)


def corner_positives(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Window-sized views of planted corners over fresh clutter, varied contrast and size."""
    out = []
    while len(out) < count:
        px = scenes.clutter(rng, 64, 64, shapes=6)
        side = int(rng.choice(scenes.OBJECT_SIDES))
        x = int(rng.integers(4, 60 - side))
        y = int(rng.integers(4, 60 - side))
        scenes.plant(px, x, y, side, float(rng.uniform(30, 65)))
        img = GrayImage(scenes.to_u8(px))
        out.append(extract_and_rescale(img, Rect(x, y, side, side), scenes.CORNER_SIDE))
    return out


def clutter_negatives(rng: np.random.Generator, images: int = 24):
    """Unbounded crops of object-free clutter with distractors, at the scan sizes."""
    backgrounds = []
    for _ in range(images):
        px = scenes.clutter(rng, scenes.FRAME_W, scenes.FRAME_H, shapes=60)
        scenes.plant_distractors(rng, px, 40)
        backgrounds.append(GrayImage(scenes.to_u8(px)))
    sides = sorted({round(13 * 1.1**k) for k in range(12)})
    while True:
        img = backgrounds[int(rng.integers(0, images))]
        side = int(rng.choice(sides))
        x = int(rng.integers(0, img.width - side))
        y = int(rng.integers(0, img.height - side))
        yield extract_and_rescale(img, Rect(x, y, side, side), scenes.CORNER_SIDE)


def fullframe_cascade(seed: int = 7) -> Cascade:
    """Cascade over the ALL (45 degree) set for clutter scenes.

    It asks for the paper's 15 stages; training stops at 14 stages and 44
    weak classifiers, because the last stages empty the negative pool.
    """
    rng = np.random.default_rng(seed)
    positives = corner_positives(rng, 300)
    params = TrainParams(nstages=15, npos=300, nneg=400, minhitrate=0.995,
                         maxfalsealarm=0.5, mode=FeatureSet.ALL, max_weak_per_stage=40,
                         seed=seed)
    return _train(positives, clutter_negatives(rng), params)


def hierarchy_cascades() -> dict[str, Cascade]:
    out = {"face": face_cascade(), "feature": feature_cascade()}
    for i, ptype in enumerate(scenes.POINT_TYPES):
        out[f"point_{ptype}"] = point_cascade(ptype, seed=100 + i)
    return out


BUILDS = (hierarchy_cascades, lambda: {"fullframe": fullframe_cascade()})


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for build in BUILDS:
        for name, cascade in build().items():
            data = serialize(cascade)
            (DATA / f"{name}.cascade").write_bytes(data)
            nweak = sum(len(s.strong.rounds) for s in cascade.stages)
            print(f'"{name}": "{hashlib.sha256(data).hexdigest()}",'
                  f"  # {len(cascade.stages)} stages, {nweak} weak", flush=True)


if __name__ == "__main__":
    main()
