"""The three benchmark workloads: ``hierarchy``, ``fullframe`` and ``train``.

Each workload draws its raw inputs (pixel arrays, crop rectangles) from
the seed in :meth:`generate`, hands them to fidpoint in :meth:`setup`
(loading the pinned cascades, wrapping images, building sample tables),
runs one operation at a time in :meth:`op` and scores the outputs of one
pass in :meth:`quality`.  Only :meth:`setup` counts as set-up time: it
is the only part that runs fidpoint code.  A pass is the workload's fixed list of inputs in
order; every pass must give the same outputs.  Library functions are
called through their module (``scan.scan_roi``, ``raster.build_tables``)
so the traced run can rebind them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fidpoint import cascade, raster, samples, scan
from fidpoint.geom import TiltMode, TiltState

import scenes
from layers import WindowCounter

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
PINS = json.loads((HERE / "pins.json").read_text())
DEFAULT_SEED = 0


class PinError(RuntimeError):
    """A checked-in input does not match its pinned digest."""


def load_cascade(name: str) -> cascade.Cascade:
    """A pinned cascade, refused unless its bytes match the pinned SHA-256."""
    data = (DATA / f"{name}.cascade").read_bytes()
    got = hashlib.sha256(data).hexdigest()
    if got != PINS["cascades"][name]:
        raise PinError(f"{name}.cascade has sha256 {got}, pinned {PINS['cascades'][name]}")
    return cascade.deserialize(data)


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


class Workload:
    name = ""
    unit = "op"
    tracer = None  # set by the traced run, for counts only the benchmark can see

    def generate(self, seed: int):
        """The seed's raw inputs; runs no fidpoint code and is not timed."""
        raise NotImplementedError

    def setup(self, inputs):
        """The workload's state from :meth:`generate`'s inputs; the timed set-up."""
        raise NotImplementedError

    def count(self, state) -> int:
        """Operations in one pass."""
        raise NotImplementedError

    def begin_pass(self, state) -> None:
        pass

    def op(self, state, i: int):
        """Run operation ``i`` of the pass; returns a JSON-able output."""
        raise NotImplementedError

    def quality(self, state, outputs: list) -> dict[str, float]:
        """Deterministic quality figures of one pass's outputs."""
        raise NotImplementedError


# --- hierarchy -----------------------------------------------------------------------

HIERARCHY_CASCADES = ("face", "feature") + tuple(f"point_{t}" for t in scenes.POINT_TYPES)
NOMINAL_FEATURE_SIZE = 21  # typical detected feature-disc rect side


def point_sub_roi(name: str) -> tuple[float, float, float]:
    """Search prior for a point: its planted offset from the parent disc."""
    fx, fy = scenes.FEATURE_OFFSETS[scan.POINT_PARENTS[name]]
    px, py = scenes.POINT_OFFSETS[name]
    half = 0.65 if scenes.point_type(name) == "mouth_corner" else 0.45
    return ((px - fx) / NOMINAL_FEATURE_SIZE, (py - fy) / NOMINAL_FEATURE_SIZE, half)


# The face search skips a 36 px border: tilt correction rotates the whole
# frame, and for tilts up to 15 degrees the black corners rotate_image
# leaves stay inside that border, where the dark-ring face stump would
# otherwise fire on them.
FACE_ROI = raster.Rect(36, 36, scenes.FRAME_W - 72, scenes.FRAME_H - 72)


def hierarchy_configs(cascades: dict[str, cascade.Cascade]):
    face_cfg = scan.DetectorConfig(
        cascade=cascades["face"], roi=FACE_ROI, scale_factor=1.2, min_neighbors=1,
        min_w=56, min_h=56, is_point=False,
    )
    feature_cfgs = {
        name: scan.DetectorConfig(cascade=cascades["feature"], scale_factor=1.2,
                                  min_neighbors=5, is_point=True)
        for name in scan.FEATURE_NAMES
    }
    point_cfgs = {
        name: scan.DetectorConfig(
            cascade=cascades[f"point_{scenes.point_type(name)}"],
            scale_factor=1.2,
            min_neighbors=1,
            on_right_side=name.startswith("right"),
            sub_roi=point_sub_roi(name),
        )
        for name in scan.DETECTED_POINT_NAMES
    }
    return face_cfg, feature_cfgs, point_cfgs


@dataclass
class HierarchyState:
    cascades: dict
    images: list
    truths: list
    mode: TiltMode = TiltMode.FULL
    configs: tuple = ()
    tilt: TiltState | None = None


def point_successes(outputs: list, truths: list) -> tuple[int, int]:
    """(points within 10 % of the inter-ocular distance, points scored)."""
    ok = total = 0
    for out, truth in zip(outputs, truths):
        (lx, ly), (rx, ry) = truth["left_eye"], truth["right_eye"]
        iod = math.hypot(rx - lx, ry - ly)
        for name in scan.DETECTED_POINT_NAMES:
            total += 1
            got = out["points"][name]
            tx, ty = truth[name]
            if got is not None and math.hypot(got[0] - tx, got[1] - ty) <= 0.10 * iod:
                ok += 1
    return ok, total


class Hierarchy(Workload):
    """Closed loop, one caller: detect_hierarchy over drifting, tilting face videos.

    A pass plays ``videos`` independent videos of ``frames`` frames each;
    the tilt state carries over from frame to frame within a video and
    starts fresh with each video, so every pass repeats exactly.
    """

    name = "hierarchy"
    unit = "frame"
    videos = 4
    frames = 12

    def generate(self, seed: int):
        frames, truths = [], []
        for v in range(self.videos):
            video_frames, video_truths = scenes.face_sequence([seed, v], self.frames)
            frames.extend(video_frames)
            truths.extend(video_truths)
        return frames, truths

    def setup(self, inputs) -> HierarchyState:
        frames, truths = inputs
        cascades = {n: load_cascade(n) for n in HIERARCHY_CASCADES}
        return HierarchyState(cascades, [raster.GrayImage(f) for f in frames], truths)

    def count(self, state) -> int:
        return len(state.images)

    def begin_pass(self, state) -> None:
        state.configs = hierarchy_configs(state.cascades)

    def op(self, state, i: int):
        if i % self.frames == 0:
            state.tilt = TiltState(mode=state.mode)
        r = scan.detect_hierarchy(state.images[i], *state.configs, state.tilt)
        face = None if r.face is None else [r.face.x, r.face.y, r.face.w, r.face.h]
        # rounded to 1e-6 px: the tilt comes from an SVD, whose last bits may
        # depend on the BLAS kernel the CPU selects
        points = {n: None if p is None else [round(p.x, 6), round(p.y, 6)]
                  for n, p in r.points.items()}
        return {"face": face, "points": points, "tilt": round(r.tilt_applied, 9)}

    def quality(self, state, outputs):
        ok, total = point_successes(outputs, state.truths)
        return {
            "point_success_rate": ok / total,
            "face_found_rate": sum(o["face"] is not None for o in outputs) / len(outputs),
        }


# --- fullframe -----------------------------------------------------------------------

@dataclass
class FullframeState:
    cascade: cascade.Cascade
    config: scan.DetectorConfig
    images: list
    objects: list


def match_objects(dets: list, objects: list) -> tuple[int, int]:
    """(objects found, detections matching no object).

    A detection finds an object when its centre lies within a quarter of
    the object's side of the object's centre and its side is within a
    factor 1.5 of the object's.
    """
    found = set()
    false = 0
    for x, y, w, h, _ in dets:
        cx, cy = x + w / 2, y + h / 2
        hit = False
        for k, (ox, oy, side) in enumerate(objects):
            if (abs(cx - (ox + side / 2)) <= side / 4 and abs(cy - (oy + side / 2)) <= side / 4
                    and side / 1.5 <= w <= side * 1.5):
                found.add(k)
                hit = True
        false += not hit
    return len(found), false


class Fullframe(Workload):
    """Closed loop: build_tables, one whole-frame scan_roi and group_detections per frame."""

    name = "fullframe"
    unit = "frame"
    frames = 4

    def generate(self, seed: int):
        return [scenes.clutter_scene([seed, i]) for i in range(self.frames)]

    def setup(self, inputs) -> FullframeState:
        c = load_cascade("fullframe")
        cfg = scan.DetectorConfig(cascade=c, scale_factor=1.1, min_neighbors=3, is_point=False)
        return FullframeState(c, cfg, [raster.GrayImage(px) for px, _ in inputs],
                              [objs for _, objs in inputs])

    def count(self, state) -> int:
        return len(state.images)

    def op(self, state, i: int):
        tables = raster.build_tables(state.images[i], want_rotated=True)
        raw = scan.scan_roi(state.cascade, tables, state.config)
        grouped = scan.group_detections(raw, state.config.min_neighbors)
        dets = [[d.rect.x, d.rect.y, d.rect.w, d.rect.h, d.neighbors] for d in grouped]
        return {"raw": len(raw), "detections": dets}

    def windows_per_op(self, state) -> int:
        """Windows one frame's scan tests (every frame has the same size)."""
        return WindowCounter()(state.cascade, state.images[0], state.config)

    def quality(self, state, outputs):
        found = false = total = 0
        for out, objs in zip(outputs, state.objects):
            f, fa = match_objects(out["detections"], objs)
            found += f
            false += fa
            total += len(objs)
        return {
            "object_recall": found / total,
            "false_detections_per_frame": false / len(outputs),
            "raw_windows_max": max(o["raw"] for o in outputs),
        }


# --- train ---------------------------------------------------------------------------

TRAIN_PARAMS = dict(nstages=2, minhitrate=0.98, maxfalsealarm=0.1, max_weak_per_stage=40)
TRAIN_POS = 60
TRAIN_NEG = 60
TRAIN_WINDOW = scenes.CORNER_SIDE
TRAIN_SIDES = scenes.OBJECT_SIDES[:3]


def faint_corner_scene(rng: np.random.Generator) -> tuple[np.ndarray, tuple[int, int, int]]:
    """One low-contrast, noisy corner on fresh clutter: (pixels, (x, y, side))."""
    px = scenes.clutter(rng, 48, 48, shapes=4)
    side = int(rng.choice(TRAIN_SIDES))
    x = int(rng.integers(4, 44 - side))
    y = int(rng.integers(4, 44 - side))
    scenes.plant(px, x, y, side, float(rng.uniform(12, 35)))
    px += rng.normal(0, rng.uniform(2, 10), px.shape)
    return scenes.to_u8(px), (x, y, side)


def corner_tables(scene) -> raster.IntegralTables:
    """Tables of a faint corner scene's corner, rescaled to the training window."""
    px, (x, y, side) = scene
    patch = samples.extract_and_rescale(raster.GrayImage(px), raster.Rect(x, y, side, side),
                                        TRAIN_WINDOW)
    return raster.build_tables(raster.GrayImage(patch))


def backgrounds(rng: np.random.Generator, count: int):
    """Clutter pixels with faint corners planted, for near-miss and background crops."""
    out = []
    for _ in range(count):
        px = scenes.clutter(rng, 160, 160, shapes=20)
        objs = []
        while len(objs) < 6:
            side = int(rng.choice(TRAIN_SIDES))
            x = int(rng.integers(10, 140 - side))
            y = int(rng.integers(10, 140 - side))
            if any(abs(x - ox) < 24 and abs(y - oy) < 24 for ox, oy, _ in objs):
                continue
            scenes.plant(px, x, y, side, float(rng.uniform(12, 35)))
            objs.append((x, y, side))
        scenes.plant_distractors(rng, px, 12)
        out.append((scenes.to_u8(px), objs))
    return out


def negative_rect(rng: np.random.Generator, image: raster.GrayImage, objs) -> raster.Rect:
    """70 % near misses (a corner shifted 1-4 px and resized), 30 % background crops."""
    if rng.random() < 0.7:
        x, y, side = objs[int(rng.integers(0, len(objs)))]
        dx, dy = rng.integers(1, 5, 2) * rng.choice([-1, 1], 2)
        s = side + int(rng.integers(-2, 8))
        return raster.Rect(int(np.clip(x + dx, 0, image.width - s)),
                           int(np.clip(y + dy, 0, image.height - s)), s, s)
    s = int(rng.integers(13, 30))
    return raster.Rect(int(rng.integers(0, image.width - s)),
                       int(rng.integers(0, image.height - s)), s, s)


@dataclass
class TrainProblem:
    seed: list  # seed sequence of this problem
    positives: list
    backgrounds: list


@dataclass
class TrainState:
    problems: list
    cascades: dict = field(default_factory=dict)  # problem index -> latest cascade
    drawn: int = 0


class Train(Workload):
    """train_cascade on faint-corner problems with unbounded mined negative sources.

    One pass trains one cascade for each of ``problems`` seeded problems;
    several problems per seed keep the run's median steady across seeds.
    """

    name = "train"
    unit = "training"
    problems = 6

    def generate(self, seed: int):
        inputs = []
        for k in range(self.problems):
            rng = np.random.default_rng([seed, 3, k])
            corners = [faint_corner_scene(rng) for _ in range(TRAIN_POS)]
            inputs.append(([seed, 4, k], corners, backgrounds(rng, 8)))
        return inputs

    def setup(self, inputs) -> TrainState:
        return TrainState([
            TrainProblem(seed, [corner_tables(s) for s in corners],
                         [(raster.GrayImage(px), objs) for px, objs in bgs])
            for seed, corners, bgs in inputs
        ])

    def count(self, state) -> int:
        return len(state.problems)

    def negative_source(self, state, problem: TrainProblem):
        """Endless seeded negatives, turned into tables as training pulls them."""
        rng = np.random.default_rng(problem.seed)
        bgs = problem.backgrounds
        while True:
            image, objs = bgs[int(rng.integers(0, len(bgs)))]
            patch = samples.extract_and_rescale(image, negative_rect(rng, image, objs),
                                                TRAIN_WINDOW)
            state.drawn += 1
            if self.tracer is not None:
                self.tracer.count("cascade.negatives_drawn")
            yield raster.build_tables(raster.GrayImage(patch))

    def op(self, state, i: int):
        problem = state.problems[i]
        params = cascade.TrainParams(npos=TRAIN_POS, nneg=TRAIN_NEG, **TRAIN_PARAMS)
        state.drawn = 0
        c = cascade.train_cascade(problem.positives, self.negative_source(state, problem),
                                  params)
        state.cascades[i] = c
        return {
            "sha256": hashlib.sha256(cascade.serialize(c)).hexdigest(),
            "weak": [len(s.strong.rounds) for s in c.stages],
            "negatives_drawn": state.drawn,
        }

    def quality(self, state, outputs):
        rates = [heldout_rates(state.cascades[i], p) for i, p in enumerate(state.problems)]
        return {
            "heldout_hit_rate": float(np.mean([hr for hr, _ in rates])),
            "heldout_false_alarm": float(np.mean([fa for _, fa in rates])),
            "stages_per_training": float(np.mean([len(o["weak"]) for o in outputs])),
            "weak_per_training": float(np.mean([sum(o["weak"]) for o in outputs])),
        }


def heldout_rates(c: cascade.Cascade, problem: TrainProblem) -> tuple[float, float]:
    """(hit rate, false alarm) of ``c`` on seeded held-out samples of ``problem``.

    200 positives and 600 negatives, drawn like the training ones from a
    seed sequence the training never uses.
    """
    rng = np.random.default_rng(problem.seed + [5])
    pos = [corner_tables(faint_corner_scene(rng)) for _ in range(200)]
    bgs = [(raster.GrayImage(px), objs) for px, objs in backgrounds(rng, 4)]
    neg = []
    for k in range(600):
        image, objs = bgs[k % len(bgs)]
        patch = samples.extract_and_rescale(image, negative_rect(rng, image, objs), TRAIN_WINDOW)
        neg.append(raster.build_tables(raster.GrayImage(patch)))
    return (float(np.mean([cascade.classify_window(c, t)[0] for t in pos])),
            float(np.mean([cascade.classify_window(c, t)[0] for t in neg])))


WORKLOADS = {w.name: w for w in (Hierarchy, Fullframe, Train)}
