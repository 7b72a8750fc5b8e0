"""Which fidpoint functions the traced run wraps, and the counts kept at each.

Names follow ``module.function.quantity``.  Each entry rebinds the
function in the module that calls it: detect_hierarchy and its helpers
look up ``scan_roi``, ``group_detections``, ``build_tables`` and
``rotate_image`` in ``fidpoint.scan``; train_cascade looks up
``train_stage``, ``feature_matrix``, ``enumerate_features`` and
``Booster`` in ``fidpoint.cascade``; the benchmark itself calls
``raster.build_tables``, ``samples.extract_and_rescale``,
``cascade.train_cascade`` and ``cascade.deserialize`` through their
modules.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from fidpoint import boost, cascade, raster, samples, scan
from fidpoint.haar import round_half_up, scale_feature


class WindowCounter:
    """Windows one scan_roi call tests, from the scan schedule in scan.py.

    Sizes grow from the minimum by the scale factor (duplicates once),
    the step is max(1, round(size / window)), positions are the step
    multiples from both ends of the feasible range, and positions whose
    scaled cells would overhang the image are dropped.
    """

    def __init__(self):
        self._overhang: dict[tuple[int, Fraction], tuple[int, int, int, int]] = {}

    def overhang(self, c: cascade.Cascade, frac: Fraction, w: int, h: int):
        key = (id(c), frac)
        if key not in self._overhang:
            left = top = right = bottom = 0
            for st in c.stages:
                for _, weak in st.strong.rounds:
                    cells = scale_feature(weak.feature, frac)
                    for r in cells.rects:
                        if cells.rotated:
                            x0, y0 = r.x - (r.h - 1), r.y
                            x1, y1 = r.x + r.w - 1, r.y + r.w + r.h - 2
                        else:
                            x0, y0, x1, y1 = r.x, r.y, r.x + r.w - 1, r.y + r.h - 1
                        left, top = max(left, -x0), max(top, -y0)
                        right, bottom = max(right, x1 - (w - 1)), max(bottom, y1 - (h - 1))
            self._overhang[key] = (left, top, right, bottom)
        return self._overhang[key]

    def __call__(self, c: cascade.Cascade, image, cfg: scan.DetectorConfig) -> int:
        roi = cfg.roi or raster.Rect(0, 0, image.width, image.height)
        total = 0
        k = 0
        last = None
        while True:
            w = round_half_up(cfg.min_w * cfg.scale_factor**k)
            frac = Fraction(w, c.window_w)
            h = round_half_up(c.window_h * frac)
            k += 1
            if w > roi.w or h > roi.h:
                return total
            if (w, h) == last:
                continue
            last = (w, h)
            left, top, right, bottom = self.overhang(c, frac, w, h)
            xs = _grid(roi.w - w, max(1, round_half_up(w / c.window_w))) + roi.x
            ys = _grid(roi.h - h, max(1, round_half_up(h / c.window_h))) + roi.y
            nx = np.count_nonzero((xs - left >= 0) & (xs + w - 1 + right <= image.width - 1))
            ny = np.count_nonzero((ys - top >= 0) & (ys + h - 1 + bottom <= image.height - 1))
            total += int(nx) * int(ny)


def _grid(extent: int, step: int) -> np.ndarray:
    fwd = np.arange(0, extent + 1, step)
    return np.unique(np.concatenate([fwd, extent - fwd]))


def install(tracer) -> None:
    """Rebind every traced function; undo with ``tracer.restore()``."""
    windows = WindowCounter()

    def after_scan(args, kwargs, raw):
        c, image, cfg = args
        tracer.count("scan.scan_roi.windows_tested", windows(c, image, cfg))
        tracer.count("scan.scan_roi.raw_windows", len(raw))

    def after_group(args, kwargs, grouped):
        tracer.maximum("scan.group_detections.raw_in_max", len(args[0]))
        tracer.count("scan.group_detections.clusters_out", len(grouped))

    def after_matrix(args, kwargs, values):
        tracer.count("haar.feature_matrix.values", values.size)

    def after_stage(args, kwargs, stage):
        tracer.count("cascade.negatives_kept", len(args[1]))

    def after_train(args, kwargs, c):
        tracer.count("cascade.stages", len(c.stages))
        tracer.count("cascade.weak_classifiers", sum(len(s.strong.rounds) for s in c.stages))

    tracer.rebind(scan, "scan_roi", "scan.scan_roi", after_scan)
    tracer.rebind(scan, "group_detections", "scan.group_detections", after_group, peak=True)
    tracer.rebind(scan, "detect_region", "scan.detect_region")
    tracer.rebind(scan, "detect_point", "scan.detect_point")
    tracer.rebind(scan, "select_result", "scan.select_result")
    tracer.rebind(scan, "build_tables", "raster.build_tables")
    tracer.rebind(raster, "build_tables", "raster.build_tables")
    tracer.rebind(scan, "rotate_image", "geom.rotate_image")
    tracer.rebind(cascade, "feature_matrix", "haar.feature_matrix", after_matrix)
    tracer.rebind(cascade, "enumerate_features", "haar.enumerate_features")
    tracer.rebind(boost.Booster, "__init__", "boost.Booster.init", peak=True)
    tracer.rebind(boost.Booster, "step", "boost.Booster.step", peak=True)
    tracer.rebind(cascade, "train_stage", "cascade.train_stage", after_stage)
    tracer.rebind(cascade, "train_cascade", "cascade.train_cascade", after_train)
    tracer.rebind(cascade, "deserialize", "cascade.deserialize")
    tracer.rebind(samples, "extract_and_rescale", "samples.extract_and_rescale")


# (metric name, unit): every per-layer metric the traced run prints, per operation
# unless the name says max/peak or the span runs in set-up only
PER_LAYER = (
    ("scan.scan_roi.calls", "count"),
    ("scan.scan_roi.ms", "ms"),
    ("scan.scan_roi.self_ms", "ms"),
    ("scan.scan_roi.windows_tested", "count"),
    ("scan.scan_roi.raw_windows", "count"),
    ("scan.group_detections.calls", "count"),
    ("scan.group_detections.ms", "ms"),
    ("scan.group_detections.raw_in_max", "count"),
    ("scan.group_detections.clusters_out", "count"),
    ("scan.group_detections.peak_mb", "MB"),
    ("scan.detect_region.ms", "ms"),
    ("scan.detect_point.ms", "ms"),
    ("scan.select_result.ms", "ms"),
    ("raster.build_tables.calls", "count"),
    ("raster.build_tables.ms", "ms"),
    ("geom.rotate_image.calls", "count"),
    ("geom.rotate_image.ms", "ms"),
    ("haar.feature_matrix.calls", "count"),
    ("haar.feature_matrix.ms", "ms"),
    ("haar.feature_matrix.values", "count"),
    ("haar.enumerate_features.ms", "ms"),
    ("boost.Booster.init.ms", "ms"),
    ("boost.Booster.step.calls", "count"),
    ("boost.Booster.step.ms_per_round", "ms"),
    ("boost.Booster.peak_mb", "MB"),
    ("cascade.train_cascade.self_ms", "ms"),
    ("cascade.train_stage.ms", "ms"),
    ("cascade.negatives_drawn", "count"),
    ("cascade.negatives_kept", "count"),
    ("cascade.stages", "count"),
    ("cascade.weak_classifiers", "count"),
    ("cascade.deserialize.ms", "ms"),
    ("samples.extract_and_rescale.calls", "count"),
    ("samples.extract_and_rescale.ms", "ms"),
    ("trace.op_ms_untraced", "ms"),
    ("trace.op_ms_traced", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "share"),
)


def per_layer(setup_tracer, tracer, ops: int, setups: int) -> dict[str, float]:
    """Per-operation layer metrics from the traced phase (set-up spans per set-up)."""
    rows = tracer.summary()
    setup_rows = setup_tracer.summary()
    out: dict[str, float] = {}
    for name, row in rows.items():
        for q in ("calls", "ms", "self_ms"):
            out[f"{name}.{q}"] = row[q] / ops
    for key, value in tracer.counts.items():
        out[key] = value / ops
    out.update(tracer.maxima)
    steps = rows.get("boost.Booster.step")
    out["boost.Booster.step.ms_per_round"] = steps["ms"] / steps["calls"] if steps else 0.0
    out["boost.Booster.peak_mb"] = max(tracer.maxima.get("boost.Booster.init.peak_mb", 0.0),
                                       tracer.maxima.get("boost.Booster.step.peak_mb", 0.0))
    deser = setup_rows.get("cascade.deserialize")
    out["cascade.deserialize.ms"] = deser["ms"] / setups if deser else 0.0
    out["trace.coverage"] = tracer.coverage()
    return out
