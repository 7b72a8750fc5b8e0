"""One-off, untimed report on three claims of the paper, from the benchmark inputs.

Run from the repository root:

    python3 perfbench/claims.py

1. Mirroring: a right-side point found by flipping the ROI patch and
   scanning with the left-side cascade equals the point found by
   scanning the unflipped patch with the mirrored cascade.
2. Tilt correction: on the ``hierarchy`` videos, FULL and HALF tilt
   correction score a higher point success rate (10 % of the
   inter-ocular distance) than NONE.
3. Cascade rates: the product of the stages' training hit and
   false-alarm rates against ``compound_bounds`` for the pinned
   ``fullframe`` cascade and for the ``train`` cascades, with the
   held-out rates beside them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from fidpoint import cascade, raster, scan  # noqa: E402
from fidpoint.geom import TiltMode, TiltState  # noqa: E402

import workloads  # noqa: E402

SEEDS = 3  # benchmark seeds 0, 1 and 2


def mirrored_cascade_point(image: raster.GrayImage, cfg: scan.DetectorConfig):
    """The right-side point from the mirrored cascade on the unflipped patch."""
    roi = cfg.roi
    patch = raster.GrayImage(image.pixels[roi.y : roi.y + roi.h, roi.x : roi.x + roi.w])
    local = replace(cfg, roi=raster.Rect(0, 0, roi.w, roi.h), on_right_side=False)
    mirrored = cascade.mirror(cfg.cascade)
    raw = scan.scan_roi(mirrored, raster.build_tables(patch), replace(local, cascade=mirrored))
    best = scan.select_result(scan.group_detections(raw, cfg.min_neighbors), True,
                              roi_center=((roi.w - 1) / 2.0, (roi.h - 1) / 2.0))
    if best is None:
        return None
    return roi.x + best.point2x[0] // 2, roi.y + best.point2x[1] // 2


def mirror_claim() -> None:
    wl = workloads.Hierarchy()
    same = total = found = 0
    for seed in range(SEEDS):
        state = wl.setup(wl.generate(seed))
        face_cfg, feature_cfgs, point_cfgs = workloads.hierarchy_configs(state.cascades)
        tilt = TiltState(mode=TiltMode.NONE)  # no rotation: ROIs refer to the frame itself
        for image in state.images[:8]:
            scan.detect_hierarchy(image, face_cfg, feature_cfgs, point_cfgs, tilt)
            for name, cfg in point_cfgs.items():
                if not cfg.on_right_side or cfg.roi is None:
                    continue
                flipped = scan.detect_point(image, replace(cfg))
                direct = mirrored_cascade_point(image, cfg)
                total += 1
                same += flipped == direct
                found += flipped is not None
    print(f"1. mirroring: patch flip equals mirrored cascade on {same} of {total} right-side "
          f"ROIs ({found} with a detection) -> {'holds' if same == total else 'FAILS'}")


def tilt_claim() -> None:
    wl = workloads.Hierarchy()
    rates = {}
    for mode in (TiltMode.NONE, TiltMode.HALF, TiltMode.FULL):
        ok = total = 0
        for seed in range(SEEDS):
            state = wl.setup(wl.generate(seed))
            state.mode = mode
            wl.begin_pass(state)
            outputs = [wl.op(state, i) for i in range(wl.count(state))]
            k, n = workloads.point_successes(outputs, state.truths)
            ok += k
            total += n
        rates[mode] = ok / total
    verdict = ("holds" if rates[TiltMode.FULL] > rates[TiltMode.NONE]
               and rates[TiltMode.HALF] > rates[TiltMode.NONE] else "FAILS")
    shown = ", ".join(f"{m.name} {r:.4f}" for m, r in rates.items())
    print(f"2. tilt correction: point success rate {shown} over {SEEDS} seeds "
          f"of {wl.videos} videos -> {verdict}")


def rates_line(label: str, c: cascade.Cascade, minhitrate: float, maxfalsealarm: float,
               heldout: str = "") -> None:
    hr = math.prod(s.train_hit_rate for s in c.stages)
    fa = math.prod(s.train_false_alarm for s in c.stages)
    bound_hr, bound_fa = cascade.compound_bounds(minhitrate, maxfalsealarm, len(c.stages))
    verdict = "within" if hr >= bound_hr and fa <= bound_fa else "OUTSIDE"
    print(f"   {label}: {len(c.stages)} stages, product HR {hr:.4f} (bound >= {bound_hr:.4f}), "
          f"product FA {fa:.3g} (bound <= {bound_fa:.3g}) -> {verdict}{heldout}")


def compound_claim() -> None:
    print("3. stage rates against compound_bounds:")
    rates_line("fullframe cascade", workloads.load_cascade("fullframe"), 0.995, 0.5)
    wl = workloads.Train()
    params = workloads.TRAIN_PARAMS
    for seed in range(SEEDS):
        state = wl.setup(wl.generate(seed))
        for i in range(2):
            wl.op(state, i)
            hr, fa = workloads.heldout_rates(state.cascades[i], state.problems[i])
            rates_line(f"train seed {seed} problem {i}", state.cascades[i],
                       params["minhitrate"], params["maxfalsealarm"],
                       f"; held-out HR {hr:.3f}, FA {fa:.3f}")


def main() -> None:
    mirror_claim()
    tilt_claim()
    compound_claim()


if __name__ == "__main__":
    main()
