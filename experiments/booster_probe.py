"""Time ``boost.Booster`` on random patches at a chosen window size and sample count.

From the repository root:

    python3 experiments/booster_probe.py --side 13 --samples 2000 --rounds 3 --seed 0

Builds ``--samples`` random ``--side`` x ``--side`` 8-bit patches (half of
them labelled positive) and their BASIC ``haar.FeatureValues``, as
``cascade.train_stage`` does, then prints one JSON object:

- ``values_s``: reading every feature value once, ``_STEP_BLOCK`` columns
  at a time;
- ``init_s``: ``Booster.__init__``, which reads the values again;
- ``round_s``: each of ``--rounds`` calls of ``Booster.step``;
- ``peak_rss_mb``: the process's peak resident set size.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from fidpoint import boost  # noqa: E402
from fidpoint.haar import FeatureValues, feature_table  # noqa: E402
from fidpoint.raster import GrayImage, build_tables  # noqa: E402


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, default=13, help="window side W (W x W patches)")
    ap.add_argument("--samples", type=int, default=2000, help="number of patches N")
    ap.add_argument("--rounds", type=int, default=3, help="boosting rounds to time")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.samples < 2:
        ap.error("--samples must be at least 2")

    rng = np.random.default_rng(args.seed)
    patches = rng.integers(0, 256, size=(args.samples, args.side, args.side), dtype=np.uint8)
    tables = [build_tables(GrayImage(p)) for p in patches]
    labels = np.arange(args.samples) % 2
    values = FeatureValues(feature_table(args.side, args.side), tables)

    t0 = time.perf_counter()
    for lo in range(0, values.shape[1], boost._STEP_BLOCK):
        values[:, lo : lo + boost._STEP_BLOCK]
    t1 = time.perf_counter()
    booster = boost.Booster(values, labels, boost.init_weights(labels))
    t2 = time.perf_counter()
    round_s = []
    for _ in range(args.rounds):
        t = time.perf_counter()
        booster.step()
        round_s.append(round(time.perf_counter() - t, 4))

    print(json.dumps({
        "side": args.side,
        "samples": args.samples,
        "features": values.shape[1],
        "seed": args.seed,
        "values_s": round(t1 - t0, 4),
        "init_s": round(t2 - t1, 4),
        "round_s": round_s,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))


if __name__ == "__main__":
    main()
