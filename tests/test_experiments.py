import json
import subprocess
import sys
from pathlib import Path

from fidpoint.haar import feature_table

ROOT = Path(__file__).resolve().parent.parent


def test_booster_probe_runs_at_toy_size():
    out = subprocess.run(
        [sys.executable, str(ROOT / "experiments" / "booster_probe.py"),
         "--side", "6", "--samples", "12", "--rounds", "2", "--seed", "3"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert (report["side"], report["samples"], report["seed"]) == (6, 12, 3)
    assert report["features"] == len(feature_table(6, 6))
    assert len(report["round_s"]) == 2
    assert min(report["values_s"], report["init_s"], *report["round_s"]) >= 0
    assert report["peak_rss_mb"] > 0
