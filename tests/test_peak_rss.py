"""scripts/peak_rss.py on a one-level study."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"


def test_peak_rss_reports_both_runs_of_a_study():
    argv = ["--problem", "poisson", "--levels", "1", "--ny0", "1"]
    out = subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    report = json.loads(out)
    assert report.keys() == {"argv", "as_run", "mmap_threshold_131072"}
    assert report["argv"] == " ".join(argv)
    for run in (report["as_run"], report["mmap_threshold_131072"]):
        assert run["exit"] == 0
        assert run["wall_s"] > 0 and run["cpu_s"] > 0 and run["peak_rss_mb"] > 0
