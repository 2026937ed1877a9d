"""Wall time, CPU time and peak resident set of one dpg-lock study, each
measured in a fresh process.

    python3 scripts/peak_rss.py --problem plate --r1 10 --r2 10 --norm scaled --levels 8

Runs `python3 -m dpglock ARGV` (this interpreter, with this checkout's src/
first on PYTHONPATH, the CSV discarded) twice: in the environment as it is
("as_run"), and with MALLOC_MMAP_THRESHOLD_=131072 added
("mmap_threshold_131072").  That setting fixes glibc's threshold above which
malloc maps a block on its own and unmaps it when freed; left dynamic, the
threshold rises after large frees, and freed arrays of up to 32 MB then stay
in the heap, where they count towards the resident set.  Prints one JSON
object with, per run, the exit status, the wall time (s), the CPU time, user
plus system (s), and the peak RSS (MB, the child's ru_maxrss from
os.wait4).  Exits 1 unless both studies exit 0.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = {"as_run": {}, "mmap_threshold_131072": {"MALLOC_MMAP_THRESHOLD_": "131072"}}


def measure(argv, extra_env: dict) -> dict:
    """Exit status, wall, CPU and peak RSS of one study process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **extra_env}
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "dpglock", *argv], env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": round(wall, 4),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    runs = {name: measure(argv, extra) for name, extra in RUNS.items()}
    print(json.dumps({"argv": " ".join(argv), **runs}, indent=1))
    return int(any(run["exit"] for run in runs.values()))


if __name__ == "__main__":
    sys.exit(main())
