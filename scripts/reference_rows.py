"""The CSV rows of the benchmark's reference studies, and how far they lie
from another set of rows.

    PYTHONPATH=src python3 scripts/reference_rows.py > rows.json
    PYTHONPATH=src python3 scripts/reference_rows.py --against rows.json
    PYTHONPATH=src python3 scripts/reference_rows.py --against perfbench/reference.json

Runs each study of perfbench/reference.json in-process (the file is only
read) and prints {study: rows} as JSON, rows as (dofDPG, errU, errSigma,
err) per level.  With --against FILE it prints instead, per study, whether
dofDPG is identical to FILE's rows and the largest relative deviation of
errU, errSigma and err from them, and exits 1 unless every study's rows are
identical to FILE's.  FILE holds this script's output or has the layout of
perfbench/reference.json ({study: {"rows": rows, ...}}).
That file counts one unknown more on clamped plates than the studies do
(pinning the twisting-moment kernel came after it was recorded, and the
benchmark allows the difference), so against it their dofDPG reads false;
compare with this script's output from the parent commit instead.
The rows depend on the BLAS thread count (up to 6e-3 relative on the
5-level mixed plate strip, 2e-10 on plate R10 at 6 levels), so the two
sets of rows compared must come from one OPENBLAS_NUM_THREADS.  Run as a
script, it sets OPENBLAS_NUM_THREADS=1 unless the environment sets it, so
the first two commands (the first run at the parent commit) compare rows
at one thread; to compare at another count, set it on both runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # before numpy loads OpenBLAS; an explicit setting wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from dpglock import study_cli as sc  # noqa: E402

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
ERRORS = ("errU", "errSigma", "err")


def study_rows(studies) -> dict:
    """{study: rows} of run_study for each dpg-lock argument string."""
    rows = {}
    for study in studies:
        cfg = sc.StudyConfig(**vars(sc.build_parser().parse_args(study.split())))
        rows[study] = [list(row) for row in sc.run_study(cfg)]
    return rows


def compare(rows: dict, against: dict) -> dict:
    """Per study of rows: dofDPG identical to against's, and the largest
    relative deviation of each error column from against's."""
    out = {}
    for study, got in rows.items():
        ref = against[study]
        ref = ref["rows"] if isinstance(ref, dict) else ref
        got, ref = np.array(got, float), np.array(ref, float)
        same_shape = got.shape == ref.shape
        dev = np.abs(got - ref)[:, 1:] / np.abs(ref)[:, 1:] if same_shape else None
        out[study] = {"dofDPG_identical": same_shape and bool((got[:, 0] == ref[:, 0]).all()),
                      **{name: float(dev[:, i].max()) if same_shape else None
                         for i, name in enumerate(ERRORS)}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="rows to compare with, as JSON")
    args = parser.parse_args(argv)
    rows = study_rows(json.loads(REFERENCE.read_text()))
    if args.against is not None:
        rows = compare(rows, json.loads(args.against.read_text()))
    json.dump(rows, sys.stdout, indent=1)
    print()
    return int(args.against is not None and not all(
        out["dofDPG_identical"] and all(out[name] == 0.0 for name in ERRORS)
        for out in rows.values()))


if __name__ == "__main__":
    sys.exit(main())
