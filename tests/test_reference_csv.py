"""The benchmark's CSV gate on its sweep studies, run in-process.

Each study of the sweep in perfbench/run.py runs through study_cli.main,
and its CSV is checked against perfbench/reference.json by the gate the
benchmark itself applies (run.check_csv), so a change that moves a
reference row fails here as well as in the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

from dpglock import study_cli as sc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from run import SWEEP, check_csv  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("study", SWEEP)
def test_study_csv_passes_the_benchmark_gate(study, capsys):
    assert sc.main(study.split()) == 0
    assert check_csv(capsys.readouterr().out, REFERENCE[study], study) is None
