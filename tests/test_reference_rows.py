"""scripts/reference_rows.py's comparison, on hand-made row sets, and its BLAS thread default."""

import importlib.util
import json
import math
import os
import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reference_rows.py"
ROWS = {"--problem poisson --levels 2": [[41, 0.5, 2.0, 1.25], [161, 0.25, 1.0, 0.625]],
        "--problem plate --levels 1": [[83, 3.5, 1.125, 1.25]]}


def load_script():
    spec = importlib.util.spec_from_file_location("reference_rows", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identical_rows_compare_equal():
    out = load_script().compare(ROWS, ROWS)
    assert out == {study: {"dofDPG_identical": True, "errU": 0.0, "errSigma": 0.0, "err": 0.0}
                   for study in ROWS}


def test_perturbed_rows_give_their_relative_deviation():
    study = "--problem poisson --levels 2"
    perturbed = json.loads(json.dumps(ROWS))
    perturbed[study][1][2] *= 1 + 1e-9  # errSigma of level 1
    # the perfbench/reference.json layout is read as well
    against = {s: {"comment": "#", "rows": rows} for s, rows in perturbed.items()}
    out = load_script().compare(ROWS, against)
    assert out[study]["dofDPG_identical"]
    assert out[study]["errSigma"] == pytest.approx(1e-9, rel=1e-6)
    assert out[study]["errU"] == out[study]["err"] == 0.0
    assert out["--problem plate --levels 1"]["errSigma"] == 0.0


def test_changed_dofs_or_levels_are_not_identical():
    study = "--problem plate --levels 1"
    other = {study: [[84, 3.5, 1.125, 1.25]]}
    assert not load_script().compare({study: ROWS[study]}, other)[study]["dofDPG_identical"]
    out = load_script().compare({study: ROWS[study]}, {study: ROWS[study] * 2})[study]
    assert not out["dofDPG_identical"] and out["errU"] is None


def edited(study, level, column, value):
    rows = json.loads(json.dumps(ROWS))
    rows[study][level][column] = value
    return rows


@pytest.mark.parametrize("against,code", [
    (ROWS, 0),
    (edited("--problem plate --levels 1", 0, 3, math.nextafter(1.25, 2.0)), 1),  # err by one ulp
    (edited("--problem poisson --levels 2", 1, 0, 162), 1),  # dofDPG
    ({**ROWS, "--problem poisson --levels 2": ROWS["--problem poisson --levels 2"][:1]}, 1),
])
def test_against_exits_one_when_any_row_differs(against, code, monkeypatch, tmp_path, capsys):
    script = load_script()
    monkeypatch.setattr(script, "study_rows", lambda studies: ROWS)
    path = tmp_path / "against.json"
    path.write_text(json.dumps(against))
    assert script.main(["--against", str(path)]) == code
    assert script.main([]) == 0  # printing the rows alone always succeeds
    capsys.readouterr()


def test_only_a_script_run_defaults_to_one_blas_thread(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    environ = dict(os.environ)
    load_script()
    assert dict(os.environ) == environ
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--help"])
    with pytest.raises(SystemExit):
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # an explicit setting wins
    with pytest.raises(SystemExit):
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    capsys.readouterr()
