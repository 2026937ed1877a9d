"""scripts/extended_precision_rows.py on a small study."""

import importlib.util
from pathlib import Path

from dpglock import solver as slv
from dpglock import study_cli as sc

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "extended_precision_rows.py"


def load_script():
    spec = importlib.util.spec_from_file_location("extended_precision_rows", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extended_rows_agree_with_both_solves_and_leave_the_solver_as_it_was():
    script = load_script()
    cfg = sc.StudyConfig(problem="poisson", r1=10.0, r2=1.0, bc="mixed", ny0=1, levels=3)
    solve_spd = slv.solve_spd
    out = script.compare(cfg)
    assert slv.solve_spd is solve_spd
    assert out["rows"]["tree"] == sc.run_study(cfg)
    assert len(out["last_extended_step"]) == cfg.levels
    assert max(out["last_extended_step"]) < 1e-15
    for name in ("tree_from_extended", "superlu_from_extended", "tree_from_superlu"):
        dev = out["max_relative_deviation"][name]
        assert dev["dofDPG"] == 0.0
        assert max(dev.values()) < 1e-9
