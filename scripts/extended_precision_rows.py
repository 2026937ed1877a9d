"""A study's CSV rows under three solves of each level's trace system, and
how far the first two lie from the third, the most accurate.

    PYTHONPATH=src python3 scripts/extended_precision_rows.py \
        --problem poisson --r1 10 --r2 1 --bc mixed --norm scaled --levels 5 --ny0 1

Takes the study options of dpg-lock.  The solves are

  tree      solve_spd with the refinement-tree factor, as the study solves;
  superlu   solve_spd with one SuperLU factor of the whole trace matrix
            gs.matrix (symmetric mode, minimum-degree ordering of A + A^T,
            no pivoting), an ordering and a factor independent of the
            study's own;
  extended  the SuperLU solution refined with residuals summed in
            np.longdouble (64-bit significand on x86-64) and corrections
            from the same SuperLU factor, EXTENDED_STEPS times.

Prints one JSON object: the rows of each solve, the relative size of the
last extended-precision correction per level, and per column the largest
relative deviation of the tree and superlu rows from the extended ones and
of the tree rows from the superlu ones.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.sparse.linalg import splu

from dpglock import solver as slv
from dpglock import study_cli as sc

EXTENDED_STEPS = 6
COLUMNS = ("dofDPG", "errU", "errSigma", "err")


def superlu(gs: slv.GlobalSystem):
    """One sparse LU factor of gs.matrix without pivoting, in the
    minimum-degree ordering of A + A^T; relax=1 turns off relaxed
    supernodes, whose explicit zeros raise the fill of some trace factors."""
    return splu(gs.matrix, permc_spec="MMD_AT_PLUS_A", relax=1, diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def extended_solve(gs: slv.GlobalSystem, last_step: list) -> np.ndarray:
    lu = superlu(gs)
    a, b = gs.matrix.astype(np.longdouble), gs.rhs.astype(np.longdouble)
    xl = lu.solve(gs.rhs).astype(np.longdouble)
    for _ in range(EXTENDED_STEPS):
        dx = lu.solve(np.asarray(b - a @ xl, dtype=float))
        xl += dx
    last_step.append(float(np.linalg.norm(dx) / np.linalg.norm(xl)))
    return np.asarray(xl, dtype=float)


def study_rows(cfg: sc.StudyConfig, solve) -> list:
    """run_study with solve(gs, factor) in place of solver.solve_spd."""
    original = slv.solve_spd
    slv.solve_spd = solve
    try:
        return sc.run_study(cfg)
    finally:
        slv.solve_spd = original


def compare(cfg: sc.StudyConfig) -> dict:
    solve_spd, last_step = slv.solve_spd, []
    rows = {
        "tree": study_rows(cfg, solve_spd),
        "superlu": study_rows(cfg, lambda gs, factor: solve_spd(gs, factor=superlu)),
        "extended": study_rows(cfg, lambda gs, factor: extended_solve(gs, last_step)),
    }
    return {"study": sc.flag_echo(cfg), "rows": rows, "last_extended_step": last_step,
            "max_relative_deviation": {
                f"{a}_from_{b}": dict(zip(COLUMNS, deviation(rows[a], rows[b])))
                for a, b in (("tree", "extended"), ("superlu", "extended"), ("tree", "superlu"))}}


def deviation(rows, ref) -> list:
    """Largest relative deviation of rows from ref, per column."""
    ref = np.array(ref)
    return (np.abs(np.array(rows) - ref) / np.abs(ref)).max(axis=0).tolist()


def main(argv=None) -> int:
    cfg = sc.StudyConfig(**vars(sc.build_parser().parse_args(argv)))
    json.dump(compare(cfg), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
