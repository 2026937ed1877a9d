"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Convergence slopes are least-squares fits of log(err) against log(dofDPG)
over the last three levels of a run.  Slow configurations are solved once
per session and shared between criteria.
"""

import time
from math import factorial

import numpy as np
import pytest
from scipy.linalg import cholesky

from dpglock import fem_core as fc
from dpglock import mesh as msh
from dpglock import plate_uw as plw
from dpglock import poisson_uw as pw
from dpglock import solver as slv
from dpglock import study_cli as sc
from helpers import (exact_u_grad_hess, full_solution, permuted, plate_consistency_residual,
                     pointwise, poisson_consistency_residual, poisson_dense_minres, trial_signs)

_RUNS = {}


def run(**kw):
    key = tuple(sorted(kw.items()))
    if key not in _RUNS:
        _RUNS[key] = sc.run_study(sc.StudyConfig(**kw))
    return _RUNS[key]


def slope(rows, column, points=3):
    tail = rows[-points:]
    x = np.log([r[0] for r in tail])
    y = np.log([r[column] for r in tail])
    return float(np.polyfit(x, y, 1)[0])


def ratios(rows, column):
    return [rows[i][column] / rows[i + 1][column] for i in range(len(rows) - 1)]


def report(num, ok, detail):
    print(f"ACCEPTANCE criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_dense_minimum_residual_equivalence():
    t0 = time.time()
    cfg = sc.StudyConfig(problem="poisson")
    exact = sc.exact_bundle(cfg)
    worst = 0.0
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    for _ in range(2):  # the 2- and 8-triangle unit-square meshes
        dm = pw.dof_map_poisson(mesh)
        condensed = sc.condense_mesh(mesh, cfg, exact.f)
        x = full_solution(*slv.solve_condensed(mesh, dm, condensed)[:2])
        x_dense, _, _ = poisson_dense_minres(mesh, 0.0, exact.f)
        worst = max(worst, float(np.abs(x - x_dense).max()))
        mesh = msh.refine_uniform(mesh)
    elapsed = time.time() - t0
    report(1, worst < 1e-9 and elapsed < 1.0,
           f"condensed vs dense brute-force coefficients differ by {worst:.2e} "
           f"(tol 1e-9), {elapsed:.2f}s")


def test_criterion_02_integration_by_parts_consistency():
    t0 = time.time()
    pcfg = sc.StudyConfig(problem="poisson")
    pu, pgrad, _ = exact_u_grad_hess(sc.exact_bundle(pcfg))
    mesh2 = msh.make_rect_mesh(1.0, 1.0, 1)
    mesh8 = msh.refine_uniform(mesh2)
    worst = 0.0
    for gamma in (0.0, 1.0):
        f = lambda x, y: (2 * np.pi ** 2 + gamma) * pu(x, y)
        for mesh in (mesh2, mesh8):
            worst = max(worst, poisson_consistency_residual(
                mesh, pu, pgrad, f, gamma))

    kcfg = sc.StudyConfig(problem="plate")
    kex = sc.exact_bundle(kcfg)
    a = np.pi

    def div_m(x, y):
        uxxx = -4 * a ** 3 * np.sin(2 * a * x) * np.sin(a * y) ** 2
        uxyy = 2 * a ** 3 * np.sin(2 * a * x) * np.cos(2 * a * y)
        uxxy = 2 * a ** 3 * np.cos(2 * a * x) * np.sin(2 * a * y)
        uyyy = -4 * a ** 3 * np.sin(a * x) ** 2 * np.sin(2 * a * y)
        return -np.stack([uxxx + uxyy, uxxy + uyyy], axis=-1)

    for mesh in (mesh2, mesh8):
        worst = max(worst, plate_consistency_residual(
            mesh, *exact_u_grad_hess(kex), div_m, pointwise(kex.f)))
    elapsed = time.time() - t0
    report(2, worst < 1e-8 and elapsed < 5.0,
           f"largest consistency residual {worst:.2e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_03_scaled_scheme_convergence_rates():
    t0 = time.time()
    slopes = {}
    for r in (1.0, 10.0, 100.0):
        rows = run(problem="poisson", r1=r, r2=r, norm="scaled", levels=6, ny0=2)
        slopes[r] = (slope(rows, 2), slope(rows, 3))
    elapsed = time.time() - t0
    ok = all(-0.62 <= s <= -0.38 for pair in slopes.values() for s in pair)
    detail = ", ".join(f"R={r:g}: errSigma {s[0]:.3f} err {s[1]:.3f}"
                       for r, s in slopes.items())
    report(3, ok and elapsed < 300.0,
           f"slopes in [-0.62,-0.38]: {detail}; {elapsed:.0f}s")


def test_criterion_04_scaled_scheme_domain_robustness():
    base = run(problem="poisson", r1=1.0, r2=1.0, norm="scaled", levels=6, ny0=2)
    worst = 1.0
    for r in (10.0, 100.0):
        rows = run(problem="poisson", r1=r, r2=r, norm="scaled", levels=6, ny0=2)
        for row, ref in zip(rows, base):
            for col in (2, 3):
                q = row[col] / ref[col]
                worst = max(worst, q, 1.0 / q)
    report(4, worst < 3.0,
           f"errSigma/err across R in {{1,10,100}} within factor {worst:.2f} "
           f"of each other (tol 3)")


def test_criterion_05_standard_scheme_locks_on_large_domain():
    t0 = time.time()
    rows = run(problem="poisson", r1=100.0, r2=100.0, norm="standard",
               levels=5, ny0=2)
    small = run(problem="poisson", r1=1.0, r2=1.0, norm="standard",
                levels=5, ny0=2)
    stalls = sum(1 for q in ratios(rows, 2) if q < 1.3)
    control = (rows[-1][2] / rows[-1][3]) / (small[-1][2] / small[-1][3])
    elapsed = time.time() - t0
    report(5, stalls >= 1 and control >= 10.0 and elapsed < 180.0,
           f"{stalls} stalled refinements (need >= 1), field/energy control "
           f"lost by factor {control:.1f} vs R=1 (need >= 10); {elapsed:.0f}s")


def test_criterion_06_reaction_restores_standard_robustness():
    slopes = {}
    for r in (1.0, 10.0, 100.0):
        rows = run(problem="poisson", gamma=1.0, r1=r, r2=r, norm="standard",
                   levels=6, ny0=2)
        slopes[r] = (slope(rows, 1), slope(rows, 2))
    ok = all(-0.62 <= s <= -0.38 for pair in slopes.values() for s in pair)
    detail = ", ".join(f"R={r:g}: errU {s[0]:.3f} errSigma {s[1]:.3f}"
                       for r, s in slopes.items())
    report(6, ok, f"gamma=1 standard-norm slopes: {detail}")


def test_criterion_07_anisotropic_full_dirichlet_needs_no_scaling():
    configs = {10.0: dict(levels=5, ny0=2), 100.0: dict(levels=4, ny0=1)}
    details = []
    ok = True
    for r, extra in configs.items():
        rows = run(problem="poisson", r1=r, r2=1.0, norm="standard", **extra)
        s_sigma, s_err = slope(rows, 2), slope(rows, 3)
        reductions = ratios(rows, 2)
        ok &= -0.62 <= s_sigma <= -0.38 and -0.62 <= s_err <= -0.38
        ok &= all(q >= 1.5 for q in reductions)
        details.append(f"R={r:g}: slopes ({s_sigma:.3f}, {s_err:.3f}), "
                       f"min reduction {min(reductions):.2f}")
    report(7, ok, "; ".join(details) + " (need slopes in band, reductions >= 1.5)")


def test_criterion_08_mixed_bc_dichotomy():
    # The locking stall of the standard scheme is resolvable on the strip only
    # where the pre-asymptotic range reaches the coarsest near-square mesh
    # (nx = R ny); for R = 10 that range ends below ny = 1, so the full
    # stall-plus-control signature is checked at R = 100 and the onset (coarse
    # levels dominated by the scaled twin) at both R.
    details = []
    ok = True
    baseline = run(problem="poisson", r1=1.0, r2=1.0, bc="mixed",
                   norm="standard", levels=5, ny0=1)
    for r, extra in ((10.0, dict(levels=5, ny0=1)), (100.0, dict(levels=4, ny0=1))):
        std = run(problem="poisson", r1=r, r2=1.0, bc="mixed",
                  norm="standard", **extra)
        scl = run(problem="poisson", r1=r, r2=1.0, bc="mixed",
                  norm="scaled", **extra)
        onset = std[0][2] / scl[0][2]
        s_sigma, s_err = slope(scl, 2), slope(scl, 3)
        ok &= onset >= 2.0
        ok &= -0.62 <= s_sigma <= -0.38 and -0.62 <= s_err <= -0.38
        details.append(f"R={r:g}: coarse errSigma inflated {onset:.1f}x, "
                       f"scaled slopes ({s_sigma:.3f}, {s_err:.3f})")
        if r == 100.0:
            stalls = sum(1 for q in ratios(std, 2) if q < 1.3)
            control = (std[-1][2] / std[-1][3]) / (baseline[-1][2] / baseline[-1][3])
            ok &= stalls >= 1 and control >= 10.0
            details.append(f"R=100 signature: {stalls} stalls, control loss "
                           f"{control:.0f}x vs R=1 strip")
    # robustness of the scaled error-reduction profiles across R
    rows10 = run(problem="poisson", r1=10.0, r2=1.0, bc="mixed",
                 norm="scaled", levels=5, ny0=1)
    rows100 = run(problem="poisson", r1=100.0, r2=1.0, bc="mixed",
                  norm="scaled", levels=4, ny0=1)
    worst = 1.0
    for col in (2, 3):
        for lvl in range(len(rows100)):
            q = (rows10[lvl][col] / rows10[0][col]) / (rows100[lvl][col] / rows100[0][col])
            worst = max(worst, q, 1.0 / q)
    ok &= worst < 3.0
    details.append(f"scaled profile spread {worst:.2f} (tol 3)")
    report(8, ok, "; ".join(details))


def test_criterion_09_plate_dichotomy():
    t0 = time.time()
    details = []
    ok = True
    for r in (1.0, 10.0):
        rows = run(problem="plate", r1=r, r2=r, norm="scaled", levels=5, ny0=2)
        s_m, s_e = slope(rows, 2), slope(rows, 3)
        ok &= -0.65 <= s_m <= -0.35 and -0.65 <= s_e <= -0.35
        details.append(f"clamped R={r:g} scaled slopes ({s_m:.3f}, {s_e:.3f})")
    rows = run(problem="plate", r1=10.0, r2=1.0, bc="mixed", norm="scaled",
               levels=4, ny0=2)
    s_m, s_e = slope(rows, 2), slope(rows, 3)
    ok &= -0.65 <= s_m <= -0.35 and -0.65 <= s_e <= -0.35
    details.append(f"mixed strip R=10 scaled slopes ({s_m:.3f}, {s_e:.3f})")

    std = run(problem="plate", r1=10.0, r2=10.0, norm="standard", levels=5, ny0=2)
    stalls = sum(1 for q in ratios(std, 2) if q < 1.3)
    ok &= stalls >= 1
    details.append(f"clamped R=10 standard stalled pairs {stalls} (need >= 1)")

    # the R=100 mixed strip: the standard norm stalls errU and loses field
    # control (errU/err about 1e5), the scaled norm halves errU per level
    strip = dict(problem="plate", r1=100.0, r2=1.0, bc="mixed", levels=3, ny0=1)
    std, scl = run(norm="standard", **strip), run(norm="scaled", **strip)
    std_ratio, scl_ratio = std[-1][1] / std[-1][3], scl[-1][1] / scl[-1][3]
    ok &= all(q < 1.3 for q in ratios(std, 1)) and std_ratio >= 1e4
    ok &= all(q >= 1.8 for q in ratios(scl, 1)) and scl_ratio <= 1e3
    details.append(f"mixed strip R=100 errU ratios standard "
                   f"{min(ratios(std, 1)):.2f}-{max(ratios(std, 1)):.2f}, scaled "
                   f"{min(ratios(scl, 1)):.2f}-{max(ratios(scl, 1)):.2f}; top errU/err "
                   f"{std_ratio:.1e} vs {scl_ratio:.0f}")
    elapsed = time.time() - t0
    report(9, ok and elapsed < 600.0, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_10_invariant_suite():
    checks = {}

    # SPD of representative element Gram matrices and a global matrix; an element of
    # size d / 4 in the norm scaled by d (d = 1 or 100) is this one in units of d
    amap = fc.affine_map_from_vertices(fc.REF_VERTICES / 4.0)
    cholesky(pw.local_gram_poisson(amap), lower=True)
    cholesky(plw.local_gram_plate(amap), lower=True)
    cfg = sc.StudyConfig(problem="poisson")
    exact = sc.exact_bundle(cfg)
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, exact.f)
    dofs = dm.all_element_dofs(mesh)
    gs = slv.assemble_global(dofs, dm.n_trace, condensed)
    dense = gs.matrix.toarray()
    cholesky(dense, lower=True)
    checks["spd"] = np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()

    # quadrature exactness
    q = fc.quad_triangle(8)
    worst = max(abs(q.weights @ (q.points[:, 0] ** a * q.points[:, 1] ** b)
                    / (factorial(a) * factorial(b)
                       / factorial(a + b + 2)) - 1.0)
                for a in range(5) for b in range(4))
    checks["quadrature"] = worst < 1e-12

    # energy residual equals the dense Riesz value
    fields, traces, local = slv.solve_condensed(mesh, dm, condensed)
    _, eta = slv.energy_residual(condensed, fields, local)
    n_test = mesh.n_triangles * pw.N_TEST
    big_g = np.zeros((n_test, n_test))
    resid = np.zeros(n_test)
    loads = pw.local_load_poisson(mesh.vertices[mesh.triangles], exact.f)
    for t in range(mesh.n_triangles):
        rows = slice(t * pw.N_TEST, (t + 1) * pw.N_TEST)
        amap = fc.map_affine(mesh, t)
        big_g[rows, rows] = pw.local_gram_poisson(amap)
        x_t = np.concatenate([fields[t], slv.gather_local(dofs[t], traces)])
        b = pw.local_b_poisson(amap, 0.0) * trial_signs(mesh, t, pw)
        resid[rows] = loads[t] - b @ x_t
    checks["riesz"] = abs(eta ** 2 - resid @ np.linalg.solve(big_g, resid)) \
        <= 1e-10 * max(1.0, eta ** 2)

    # zero load produces the zero solution
    zero_cond = sc.condense_mesh(mesh, cfg, lambda x_, y_: [(0.0, x_, y_)])
    x_zero = full_solution(*slv.solve_condensed(mesh, dm, zero_cond)[:2])
    checks["zero"] = np.abs(x_zero).max() <= 1e-14

    # element-order permutation invariance
    order = np.arange(mesh.n_triangles)[::-1]
    gs_perm = slv.assemble_global(dofs[order], dm.n_trace, permuted(condensed, order))
    diff = np.abs((gs.matrix - gs_perm.matrix).toarray()).max()
    checks["permutation"] = diff <= 1e-14 * np.abs(dense).max()

    ok = all(checks.values())
    report(10, ok, "invariants " + ", ".join(
        f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()))
