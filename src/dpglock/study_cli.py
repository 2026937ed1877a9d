"""Convergence-study driver and command line front end.

A study solves one configuration (problem, domain, boundary layout, test-norm
scaling) on a sequence of uniformly refined meshes and reports per level the
free unknown count, the L2 field errors, and the energy residual, as CSV.

Manufactured solutions: on (0,R1)x(0,R2) every exact solution is a product
u = X(x) Y(y) of powers of sines, X = sin(pi x/R1)^p and Y = sin(pi y/R2)^p
with p = 1 for Poisson and p = 2 for the plate, except Y = 1 on the mixed
layout (essential conditions only on x = 0 and x = R1, natural ones
elsewhere).  The load is the model operator applied to u: gamma u - lap u for
Poisson, the bilaplacian for the plate.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fem_core as fc
from . import mesh as msh
from . import plate_uw as plw
from . import poisson_uw as pw
from . import solver as slv

POISSON = "poisson"
PLATE = "plate"
NORM_STANDARD = "standard"
NORM_SCALED = "scaled"

CSV_HEADER = "dofDPG,errU,errSigma,err"
ERROR_QUAD_DEGREE = 10


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclass(frozen=True)
class StudyConfig:
    problem: str
    gamma: float = 0.0
    r1: float = 1.0
    r2: float = 1.0
    bc: str = msh.ALL_DIRICHLET
    norm: str = NORM_STANDARD
    d_override: Optional[float] = None
    levels: int = 5
    ny0: int = 2
    out: Optional[str] = None

    def validate(self) -> None:
        if self.problem not in (POISSON, PLATE):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.bc not in (msh.ALL_DIRICHLET, msh.LEFT_RIGHT_DIRICHLET):
            raise ConfigError(f"unknown boundary layout {self.bc!r}")
        if self.norm not in (NORM_STANDARD, NORM_SCALED):
            raise ConfigError(f"unknown norm mode {self.norm!r}")
        d = 1.0 if self.d_override is None else self.d_override
        if not np.isfinite([self.r1, self.r2, self.gamma, d]).all():
            raise ConfigError("r1, r2, gamma and d must be finite")
        if not (self.r1 > 0 and self.r2 > 0):
            raise ConfigError("domain sides must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if self.problem == PLATE and self.gamma != 0:
            raise ConfigError("the plate model has no reaction term")
        if not all(isinstance(n, (int, np.integer)) for n in (self.levels, self.ny0)):
            raise ConfigError("levels and ny0 must be integers")
        if self.levels < 1:
            raise ConfigError("need at least one refinement level")
        if self.ny0 < 1:
            raise ConfigError("coarsest resolution ny0 must be >= 1")
        if self.d_override is not None:
            if self.norm == NORM_STANDARD:
                raise ConfigError("--d overrides the scaled norm; "
                                  "it conflicts with --norm standard")
            if self.d_override <= 0:
                raise ConfigError("scaling override must be positive")
        # the test norm weighs its terms by d^-p and d^p; both are normal float64
        # values exactly when p |log2 d| <= 1022 (the least normal is 2^-1022)
        p, d = (2 if self.problem == POISSON else 4), pick_d(self)
        if p * abs(np.log2(d)) > -np.finfo(float).minexp:
            raise ConfigError(f"scaling length d = {d:.3g}: d^{p} or d^-{p} of the "
                              f"{self.problem} test norm is not a normal float64")
        # the finest mesh (make_rect_mesh's nx columns, 2 triangles a cell, 4 children each)
        # must be indexable with normal float64 Jacobians, and (2 pi / side)^4 finite
        nx = max(1.0, float(np.floor(self.ny0 * self.r1 / self.r2 + 0.5)))
        room = np.iinfo(np.intp).bits - 1 - float(np.log2(2.0 * nx * self.ny0))
        if self.levels - 1 >= room / 2:  # compared exactly, however large levels is
            raise ConfigError("the finest mesh has more triangles than an array can hold")
        det = self.r1 / nx * self.r2 / self.ny0 / 4.0 ** (self.levels - 1)
        if not np.finfo(float).tiny <= det < np.inf:
            raise ConfigError(f"the finest Jacobian determinant {det:.3g} is not a normal float64")
        if min(self.r1, self.r2) < 2 * np.pi / np.finfo(float).max ** 0.25:
            raise ConfigError("(2 pi / min side)^4, a factor of the plate load, overflows float64")
        if self.out is not None:  # checked without creating or truncating the file
            path = os.path.abspath(self.out)
            folder = os.path.dirname(path)
            if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(
                    path if os.path.exists(path) else folder, os.W_OK)):
                raise ConfigError(f"cannot write the CSV to {self.out!r}")


def pick_d(cfg: StudyConfig) -> float:
    """Test-norm scaling length: 1 for the standard norm; otherwise the
    Poincare length of the essential boundary layout (min side for all-around
    Dirichlet/clamped, the span R1 between the two Dirichlet sides for the
    mixed layout), unless explicitly overridden."""
    if cfg.d_override is not None:
        return float(cfg.d_override)
    if cfg.norm == NORM_STANDARD:
        return 1.0
    if cfg.bc == msh.ALL_DIRICHLET:
        return float(min(cfg.r1, cfg.r2))
    return float(cfg.r1)


@dataclass(frozen=True)
class ExactBundle:
    """Vectorized evaluators of the manufactured solution.

    du(x, y, *orders) returns [d^(i+j) u / dx^i dy^j for (i, j) in orders]
    from one sine evaluation per coordinate; f is the matching load
    (-lap u + gamma u, or the bilaplacian).
    """

    du: Callable
    f: Callable


def sine_power(p: int, c: float, t: np.ndarray, orders) -> dict:
    """{k: k-th derivative of sin(c t)^p at t, for k in orders}, p in {0, 1, 2}.  As
    sin(c t)^p = a + b sin(w t + q pi/2), that is [k = 0] a + b w^k sin(w t + (k + q) pi/2),
    and sin(w t + m pi/2) is sin, cos, -sin or -cos of w t for m % 4 = 0, 1, 2 or 3."""
    if p == 0:  # the constant 1, without trig
        return {k: np.full(np.shape(t), float(k == 0)) for k in orders}
    a, b, w, q = ((0.0, 1.0, c, 0), (0.5, -0.5, 2 * c, 1))[p - 1]
    trig = {m: (np.sin, np.cos)[m](w * t) for m in {(k + q) % 2 for k in orders}}
    return {k: (a if k == 0 else 0.0)
            + b * w ** k * (1, 1, -1, -1)[(k + q) % 4] * trig[(k + q) % 2] for k in orders}


def exact_bundle(cfg: StudyConfig) -> ExactBundle:
    px = 1 if cfg.problem == POISSON else 2
    py = px if cfg.bc == msh.ALL_DIRICHLET else 0

    def du(x, y, *orders):  # [d^(i+j) u / dx^i dy^j for (i, j) in orders]
        dx = sine_power(px, np.pi / cfg.r1, x, [i for i, _ in orders])
        dy = sine_power(py, np.pi / cfg.r2, y, [j for _, j in orders])
        return [dx[i] * dy[j] for i, j in orders]

    op = ({(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0} if cfg.problem == PLATE  # bilaplacian
          else {(0, 0): cfg.gamma, (2, 0): -1.0, (0, 2): -1.0})  # gamma u - lap u
    op = {order: c for order, c in op.items() if c != 0}
    return ExactBundle(du, lambda x, y: sum(c * d for c, d in zip(op.values(), du(x, y, *op))))


def condense_mesh(mesh: msh.Mesh, cfg: StudyConfig, d: float, f) -> slv.Condensed:
    """Condensed local systems of every element, fields eliminated.

    Structured meshes contain only a handful of element shapes, so Gram and
    trial-to-test matrices are built and condensed once per congruence class:
    elements whose Jacobians agree to 1e-12 of the largest Jacobian entry of
    the mesh.  B is built in the element's outward orientation; the mesh's
    edge signs go to the one orientation-odd trace slot of each edge
    (SIGNED_TRACE of the model module) in Condensed.sign.  Only the load
    depends on the element position.
    """
    verts = mesh.vertices[mesh.triangles]
    jac = (verts[:, 1:] - verts[:, :1]).reshape(-1, 4)
    key = np.rint(jac / np.abs(jac).max() * 1e12).astype(np.int64)
    # classes in lexicographic order of the key rows, each led by its first element
    order = np.lexsort(key.T[::-1])
    rows = key[order]
    new = np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]
    first, cls = order[new], np.empty_like(order)
    cls[order] = np.cumsum(new) - 1
    amaps = [fc.map_affine(mesh, t) for t in first]
    if cfg.problem == POISSON:
        model = pw
        gram = [pw.local_gram_poisson(amap, d) for amap in amaps]
        b = [pw.local_b_poisson(amap, cfg.gamma) for amap in amaps]
        load = pw.local_load_poisson(verts, f)
    else:
        model = plw
        gram = [plw.local_gram_plate(amap, d) for amap in amaps]
        b = [plw.local_b_plate(amap) for amap in amaps]
        load = plw.local_load_plate(verts, f)
    sign = np.ones((mesh.n_triangles, model.N_TRIAL - model.N_FIELD))
    sign[:, model.SIGNED_TRACE] = mesh.tri_edge_signs
    try:
        return slv.condense(np.stack(gram), np.stack(b), cls, sign, load, model.N_FIELD)
    except slv.NotSPDError as exc:
        raise slv.NotSPDError(f"d = {d}: {exc}") from exc


@dataclass(frozen=True)
class LevelSolution:
    n_free: int
    fields: np.ndarray
    eta: float


def solve_level(mesh: msh.Mesh, cfg: StudyConfig, d: float, f) -> LevelSolution:
    dofmap = (pw.dof_map_poisson if cfg.problem == POISSON else plw.dof_map_plate)(mesh)
    cond = condense_mesh(mesh, cfg, d, f)
    fields, _, local = slv.solve_condensed(mesh, dofmap, cond)
    _, eta = slv.energy_residual(cond, fields, local)
    return LevelSolution(dofmap.n_free, fields, eta)


def compute_errors(mesh: msh.Mesh, cfg: StudyConfig, fields: np.ndarray,
                   exact: ExactBundle) -> tuple:
    """(errU, errSigma): L2 errors of the (nt, n_field) piecewise-constant
    fields by degree-10 quadrature, summed over the blocks of
    fem_core.point_chunks; the flux is grad u for Poisson and the moment
    -hess u for the plate."""
    rule = fc.quad_triangle(ERROR_QUAD_DEGREE)
    if cfg.problem == POISSON:
        orders, sign, weight = ((1, 0), (0, 1)), 1.0, np.ones(2)
    else:
        orders, sign, weight = ((2, 0), (1, 1), (0, 2)), -1.0, np.array(plw.COMPONENT_WEIGHT)
    err_u_sq = err_flux_sq = 0.0
    for sl, det, phys in fc.point_chunks(mesh.vertices[mesh.triangles], rule.points):
        u, *flux = exact.du(phys[..., 0], phys[..., 1], (0, 0), *orders)
        # sign times the flux error: the plate's moment -hess u against M_h
        # is hess u against -M_h
        flux_err = np.stack(flux, axis=-1) - sign * fields[sl, None, 1:]
        err_u_sq += det @ ((u - fields[sl, :1]) ** 2 @ rule.weights)
        err_flux_sq += det @ (flux_err ** 2 @ weight @ rule.weights)
    return float(np.sqrt(err_u_sq)), float(np.sqrt(err_flux_sq))


def run_study(cfg: StudyConfig):
    """One row (dofDPG, errU, errSigma, err) per refinement level.

    The errSigma column carries the moment error for the plate so both
    problems share one CSV schema.
    """
    cfg.validate()
    mesh = msh.classify_boundary(msh.make_rect_mesh(cfg.r1, cfg.r2, cfg.ny0), cfg.bc)
    d = pick_d(cfg)
    exact = exact_bundle(cfg)
    rows = []
    for level in range(cfg.levels):
        try:
            sol = solve_level(mesh, cfg, d, exact.f)
        except slv.SolverError as exc:
            raise slv.SolverError(f"level {level}: {exc}") from exc
        err_u, err_flux = compute_errors(mesh, cfg, sol.fields, exact)
        rows.append((sol.n_free, err_u, err_flux, sol.eta))
        if level + 1 < cfg.levels:
            mesh = msh.refine_uniform(mesh)
    return rows


def flag_echo(cfg: StudyConfig) -> str:
    parts = [f"--problem {cfg.problem}", f"--gamma {cfg.gamma!r}",
             f"--r1 {cfg.r1!r}", f"--r2 {cfg.r2!r}", f"--bc {cfg.bc}",
             f"--norm {cfg.norm}"]
    if cfg.d_override is not None:
        parts.append(f"--d {cfg.d_override!r}")
    parts += [f"--levels {cfg.levels}", f"--ny0 {cfg.ny0}"]
    return " ".join(parts)


def write_csv(cfg: StudyConfig, rows, stream) -> None:
    """Fixed CSV schema: a flag-echo comment, the header, one row per level,
    floats in shortest round-trip form."""
    stream.write(f"# dpg-lock study: {flag_echo(cfg)}\n")
    stream.write(CSV_HEADER + "\n")
    for dof, err_u, err_flux, err in rows:
        stream.write(f"{dof},{err_u!r},{err_flux!r},{err!r}\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for solver failures
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpg-lock",
                     description="Convergence studies for minimum-residual "
                                 "schemes with domain-scaled test norms.")
    parser.add_argument("--problem", choices=(POISSON, PLATE), required=True)
    parser.add_argument("--gamma", type=float, default=0.0,
                        help="reaction coefficient (poisson only, default 0)")
    parser.add_argument("--r1", type=float, default=1.0, help="domain width")
    parser.add_argument("--r2", type=float, default=1.0, help="domain height")
    parser.add_argument("--bc", choices=(msh.ALL_DIRICHLET, msh.LEFT_RIGHT_DIRICHLET),
                        default=msh.ALL_DIRICHLET)
    parser.add_argument("--norm", choices=(NORM_STANDARD, NORM_SCALED),
                        default=NORM_STANDARD)
    parser.add_argument("--d", type=float, default=None, dest="d_override",
                        help="override the scaling length of the scaled norm")
    parser.add_argument("--levels", type=int, default=5)
    parser.add_argument("--ny0", type=int, default=2,
                        help="cell rows of the coarsest mesh (default 2)")
    parser.add_argument("--out", type=str, default=None,
                        help="CSV output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    try:
        cfg = StudyConfig(**vars(build_parser().parse_args(argv)))
        rows = run_study(cfg)  # validates cfg before level 0
    except ConfigError as exc:
        print(f"dpg-lock: configuration error: {exc}", file=sys.stderr)
        return 1
    except slv.SolverError as exc:
        print(f"dpg-lock: solver failure: {exc}", file=sys.stderr)
        return 2
    if cfg.out is None:
        write_csv(cfg, rows, sys.stdout)
    else:
        with open(cfg.out, "w") as stream:
            write_csv(cfg, rows, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
