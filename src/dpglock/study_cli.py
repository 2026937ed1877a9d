"""Convergence-study driver and command line front end.

A study solves one configuration (problem, domain, boundary layout, test-norm
scaling) on a sequence of uniformly refined meshes and reports per level the
free unknown count, the L2 field errors, and the energy residual, as CSV.

Each problem is the ultraweak form of gamma u + (-lap)^k u = f with the flux
(-1)^(k+1) grad^k u and a test norm weighted by d^-2k and d^2k, where k is
the ORDER of its model module; MODELS holds the module and its kernels.  The
weights are a change of units: every study is solved in units of d (unit_config).
Manufactured solutions: on (0,R1)x(0,R2) every exact solution is a product
u = X(x) Y(y) of powers of sines, X = sin(pi x/R1)^k and Y = sin(pi y/R2)^k,
except Y = 1 on the mixed layout (essential conditions only on x = 0 and
x = R1, natural ones elsewhere).  The load is the model operator applied to u.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import namedtuple
from dataclasses import MISSING, dataclass, replace
from numbers import Integral, Real
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


# Per problem: the element module (ORDER, N_FIELD, N_TRIAL, SIGNED_TRACE) and its kernels
# gram(amap), b(amap, gamma), load(verts, f) and dof_map(mesh).  The kernels name the
# module functions when called, so that a wrapper installed on the module later runs.
Model = namedtuple("Model", "module gram b load dof_map")
MODELS = {
    POISSON: Model(pw, lambda amap: pw.local_gram_poisson(amap),
                   lambda amap, gamma: pw.local_b_poisson(amap, gamma),
                   lambda verts, f: pw.local_load_poisson(verts, f),
                   lambda mesh: pw.dof_map_poisson(mesh)),
    PLATE: Model(plw, lambda amap: plw.local_gram_plate(amap),
                 lambda amap, gamma: plw.local_b_plate(amap),
                 lambda verts, f: plw.local_load_plate(verts, f),
                 lambda mesh: plw.dof_map_plate(mesh)),
}


def option(kind, default=MISSING, *, flag=None, choices=None, help=None, echo=True):
    """A StudyConfig field and its command line option: the kind of its value (float, int
    or str), its flag (--name by default), choices and help text, and whether the CSV
    comment echoes it."""
    return dataclasses.field(default=default, metadata=dict(kind=kind, flag=flag,
                                                            choices=choices, help=help, echo=echo))


def flag(f: dataclasses.Field) -> str:
    return f.metadata["flag"] or f"--{f.name}"


# per kind, the values that StudyConfig turns into it: real numbers (numpy scalars too)
# become Python floats and ints, so that they compute in float64 and echo as CLI flags,
# and path objects become strings; validate rejects anything else
COERCE = {float: (Real, float), int: (Integral, int), str: (os.PathLike, os.fspath)}


@dataclass(frozen=True)
class StudyConfig:
    """One study; each field is a command line option (see option)."""

    problem: str = option(str, choices=tuple(MODELS))
    gamma: float = option(float, 0.0, help="reaction coefficient (poisson only, default 0)")
    r1: float = option(float, 1.0, help="domain width")
    r2: float = option(float, 1.0, help="domain height")
    bc: str = option(str, msh.ALL_DIRICHLET, choices=msh.LAYOUTS)
    norm: str = option(str, NORM_STANDARD, choices=(NORM_STANDARD, NORM_SCALED))
    d_override: Optional[float] = option(float, None, flag="--d",
                                         help="override the scaling length of the scaled norm")
    levels: int = option(int, 5)
    ny0: int = option(int, 2, help="cells along the shorter side of the coarsest mesh (default 2)")
    out: Optional[str] = option(str, None, help="CSV output path (default: stdout)", echo=False)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, (accepts, to) = getattr(self, f.name), COERCE[f.metadata["kind"]]
            if isinstance(value, accepts) and not isinstance(value, bool):
                object.__setattr__(self, f.name, to(value))

    def validate(self) -> None:
        for f in dataclasses.fields(self):  # before any range check: type, then choices
            value, kind, choices = getattr(self, f.name), f.metadata["kind"], f.metadata["choices"]
            if type(value) is not kind and not (value is None and f.default is None):
                raise ConfigError(f"{flag(f)} must be of type {kind.__name__}, not {value!r}")
            if choices and value not in choices:
                raise ConfigError(f"unknown {f.name} {value!r}; {flag(f)} takes one of "
                                  f"{', '.join(choices)}")
        d = 1.0 if self.d_override is None else self.d_override
        if not np.isfinite([self.r1, self.r2, self.gamma, d]).all():
            raise ConfigError("r1, r2, gamma and d must be finite")
        if not (self.r1 > 0 and self.r2 > 0):
            raise ConfigError("domain sides must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if self.problem == PLATE and self.gamma != 0:
            raise ConfigError("the plate model has no reaction term")
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
        # solved in units of d, the rows are scaled back by d and d^(1-k)
        model, (unit, d, scale) = MODELS[self.problem].module, unit_config(self)
        k, n_trace = model.ORDER, model.N_TRIAL - model.N_FIELD
        if not (all(np.finfo(float).tiny <= x < np.inf for x in (d, scale))
                and np.isfinite(unit.gamma)):
            raise ConfigError(f"scaling length d = {d:.3g}: d or d^{1 - k} is not a normal "
                              f"float64, or the reaction gamma d^{2 * k} overflows")
        # the finest mesh on the sides R/d (nx x ny cells, 2 triangles a cell, 4 children each)
        # must list its trace slots by int32 (TreeFactor), with normal float64 Jacobians, and
        # the load's (k pi / side)^2k finite
        nx, ny = msh.cells(self.r1, self.r2, self.ny0)
        room = 31 - float(np.log2(2.0 * nx * ny * n_trace))
        if self.levels - 1 >= room / 2:  # compared exactly, however large levels is
            raise ConfigError(f"the finest mesh lists 2^31 or more trace slots ({n_trace} a "
                              "triangle), more than int32 indexes")
        det = unit.r1 / nx * unit.r2 / ny / 4.0 ** (self.levels - 1)
        if not np.finfo(float).tiny <= det < np.inf:
            raise ConfigError(f"the finest Jacobian determinant {det:.3g} is not a normal float64")
        if min(unit.r1, unit.r2) < k * np.pi / np.finfo(float).max ** (1 / (2 * k)):
            raise ConfigError(f"({k} pi / min side)^{2 * k}, a factor of the {self.problem} "
                              "load, overflows float64")
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


def unit_config(cfg: StudyConfig):
    """(unit, d, d^(1-k)): with x = d x', d = pick_d(cfg) and k = ORDER, the study cfg is unit,
    the standard-norm study on the sides R/d with reaction gamma d^2k (and load d^2k f).  The
    errU of cfg is d times that of unit, its errSigma and energy residual d^(1-k) times."""
    d, k = pick_d(cfg), MODELS[cfg.problem].module.ORDER
    with np.errstate(over="ignore"):  # validate rejects what overflows
        gamma = cfg.gamma * np.float64(d) ** (2 * k) if cfg.gamma else 0.0
        scale = np.float64(d) ** (1 - k)
    return (replace(cfg, r1=cfg.r1 / d, r2=cfg.r2 / d, gamma=float(gamma), norm=NORM_STANDARD,
                    d_override=None), d, float(scale))


@dataclass(frozen=True)
class ExactBundle:
    """Separable evaluators of the manufactured solution: each returns terms
    (c, X, Y) with X evaluated where x is and Y where y is, the value being
    c X Y at the points (x, y) (fem_core.point_values).

    du(x, y, *orders) returns one term per order, of d^(i+j) u / dx^i dy^j
    for (i, j) in orders, from one sine evaluation per coordinate; f(x, y)
    returns the terms of the matching load gamma u + (-lap)^k u, summed.
    """

    du: Callable
    f: Callable


def sine_power(p: int, c: float, t: np.ndarray, orders) -> dict:
    """{k: k-th derivative of sin(c t)^p at t, for k in orders}, p in {0, 1, 2}.  As
    sin(c t)^p = a + b sin(w t + q pi/2), that is [k = 0] a + b w^k sin(w t + (k + q) pi/2),
    and sin(w t + m pi/2) is sin, cos, -sin or -cos of w t for m % 4 = 0, 1, 2 or 3."""
    a, b, w, q = ((1.0, 0.0, 0.0, 0), (0.0, 1.0, c, 0), (0.5, -0.5, 2 * c, 1))[p]
    trig = {m: (np.sin, np.cos)[m](w * t) for m in {(k + q) % 2 for k in orders}}
    return {k: (a if k == 0 else 0.0)
            + b * w ** k * (1, 1, -1, -1)[(k + q) % 4] * trig[(k + q) % 2] for k in orders}


def exact_bundle(cfg: StudyConfig) -> ExactBundle:
    k = px = MODELS[cfg.problem].module.ORDER
    py = px if cfg.bc == msh.ALL_DIRICHLET else 0

    def du(x, y, *orders):  # [d^(i+j) u / dx^i dy^j for (i, j) in orders] as terms
        dx = sine_power(px, np.pi / cfg.r1, x, [i for i, _ in orders])
        dy = sine_power(py, np.pi / cfg.r2, y, [j for _, j in orders])
        return [(1.0, dx[i], dy[j]) for i, j in orders]

    # gamma u + (-lap)^k u, (-lap)^k = (-1)^k sum_i C(k, i) d_x^(2k-2i) d_y^(2i)
    op = {(0, 0): cfg.gamma, **{(2 * k - 2 * i, 2 * i): (-1.0) ** k * c
                                for i, c in enumerate(fc.multiplicities(k))}}
    op = {order: c for order, c in op.items() if c != 0}
    return ExactBundle(du, lambda x, y: [(c, dx, dy) for c, (_, dx, dy)
                                         in zip(op.values(), du(x, y, *op))])


def condense_mesh(mesh: msh.Mesh, cfg: StudyConfig, f) -> slv.Condensed:
    """Condensed local systems of every element, fields eliminated.

    Structured meshes contain only a handful of element shapes, so Gram and
    trial-to-test matrices are built and condensed once per congruence class:
    elements whose Jacobians agree to 1e-12 of the largest Jacobian entry of
    the mesh.  B is built in the element's outward orientation; the mesh's
    edge signs go to the one orientation-odd trace slot of each edge
    (SIGNED_TRACE of the model module) in Condensed.sign.  Only the load
    depends on the element position; the model returns its nonzero
    columns, the leading test rows.
    """
    verts = mesh.vertices[mesh.triangles]
    jac = (verts[:, 1:] - verts[:, :1]).reshape(-1, 4)
    # classes in lexicographic order of the key rows, each led by its first element
    first, cls = fc.unique_rows(np.rint(jac / np.abs(jac).max() * 1e12).astype(np.int64))
    cls = cls.astype(np.min_scalar_type(len(first)))  # a handful of classes: uint8
    amaps = [fc.map_affine(mesh, t) for t in first]
    uw, gram, b, load, _ = MODELS[cfg.problem]
    sign = np.ones((mesh.n_triangles, uw.N_TRIAL - uw.N_FIELD), np.int8)
    sign[:, uw.SIGNED_TRACE] = mesh.tri_edge_signs
    return slv.condense(lambda: (np.stack([gram(amap) for amap in amaps]),
                                 np.stack([b(amap, cfg.gamma) for amap in amaps]),
                                 load(verts, f)), cls, sign, uw.N_FIELD)


def solve_level(mesh: msh.Mesh, cfg: StudyConfig, f):
    """(n_free, fields, eta): the free unknown count of the level, its
    (nt, n_field) fields and its energy residual."""
    dofmap = MODELS[cfg.problem].dof_map(mesh)
    cond = condense_mesh(mesh, cfg, f)
    fields, _, local = slv.solve_condensed(mesh, dofmap, cond)
    _, eta = slv.energy_residual(cond, fields, local)
    return dofmap.n_free, fields, eta


def compute_errors(mesh: msh.Mesh, cfg: StudyConfig, fields: np.ndarray,
                   exact: ExactBundle) -> tuple:
    """(errU, errSigma): L2 errors of the (nt, n_field) piecewise-constant
    fields by degree-10 quadrature, summed over the blocks of
    fem_core.point_values.  The flux (-1)^(k+1) grad^k u has the components
    d^k u / dx^(k-i) dy^i, i = 0..k, each counted C(k, i) times
    (fem_core.multiplicities)."""
    rule = fc.quad_triangle(ERROR_QUAD_DEGREE)
    k = MODELS[cfg.problem].module.ORDER
    orders = [(k - i, i) for i in range(k + 1)]
    sign, weight = (-1.0) ** (k + 1), fc.multiplicities(k)
    err_u_sq = err_flux_sq = 0.0
    for sl, det, (u, *flux) in fc.point_values(mesh.vertices[mesh.triangles], rule.points,
                                               lambda x, y: exact.du(x, y, (0, 0), *orders)):
        # sign times the flux error: grad^k u against (-1)^(k+1) times the flux field
        flux_err = np.stack(flux, axis=-1) - sign * fields[sl, None, 1:]
        err_u_sq += det @ ((u - fields[sl, :1]) ** 2 @ rule.weights)
        err_flux_sq += det @ (flux_err ** 2 @ weight @ rule.weights)
    return float(np.sqrt(err_u_sq)), float(np.sqrt(err_flux_sq))


def run_study(cfg: StudyConfig):
    """One row (dofDPG, errU, errSigma, err) per refinement level; errSigma
    is the error of the flux field, whatever the problem calls it.  The levels are solved
    in units of d, with the cell counts of the given sides: R1/d / R2/d may round the other way.
    They run numpy's BLAS on one thread (solver.one_blas_thread), so the rows are the same
    whatever the core count or OPENBLAS_NUM_THREADS.  A SolverError, or a MemoryError while
    a level's mesh is built, solved or evaluated, raises SolverError naming the level."""
    cfg.validate()
    unit, d, scale = unit_config(cfg)
    exact = exact_bundle(unit)
    rows, level = [], 0
    with slv.one_blas_thread():
        try:
            mesh = msh.classify_boundary(msh.make_rect_mesh(
                unit.r1, unit.r2, cfg.ny0, msh.cells(cfg.r1, cfg.r2, cfg.ny0)), cfg.bc)
            for level in range(cfg.levels):
                if level:
                    mesh = msh.refine_uniform(mesh)
                n_free, fields, eta = solve_level(mesh, unit, exact.f)
                err_u, err_flux = compute_errors(mesh, unit, fields, exact)
                rows.append((n_free, err_u * d, err_flux * scale, eta * scale))
        except (slv.SolverError, MemoryError) as exc:  # coordinates are the mesh's, in units of d
            units = f" (lengths in units of d = {d:g})" if d != 1 else ""
            what = exc if isinstance(exc, slv.SolverError) else f"does not fit in memory: {exc}"
            raise slv.SolverError(f"level {level}{units}: {what}") from exc
    return rows


def flag_echo(cfg: StudyConfig) -> str:
    """The echoed options of cfg as flags that parse back to it; a float prints in its
    shortest round-trip form."""
    values = [(f, getattr(cfg, f.name)) for f in dataclasses.fields(cfg) if f.metadata["echo"]]
    return " ".join(f"{flag(f)} {value}" for f, value in values if value is not None)


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
    """The CLI; an option left out is left out of the namespace, so that
    StudyConfig's default fills it in."""
    parser = _Parser(prog="dpg-lock", argument_default=argparse.SUPPRESS,
                     description="Convergence studies for minimum-residual "
                                 "schemes with domain-scaled test norms.")
    for f in dataclasses.fields(StudyConfig):
        parser.add_argument(flag(f), dest=f.name, type=f.metadata["kind"],
                            required=f.default is MISSING, choices=f.metadata["choices"],
                            help=f.metadata["help"])
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
