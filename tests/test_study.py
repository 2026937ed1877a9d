import io
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from math import comb
from pathlib import Path

import numpy as np
import pytest

from dpglock import fem_core as fc
from dpglock import mesh as msh
from dpglock import plate_uw as plw
from dpglock import poisson_uw as pw
from dpglock import solver as slv
from dpglock import study_cli as sc
from helpers import condense_rhs_arguments, exact_u_grad_hess, full_solution, pointwise


def cfg_poisson(**kw):
    base = dict(problem="poisson", levels=2, ny0=2)
    base.update(kw)
    return sc.StudyConfig(**base)


@pytest.mark.parametrize("cfg,expected", [
    (cfg_poisson(r1=100.0, r2=100.0, norm="scaled"), 100.0),
    (cfg_poisson(r1=1000.0, r2=1.0, bc="mixed", norm="scaled"), 1000.0),
    (cfg_poisson(r1=100.0, r2=100.0, norm="standard"), 1.0),
    (sc.StudyConfig(problem="plate", r1=7.0, r2=3.0, norm="scaled"), 3.0),
    (cfg_poisson(r1=10.0, r2=1.0, norm="scaled"), 1.0),
    (cfg_poisson(norm="scaled", d_override=42.0), 42.0),
])
def test_pick_d(cfg, expected):
    assert sc.pick_d(cfg) == expected


def test_config_validation(tmp_path):
    with pytest.raises(sc.ConfigError):
        cfg_poisson(r1=-1.0).validate()
    with pytest.raises(sc.ConfigError):
        cfg_poisson(gamma=-0.5).validate()
    with pytest.raises(sc.ConfigError):
        sc.StudyConfig(problem="plate", gamma=1.0).validate()
    with pytest.raises(sc.ConfigError):
        cfg_poisson(levels=0).validate()
    with pytest.raises(sc.ConfigError):
        cfg_poisson(ny0=0).validate()
    with pytest.raises(sc.ConfigError):
        cfg_poisson(norm="standard", d_override=2.0).validate()
    with pytest.raises(sc.ConfigError):
        cfg_poisson(problem="heat").validate()
    for bad in (dict(r1=np.inf), dict(r2=np.nan), dict(gamma=np.nan), dict(gamma=np.inf),
                dict(norm="scaled", d_override=np.nan),
                dict(norm="scaled", d_override=np.inf)):
        with pytest.raises(sc.ConfigError):
            cfg_poisson(**bad).validate()
    # values of the wrong type, text fields included, are named as such before any range check
    for bad in (dict(levels=2.5), dict(ny0=1.5), dict(levels=np.nan),
                dict(levels=True), dict(ny0=True), dict(levels=np.bool_(True)),
                dict(gamma=False), dict(r1="1"), dict(r1=1 + 0j), dict(r2=np.complex128(1.0)),
                dict(problem=["poisson"]), dict(bc=["mixed"]), dict(norm=1), dict(out=3)):
        with pytest.raises(sc.ConfigError, match="must be of type"):
            cfg_poisson(**bad).validate()
    path = cfg_poisson(out=tmp_path / "study.csv")  # a path object is taken as its string
    path.validate()
    assert path.out == str(tmp_path / "study.csv")


def test_finest_mesh_lists_its_trace_slots_by_int32():
    # 6 trace slots a Poisson triangle, 2 triangles a cell, 4^(levels - 1) per coarse one:
    # 6 * 2 * 4^14 >= 2^31 > 6 * 2 * 4^13; validate solves nothing
    with pytest.raises(sc.ConfigError, match="int32"):
        cfg_poisson(levels=15, ny0=1).validate()
    cfg_poisson(levels=14, ny0=1).validate()


def test_flag_echo_parses_back_to_the_config():
    cfg = sc.StudyConfig(problem="plate", gamma=0.5, r1=3.0, r2=0.25, bc="mixed", norm="scaled",
                         d_override=1.5, levels=3, ny0=4)
    echoed = [f for f in fields(cfg) if f.metadata["echo"]]
    assert all(getattr(cfg, f.name) != f.default for f in echoed)  # every one at a non-default
    assert sc.StudyConfig(**vars(sc.build_parser().parse_args(sc.flag_echo(cfg).split()))) == cfg


def test_readme_lists_every_flag():
    # the one copy of the option list that the StudyConfig fields do not generate
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    flags = re.findall(r"--\w+", sc.build_parser().format_usage())
    assert len(flags) == len(fields(sc.StudyConfig))
    assert [f for f in flags if not re.search(rf"`{f}\b|/{f}\b", section)] == []


def test_config_holds_numpy_scalars_as_python_numbers():
    # they echo as flags that parse back to the config, and compute in float64
    cfg = cfg_poisson(gamma=np.int64(1), r1=np.float64(2.0), r2=np.float32(0.5),
                      norm="scaled", d_override=np.float32(0.25), levels=np.int64(1),
                      ny0=np.int32(2))
    assert all(type(x) is float for x in (cfg.gamma, cfg.r1, cfg.r2, cfg.d_override))
    assert type(cfg.levels) is int and type(cfg.ny0) is int
    echo = sc.flag_echo(cfg)
    assert "np." not in echo
    assert sc.StudyConfig(**vars(sc.build_parser().parse_args(echo.split()))) == cfg
    single = cfg_poisson(r1=np.float32(1.0), r2=np.float32(1.0), levels=1)
    assert sc.run_study(single) == sc.run_study(cfg_poisson(levels=1))


def test_exact_bundle_mixed_rhs_value():
    r = 17.0
    exact = sc.exact_bundle(cfg_poisson(r1=r, r2=1.0, bc="mixed"))
    y = np.array([0.3])
    assert np.isclose(pointwise(exact.f)(np.array([r / 2]), y)[0], np.pi ** 2 / r ** 2,
                      rtol=1e-14)


def test_exact_bundle_dirichlet_rhs_value():
    exact = sc.exact_bundle(cfg_poisson())
    assert np.isclose(pointwise(exact.f)(np.array([0.5]), np.array([0.5]))[0],
                      2 * np.pi ** 2, rtol=1e-14)


def test_exact_bundle_skips_constant_profiles_and_zero_terms(monkeypatch):
    # Y = 1 on the mixed layout is returned as constants; a zero gamma drops u from f
    t = np.linspace(0.0, 1.0, 7).reshape(7, 1)
    y = sc.sine_power(0, np.pi, t, [0, 1, 2])
    assert y[0].shape == y[1].shape == t.shape
    assert (y[0] == 1.0).all() and (y[1] == 0.0).all() and (y[2] == 0.0).all()
    calls = []
    sine_power = sc.sine_power
    monkeypatch.setattr(sc, "sine_power",
                        lambda *args: calls.append(args[3]) or sine_power(*args))
    x = np.linspace(0.1, 0.9, 5)
    for gamma in (0.0, 1.0):
        exact = sc.exact_bundle(cfg_poisson(gamma=gamma))
        calls.clear()
        f = pointwise(exact.f)(x, x)
        u, uxx, uyy = (c * (fx * fy) for c, fx, fy in exact.du(x, x, (0, 0), (2, 0), (0, 2)))
        assert calls[0] == ([2, 0] if gamma == 0 else [0, 2, 0])
        assert np.array_equal(f, gamma * u - uxx - uyy)


@pytest.mark.parametrize("problem, bc", [("poisson", "dirichlet"), ("poisson", "mixed"),
                                         ("plate", "dirichlet"), ("plate", "mixed")])
def test_exact_bundle_boundary_conditions(problem, bc):
    r1, r2 = 2.0, 3.0
    exact = sc.exact_bundle(sc.StudyConfig(problem=problem, r1=r1, r2=r2, bc=bc))
    u, grad, hess = exact_u_grad_hess(exact)
    t = np.linspace(0.0, 1.0, 7)
    left_right = (np.repeat([0.0, r1], 7), np.tile(r2 * t, 2))
    bottom_top = (np.tile(r1 * t, 2), np.repeat([0.0, r2], 7))
    for x, y in [left_right] + ([bottom_top] if bc == "dirichlet" else []):
        assert np.allclose(u(x, y), 0.0, atol=1e-14)
        if problem == "plate":  # clamped
            assert np.allclose(grad(x, y), 0.0, atol=1e-13)
    if bc == "mixed":  # free on y = 0 and y = R2
        x, y = bottom_top
        if problem == "poisson":
            assert np.allclose(grad(x, y)[..., 1], 0.0, atol=1e-14)
        else:
            assert np.allclose(hess(x, y)[..., 1:], 0.0, atol=1e-13)


@pytest.mark.parametrize("cfg", [
    cfg_poisson(),
    cfg_poisson(gamma=1.0, r1=10.0, r2=10.0),
    cfg_poisson(r1=5.0, r2=1.0, bc="mixed"),
    sc.StudyConfig(problem="plate", r1=2.0, r2=2.0),
    sc.StudyConfig(problem="plate", r1=10.0, r2=1.0, bc="mixed"),
])
def test_exact_bundle_consistency_by_finite_differences(cfg):
    exact = sc.exact_bundle(cfg)
    u, grad, hess = exact_u_grad_hess(exact)
    f = pointwise(exact.f)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.3 * cfg.r1, 0.7 * cfg.r1, 5)
    y = rng.uniform(0.3 * cfg.r2, 0.7 * cfg.r2, 5)
    h = 1e-5 * min(cfg.r1, cfg.r2)

    fd_grad = np.stack([(u(x + h, y) - u(x - h, y)) / (2 * h),
                        (u(x, y + h) - u(x, y - h)) / (2 * h)], axis=-1)
    assert np.allclose(grad(x, y), fd_grad, atol=1e-5)

    gx = lambda xx, yy: grad(xx, yy)[..., 0]
    gy = lambda xx, yy: grad(xx, yy)[..., 1]
    fd_hess = np.stack([(gx(x + h, y) - gx(x - h, y)) / (2 * h),
                        (gx(x, y + h) - gx(x, y - h)) / (2 * h),
                        (gy(x, y + h) - gy(x, y - h)) / (2 * h)], axis=-1)
    assert np.allclose(hess(x, y), fd_hess, atol=1e-5)

    if cfg.problem == "poisson":
        fd_f = -(hess(x, y)[..., 0] + hess(x, y)[..., 2]) + cfg.gamma * u(x, y)
        assert np.allclose(f(x, y), fd_f, atol=1e-10)
    else:
        fd_f = ((hess(x + h, y)[..., 0] - 2 * hess(x, y)[..., 0] + hess(x - h, y)[..., 0]) / h ** 2
                + 2 * (hess(x + h, y + h)[..., 1] - hess(x + h, y - h)[..., 1]
                       - hess(x - h, y + h)[..., 1] + hess(x - h, y - h)[..., 1]) / (4 * h ** 2)
                + (hess(x, y + h)[..., 2] - 2 * hess(x, y)[..., 2] + hess(x, y - h)[..., 2]) / h ** 2)
        assert np.allclose(f(x, y), fd_f, atol=1e-4 * np.abs(f(x, y)).max())


@pytest.mark.parametrize("cfg,refine,expected_u,expected_flux,rtol", [
    # u = sin(pi x) sin(pi y): ||u|| = 1/2 and ||grad u|| = pi / sqrt(2)
    (cfg_poisson(), 0, 0.5, np.pi / np.sqrt(2), 1e-9),
    # u = sin(pi x)^2 sin(pi y)^2: ||u|| = 3/8 and ||hess u|| = sqrt(2) pi^2, the mixed
    # derivative counted twice; the mixed layout's u = sin(pi x)^2 gives sqrt(3/8)
    (sc.StudyConfig(problem="plate"), 2, 3 / 8, np.sqrt(2) * np.pi ** 2, 1e-12),
    (sc.StudyConfig(problem="plate", bc="mixed"), 2, np.sqrt(3 / 8), np.sqrt(2) * np.pi ** 2,
     1e-12),
])
def test_compute_errors_zero_solution_norm(cfg, refine, expected_u, expected_flux, rtol):
    # zero fields on the unit square leave the norms of u and of its flux
    exact = sc.exact_bundle(cfg)
    mesh = msh.classify_boundary(msh.make_rect_mesh(1.0, 1.0, 2), cfg.bc)
    for _ in range(refine):
        mesh = msh.refine_uniform(mesh)
    fields = np.zeros((mesh.n_triangles, sc.MODELS[cfg.problem].module.N_FIELD))
    err_u, err_flux = sc.compute_errors(mesh, cfg, fields, exact)
    assert np.isclose(err_u, expected_u, rtol=rtol, atol=0)
    assert np.isclose(err_flux, expected_flux, rtol=rtol, atol=0)


def test_compute_errors_exactly_zero_for_zero_problem():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    bundle = sc.ExactBundle(du=lambda x, y, *orders: [(0.0, x, y) for _ in orders],
                            f=lambda x, y: [(0.0, x, y)])
    fields = np.zeros((mesh.n_triangles, pw.N_FIELD))
    errs = sc.compute_errors(mesh, cfg_poisson(), fields, bundle)
    assert errs == (0.0, 0.0)


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_compute_errors_evaluates_each_sine_profile_once(problem, monkeypatch):
    # u and its flux derivatives come from one sine_power call per coordinate
    cfg = sc.StudyConfig(problem=problem)
    exact = sc.exact_bundle(cfg)
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 2))
    calls = []
    sine_power = sc.sine_power
    monkeypatch.setattr(sc, "sine_power",
                        lambda *args: calls.append(args) or sine_power(*args))
    fields = np.zeros((mesh.n_triangles, 3 if problem == "poisson" else 4))
    errs = sc.compute_errors(mesh, cfg, fields, exact)
    assert len(calls) == 2
    assert all(np.isfinite(errs)) and min(errs) > 0
    # and once per block: 32 triangles of the 36-point rule in blocks of 12, 12 and 8
    calls.clear()
    monkeypatch.setattr(fc, "POINT_CHUNK", 12 * 36)
    assert sc.compute_errors(mesh, cfg, fields, exact) == pytest.approx(errs, rel=1e-14)
    assert len(calls) == 2 * 3


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_compute_errors_evaluates_the_sines_on_coordinate_tables(problem, monkeypatch):
    # the sines see one row of quadrature points per distinct vertex-coordinate
    # triple of a block, per axis: on a structured mesh refined 3 times (512
    # triangles, 56 distinct triples per axis) far fewer than one per triangle
    cfg = sc.StudyConfig(problem=problem)
    exact = sc.exact_bundle(cfg)
    mesh = msh.make_rect_mesh(1.0, 1.0, 2)
    for _ in range(3):
        mesh = msh.refine_uniform(mesh)
    verts, nt = mesh.vertices[mesh.triangles], mesh.n_triangles
    nq = len(fc.quad_triangle(sc.ERROR_QUAD_DEGREE).points)
    sizes = []
    sine_power = sc.sine_power
    monkeypatch.setattr(sc, "sine_power",
                        lambda *args: sizes.append(np.size(args[2])) or sine_power(*args))
    fields = np.zeros((nt, sc.MODELS[problem].module.N_FIELD))
    # one block, then blocks of 100 triangles (264 rows: smaller blocks share fewer)
    for step in (fc.POINT_CHUNK // nq, 100):
        monkeypatch.setattr(fc, "POINT_CHUNK", step * nq)
        sizes.clear()
        sc.compute_errors(mesh, cfg, fields, exact)
        rows = sum(len(np.unique(verts[lo:lo + step, :, axis], axis=0))
                   for lo in range(0, nt, step) for axis in (0, 1))
        assert len(sizes) == 2 * len(range(0, nt, step))  # one call per coordinate per block
        assert sum(sizes) <= rows * nq
        if step >= nt:
            assert rows * nq < 2 * nt * nq / 4


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_point_work_is_independent_of_the_block_size(problem, monkeypatch):
    # 192 triangles in blocks of 50, 50, 50, 42 (36-point rules) and 8 x 22,
    # 16 (the plate's 81-point load): the last block partial
    cfg = sc.StudyConfig(problem=problem, r1=3.0, r2=2.0)
    exact = sc.exact_bundle(cfg)
    mesh = msh.make_rect_mesh(3.0, 2.0, 2)
    for _ in range(2):
        mesh = msh.refine_uniform(mesh)
    verts = mesh.vertices[mesh.triangles]
    model = pw if problem == "poisson" else plw
    load_fn = pw.local_load_poisson if problem == "poisson" else plw.local_load_plate
    fields = np.random.default_rng(0).standard_normal((mesh.n_triangles, model.N_FIELD))

    def point_work():
        return load_fn(verts, exact.f), sc.compute_errors(mesh, cfg, fields, exact)

    monkeypatch.setattr(fc, "POINT_CHUNK", 10 ** 9)
    one_load, one_errs = point_work()
    monkeypatch.setattr(fc, "POINT_CHUNK", 50 * 36)
    load_points = fc.quad_triangle(model.LOAD_DEGREE).points
    assert len(list(fc.point_chunks(verts, load_points))) == (4 if problem == "poisson" else 9)
    load, errs = point_work()
    assert np.abs(one_load).max() > 0 and min(one_errs) > 0
    assert np.abs(load - one_load).max() <= 1e-14 * np.abs(one_load).max()
    assert errs == pytest.approx(one_errs, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_point_work_on_a_perturbed_mesh_equals_a_direct_evaluation(problem):
    # interior vertices moved at random, so few coordinate triples repeat; the
    # direct evaluation maps each element's points by its own affine map,
    # x = v0 + J xi, and sums the returned terms point by point
    cfg = sc.StudyConfig(problem=problem, r1=3.0, r2=2.0)
    exact = sc.exact_bundle(cfg)
    mesh = msh.make_rect_mesh(3.0, 2.0, 2)
    for _ in range(2):
        mesh = msh.refine_uniform(mesh)
    rng = np.random.default_rng(5)
    v = mesh.vertices
    inside = (v > 0).all(axis=1) & (v < [3.0, 2.0]).all(axis=1)
    moved = v + inside[:, None] * rng.uniform(-0.05, 0.05, v.shape)  # a cell is 0.25 wide
    mesh = replace(mesh, vertices=moved)
    model = sc.MODELS[problem]
    uw, k = model.module, model.module.ORDER
    fields = rng.standard_normal((mesh.n_triangles, uw.N_FIELD))
    load = model.load(mesh.vertices[mesh.triangles], exact.f)
    errs = sc.compute_errors(mesh, cfg, fields, exact)

    load_rule = fc.quad_triangle(uw.LOAD_DEGREE)
    test_values = (-1) ** (k + 1) * fc.basis_p(k + 1, load_rule.points).values
    err_rule = fc.quad_triangle(sc.ERROR_QUAD_DEGREE)
    orders = [(k - i, i) for i in range(k + 1)]
    f = pointwise(exact.f)
    direct = np.zeros_like(load)
    err_sq = np.zeros(2)
    for t in range(mesh.n_triangles):
        amap = fc.affine_map_from_vertices(mesh.vertices[mesh.triangles[t]])
        x, y = (amap.verts[0] + load_rule.points @ amap.jac.T).T
        direct[t, :test_values.shape[1]] = (f(x, y) * load_rule.weights * amap.det) @ test_values
        x, y = (amap.verts[0] + err_rule.points @ amap.jac.T).T
        u, *flux = (c * (fx * fy) for c, fx, fy in exact.du(x, y, (0, 0), *orders))
        err_sq += amap.det * err_rule.weights @ np.column_stack([
            (u - fields[t, 0]) ** 2,
            sum(comb(k, i) * (flux[i] - (-1) ** (k + 1) * fields[t, 1 + i]) ** 2
                for i in range(k + 1))])
    assert len(np.unique(mesh.vertices[mesh.triangles][..., 0], axis=0)) > mesh.n_triangles / 2
    assert np.abs(load - direct).max() <= 1e-14 * np.abs(direct).max()
    assert errs == pytest.approx(tuple(np.sqrt(err_sq)), rel=1e-14, abs=0.0)


def _peak_above_entry(fn, *args):
    """Peak traced memory of fn(*args) above what was allocated on entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_point_work_memory_grows_with_the_output_only(problem):
    # levels of 8,192 and 32,768 triangles, several blocks of POINT_CHUNK
    # points each: the peak above entry of the load and of the errors may
    # grow by what grows with the mesh (the load array; the (nt, 3, 2) vertex
    # array compute_errors gathers) plus one block of float64
    cfg = sc.StudyConfig(problem=problem)
    exact = sc.exact_bundle(cfg)
    model = pw if problem == "poisson" else plw
    load_fn = pw.local_load_poisson if problem == "poisson" else plw.local_load_plate
    small = msh.make_rect_mesh(1.0, 1.0, 2)
    for _ in range(5):
        small = msh.refine_uniform(small)
    large = msh.refine_uniform(small)
    # builds the cached kernels; the load holds the nonzero columns only
    width = load_fn(small.vertices[small.triangles[:1]], exact.f).shape[1]
    peaks = []
    for mesh in (small, large):
        verts = mesh.vertices[mesh.triangles]
        fields = np.zeros((mesh.n_triangles, model.N_FIELD))
        peaks.append((_peak_above_entry(load_fn, verts, exact.f),
                      _peak_above_entry(sc.compute_errors, mesh, cfg, fields, exact)))
    grown, block = large.n_triangles - small.n_triangles, 8 * fc.POINT_CHUNK
    assert width < model.N_TEST and peaks[1][0] - peaks[0][0] <= grown * width * 8 + block
    assert peaks[1][1] - peaks[0][1] <= grown * 3 * 2 * 8 + block


def test_eliminate_holds_its_outputs_and_one_array_more():
    # beside [L^-1 | L^-1 M_IB] and the Schur complement s, only the inverse factor's
    # temporaries are alive: the Cholesky factor of M_II and its inverse, two (4, ni, ni)
    # stacks that together are smaller than either output; s is formed in place and never
    # copied
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 300, 300))
    m = a @ a.swapaxes(-1, -2) + 300 * np.eye(300)
    slv.eliminate(m[:1], 120, "m")  # numpy.linalg's first call
    op, schur, inverse = 4 * 120 * 300 * 8, 4 * 180 * 180 * 8, 2 * 4 * 120 * 120 * 8
    assert _peak_above_entry(slv.eliminate, m, 120, "m") <= op + schur + inverse + 65536


def test_condense_rhs_holds_its_outputs_and_one_class_at_a_time():
    # 2,048 Poisson triangles in classes of 256, 768 and 1,024: beside field and rhs, the
    # largest class's padded loads and their whitening, its mask and the mask's indices;
    # full-length products over all elements, or a full-length z, would hold more
    linv, c, op, cls, sign, load = args = condense_rhs_arguments("poisson", 16, 1)
    nt, n_test, largest = len(cls), c.shape[1], np.bincount(cls).max()
    outputs = nt * op.shape[2] * 8
    one_class = largest * (2 * n_test * 8 + 8) + nt
    assert _peak_above_entry(slv.condense_rhs, *args) <= outputs + one_class + 16384


def test_energy_residual_holds_eta_and_one_class_at_a_time():
    # the same 2,048 triangles: beside eta^2 and its root, the largest class's whitened
    # loads, its gathered unknowns, their product with C and its indices, and the mask;
    # the full-length residual, [fields | local] and C x would hold more
    cfg = sc.StudyConfig(problem="poisson")
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 16))
    cond = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    nt, largest = mesh.n_triangles, np.bincount(cond.cls).max()
    n_test, n_trial = cond.c.shape[1:]
    rng = np.random.default_rng(0)
    x_f, x_t = rng.standard_normal((nt, pw.N_FIELD)), rng.standard_normal(cond.sign.shape)
    one_class = largest * ((2 * n_test + n_trial) * 8 + 8) + nt
    assert largest <= nt / 2 and n_trial < n_test
    assert _peak_above_entry(slv.energy_residual, cond, x_f, x_t) <= (
        2 * nt * 8 + one_class + 16384)


def test_run_study_errors_decrease():
    rows = sc.run_study(cfg_poisson(norm="scaled", levels=2))
    assert len(rows) == 2
    assert rows[1][3] < rows[0][3]
    assert rows[1][1] < rows[0][1]


def test_run_study_plate_two_levels():
    rows = sc.run_study(sc.StudyConfig(problem="plate", levels=2, ny0=2))
    assert len(rows) == 2
    for row in rows:
        assert all(np.isfinite(v) for v in row)
    assert rows[1][2] < rows[0][2]
    assert rows[1][3] < rows[0][3]


def test_run_study_single_level_row_count():
    rows = sc.run_study(cfg_poisson(levels=1))
    assert len(rows) == 1
    buf = io.StringIO()
    sc.write_csv(cfg_poisson(levels=1), rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 3  # comment, header, one data row


def test_run_study_energy_column_uses_picked_scaling(monkeypatch):
    cfg = cfg_poisson(r1=10.0, r2=10.0, norm="scaled", levels=2)
    calls = []
    energy_residual = slv.energy_residual
    monkeypatch.setattr(slv, "energy_residual",
                        lambda *args: calls.append(args) or energy_residual(*args))
    rows = sc.run_study(cfg)
    assert len(calls) == cfg.levels  # one energy residual per level
    # the study in units of d = 10, on the unit square; Poisson's eta scales by d^0
    unit, d, scale = sc.unit_config(cfg)
    assert (unit.r1, unit.r2, d, scale) == (1.0, 1.0, 10.0, 1.0)
    mesh = msh.classify_boundary(msh.make_rect_mesh(1.0, 1.0, 2), msh.ALL_DIRICHLET)
    *_, eta = sc.solve_level(mesh, unit, sc.exact_bundle(unit).f)
    assert np.isclose(rows[0][3], eta * scale, rtol=1e-12)


@pytest.mark.parametrize("problem, r", [("poisson", 10.0), ("plate", 10.0), ("plate", 1e10),
                                        ("plate", 1e-20), ("plate", 1e80), ("poisson", 1e100),
                                        ("poisson", 1e-100)])
def test_scaled_study_is_the_unit_square_study_in_units_of_d(problem, r):
    # at d = R the scaled study on the R x R square is solved as the one on the unit
    # square: the same rows, errU times d and errSigma and err times d^(1-k), bit for bit
    k = sc.MODELS[problem].module.ORDER
    unit = np.array(sc.run_study(sc.StudyConfig(problem=problem, norm="scaled", levels=3)))
    rows = np.array(sc.run_study(sc.StudyConfig(problem=problem, r1=r, r2=r, norm="scaled",
                                                levels=3)))
    assert (rows[:, 0] == unit[:, 0]).all()
    assert (rows[:, 1:] == unit[:, 1:] * [r, r ** (1 - k), r ** (1 - k)]).all()


def test_scaled_mesh_keeps_the_columns_of_the_given_sides():
    # in units of d = 11 the sides 7.5 x 1 have the ratio 7.499999999999999, which
    # rounds to 7 columns; the mesh keeps the 8 of the given sides (81 unknowns)
    cfg = cfg_poisson(r1=7.5, ny0=1, norm="scaled", d_override=11.0, levels=1)
    unit, *_ = sc.unit_config(cfg)
    assert unit.r1 / unit.r2 == 7.499999999999999
    assert sc.run_study(cfg)[0][0] == 81


def mirrored(mesh):
    """The mesh reflected about y = x, its triangles kept counterclockwise."""
    triangles = mesh.triangles[:, ::-1]
    return msh.Mesh(mesh.vertices[:, ::-1], triangles, *msh._connect(triangles))


# the plate's band is the known deviation of a transposed clamped plate (ROADMAP,
# head of the open items): at 4 levels up to 1.8e-7 on the 10 x 1 level 0 and 7.2e-9
# on the mirrored square; ROADMAP items 1 (an error estimate that covers it) and 3
# (the trace space) should tighten it
@pytest.mark.parametrize("problem", ["poisson", "plate"])
@pytest.mark.parametrize("r", [1.0, 10.0])
def test_transposed_study_is_the_same_discrete_problem(problem, r, monkeypatch):
    # reflection about y = x maps each cell's lower-left to upper-right diagonal onto
    # itself, so the all-Dirichlet study on R x 1, the one on 1 x R and the one on the
    # mirror image of the R x 1 mesh are one discrete problem, up to rounding
    rows = np.array(sc.run_study(cfg_poisson(problem=problem, r1=r, levels=4)))
    transposed = np.array(sc.run_study(cfg_poisson(problem=problem, r2=r, levels=4)))
    make = msh.make_rect_mesh
    monkeypatch.setattr(msh, "make_rect_mesh",
                        lambda r1, r2, n, shape: mirrored(make(r2, r1, n, shape[::-1])))
    mirror = np.array(sc.run_study(cfg_poisson(problem=problem, r2=r, levels=4)))
    for other in (transposed, mirror):
        assert (other[:, 0] == rows[:, 0]).all()
        assert np.abs(other[:, 1:] / rows[:, 1:] - 1).max() <= {"poisson": 1e-10,
                                                                "plate": 1e-6}[problem]


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_model_record_matches_its_module(problem):
    model = sc.MODELS[problem]
    uw = model.module
    assert uw.N_FIELD == uw.ORDER + 2  # u and the ORDER + 1 flux components
    amap = fc.map_affine(msh.make_rect_mesh(1.0, 1.0, 1), 0)
    assert model.gram(amap).shape == (uw.N_TEST, uw.N_TEST)
    assert model.b(amap, 0.0).shape == (uw.N_TEST, uw.N_TRIAL)
    mesh = msh.classify_boundary(msh.make_rect_mesh(1.0, 1.0, 2), msh.ALL_DIRICHLET)
    assert model.dof_map(mesh).element_slots(mesh).shape[1] == uw.N_TRIAL - uw.N_FIELD
    assert set(uw.SIGNED_TRACE) <= set(range(uw.N_TRIAL - uw.N_FIELD))
    # the load's nonzero columns only: those of the scalar test functions v in
    # P_(ORDER+1), which lead the test rows
    n_v = fc.basis_p(uw.ORDER + 1, np.zeros((1, 2))).values.shape[1]
    assert n_v < uw.N_TEST
    assert model.load(mesh.vertices[mesh.triangles],
                      lambda x, y: [(1.0, 1.0 + 0 * x, 1.0 + 0 * y)]).shape == (
        mesh.n_triangles, n_v)


def test_mesh_determinism_shared_rows():
    # ny0 doubled with one level fewer reproduces the shared rows
    rows_a = sc.run_study(cfg_poisson(levels=3, ny0=2, norm="scaled"))
    rows_b = sc.run_study(cfg_poisson(levels=2, ny0=4, norm="scaled"))
    for ra, rb in zip(rows_a[1:], rows_b):
        assert ra[0] == rb[0]
        assert np.allclose(ra[1:], rb[1:], atol=1e-12)


def test_csv_format_and_round_trip(tmp_path):
    cfg = cfg_poisson(levels=2, out=str(tmp_path / "study.csv"))
    rows = sc.run_study(cfg)
    with open(cfg.out, "w") as stream:
        sc.write_csv(cfg, rows, stream)
    lines = Path(cfg.out).read_text().strip().split("\n")
    assert lines[0] == ("# dpg-lock study: --problem poisson --gamma 0.0 "
                        "--r1 1.0 --r2 1.0 --bc dirichlet --norm standard "
                        "--levels 2 --ny0 2")
    assert lines[1] == "dofDPG,errU,errSigma,err"
    for line, row in zip(lines[2:], rows):
        fields = line.split(",")
        assert int(fields[0]) == row[0]
        for text, value in zip(fields[1:], row[1:]):
            assert float(text) == value  # shortest round-trip form


def test_cli_writes_csv_and_exits_zero(tmp_path):
    out = tmp_path / "out.csv"
    code = sc.main(["--problem", "poisson", "--levels", "1", "--out", str(out)])
    assert code == 0
    content = out.read_text()
    assert content.startswith("# dpg-lock study: ")
    assert "dofDPG,errU,errSigma,err" in content


def test_cli_defaults_are_the_config_defaults():
    args = sc.build_parser().parse_args(["--problem", "plate"])
    assert sc.StudyConfig(**vars(args)) == sc.StudyConfig("plate")


def test_cli_stdout(capsys):
    code = sc.main(["--problem", "poisson", "--levels", "1", "--ny0", "1"])
    assert code == 0
    assert "dofDPG,errU,errSigma,err" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--problem", "heat"],
    ["--problem", "poisson", "--gamma", "-1"],
    ["--problem", "poisson", "--norm", "standard", "--d", "3"],
    ["--problem", "plate", "--gamma", "1"],
    ["--problem", "poisson", "--levels", "0"],
    ["--problem", "poisson", "--r1", "inf"],
    ["--problem", "poisson", "--gamma", "nan"],
    ["--problem", "poisson", "--norm", "scaled", "--d", "nan"],
    [],
    # checked before level 0, so no level is solved for a CSV that cannot be written
    ["--problem", "poisson", "--levels", "2", "--out", "/nonexistent/dir/x.csv"],
    # finite sides whose mesh, manufactured solution or Jacobians float64 cannot hold
    ["--problem", "poisson", "--r1", "1e200"],
    ["--problem", "poisson", "--r1", "1", "--r2", "1e200", "--levels", "2"],
    ["--problem", "poisson", "--r1", "1e-160", "--r2", "1e-160"],
    ["--problem", "poisson", "--r1", "1e-300", "--r2", "1e-300"],
    # scaling lengths that leave sides R / d whose mesh or load float64 cannot hold
    ["--problem", "plate", "--levels", "1", "--ny0", "1", "--norm", "scaled", "--d", "1e150"],
    ["--problem", "poisson", "--levels", "1", "--ny0", "1", "--norm", "scaled", "--d", "1e200"],
    ["--problem", "plate", "--levels", "1", "--ny0", "1", "--norm", "scaled", "--d", "1e-300"],
    ["--problem", "poisson", "--levels", "1", "--ny0", "1", "--norm", "scaled", "--d", "1e-160"],
    # scaling lengths picked from the sides with d or d^(1-k) subnormal, where the rows
    # are scaled back, and one whose reaction gamma d^2 overflows
    ["--problem", "poisson", "--r1", "1e-310", "--r2", "1e-310", "--norm", "scaled"],
    ["--problem", "plate", "--r1", "1e308", "--r2", "1e308", "--norm", "scaled"],
    ["--problem", "poisson", "--gamma", "1e306", "--r1", "100", "--r2", "100", "--norm", "scaled"],
    # a side whose plate load factor (2 pi / side)^4 overflows; Poisson's (pi / side)^2 does not
    ["--problem", "plate", "--r1", "1e-77", "--r2", "1e-77"],
    # 18 trace slots a plate triangle: 18 * 2 * 4^13 >= 2^31 slots, beyond int32
    ["--problem", "plate", "--levels", "14", "--ny0", "1"],
])
def test_cli_configuration_errors_exit_one(argv, capsys):
    assert sc.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpg-lock: configuration error: ") and err.count("\n") == 1


def test_cli_solver_failure_exits_two(monkeypatch, capsys):
    def boom(gs, factor):
        raise slv.SolverError("synthetic breakdown")

    monkeypatch.setattr(slv, "solve_spd", boom)
    code = sc.main(["--problem", "poisson", "--levels", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "level 0" in err


@pytest.mark.parametrize("module, stage, level", [
    (msh, "make_rect_mesh", 0), (msh, "refine_uniform", 1), (sc, "compute_errors", 0)])
def test_cli_out_of_memory_exits_two_naming_the_level(module, stage, level, monkeypatch,
                                                      capsys):
    # a failed allocation anywhere in a study, here while its mesh is built or
    # refined or its errors evaluated, exits with the solver-failure code and
    # one line naming the level, without a large allocation
    def oom(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(module, stage, oom)
    code = sc.main(["--problem", "plate", "--levels", "2", "--ny0", "1", "--norm", "scaled",
                    "--r1", "2", "--r2", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"dpg-lock: solver failure: level {level} (lengths in units of d = 2): "
        "does not fit in memory: Unable to allocate 74.5 GiB\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["--problem", "poisson", "--gamma", "1e300", "--levels", "1", "--ny0", "1"],
    ["--problem", "poisson", "--gamma", "1e306", "--r1", "100", "--r2", "100", "--levels", "1",
     "--ny0", "1"],
])
def test_cli_overflowing_element_systems_exit_two(argv, monkeypatch, capsys):
    # gamma = 1e300 overflows B^T G^-1 B, gamma = 1e306 B and the load as they are
    # built: condensation stops the run with one message, without numpy warnings
    # and before anything is factored
    factored = []
    tree_factor = slv.TreeFactor
    monkeypatch.setattr(slv, "TreeFactor", lambda *a: factored.append(a) or tree_factor(*a))
    code = sc.main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "solver failure" in err and "overflowed" in err
    assert factored == []


def run_child(*argv, **env):
    """python argv in a fresh process that imports the package this session imports,
    installed or not, with env added to the environment."""
    import dpglock
    path = [str(Path(dpglock.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **env))


def test_cli_entry_point_runs():
    result = run_child("-m", "dpglock", "--problem", "poisson", "--levels", "1", "--ny0", "1")
    assert result.returncode == 0
    assert "dofDPG" in result.stdout
    assert result.stderr == ""


def test_import_leaves_scipy_sparse_and_linalg_unloaded():
    # an untraced study needs neither, and loading them is most of the
    # import time; the benchmark reads scipy.__version__ after the import
    result = run_child("-c", "import sys, dpglock; print(sorted("
                             "{'scipy', 'scipy.sparse', 'scipy.linalg'} & sys.modules.keys()))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['scipy']"


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_a_study_leaves_numpy_ma_unloaded(problem):
    # numpy.ma takes 11-18 ms to import; np.unique without return flags imports it
    result = run_child("-c", "import sys; from dpglock import study_cli as sc; "
                             f"sc.run_study(sc.StudyConfig(problem={problem!r}, levels=2)); "
                             "print('numpy.ma' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_rows_do_not_depend_on_the_blas_thread_count():
    # without the pin, level 2's errU differs by 6.9e-10 relative between 1 and 2 threads
    argv = ("-m", "dpglock", "--problem", "plate", "--r1", "10", "--r2", "1", "--bc", "mixed",
            "--norm", "scaled", "--levels", "3")
    one, two = (run_child(*argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout


def blas_threads() -> int:
    return slv.numpy_openblas().scipy_openblas_get_num_threads64_()


def test_numpy_openblas_is_found():
    # numpy's Linux and Windows wheels bundle scipy-openblas in numpy.libs; were it not
    # found there, one_blas_thread would do nothing
    if np.__config__.CONFIG["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
        pytest.skip("numpy is built on another BLAS")
    assert slv.numpy_openblas() is not None
    assert blas_threads() >= 1


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS set to two threads for the test, whatever the environment set."""
    lib = slv.numpy_openblas()
    if lib is None:
        pytest.skip("numpy has no scipy-openblas to pin")
    before = blas_threads()
    lib.scipy_openblas_set_num_threads64_(2)
    yield blas_threads()
    lib.scipy_openblas_set_num_threads64_(before)


@pytest.mark.parametrize("argv,code,levels", [
    (["--problem", "poisson", "--levels", "2", "--ny0", "1"], 0, 2),
    (["--problem", "plate", "--levels", "1", "--ny0", "1", "--norm", "scaled", "--d", "1e70"],
     2, 1),  # SolverError on level 0
    (["--problem", "plate", "--levels", "0"], 1, 0),  # ConfigError
])
def test_levels_run_on_one_blas_thread_and_the_count_comes_back(argv, code, levels,
                                                               two_blas_threads,
                                                               monkeypatch, capsys):
    seen, solve_level = [], sc.solve_level

    def recorder(*args):
        seen.append(blas_threads())
        return solve_level(*args)

    monkeypatch.setattr(sc, "solve_level", recorder)
    assert sc.main(argv) == code
    assert blas_threads() == two_blas_threads
    assert seen == [1] * levels
    capsys.readouterr()


def test_without_numpy_openblas_the_pin_does_nothing(two_blas_threads, monkeypatch):
    lib = slv.numpy_openblas()
    monkeypatch.setattr(slv, "numpy_openblas", lambda: None)
    with slv.one_blas_thread():
        assert lib.scipy_openblas_get_num_threads64_() == two_blas_threads


def test_plate_clamped_zero_load_gives_zero_solution():
    from dpglock import plate_uw as plw
    cfg = sc.StudyConfig(problem="plate")
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    dm = plw.dof_map_plate(mesh)
    condensed = sc.condense_mesh(mesh, cfg, lambda x, y: [(0.0, x, y)])
    x = full_solution(*slv.solve_condensed(mesh, dm, condensed)[:2])
    assert np.allclose(x, 0.0, atol=1e-13)
