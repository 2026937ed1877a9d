import io
from pathlib import Path

import numpy as np
import pytest

from dpglock import mesh as msh
from dpglock import poisson_uw as pw
from dpglock import solver as slv
from dpglock import study_cli as sc


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


def test_config_validation():
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


def test_exact_bundle_mixed_rhs_value():
    r = 17.0
    exact = sc.exact_bundle(cfg_poisson(r1=r, r2=1.0, bc="mixed"))
    y = np.array([0.3])
    assert np.isclose(exact.f(np.array([r / 2]), y)[0], np.pi ** 2 / r ** 2,
                      rtol=1e-14)


def test_exact_bundle_dirichlet_rhs_value():
    exact = sc.exact_bundle(cfg_poisson())
    assert np.isclose(exact.f(np.array([0.5]), np.array([0.5]))[0],
                      2 * np.pi ** 2, rtol=1e-14)


def test_exact_bundle_plate_clamped_compatibility():
    exact = sc.exact_bundle(sc.StudyConfig(problem="plate", r1=2.0, r2=3.0))
    xs = np.array([0.0, 2.0, 1.3, 0.7])
    ys = np.array([1.1, 2.2, 0.0, 3.0])  # either x or y on the boundary
    assert np.allclose(exact.u(xs, ys), 0.0, atol=1e-14)
    assert np.allclose(exact.grad(xs, ys), 0.0, atol=1e-13)


@pytest.mark.parametrize("cfg", [
    cfg_poisson(),
    cfg_poisson(gamma=1.0, r1=10.0, r2=10.0),
    cfg_poisson(r1=5.0, r2=1.0, bc="mixed"),
    sc.StudyConfig(problem="plate", r1=2.0, r2=2.0),
    sc.StudyConfig(problem="plate", r1=10.0, r2=1.0, bc="mixed"),
])
def test_exact_bundle_consistency_by_finite_differences(cfg):
    exact = sc.exact_bundle(cfg)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.3 * cfg.r1, 0.7 * cfg.r1, 5)
    y = rng.uniform(0.3 * cfg.r2, 0.7 * cfg.r2, 5)
    h = 1e-5 * min(cfg.r1, cfg.r2)

    fd_grad = np.stack([(exact.u(x + h, y) - exact.u(x - h, y)) / (2 * h),
                        (exact.u(x, y + h) - exact.u(x, y - h)) / (2 * h)], axis=-1)
    assert np.allclose(exact.grad(x, y), fd_grad, atol=1e-5)

    gx = lambda xx, yy: exact.grad(xx, yy)[..., 0]
    gy = lambda xx, yy: exact.grad(xx, yy)[..., 1]
    fd_hess = np.stack([(gx(x + h, y) - gx(x - h, y)) / (2 * h),
                        (gx(x, y + h) - gx(x, y - h)) / (2 * h),
                        (gy(x, y + h) - gy(x, y - h)) / (2 * h)], axis=-1)
    assert np.allclose(exact.hess(x, y), fd_hess, atol=1e-5)

    hess = exact.hess
    if cfg.problem == "poisson":
        fd_f = -(hess(x, y)[..., 0] + hess(x, y)[..., 2]) + cfg.gamma * exact.u(x, y)
        assert np.allclose(exact.f(x, y), fd_f, atol=1e-10)
    else:
        fd_f = ((hess(x + h, y)[..., 0] - 2 * hess(x, y)[..., 0] + hess(x - h, y)[..., 0]) / h ** 2
                + 2 * (hess(x + h, y + h)[..., 1] - hess(x + h, y - h)[..., 1]
                       - hess(x - h, y + h)[..., 1] + hess(x - h, y - h)[..., 1]) / (4 * h ** 2)
                + (hess(x, y + h)[..., 2] - 2 * hess(x, y)[..., 2] + hess(x, y - h)[..., 2]) / h ** 2)
        assert np.allclose(exact.f(x, y), fd_f, atol=1e-4 * np.abs(exact.f(x, y)).max())


def test_compute_errors_zero_solution_norm():
    # u_h = 0 on the unit square leaves errU = ||u|| = 1/2
    cfg = cfg_poisson()
    exact = sc.exact_bundle(cfg)
    mesh = msh.classify_boundary(msh.make_rect_mesh(1.0, 1.0, 2), msh.ALL_DIRICHLET)
    dm = pw.dof_map_poisson(mesh)
    err_u, err_flux = sc.compute_errors(mesh, dm, np.zeros(dm.n_free), exact)
    assert np.isclose(err_u, 0.5, rtol=1e-9)
    assert np.isclose(err_flux, np.pi / np.sqrt(2), rtol=1e-9)


def test_compute_errors_exactly_zero_for_zero_problem():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    dm = pw.dof_map_poisson(mesh)
    zero = lambda x, y: 0.0 * x
    bundle = sc.ExactBundle(
        u=zero, grad=lambda x, y: np.stack([0.0 * x, 0.0 * x], -1),
        hess=lambda x, y: np.stack([0.0 * x] * 3, -1), f=zero)
    errs = sc.compute_errors(mesh, dm, np.zeros(dm.n_free), bundle)
    assert errs == (0.0, 0.0)


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
    exact = sc.exact_bundle(cfg)
    mesh = msh.classify_boundary(msh.make_rect_mesh(10.0, 10.0, 2),
                                 msh.ALL_DIRICHLET)
    sol = sc.solve_level(mesh, cfg, sc.pick_d(cfg), exact.f)
    assert np.isclose(rows[0][3], sol.eta, rtol=1e-12)


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
    [],
])
def test_cli_configuration_errors_exit_one(argv, capsys):
    assert sc.main(argv) == 1
    assert "configuration error" in capsys.readouterr().err


def test_cli_solver_failure_exits_two(monkeypatch, capsys):
    def boom(gs):
        raise slv.SolverError("synthetic breakdown")

    monkeypatch.setattr(slv, "solve_spd", boom)
    code = sc.main(["--problem", "poisson", "--levels", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "level 0" in err


def test_cli_entry_point_runs():
    import os
    import subprocess
    import sys

    import dpglock
    # the child imports the package this session imports, installed or not
    path = [str(Path(dpglock.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, "-m", "dpglock", "--problem", "poisson",
         "--levels", "1", "--ny0", "1"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert result.returncode == 0
    assert "dofDPG" in result.stdout
    assert result.stderr == ""


def test_plate_clamped_zero_load_gives_zero_solution():
    from dpglock import plate_uw as plw
    cfg = sc.StudyConfig(problem="plate")
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    dm = plw.dof_map_plate(mesh)
    condensed = sc.condense_mesh(mesh, cfg, 1.0, lambda x, y: 0.0 * x)
    x = slv.solve_condensed(dm.all_element_dofs(mesh), dm.n_free, condensed)
    assert np.allclose(x, 0.0, atol=1e-13)
