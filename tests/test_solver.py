import numpy as np
import pytest

from dpglock import fem_core as fc
from dpglock import mesh as msh
from dpglock import plate_uw as plw
from dpglock import poisson_uw as pw
from dpglock import solver as slv
from dpglock import study_cli as sc
from helpers import full_normal_equations, permuted, plate_dense_minres, poisson_dense_minres


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def condense_one(gram, b, load, n_field=1):
    """Condensed system of a single element."""
    return slv.condense(gram[None], b[None], np.zeros(1, dtype=np.int64), load[None],
                        n_field)


def eliminated(s, r, n_field):
    """Dense elimination of the first n_field unknowns of S x = r: the
    Schur complement, the lift, the field part and the trace right side."""
    f, t = slice(0, n_field), slice(n_field, None)
    lift = np.linalg.solve(s[f, f], s[f, t])
    field = np.linalg.solve(s[f, f], r[f])
    return s[t, t] - s[t, f] @ lift, lift, field, r[t] - s[t, f] @ field


def test_condense_identity_gram():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 3))
    load = rng.standard_normal(6)
    cond = condense_one(np.eye(6), b, load)
    schur, lift, field, rhs = eliminated(b.T @ b, b.T @ load, 1)
    assert np.allclose(cond.schur[0], schur, rtol=1e-13)
    assert np.allclose(cond.lift[0], lift, rtol=1e-13)
    assert np.allclose(cond.field[0], field, rtol=1e-13)
    assert np.allclose(cond.rhs[0], rhs, rtol=1e-13)


def test_condense_zero_b():
    # traces the test space does not see: nothing is left for them
    b = np.zeros((4, 3))
    b[:, 0] = 1.0
    cond = condense_one(np.eye(4), b, np.ones(4))
    assert np.allclose(cond.schur, 0.0)
    assert np.allclose(cond.lift, 0.0)
    assert np.allclose(cond.rhs, 0.0)
    assert np.allclose(cond.field, 1.0)


def test_condense_rejects_singular_field_block():
    with pytest.raises(slv.NotSPDError):
        condense_one(np.eye(4), np.zeros((4, 2)), np.ones(4))


def test_condense_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(1)
    g = random_spd(12, rng)
    b = rng.standard_normal((12, 5))
    load = rng.standard_normal(12)
    cond = condense_one(g, b, load, n_field=2)
    lam, vec = np.linalg.eigh(g)
    ginv = (vec / lam) @ vec.T
    schur, lift, field, rhs = eliminated(b.T @ ginv @ b, b.T @ ginv @ load, 2)
    assert np.allclose(cond.schur[0], schur, atol=1e-10)
    assert np.allclose(cond.lift[0], lift, atol=1e-10)
    assert np.allclose(cond.field[0], field, atol=1e-10)
    assert np.allclose(cond.rhs[0], rhs, atol=1e-10)


def test_condense_schur_positive_semidefinite():
    rng = np.random.default_rng(2)
    *_, schur = slv.condense_local(random_spd(8, rng), rng.standard_normal((8, 5)), 1)
    assert schur.shape == (4, 4)
    assert np.allclose(schur, schur.T)
    for _ in range(20):
        v = rng.standard_normal(4)
        assert v @ schur @ v >= -1e-12


def test_condense_rejects_indefinite():
    g = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(slv.NotSPDError):
        slv.condense_local(g, np.zeros((3, 2)), 1)


def test_condense_mesh_separates_similar_elements_of_different_size():
    # a unit right triangle and a disjoint copy scaled by two: congruence
    # classes must tell them apart although their Jacobians are parallel
    verts = np.array([[0, 0], [1, 0], [0, 1], [3, 0], [5, 0], [3, 2]], float)
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    edges, tri_edges, signs = msh._connect(tris)
    mesh = msh.Mesh(verts, tris, edges, tri_edges, signs,
                    np.zeros(len(edges), np.int8), np.zeros(len(verts), np.int8))
    cfg = sc.StudyConfig(problem="poisson")
    cond = sc.condense_mesh(mesh, cfg, 1.0, sc.exact_bundle(cfg).f)
    for t in range(mesh.n_triangles):
        amap = fc.map_affine(mesh, t)
        *_, schur = slv.condense_local(pw.local_gram_poisson(amap, 1.0),
                                       pw.local_b_poisson(amap, 0.0), pw.N_FIELD)
        assert np.allclose(cond.schur[cond.cls[t]], schur, rtol=1e-13, atol=0.0)


def test_assemble_single_element_is_free_submatrix():
    rng = np.random.default_rng(3)
    cond = condense_one(random_spd(6, rng), rng.standard_normal((6, 5)),
                        rng.standard_normal(6))
    gs = slv.assemble_global(np.array([[1, -1, 0, 2]]), 3, cond)
    keep = [0, 2, 3]
    perm = [1, 0, 2]  # local slots of global dofs 0, 1, 2
    dense = gs.matrix.toarray()
    expected = cond.schur[0][np.ix_(keep, keep)][np.ix_(perm, perm)]
    assert np.allclose(dense, expected, rtol=1e-14)
    assert np.allclose(gs.rhs, cond.rhs[0][keep][perm], rtol=1e-14)


def test_assemble_element_order_invariance():
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    cfg = sc.StudyConfig(problem="poisson")
    exact = sc.exact_bundle(cfg)
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, 1.0, exact.f)
    dofs = slv.trace_dofs(dm.all_element_dofs(mesh), pw.N_FIELD)
    n = dofs.max() + 1
    gs = slv.assemble_global(dofs, n, condensed)

    order = np.arange(mesh.n_triangles)[::-1]
    gs_perm = slv.assemble_global(dofs[order], n, permuted(condensed, order))
    diff = (gs.matrix - gs_perm.matrix).toarray()
    scale = np.abs(gs.matrix.toarray()).max()
    assert np.abs(diff).max() <= 1e-14 * scale
    assert np.allclose(gs.rhs, gs_perm.rhs, atol=1e-14 * max(1, np.abs(gs.rhs).max()))


def test_assemble_against_hand_assembled_two_triangle_matrix():
    # unit square, two triangles (0,1,3) and (0,3,2); edges sorted
    # lexicographically: (0,1) (0,2) (0,3) (1,3) (2,3); all vertices are
    # Dirichlet, so the 11 unknowns are u0 u1 | sx0 sy0 sx1 sy1 | 5 fluxes,
    # and the 5 fluxes are the unknowns of the trace system
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    assert mesh.triangles.tolist() == [[0, 1, 3], [0, 3, 2]]
    assert mesh.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]
    hand_dofs = np.array([
        [0, 2, 3, -1, -1, -1, 6, 9, 8],
        [1, 4, 5, -1, -1, -1, 8, 10, 7],
    ])
    cfg = sc.StudyConfig(problem="poisson")
    condensed = sc.condense_mesh(mesh, cfg, 1.0, sc.exact_bundle(cfg).f)
    dm = pw.dof_map_poisson(mesh)
    assert (dm.all_element_dofs(mesh) == hand_dofs).all()

    hand_traces = np.array([[-1, -1, -1, 0, 3, 2], [-1, -1, -1, 2, 4, 1]])
    assert (slv.trace_dofs(hand_dofs, pw.N_FIELD) == hand_traces).all()

    hand = np.zeros((5, 5))
    for t in range(2):
        s = condensed.schur[condensed.cls[t]]
        for i in range(6):
            for j in range(6):
                gi, gj = hand_traces[t, i], hand_traces[t, j]
                if gi >= 0 and gj >= 0:
                    hand[gi, gj] += s[i, j]
    gs = slv.assemble_global(hand_traces, 5, condensed)
    assert np.allclose(gs.matrix.toarray(), hand, rtol=1e-14)
    # the shared diagonal edge couples to the edges of both elements, edges
    # of different elements only through it
    assert (np.abs(gs.matrix[2].toarray()) > 0).all()
    assert gs.matrix[0, 4] == 0 and gs.matrix[3, 1] == 0


def test_solve_identity_and_small_symmetric():
    import scipy.sparse as sp
    gs = slv.GlobalSystem(sp.eye(4, format="csr"), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(slv.solve_spd(gs), gs.rhs)
    gs = slv.GlobalSystem(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])),
                          np.array([3.0, 3.0]))
    assert np.allclose(slv.solve_spd(gs), [1.0, 1.0], rtol=1e-12)


def test_solve_matches_dense_oracle():
    import scipy.sparse as sp
    rng = np.random.default_rng(4)
    a = random_spd(50, rng)
    b = rng.standard_normal(50)
    x = slv.solve_spd(slv.GlobalSystem(sp.csr_matrix(a), b))
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)


def test_solve_reports_singular_matrix():
    import scipy.sparse as sp
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(slv.SolverError):
        slv.solve_spd(slv.GlobalSystem(a, np.array([1.0, 0.0])))


def test_solve_refuses_to_pivot_past_a_kernel():
    import scipy.sparse as sp
    a = sp.csr_matrix(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(slv.SolverError):
        slv.solve_spd(slv.GlobalSystem(a, np.array([1.0, 1.0, 1.0])))


def test_solve_rejects_off_diagonal_pivot():
    # without a pivot check SuperLU swaps the rows of this indefinite
    # matrix past its zero diagonal and returns x = (2, 1)
    import scipy.sparse as sp
    a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(slv.NotSPDError):
        slv.solve_spd(slv.GlobalSystem(a, np.array([1.0, 2.0])))


def test_factorization_out_of_memory_is_a_solver_failure(monkeypatch, capsys):
    # SuperLU reports a failed allocation as MemoryError; the CLI must still
    # exit with the solver-failure code, not crash with a traceback
    import scipy.sparse as sp

    def oom(*args, **kwargs):
        raise MemoryError("Not enough memory to perform factorization.")

    monkeypatch.setattr(slv, "splu", oom)
    gs = slv.GlobalSystem(sp.csr_matrix(np.eye(2)), np.ones(2))
    with pytest.raises(slv.SolverError):
        slv.solve_spd(gs)
    assert sc.main(["--problem", "poisson", "--levels", "1"]) == 2
    assert "solver failure" in capsys.readouterr().err


# the studies of the benchmark (perfbench/reference.json)
BENCHMARK_STUDIES = [
    "--problem poisson --r1 100 --r2 100 --norm scaled --levels 7",
    "--problem plate --r1 10 --r2 10 --norm scaled --levels 6",
    "--problem poisson --r1 1 --r2 1 --norm standard --levels 5",
    "--problem poisson --r1 100 --r2 100 --norm standard --levels 5",
    "--problem poisson --r1 100 --r2 100 --norm scaled --levels 5",
    "--problem poisson --gamma 1 --r1 100 --r2 100 --norm standard --levels 5",
    "--problem poisson --r1 10 --r2 1 --bc mixed --ny0 1 --norm standard --levels 5",
    "--problem plate --r1 1 --r2 1 --norm scaled --levels 4",
    "--problem plate --r1 10 --r2 10 --norm standard --levels 4",
    "--problem plate --r1 10 --r2 10 --norm scaled --levels 4",
    "--problem plate --r1 10 --r2 1 --bc mixed --norm scaled --levels 3",
]


def study_systems(argv, monkeypatch, tmp_path):
    """The trace systems that the CLI study argv solves, level by level."""
    systems = []
    solve = slv.solve_spd

    def record(gs):
        systems.append(gs)
        return solve(gs)

    monkeypatch.setattr(slv, "solve_spd", record)
    assert sc.main([*argv.split(), "--out", str(tmp_path / "study.csv")]) == 0
    return systems


@pytest.mark.parametrize("argv", BENCHMARK_STUDIES)
def test_trace_systems_factor_without_pivots_into_positive_pivots(argv, monkeypatch,
                                                                   tmp_path):
    # a no-pivoting LU = L D L^T of a symmetric matrix with positive pivots D
    # is the Cholesky factorization in disguise: the system is SPD
    for gs in study_systems(f"{argv} --levels 3", monkeypatch, tmp_path):
        lu = slv.factor_spd(gs.matrix)
        assert (lu.perm_r == lu.perm_c).all()
        assert (lu.U.diagonal() > 0).all()


@pytest.mark.parametrize("argv", [
    "--problem poisson --r1 100 --r2 100 --norm scaled --levels 5",  # 4,097 unknowns
    "--problem plate --r1 10 --r2 10 --norm scaled --levels 4",  # 3,074 unknowns
])
def test_trace_ordering_cuts_the_fill_of_column_ordering(argv, monkeypatch, tmp_path):
    # minimum degree on A + A^T against SuperLU's default COLAMD ordering of
    # A^T A, which ignores the symmetry: 0.51x and 0.75x the L+U entries
    from scipy.sparse.linalg import splu
    a = study_systems(argv, monkeypatch, tmp_path)[-1].matrix.tocsc()
    colamd = splu(a, diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    assert slv.factor_spd(a).nnz <= 0.8 * colamd.nnz


def solved_poisson(levels=1):
    """A solved unit-square Poisson level: its trace system and the full
    solution vector."""
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    for _ in range(levels):
        mesh = msh.refine_uniform(mesh)
    cfg = sc.StudyConfig(problem="poisson")
    exact = sc.exact_bundle(cfg)
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, 1.0, exact.f)
    dofs = dm.all_element_dofs(mesh)
    gs = slv.assemble_global(slv.trace_dofs(dofs, pw.N_FIELD),
                             dm.n_free - dm.field.size, condensed)
    x = slv.solve_condensed(dofs, dm.n_free, condensed)
    return mesh, dm, condensed, gs, x


@pytest.mark.parametrize("levels", [1, 2])
def test_trace_solve_matches_dense_solve(levels):
    # the sparse factor, its ordering and the refinement loop against a
    # dense LAPACK solve of the same assembled trace system
    *_, gs, _ = solved_poisson(levels)
    x = slv.solve_spd(gs)
    x_dense = np.linalg.solve(gs.matrix.toarray(), gs.rhs)
    assert np.abs(x - x_dense).max() < 1e-9 * np.abs(x_dense).max()


def test_energy_residual_zero_for_zero_data():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    cfg = sc.StudyConfig(problem="poisson")
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, 1.0, lambda x, y: 0.0 * x)
    eta_t, eta = slv.energy_residual(condensed, dm.all_element_dofs(mesh),
                                     np.zeros(dm.n_free))
    assert eta == 0.0
    assert (eta_t == 0.0).all()


def test_zero_load_gives_zero_solution():
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    cfg = sc.StudyConfig(problem="poisson")
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, 1.0, lambda x, y: 0.0 * x)
    x = slv.solve_condensed(dm.all_element_dofs(mesh), dm.n_free, condensed)
    assert np.allclose(x, 0.0, atol=1e-14)


def test_energy_residual_matches_dense_riesz_oracle():
    mesh, dm, condensed, gs, x = solved_poisson(levels=0)
    eta_t, eta = slv.energy_residual(condensed, dm.all_element_dofs(mesh), x)

    # dense global Riesz lift: eta^2 = r^T G_global^{-1} r
    n_test = mesh.n_triangles * pw.N_TEST
    big_g = np.zeros((n_test, n_test))
    r_glob = np.zeros(n_test)
    dofs = dm.all_element_dofs(mesh)
    for t in range(mesh.n_triangles):
        rows = slice(t * pw.N_TEST, (t + 1) * pw.N_TEST)
        amap = fc.map_affine(mesh, t)
        big_g[rows, rows] = pw.local_gram_poisson(amap, 1.0)
        b = condensed.b[condensed.cls[t]]
        r_glob[rows] = condensed.load[t] - b @ slv.gather_local(dofs[t], x)
    y = np.linalg.solve(big_g, r_glob)
    assert np.isclose(eta ** 2, r_glob @ y, rtol=1e-10)


def test_energy_residual_permutation_invariant():
    mesh, dm, condensed, gs, x = solved_poisson()
    dofs = dm.all_element_dofs(mesh)
    _, eta = slv.energy_residual(condensed, dofs, x)
    order = np.arange(mesh.n_triangles)[::-1]
    _, eta_perm = slv.energy_residual(permuted(condensed, order), dofs[order], x)
    assert np.isclose(eta, eta_perm, rtol=1e-14)


def test_galerkin_orthogonality():
    mesh, dm, condensed, gs, x = solved_poisson()
    grad = gs.matrix @ x[dm.field.size:] - gs.rhs
    assert np.abs(grad).max() <= 1e-10 * max(1.0, np.abs(gs.rhs).max())


def test_minimum_residual_convexity():
    mesh, dm, condensed, gs, x = solved_poisson()
    dofs = dm.all_element_dofs(mesh)
    _, eta = slv.energy_residual(condensed, dofs, x)
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = rng.standard_normal(len(x))
        p *= 0.1 / np.linalg.norm(p)
        _, eta_p = slv.energy_residual(condensed, dofs, x + p)
        assert eta_p ** 2 >= eta ** 2 - 1e-12


def test_pipeline_matches_dense_minimum_residual():
    # oracle equivalence on both coarse unit-square meshes
    cfg = sc.StudyConfig(problem="poisson")
    exact = sc.exact_bundle(cfg)
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    for level in range(2):
        dm = pw.dof_map_poisson(mesh)
        dofs = dm.all_element_dofs(mesh)
        condensed = sc.condense_mesh(mesh, cfg, 1.0, exact.f)
        x = slv.solve_condensed(dofs, dm.n_free, condensed)
        x_dense, eta_dense, _ = poisson_dense_minres(mesh, 1.0, 0.0, exact.f)
        assert np.abs(x - x_dense).max() < 1e-9
        _, eta = slv.energy_residual(condensed, dofs, x)
        assert np.isclose(eta, eta_dense, rtol=1e-9)
        mesh = msh.refine_uniform(mesh)


def unit_square_meshes():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    return mesh, msh.refine_uniform(mesh)  # 2 and 8 triangles


def test_plate_pipeline_matches_dense_minimum_residual_clamped():
    cfg = sc.StudyConfig(problem="plate")
    exact = sc.exact_bundle(cfg)
    for mesh in unit_square_meshes():
        dm = plw.dof_map_plate(mesh)
        dofs = dm.all_element_dofs(mesh)
        condensed = sc.condense_mesh(mesh, cfg, 1.0, exact.f)
        x = slv.solve_condensed(dofs, dm.n_free, condensed)
        x_dense, eta_dense, _ = plate_dense_minres(mesh, 1.0, exact.f)
        assert np.abs(x - x_dense).max() < 1e-9 * np.abs(x_dense).max()
        _, eta = slv.energy_residual(condensed, dofs, x)
        assert np.isclose(eta, eta_dense, rtol=1e-9)


def test_plate_clamped_system_is_well_conditioned():
    # a constant m_tn on every edge would be a null vector without the pinned
    # slot, of the full system and so of its trace Schur complement; dense
    # Cholesky is no check, it passes on the singular matrix
    cfg = sc.StudyConfig(problem="plate")
    for mesh in unit_square_meshes():
        dm = plw.dof_map_plate(mesh)
        condensed = sc.condense_mesh(mesh, cfg, 1.0, sc.exact_bundle(cfg).f)
        gs = slv.assemble_global(slv.trace_dofs(dm.all_element_dofs(mesh), plw.N_FIELD),
                                 dm.n_free - dm.field.size, condensed)
        lam = np.linalg.eigvalsh(gs.matrix.toarray())
        assert lam[0] / lam[-1] > 1e-10


def test_plate_pipeline_matches_dense_minimum_residual_mixed_strip():
    # the scaled norm (d = 4) leaves a normal matrix of condition ~6e7
    cfg = sc.StudyConfig(problem="plate", r1=4.0, r2=1.0, bc="mixed", norm="scaled")
    exact = sc.exact_bundle(cfg)
    d = sc.pick_d(cfg)
    mesh = msh.classify_boundary(msh.make_rect_mesh(4.0, 1.0, 1),
                                 msh.LEFT_RIGHT_DIRICHLET)
    dm = plw.dof_map_plate(mesh)
    dofs = dm.all_element_dofs(mesh)
    condensed = sc.condense_mesh(mesh, cfg, d, exact.f)
    x = slv.solve_condensed(dofs, dm.n_free, condensed)
    x_dense, eta_dense, _ = plate_dense_minres(mesh, d, exact.f)
    assert np.abs(x - x_dense).max() < 1e-6 * np.abs(x_dense).max()
    _, eta = slv.energy_residual(condensed, dofs, x)
    assert np.isclose(eta, eta_dense, rtol=1e-9)


@pytest.mark.parametrize("problem, bc, r1, refine", [
    ("poisson", "dirichlet", 1.0, False), ("poisson", "dirichlet", 1.0, True),
    ("plate", "dirichlet", 1.0, False), ("plate", "dirichlet", 1.0, True),
    ("plate", "mixed", 1.0, False), ("plate", "mixed", 4.0, False),
])
def test_trace_system_is_the_schur_complement_of_the_full_system(problem, bc, r1, refine):
    # 2- and 8-triangle meshes: unit squares and clamped/free plate strips
    cfg = sc.StudyConfig(problem=problem, r1=r1, bc=bc, norm="scaled")
    layout = msh.ALL_DIRICHLET if bc == "dirichlet" else msh.LEFT_RIGHT_DIRICHLET
    mesh = msh.classify_boundary(msh.make_rect_mesh(r1, 1.0, 1), layout)
    if refine:
        mesh = msh.refine_uniform(mesh)
    model, dof_map = ((pw, pw.dof_map_poisson) if problem == "poisson"
                      else (plw, plw.dof_map_plate))
    dm = dof_map(mesh)
    cond = sc.condense_mesh(mesh, cfg, sc.pick_d(cfg), sc.exact_bundle(cfg).f)
    dofs = dm.all_element_dofs(mesh)
    a, r = full_normal_equations(dofs, dm.n_free, cond)

    nf = dm.field.size  # the field unknowns are numbered first
    f, t = slice(0, nf), slice(nf, None)
    schur = a[t, t] - a[t, f] @ np.linalg.solve(a[f, f], a[f, t])
    gs = slv.assemble_global(slv.trace_dofs(dofs, model.N_FIELD), dm.n_free - nf, cond)
    assert np.abs(gs.matrix.toarray() - schur).max() <= 1e-12 * np.abs(schur).max()

    x = slv.solve_condensed(dofs, dm.n_free, cond)
    x_full = np.linalg.solve(a, r)
    assert np.abs(x - x_full).max() <= 1e-10 * np.abs(x_full).max()
