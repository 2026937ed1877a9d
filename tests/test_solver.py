import gc
import json
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dpglock import fem_core as fc
from dpglock import mesh as msh
from dpglock import plate_uw as plw
from dpglock import poisson_uw as pw
from dpglock import solver as slv
from dpglock import study_cli as sc
from helpers import (condense_rhs_arguments, full_load, full_normal_equations, full_solution,
                     permuted, plate_dense_minres, poisson_dense_minres, trial_signs,
                     whitened_load)


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def matrix_system(a, b):
    """The system of an explicit sparse matrix: one block over all unknowns."""
    n = len(b)
    return slv.GlobalSystem(np.arange(n)[None], a.toarray()[None], np.zeros(1, dtype=np.int64),
                            np.ones((1, n)), b)


def dense(gs):
    """One checked dense elimination of the whole assembled matrix."""
    linv, _ = slv.eliminate(gs.matrix.toarray(), len(gs.rhs), "trace matrix")
    return SimpleNamespace(solve=lambda b: linv.T @ (linv @ b))


def unpivoted_lu(gs):
    """SuperLU of the whole assembled matrix without pivoting and without a
    check of its pivots, in the minimum-degree ordering of A + A^T."""
    from scipy.sparse.linalg import splu
    return splu(gs.matrix, permc_spec="MMD_AT_PLUS_A", relax=1, diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def condense_one(gram, b, load, n_field=1):
    """Condensed system of a single element."""
    return slv.condense(lambda: (gram[None], b[None], load[None]), np.zeros(1, dtype=np.int64),
                        np.ones((1, b.shape[1] - n_field)), n_field)


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


def test_condense_local_of_a_class_stack_matches_each_class_and_the_dense_oracle():
    rng = np.random.default_rng(3)
    gram = np.stack([random_spd(9, rng) for _ in range(3)])
    b = rng.standard_normal((3, 9, 6))
    stacked = slv.condense_local(gram, b, 2)
    for k in range(3):
        one = slv.condense_local(gram[k], b[k], 2)
        for got, want in zip(stacked, one):
            assert np.allclose(got[k], want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        s = b[k].T @ np.linalg.solve(gram[k], b[k])
        schur, lift, *_ = eliminated(s, np.zeros(6), 2)
        op = stacked[2][k]
        assert np.allclose(op[:, :2], np.linalg.inv(s[:2, :2]), rtol=1e-13, atol=0.0)
        assert np.allclose(op[:, 2:], lift, rtol=1e-13, atol=1e-13 * np.abs(lift).max())
        assert np.allclose(stacked[3][k], schur, rtol=1e-13, atol=1e-13 * np.abs(schur).max())


def test_condense_local_rejects_a_stack_with_one_indefinite_gram():
    rng = np.random.default_rng(4)
    gram = np.stack([random_spd(3, rng), np.diag([1.0, -1.0, 1.0]), random_spd(3, rng)])
    with pytest.raises(slv.NotSPDError, match="element Gram matrix"):
        slv.condense_local(gram, np.ones((3, 3, 2)), 1)


def test_condense_mesh_separates_similar_elements_of_different_size():
    # a unit right triangle and a disjoint copy scaled by two: congruence
    # classes must tell them apart although their Jacobians are parallel
    verts = np.array([[0, 0], [1, 0], [0, 1], [3, 0], [5, 0], [3, 2]], float)
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    edges, tri_edges, signs = msh._connect(tris)
    mesh = msh.Mesh(verts, tris, edges, tri_edges, signs)
    cfg = sc.StudyConfig(problem="poisson")
    cond = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    for t in range(mesh.n_triangles):
        amap = fc.map_affine(mesh, t)
        *_, schur = slv.condense_local(pw.local_gram_poisson(amap),
                                       pw.local_b_poisson(amap, 0.0), pw.N_FIELD)
        assert np.allclose(cond.schur[cond.cls[t]], schur, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("perturb", [0.0, 0.1])
def test_condense_mesh_classes_match_rowwise_unique(perturb, monkeypatch):
    # perturbing the interior vertices makes every element its own class;
    # the unperturbed mesh has few classes, each led by its first element;
    # the key is the element shape alone, edge orientations do not split classes
    mesh = msh.refine_uniform(msh.refine_uniform(msh.make_rect_mesh(3.0, 2.0, 2)))
    interior = mesh.vertex_tags == msh.INTERIOR
    h = 0.25  # the cell size
    rng = np.random.default_rng(8)
    vertices = mesh.vertices.copy()
    vertices[interior] += perturb * h * rng.uniform(-1.0, 1.0, (interior.sum(), 2))
    mesh = replace(mesh, vertices=vertices)
    verts = mesh.vertices[mesh.triangles]
    jac = (verts[:, 1:] - verts[:, :1]).reshape(-1, 4)
    key = np.rint(jac / np.abs(jac).max() * 1e12).astype(np.int64)
    _, first, cls = np.unique(key, axis=0, return_index=True, return_inverse=True)
    assert (len(first) == mesh.n_triangles) == (perturb > 0)

    mapped = []
    map_affine = fc.map_affine
    monkeypatch.setattr(fc, "map_affine", lambda m, t: mapped.append(t) or map_affine(m, t))
    cfg = sc.StudyConfig(problem="poisson")
    cond = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    assert np.array_equal(mapped, first)
    assert np.array_equal(cond.cls, cls.reshape(-1))


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_condense_mesh_signs_match_each_elements_own_system(problem):
    # every element's signed class data against condense_local and
    # condense_rhs of its own map, with B turned to the mesh orientation
    mesh = msh.refine_uniform(msh.refine_uniform(msh.make_rect_mesh(3.0, 2.0, 2)))
    cfg = sc.StudyConfig(problem=problem, gamma=1.0 if problem == "poisson" else 0.0)
    f = sc.exact_bundle(cfg).f
    cond = sc.condense_mesh(mesh, cfg, f)
    verts = mesh.vertices[mesh.triangles]
    if problem == "poisson":
        model, loads = pw, pw.local_load_poisson(verts, f)
        local = lambda amap: (pw.local_gram_poisson(amap), pw.local_b_poisson(amap, 1.0))
    else:
        model, loads = plw, plw.local_load_plate(verts, f)
        local = lambda amap: (plw.local_gram_plate(amap), plw.local_b_plate(amap))
    # some class holds both orientations of an edge, and only the odd trace
    # slots are ever flipped
    assert (cond.sign < 0).any()
    unsigned = np.setdiff1d(np.arange(cond.sign.shape[1]), model.SIGNED_TRACE)
    assert (cond.sign[:, unsigned] == 1).all()

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    for t in range(mesh.n_triangles):
        gram, b = local(fc.map_affine(mesh, t))
        linv, c, op, schur = slv.condense_local(
            gram, b * trial_signs(mesh, t, model), model.N_FIELD)
        field, rhs = slv.condense_rhs(linv[None], c[None], op[None],
                                      np.zeros(1, dtype=np.int64),
                                      np.ones((1, len(schur))), loads[t][None])
        k, sign = cond.cls[t], cond.sign[t]
        close(sign[:, None] * cond.schur[k] * sign[None, :], schur)
        close(cond.lift[k] * sign, op[:, model.N_FIELD:])
        close(cond.rhs[t], rhs[0])
        close(cond.field[t], field[0])


@pytest.mark.parametrize("problem, model", [("poisson", pw), ("plate", plw)],
                         ids=["poisson", "plate"])
def test_flipping_one_elements_edge_signs_flips_only_its_signed_slots(problem, model):
    # class data depend on element shape alone: the mesh orientation reaches
    # the condensed systems only through sign (and the signed right side),
    # also for element 0, the first element of its class
    mesh = msh.refine_uniform(msh.make_rect_mesh(3.0, 2.0, 2))
    cfg = sc.StudyConfig(problem=problem)
    f = sc.exact_bundle(cfg).f
    signs = mesh.tri_edge_signs.copy()
    signs[0] *= -1
    cond = sc.condense_mesh(mesh, cfg, f)
    flipped = sc.condense_mesh(replace(mesh, tri_edge_signs=signs), cfg, f)
    odd = np.zeros(cond.sign.shape, dtype=bool)
    odd[0, model.SIGNED_TRACE] = True
    assert np.array_equal(flipped.sign, np.where(odd, -cond.sign, cond.sign))
    assert np.array_equal(flipped.rhs, np.where(odd, -cond.rhs, cond.rhs))
    for name in ("c", "schur", "lift", "cls", "linv", "load", "field"):
        assert np.array_equal(getattr(flipped, name), getattr(cond, name))


@pytest.mark.parametrize("problem, model, gram_name", [
    ("poisson", pw, "local_gram_poisson"), ("plate", plw, "local_gram_plate")],
    ids=["poisson", "plate"])
def test_condense_mesh_builds_one_system_per_element_shape(problem, model, gram_name,
                                                           monkeypatch, tmp_path):
    # a 10-by-10 square over four levels holds 2, 3, 4 and 5 element shapes;
    # a class key that also held the edge orientation signs would build
    # 2 + 7 + 18 + 24 Gram matrices
    grams, classes = [], []
    gram, condense = getattr(model, gram_name), slv.condense
    monkeypatch.setattr(model, gram_name, lambda *a: grams.append(a) or gram(*a))
    monkeypatch.setattr(slv, "condense", lambda build, cls, *a: classes.append(cls.max() + 1)
                        or condense(build, cls, *a))
    argv = ["--problem", problem, "--r1", "10", "--r2", "10", "--levels", "4"]
    assert sc.main([*argv, "--out", str(tmp_path / "study.csv")]) == 0
    assert classes == [2, 3, 4, 5]
    assert len(grams) == 14


def test_assemble_single_element_is_free_submatrix():
    rng = np.random.default_rng(3)
    cond = condense_one(random_spd(6, rng), rng.standard_normal((6, 5)),
                        rng.standard_normal(6))
    gs = slv.assemble_global(np.array([[1, -1, 0, 2]]), 3, cond)
    keep = [0, 2, 3]
    perm = [1, 0, 2]  # local slots of global dofs 0, 1, 2
    assert gs.matrix.format == "csc"
    dense = gs.matrix.toarray()
    expected = cond.schur[0][np.ix_(keep, keep)][np.ix_(perm, perm)]
    assert np.allclose(dense, expected, rtol=1e-14)
    assert np.allclose(gs.rhs, cond.rhs[0][keep][perm], rtol=1e-14)


def test_assemble_element_order_invariance():
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    cfg = sc.StudyConfig(problem="poisson")
    exact = sc.exact_bundle(cfg)
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, exact.f)
    dofs = dm.all_element_dofs(mesh)
    n = dm.n_trace
    gs = slv.assemble_global(dofs, n, condensed)

    order = np.arange(mesh.n_triangles)[::-1]
    gs_perm = slv.assemble_global(dofs[order], n, permuted(condensed, order))
    diff = (gs.matrix - gs_perm.matrix).toarray()
    scale = np.abs(gs.matrix.toarray()).max()
    assert np.abs(diff).max() <= 1e-14 * scale
    assert np.allclose(gs.rhs, gs_perm.rhs, atol=1e-14 * max(1, np.abs(gs.rhs).max()))


@pytest.mark.parametrize("bc", [msh.ALL_DIRICHLET, msh.LEFT_RIGHT_DIRICHLET])
@pytest.mark.parametrize("model, dof_map", [(pw, pw.dof_map_poisson),
                                            (plw, plw.dof_map_plate)])
def test_dof_map_numbers_the_free_traces_only(model, dof_map, bc):
    # a 3-by-1 strip refined twice (96 triangles)
    mesh = msh.classify_boundary(msh.make_rect_mesh(3.0, 1.0, 1), bc)
    for _ in range(2):
        mesh = msh.refine_uniform(mesh)
    dm = dof_map(mesh)
    dofs = dm.all_element_dofs(mesh)
    assert dofs.shape == (mesh.n_triangles, model.N_TRIAL - model.N_FIELD)
    # the free trace slots, in slot order, are the unknowns 0 ... n_trace - 1
    # (TreeFactor.solve reads them so), and every one of them is a slot of some element
    ids = dm.slot_values(dm.vertex, dm.edge)
    assert (ids[ids >= 0] == np.arange(dm.n_trace)).all()
    assert (np.unique(dofs[dofs >= 0]) == np.arange(dm.n_trace)).all()
    assert dm.n_free == model.N_FIELD * mesh.n_triangles + dm.n_trace


@pytest.mark.parametrize("dof_map", [pw.dof_map_poisson, plw.dof_map_plate])
def test_element_slots_list_each_triangles_vertices_then_edges(dof_map):
    mesh = msh.refine_uniform(msh.make_rect_mesh(3.0, 1.0, 1))
    dm = dof_map(mesh)
    (nv, kv), (ne, ke) = dm.vertex.shape, dm.edge.shape
    slots = dm.element_slots(mesh)
    vertex = dm.slot_values(np.arange(nv), np.full(ne, -1))[slots]
    edge = dm.slot_values(np.full(nv, -1), np.arange(ne))[slots]
    comp = dm.slot_values(np.tile(np.arange(kv), (nv, 1)), np.tile(np.arange(ke), (ne, 1)))[slots]
    assert (vertex[:, :3 * kv] == np.repeat(mesh.triangles, kv, axis=1)).all()
    assert (edge[:, 3 * kv:] == np.repeat(mesh.tri_edges, ke, axis=1)).all()
    assert (comp == np.r_[np.tile(np.arange(kv), 3), np.tile(np.arange(ke), 3)]).all()
    # the layout of slot_values is DofMap.number's
    assert (dm.slot_values(dm.vertex, dm.edge)
            == np.concatenate([dm.vertex.ravel(), dm.edge.ravel()])).all()


def test_assemble_against_hand_assembled_two_triangle_matrix():
    # unit square, two triangles (0,1,3) and (0,3,2); edges sorted
    # lexicographically: (0,1) (0,2) (0,3) (1,3) (2,3); all vertices are
    # Dirichlet, so the 5 fluxes are the unknowns of the trace system, and
    # the 6 fields (u, sigma_x, sigma_y per triangle) are condensed
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    assert mesh.triangles.tolist() == [[0, 1, 3], [0, 3, 2]]
    assert mesh.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]
    cfg = sc.StudyConfig(problem="poisson")
    condensed = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    dm = pw.dof_map_poisson(mesh)
    hand_traces = np.array([[-1, -1, -1, 0, 3, 2], [-1, -1, -1, 2, 4, 1]])
    assert (dm.all_element_dofs(mesh) == hand_traces).all()
    assert (dm.n_free, dm.n_trace) == (11, 5)

    hand = np.zeros((5, 5))
    for t in range(2):
        sign = trial_signs(mesh, t, pw)[pw.N_FIELD:]
        s = sign[:, None] * condensed.schur[condensed.cls[t]] * sign[None, :]
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
    gs = matrix_system(sp.eye(4, format="csr"), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(slv.solve_spd(gs, factor=dense), gs.rhs)
    gs = matrix_system(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])), np.array([3.0, 3.0]))
    assert np.allclose(slv.solve_spd(gs, factor=dense), [1.0, 1.0], rtol=1e-12)


def test_solve_matches_dense_oracle():
    import scipy.sparse as sp
    rng = np.random.default_rng(4)
    a = random_spd(50, rng)
    b = rng.standard_normal(50)
    x = slv.solve_spd(matrix_system(sp.csr_matrix(a), b), factor=dense)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)


def test_solve_reports_singular_matrix():
    import scipy.sparse as sp
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(slv.SolverError):
        slv.solve_spd(matrix_system(a, np.array([1.0, 0.0])), factor=dense)


def test_solve_refuses_to_pivot_past_a_kernel():
    import scipy.sparse as sp
    a = sp.csr_matrix(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(slv.SolverError):
        slv.solve_spd(matrix_system(a, np.array([1.0, 1.0, 1.0])), factor=dense)


def test_solve_rejects_off_diagonal_pivot():
    # an LU factor that pivots swaps the rows of this indefinite matrix past
    # its zero diagonal and returns x = (2, 1)
    import scipy.sparse as sp
    a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(slv.NotSPDError):
        slv.solve_spd(matrix_system(a, np.array([1.0, 2.0])), factor=dense)


def test_solve_rejects_a_residual_above_the_right_side():
    # eigenvalues 1 ... 1e-20: round-off leaves a pivot that is not positive,
    # which the checked Cholesky factor rejects.  SuperLU without pivoting or
    # that check returns |x| ~ 1e17, which meets the backward error test,
    # with a residual about twice |b|, worse than x = 0: the certificate must
    # reject it too
    import scipy.sparse as sp
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    a = q @ np.diag(np.logspace(0, -20, 20)) @ q.T
    gs = matrix_system(sp.csc_matrix(a), rng.standard_normal(20))
    with pytest.raises(slv.NotSPDError, match="not SPD"):
        slv.solve_spd(gs, factor=dense)
    with pytest.raises(slv.SolverError, match="relative residual"):
        slv.solve_spd(gs, factor=unpivoted_lu)


def test_solve_rejects_a_nan_solution():
    # every comparison with NaN is false, so the certificate must accept on a
    # comparison that holds rather than reject on one that fails
    import scipy.sparse as sp
    a = sp.eye(2, format="csr")
    with pytest.raises(slv.SolverError):
        slv.solve_spd(matrix_system(a, np.array([np.nan, 1.0])), factor=dense)
    assert (slv.solve_spd(matrix_system(a, np.zeros(2)), factor=dense) == 0).all()


def test_factorization_out_of_memory_is_a_solver_failure(monkeypatch, capsys):
    # numpy reports a failed allocation as MemoryError; a dense factor too
    # large for memory must still exit with the solver-failure code and one
    # line naming its level, not crash with a traceback.  run_study maps the
    # MemoryError of every stage of a level (test_study), so it is checked
    # here through the CLI: solve_spd itself lets it pass
    def oom(*args, **kwargs):
        raise MemoryError("Unable to allocate the factor")

    monkeypatch.setattr(slv.np.linalg, "cholesky", oom)
    assert sc.main(["--problem", "poisson", "--levels", "1"]) == 2
    assert capsys.readouterr().err == ("dpg-lock: solver failure: level 0: does not fit in "
                                       "memory: Unable to allocate the factor\n")


@pytest.mark.parametrize("r1, n", [(1.0, 8), (10.0, 80)])
def test_bisection_joins_halves_split_at_the_median(r1, n):
    # the 8-triangle square and the 20 x 2-cell strip; walked with a stack,
    # each block of more than one triangle joins the two blocks before it
    mesh = msh.make_rect_mesh(r1, 1.0, 2)
    assert mesh.n_triangles == n
    centroid = mesh.vertices[mesh.triangles].mean(axis=1)
    blocks = slv.bisection(centroid, np.arange(n))
    stack = []
    for block in blocks:
        if len(block) > 1:
            right, left = stack.pop(), stack.pop()
            assert not set(left) & set(right) and set(left) | set(right) == set(block)
            assert len(left) + len(right) == len(block) and len(left) == len(block) // 2
            axis = np.ptp(centroid[block], axis=0).argmax()
            assert centroid[left, axis].max() <= centroid[right, axis].min()
        stack.append(block)
    assert sorted(int(b[0]) for b in blocks if len(b) == 1) == list(range(n))
    assert len(blocks) == 2 * n - 1 and len(stack) == 1 and stack[0] is blocks[-1]
    assert sorted(blocks[-1]) == list(range(n))


# the studies of the benchmark, in the order of its reference rows
BENCHMARK_STUDIES = list(json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()))


def study_solves(argv, monkeypatch, tmp_path):
    """(trace system, solution) of every level that the CLI study argv
    solves."""
    solves = []
    solve = slv.solve_spd

    def record(gs, **kwargs):
        x = solve(gs, **kwargs)
        solves.append((gs, x))
        return x

    monkeypatch.setattr(slv, "solve_spd", record)
    assert sc.main([*argv.split(), "--out", str(tmp_path / "study.csv")]) == 0
    return solves


@pytest.mark.parametrize("argv", BENCHMARK_STUDIES)
def test_trace_systems_factor_without_pivots_into_positive_pivots(argv, monkeypatch,
                                                                   tmp_path):
    # a no-pivoting LU = L D L^T of a symmetric matrix with positive pivots D
    # is the Cholesky factorization in disguise: the system is SPD (a dense
    # Cholesky factor says the same, at 20x the time on the strip)
    for gs, _ in study_solves(f"{argv} --levels 3", monkeypatch, tmp_path):
        lu = unpivoted_lu(gs)
        assert (lu.perm_r == lu.perm_c).all()
        assert (lu.U.diagonal() > 0).all()


@pytest.mark.parametrize("argv", BENCHMARK_STUDIES)
def test_eliminations_take_and_leave_exactly_symmetric_matrices(argv, monkeypatch, tmp_path):
    # eliminate does not symmetrize: every M it is handed (the elements' C^T C, the sums of
    # merge's signed parts) and every Schur complement it returns (the elements', the
    # heights' and the coarse blocks') equals its transpose bit for bit
    calls, eliminate = [], slv.eliminate

    def record(m, ni, what):
        op, s = eliminate(m, ni, what)
        calls.append(what)
        assert np.array_equal(m, m.swapaxes(-1, -2)), what
        assert np.array_equal(s, s.swapaxes(-1, -2)), what
        return op, s

    monkeypatch.setattr(slv, "eliminate", record)
    assert sc.main([*f"{argv} --levels 3".split(), "--out", str(tmp_path / "study.csv")]) == 0
    assert calls.count("element field block") == 3 and len(calls) > 3


@pytest.mark.parametrize("argv", BENCHMARK_STUDIES)
def test_certificate_scale_is_never_looser_than_the_row_sum_scale(argv, monkeypatch,
                                                                  tmp_path):
    # max(max A_ii, |A x| / |x|) <= |A|_2 <= |A|_inf for SPD A: a smaller
    # scale makes the backward error larger, so the test only gets stricter
    for gs, x in study_solves(f"{argv} --levels 3", monkeypatch, tmp_path):
        a, b = gs.matrix, gs.rhs
        row_sum_scale = abs(a).sum(axis=1).max() * np.linalg.norm(x) + np.linalg.norm(b)
        assert slv.backward_scale(gs, x, gs.apply(x)) <= row_sum_scale


@pytest.mark.parametrize("argv", [
    "--problem poisson --r1 10 --r2 1 --bc mixed --ny0 1 --levels 3",
    # its top level takes three refinement steps
    "--problem plate --r1 10 --r2 1 --bc mixed --norm scaled --levels 3",
])
def test_a_study_never_assembles_the_trace_matrix(argv, monkeypatch, tmp_path):
    out = tmp_path / "study.csv"
    assert sc.main([*argv.split(), "--out", str(out)]) == 0
    expected = out.read_text()

    def unread(gs):
        raise AssertionError("the study read GlobalSystem.matrix")

    sums, sum_blocks = [], slv.sum_blocks
    gathers, all_element_dofs = [], msh.DofMap.all_element_dofs
    monkeypatch.setattr(slv.GlobalSystem, "matrix", property(unread))
    monkeypatch.setattr(slv, "sum_blocks", lambda *a: sums.append(a) or sum_blocks(*a))
    monkeypatch.setattr(msh.DofMap, "all_element_dofs",
                        lambda *a: gathers.append(a) or all_element_dofs(*a))
    assert sc.main([*argv.split(), "--out", str(out)]) == 0
    assert out.read_text() == expected
    assert sums == []
    assert len(gathers) == 3  # one dof gather per level


def solved_poisson(levels=1):
    """A solved unit-square Poisson level: its trace system, the element
    fields and the traces."""
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    for _ in range(levels):
        mesh = msh.refine_uniform(mesh)
    cfg = sc.StudyConfig(problem="poisson")
    exact = sc.exact_bundle(cfg)
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, exact.f)
    dofs = dm.all_element_dofs(mesh)
    gs = slv.assemble_global(dofs, dm.n_trace, condensed)
    fields, traces, _ = slv.solve_condensed(mesh, dm, condensed)
    return mesh, dm, condensed, gs, fields, traces


@pytest.mark.parametrize("levels", [1, 2])
def test_trace_solve_matches_dense_solve(levels):
    # the tree factor and the refinement loop against a dense LAPACK solve
    # of the same assembled trace system
    mesh, dm, condensed, gs, _, _ = solved_poisson(levels)
    x = slv.solve_spd(gs, factor=lambda gs: slv.TreeFactor(mesh, dm, gs))
    x_dense = np.linalg.solve(gs.matrix.toarray(), gs.rhs)
    assert np.abs(x - x_dense).max() < 1e-9 * np.abs(x_dense).max()


def test_by_class_matches_a_product_per_row():
    # three classes of 5, 1 and 3 rows, interleaved; one of them a single row
    rng = np.random.default_rng(3)
    cls = np.array([0, 2, 0, 1, 0, 2, 0, 0, 2])
    x, blocks = rng.standard_normal((9, 4)), rng.standard_normal((3, 4, 6))
    expected = np.array([x[t] @ blocks[cls[t]] for t in range(9)])
    assert np.abs(slv.by_class(cls, x, blocks) - expected).max() <= 1e-15 * np.abs(expected).max()


def eliminate_reference(m, ni, what):
    """eliminate as separate products and their concatenation."""
    linv = slv.inverse_factor(m[..., :ni, :ni], what)
    w = linv @ m[..., :ni, ni:]
    s = m[..., ni:, ni:] - w.swapaxes(-1, -2) @ w
    return np.concatenate([linv, w], axis=-1), s


@pytest.mark.parametrize("shape, ni", [((3, 40, 40), 15), ((40, 40), 15), ((3, 40, 40), 40),
                                       ((40, 40), 40)])
def test_eliminate_equals_the_separate_products(shape, ni):
    # ni = n leaves an empty boundary, as the last coarse block of a TreeFactor does
    # (381 x 381 on plate R10 L6); M is exactly symmetric, as eliminate takes it, and
    # so is its Schur complement
    rng = np.random.default_rng(11)
    a, e = rng.standard_normal(shape), 1e-9 * rng.standard_normal(shape)
    m = a @ a.swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1]) + (e + e.swapaxes(-1, -2))
    assert np.array_equal(m, m.swapaxes(-1, -2))
    op, schur = slv.eliminate(m, ni, "m")
    for got, want in zip((op, schur), eliminate_reference(m, ni, "m")):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(schur, schur.swapaxes(-1, -2))


def condense_rhs_reference(linv, c, op, cls, sign, load):
    """condense_rhs as three by_class products over all elements, the first
    whitening the loads padded to their full (nt, n_test) width."""
    n_field = op.shape[1]
    z = slv.by_class(cls, full_load(load, linv.shape[-1]), linv.swapaxes(-1, -2))
    r = slv.by_class(cls, z, c)
    g = slv.by_class(cls, r[:, :n_field], op)
    return g[:, :n_field], (r[:, n_field:] - g[:, n_field:]) * sign


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_condense_rhs_equals_three_by_class_products(problem):
    args = condense_rhs_arguments(problem, 2, 2)
    cls, sign = args[3], args[4]
    assert len(np.unique(cls)) >= 3 and (sign < 0).any() and (sign > 0).any()
    for got, want in zip(slv.condense_rhs(*args), condense_rhs_reference(*args)):
        assert got.shape == want.shape and np.array_equal(got, want)


def energy_residual_reference(cond, fields, local):
    """energy_residual as |z - C x|^2 over all elements at once: the full
    (nt, n_test) whitened loads, one by_class product and one residual."""
    r = whitened_load(cond) - slv.by_class(cond.cls, np.hstack([fields, local]),
                                           cond.c.swapaxes(-1, -2))
    eta_sq = np.einsum("ti,ti->t", r, r)
    return np.sqrt(eta_sq), float(np.sqrt(eta_sq.sum()))


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_energy_residual_equals_the_full_length_residual(problem):
    # four classes of unequal sizes, edges of both orientations: class by class, the
    # residual is the full-length one bit for bit
    mesh = msh.refine_uniform(msh.refine_uniform(msh.make_rect_mesh(3.0, 2.0, 2)))
    cfg = sc.StudyConfig(problem=problem)
    cond = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    fields, _, local = slv.solve_condensed(mesh, sc.MODELS[problem].dof_map(mesh), cond)
    assert len(np.unique(np.bincount(cond.cls))) >= 2 and (cond.sign < 0).any()
    for got, want in zip(slv.energy_residual(cond, fields, local),
                         energy_residual_reference(cond, fields, local)):
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


def test_energy_residual_zero_for_zero_data():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    cfg = sc.StudyConfig(problem="poisson")
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, lambda x, y: [(0.0, x, y)])
    eta_t, eta = slv.energy_residual(condensed, np.zeros((mesh.n_triangles, pw.N_FIELD)),
                                     np.zeros(condensed.sign.shape))
    assert eta == 0.0
    assert (eta_t == 0.0).all()


def test_zero_load_gives_zero_solution():
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    cfg = sc.StudyConfig(problem="poisson")
    dm = pw.dof_map_poisson(mesh)
    condensed = sc.condense_mesh(mesh, cfg, lambda x, y: [(0.0, x, y)])
    fields, traces, _ = slv.solve_condensed(mesh, dm, condensed)
    assert np.allclose(full_solution(fields, traces), 0.0, atol=1e-14)


def dense_riesz_eta_sq(mesh, dofs, fields, traces, model, gram, bmat, loads):
    """eta^2 = r^T G_global^-1 r from the dense block-diagonal Gram matrix
    and the residual r = l - B x of every element, both built from the
    element's own map, B turned to the mesh orientation, and the loads
    (their leading columns, as the model returns them) padded to l."""
    n_test = model.N_TEST
    big_g = np.zeros((mesh.n_triangles * n_test,) * 2)
    r_glob = np.zeros(mesh.n_triangles * n_test)
    loads = full_load(loads, n_test)
    for t in range(mesh.n_triangles):
        rows = slice(t * n_test, (t + 1) * n_test)
        amap = fc.map_affine(mesh, t)
        big_g[rows, rows] = gram(amap)
        x_t = np.concatenate([fields[t], slv.gather_local(dofs[t], traces)])
        r_glob[rows] = loads[t] - (bmat(amap) * trial_signs(mesh, t, model)) @ x_t
    return r_glob @ np.linalg.solve(big_g, r_glob)


def test_energy_residual_matches_dense_riesz_oracle():
    mesh, dm, condensed, gs, fields, traces = solved_poisson(levels=0)
    dofs = dm.all_element_dofs(mesh)
    eta_t, eta = slv.energy_residual(condensed, fields, gs.local(traces))
    loads = pw.local_load_poisson(mesh.vertices[mesh.triangles],
                                  sc.exact_bundle(sc.StudyConfig(problem="poisson")).f)
    riesz = dense_riesz_eta_sq(mesh, dofs, fields, traces, pw,
                               lambda amap: pw.local_gram_poisson(amap),
                               lambda amap: pw.local_b_poisson(amap, 0.0), loads)
    assert np.isclose(eta ** 2, riesz, rtol=1e-10)


def test_plate_energy_residual_matches_dense_riesz_oracle():
    # the clamped unit square at 32 triangles: a dense 1,760^2 Gram matrix
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 2))
    cfg = sc.StudyConfig(problem="plate")
    f = sc.exact_bundle(cfg).f
    dm = plw.dof_map_plate(mesh)
    dofs = dm.all_element_dofs(mesh)
    condensed = sc.condense_mesh(mesh, cfg, f)
    assert (condensed.sign < 0).any()
    fields, traces, local = slv.solve_condensed(mesh, dm, condensed)
    eta_t, eta = slv.energy_residual(condensed, fields, local)
    riesz = dense_riesz_eta_sq(mesh, dofs, fields, traces, plw,
                               lambda amap: plw.local_gram_plate(amap),
                               plw.local_b_plate,
                               plw.local_load_plate(mesh.vertices[mesh.triangles], f))
    assert np.isclose(eta ** 2, riesz, rtol=1e-10)
    assert np.isclose(eta ** 2, (eta_t ** 2).sum(), rtol=1e-14)


def test_energy_residual_permutation_invariant():
    mesh, dm, condensed, gs, fields, traces = solved_poisson()
    dofs = dm.all_element_dofs(mesh)
    _, eta = slv.energy_residual(condensed, fields, gs.local(traces))
    order = np.arange(mesh.n_triangles)[::-1]
    cond_perm = permuted(condensed, order)
    gs_perm = slv.assemble_global(dofs[order], dm.n_trace, cond_perm)
    _, eta_perm = slv.energy_residual(cond_perm, fields[order], gs_perm.local(traces))
    assert np.isclose(eta, eta_perm, rtol=1e-14)


def test_galerkin_orthogonality():
    mesh, dm, condensed, gs, fields, traces = solved_poisson()
    grad = gs.matrix @ traces - gs.rhs
    assert np.abs(grad).max() <= 1e-10 * max(1.0, np.abs(gs.rhs).max())


def test_minimum_residual_convexity():
    mesh, dm, condensed, gs, fields, traces = solved_poisson()
    _, eta = slv.energy_residual(condensed, fields, gs.local(traces))
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = rng.standard_normal(dm.n_free)  # fields, then traces
        p *= 0.1 / np.linalg.norm(p)
        _, eta_p = slv.energy_residual(condensed, fields + p[:fields.size].reshape(
            fields.shape), gs.local(traces + p[fields.size:]))
        assert eta_p ** 2 >= eta ** 2 - 1e-12


def test_pipeline_matches_dense_minimum_residual():
    # oracle equivalence on both coarse unit-square meshes
    cfg = sc.StudyConfig(problem="poisson")
    exact = sc.exact_bundle(cfg)
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    for level in range(2):
        dm = pw.dof_map_poisson(mesh)
        condensed = sc.condense_mesh(mesh, cfg, exact.f)
        fields, traces, local = slv.solve_condensed(mesh, dm, condensed)
        x_dense, eta_dense, _ = poisson_dense_minres(mesh, 0.0, exact.f)
        assert np.abs(full_solution(fields, traces) - x_dense).max() < 1e-9
        _, eta = slv.energy_residual(condensed, fields, local)
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
        condensed = sc.condense_mesh(mesh, cfg, exact.f)
        fields, traces, local = slv.solve_condensed(mesh, dm, condensed)
        x_dense, eta_dense, _ = plate_dense_minres(mesh, exact.f)
        assert np.abs(full_solution(fields, traces) - x_dense).max() \
            < 1e-9 * np.abs(x_dense).max()
        _, eta = slv.energy_residual(condensed, fields, local)
        assert np.isclose(eta, eta_dense, rtol=1e-9)


def test_plate_clamped_system_is_well_conditioned():
    # a constant m_tn on every edge would be a null vector without the pinned
    # slot, of the full system and so of its trace Schur complement; dense
    # Cholesky is no check, it passes on the singular matrix
    cfg = sc.StudyConfig(problem="plate")
    for mesh in unit_square_meshes():
        dm = plw.dof_map_plate(mesh)
        condensed = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
        gs = slv.assemble_global(dm.all_element_dofs(mesh), dm.n_trace, condensed)
        lam = np.linalg.eigvalsh(gs.matrix.toarray())
        assert lam[0] / lam[-1] > 1e-10


@pytest.mark.parametrize("refine", [0, 1, 2])
def test_clamped_plate_pins_the_constant_twisting_moment_kernel(refine):
    # with the clamped vertex triples fixed and no edge slot, a constant m_tn
    # on every edge telescopes to zero around each triangle: A v = 0 for v = 1
    # on every m_tn unknown; dof_map_plate fixes one m_tn slot to remove it
    cfg = sc.StudyConfig(problem="plate")
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    for _ in range(refine):
        mesh = msh.refine_uniform(mesh)
    vertex_fixed = np.repeat((mesh.vertex_tags == msh.DIRICHLET)[:, None], 3, axis=1)
    dm = plw.PlateDofMap.number(mesh, plw.N_FIELD, vertex_fixed,
                                np.zeros((mesh.n_edges, 3), bool))
    condensed = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    a = slv.assemble_global(dm.all_element_dofs(mesh), dm.n_trace, condensed).matrix
    v = np.zeros(dm.n_trace)
    v[dm.edge[:, 2]] = 1.0
    assert np.linalg.norm(a @ v) <= 1e-14 * abs(a).max() * np.linalg.norm(v)
    pinned = plw.dof_map_plate(mesh)
    assert (pinned.edge[:, 2] < 0).sum() == 1
    assert (pinned.edge[:, :2] >= 0).all()
    assert np.array_equal(pinned.vertex < 0, vertex_fixed)


def test_plate_pipeline_matches_dense_minimum_residual_mixed_strip():
    # the scaled 4 x 1 strip, in units of its d = 4, leaves a normal matrix of condition ~6e7
    cfg, *_ = sc.unit_config(sc.StudyConfig(problem="plate", r1=4.0, r2=1.0, bc="mixed",
                                            norm="scaled"))
    exact = sc.exact_bundle(cfg)
    mesh = msh.classify_boundary(msh.make_rect_mesh(cfg.r1, cfg.r2, 1),
                                 msh.LEFT_RIGHT_DIRICHLET)
    dm = plw.dof_map_plate(mesh)
    condensed = sc.condense_mesh(mesh, cfg, exact.f)
    fields, traces, local = slv.solve_condensed(mesh, dm, condensed)
    x_dense, eta_dense, _ = plate_dense_minres(mesh, exact.f)
    assert np.abs(full_solution(fields, traces) - x_dense).max() < 1e-6 * np.abs(x_dense).max()
    _, eta = slv.energy_residual(condensed, fields, local)
    assert np.isclose(eta, eta_dense, rtol=1e-9)


@pytest.mark.parametrize("problem, bc, r1, refine", [
    ("poisson", "dirichlet", 1.0, False), ("poisson", "dirichlet", 1.0, True),
    ("plate", "dirichlet", 1.0, False), ("plate", "dirichlet", 1.0, True),
    ("plate", "mixed", 1.0, False), ("plate", "mixed", 4.0, False),
])
def test_trace_system_is_the_schur_complement_of_the_full_system(problem, bc, r1, refine):
    # 2- and 8-triangle meshes: unit squares and clamped/free plate strips, in units of d
    cfg, *_ = sc.unit_config(sc.StudyConfig(problem=problem, r1=r1, bc=bc, norm="scaled"))
    mesh = msh.classify_boundary(msh.make_rect_mesh(cfg.r1, cfg.r2, 1), bc)
    if refine:
        mesh = msh.refine_uniform(mesh)
    dof_map = pw.dof_map_poisson if problem == "poisson" else plw.dof_map_plate
    dm = dof_map(mesh)
    cond = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    dofs = dm.all_element_dofs(mesh)
    a, r = full_normal_equations(dofs, dm.n_free, cond)

    nf = dm.n_free - dm.n_trace  # the field unknowns are numbered first
    f, t = slice(0, nf), slice(nf, None)
    schur = a[t, t] - a[t, f] @ np.linalg.solve(a[f, f], a[f, t])
    gs = slv.assemble_global(dofs, dm.n_trace, cond)
    assert np.abs(gs.matrix.toarray() - schur).max() <= 1e-12 * np.abs(schur).max()

    x = full_solution(*slv.solve_condensed(mesh, dm, cond)[:2])
    x_full = np.linalg.solve(a, r)
    assert np.abs(x - x_full).max() <= 1e-10 * np.abs(x_full).max()


# the refinement-tree factor on a clamped plate, the mixed plate strip and the
# mixed Poisson strip, each on one row of coarse cells, and on the clamped
# plate's default two rows (8 coarse triangles), the benchmark's layout
TREE_CASES = {
    "clamped plate": sc.StudyConfig(problem="plate", norm="scaled", ny0=1),
    "mixed plate strip": sc.StudyConfig(problem="plate", r1=10.0, bc="mixed", norm="scaled",
                                        ny0=1),
    "mixed poisson strip": sc.StudyConfig(problem="poisson", r1=10.0, bc="mixed", ny0=1),
    "clamped plate, two rows": sc.StudyConfig(problem="plate", norm="scaled"),
}


def tree_level(cfg, depth):
    """A level of the study cfg, in units of d, refined depth times: mesh,
    dof map, condensed systems, assembled trace system and its TreeFactor."""
    cfg, *_ = sc.unit_config(cfg)
    mesh = msh.classify_boundary(msh.make_rect_mesh(cfg.r1, cfg.r2, cfg.ny0), cfg.bc)
    for _ in range(depth):
        mesh = msh.refine_uniform(mesh)
    dm = (pw.dof_map_poisson if cfg.problem == "poisson" else plw.dof_map_plate)(mesh)
    cond = sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    gs = slv.assemble_global(dm.all_element_dofs(mesh), dm.n_trace, cond)
    return mesh, dm, cond, gs, slv.TreeFactor(mesh, dm, gs)


def steps_by_height(mesh, cond, tree):
    """tree.steps regrouped: one list per height h = 1 .. depth, of one step
    per class of the height-h patches, and the list of coarse steps."""
    steps, heights = tree.steps, []
    for h in range(1, mesh.depth + 1):
        k = len(np.unique(cond.cls[:mesh.n_triangles >> 2 * h]))
        heights.append(steps[:k])
        steps = steps[k:]
    return heights, steps


def test_coarse_dissection_keeps_its_fronts_small():
    # the plate R10 L4 top level: 554 free traces on the coarse skeleton of 8
    # triangles; bisecting them, no front holds more than a quarter of them
    # (138; one dense factor of the skeleton would take all 554)
    cfg = sc.StudyConfig(problem="plate", r1=10.0, r2=10.0, norm="scaled")
    mesh, _, cond, _, tree = tree_level(cfg, 3)
    fronts = [step[4].shape for step in steps_by_height(mesh, cond, tree)[1]]
    skeleton = sum(ni for ni, _ in fronts)
    assert skeleton == 554
    assert max(n for _, n in fronts) <= skeleton / 4


def test_signs_are_int8_and_factor_slots_int32():
    cfg = sc.StudyConfig(problem="plate", r1=10.0, r2=10.0, norm="scaled")
    mesh, _, cond, gs, tree = tree_level(cfg, 2)
    assert cond.sign.dtype == gs.sign.dtype == np.int8
    assert len(tree.steps) > len(np.unique(cond.cls))  # tree and coarse steps
    for inner, inner_sign, outer, outer_sign, _ in tree.steps:
        assert inner.dtype == outer.dtype == np.int32
        assert inner_sign.dtype == outer_sign.dtype == np.int8


@pytest.mark.parametrize("cfg", [
    sc.StudyConfig(problem="poisson", r1=100.0, r2=100.0, norm="scaled"),
    sc.StudyConfig(problem="plate", r1=10.0, r2=10.0, norm="scaled"),
    sc.StudyConfig(problem="plate", r1=10.0, r2=1.0, bc="mixed", norm="scaled")],
    ids=["poisson R100", "plate R10", "plate strip"])
def test_classes_are_uint8_and_trace_indices_int32(cfg):
    # the benchmark's meshes: a handful of classes, and int32 indices from the mesh on
    mesh, dm, cond, gs, tree = tree_level(cfg, 2)
    assert cond.cls.dtype == np.uint8
    assert dm.element_slots(mesh).dtype == np.int32
    assert dm.all_element_dofs(mesh).dtype == gs.dofs.dtype == np.int32
    assert tree.free.dtype == bool


def test_merge_sums_parts_by_rows_as_whole_parts():
    # two parts of 600 slots that share 300, summed 256 rows at a time by merge, against
    # the whole-part sum m[p, p] += r block r; slots below 400 are inside
    rng = np.random.default_rng(7)
    slots = np.concatenate([np.arange(600), np.arange(300, 900)])
    signs = rng.choice(np.array([-1, 1], np.int8), 1200)
    parts = [random_spd(600, rng) for _ in range(2)]
    tree = object.__new__(slv.TreeFactor)
    tree.steps = []
    _, _, schur = tree.merge(slots[None], signs[None], np.zeros(1, int), lambda r: parts,
                             lambda u, count: u < 400, lambda g: "merged block")
    first = np.unique(slots, return_index=True)[1]  # the merged signs are the first listing's
    m = np.zeros((900, 900))
    for p, sign, block in zip(np.split(slots, [600]), np.split(signs, [600]), parts):
        r = sign * signs[first][p]
        m[np.ix_(p, p)] += r[:, None] * block * r
    op, want = slv.eliminate(m, 400, "m")
    assert np.array_equal(tree.steps[0][4], op) and np.array_equal(schur[0], want)
    assert np.array_equal(schur[0], schur[0].T)


@pytest.mark.parametrize("case", TREE_CASES)
def test_block_apply_and_diagonal_match_the_assembled_matrix(case):
    *_, gs, _ = tree_level(TREE_CASES[case], 2)
    a = gs.matrix
    x = np.random.default_rng(7).standard_normal(a.shape[0])
    ax = a @ x
    assert np.linalg.norm(gs.apply(x) - ax) <= 1e-13 * np.linalg.norm(ax)
    d = a.diagonal()
    assert np.abs(gs.diagonal() - d).max() <= 1e-13 * np.abs(d).max()


def trace_slots(mesh, dm):
    """The (nt, n_trace) slot of every element trace, and a function that
    looks slots up in a (vertex, edge) pair of per-entity values."""

    def lookup(s, vertex, edge):
        return dm.slot_values(vertex, edge)[s]

    return dm.element_slots(mesh), lookup


@pytest.mark.parametrize("case", TREE_CASES)
def test_tree_patches_of_a_class_match_their_representative(case):
    mesh, dm, cond, _, tree = tree_level(TREE_CASES[case], 3)
    nt = mesh.n_triangles
    ids, lookup = trace_slots(mesh, dm)
    child = {r: (ids[r], cond.sign[r]) for r in range(nt)}  # boundary of each height-0 patch
    for h, step in enumerate(steps_by_height(mesh, cond, tree)[0], start=1):
        n = nt >> 2 * h
        classes = np.unique(cond.cls[:n])
        assert len(step) == len(classes)
        parent = {}
        for c, (inner, inner_sign, outer, outer_sign, _) in zip(classes, step):
            roots = np.flatnonzero(cond.cls[:n] == c)
            assert len(roots) == len(inner)
            pattern = None
            for r, *merged in zip(roots, inner, inner_sign, outer, outer_sign):
                slots = np.concatenate([merged[0], merged[2]])
                signs = np.concatenate([merged[1], merged[3]])
                at = {s: i for i, s in enumerate(slots)}
                assert len(at) == len(slots)
                # local numbering and relative signs of the children's slots
                pos = np.array([at[s] for k in range(4) for s in child[r + k * n][0]])
                rel = np.concatenate([child[r + k * n][1] for k in range(4)]) * signs[pos]
                assert len(set(pos)) == len(slots)  # every trace is some child's
                # the interior: traces off the edges of one triangle of the
                # patch and off their vertices
                tris = r + n * np.arange(4 ** h)
                count = np.bincount(mesh.tri_edges[tris].ravel(), minlength=mesh.n_edges)
                on_vertex = np.zeros(mesh.n_vertices, bool)
                on_vertex[mesh.edges[count == 1]] = True
                interior = ~lookup(slots, on_vertex, count == 1)
                assert (interior == (np.arange(len(slots)) < inner.shape[1])).all()
                if pattern is None:
                    pattern = pos, rel
                assert (pos == pattern[0]).all() and (rel == pattern[1]).all()
                parent[r] = (merged[2], merged[3])
        child = parent
    assert len(child) == nt >> 2 * mesh.depth


@pytest.mark.parametrize("case", TREE_CASES)
def test_tree_interior_traces_are_free_and_off_the_domain_boundary(case):
    mesh, dm, cond, _, tree = tree_level(TREE_CASES[case], 3)
    _, lookup = trace_slots(mesh, dm)
    heights, coarse = steps_by_height(mesh, cond, tree)
    inner = [np.concatenate([i.ravel() for i, *_ in step]) for step in heights + [coarse]]
    patches = np.concatenate(inner[:mesh.depth])
    assert (lookup(patches, mesh.vertex_tags, mesh.edge_tags) == msh.INTERIOR).all()
    # the patches and the coarse blocks eliminate every free trace once
    assert np.array_equal(np.sort(np.concatenate(inner)), np.flatnonzero(tree.free))


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_tree_solve_matches_dense_solve_on_the_poisson_strip(depth):
    *_, gs, tree = tree_level(TREE_CASES["mixed poisson strip"], depth)
    x = tree.solve(gs.rhs)
    x_dense = np.linalg.solve(gs.matrix.toarray(), gs.rhs)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("case", ["clamped plate", "mixed plate strip", "clamped plate, two rows"])
def test_tree_solve_of_a_plate_meets_the_certificate(case, depth):
    *_, gs, tree = tree_level(TREE_CASES[case], depth)
    a, b = gs.matrix, gs.rhs
    x = tree.solve(b)
    residual = np.linalg.norm(a @ x - b)
    scale = abs(a).sum(axis=1).max() * np.linalg.norm(x) + np.linalg.norm(b)
    assert residual <= np.linalg.norm(b)
    assert residual <= slv.SOLVE_TOLERANCE * np.linalg.norm(b) or residual <= 1e-14 * scale


def negated(cond, t):
    """The condensed systems with the Schur complement of element t negated."""
    cls = cond.cls.copy()
    cls[t] = len(cond.schur)
    return replace(cond, cls=cls, schur=np.concatenate([cond.schur,
                                                        -cond.schur[cond.cls[t]][None]]))


def negated_middle_child(cond):
    """negated at the middle child of triangle 0 of the mesh one refinement
    coarser, which leads its class's height-1 patches."""
    return negated(cond, 3 * (len(cond.cls) // 4))


@pytest.mark.parametrize("case", TREE_CASES)
def test_tree_rejects_an_indefinite_interior_block(case):
    mesh, dm, cond, *_ = tree_level(TREE_CASES[case], 1)
    gs = slv.assemble_global(dm.all_element_dofs(mesh), dm.n_trace, negated_middle_child(cond))
    with pytest.raises(slv.NotSPDError, match=f"height 1, class {cond.cls[0]}"):
        slv.TreeFactor(mesh, dm, gs)


@pytest.mark.parametrize("case", TREE_CASES)
def test_tree_rejects_an_indefinite_coarse_block(case):
    mesh, dm, cond, *_ = tree_level(TREE_CASES[case], 0)
    gs = slv.assemble_global(dm.all_element_dofs(mesh), dm.n_trace, negated(cond, 0))
    with pytest.raises(slv.NotSPDError, match=r"coarse block of \d+ triangles at \("):
        slv.TreeFactor(mesh, dm, gs)


def test_cli_exits_two_on_an_indefinite_coarse_block(monkeypatch, capsys):
    condense = slv.condense
    monkeypatch.setattr(slv, "condense", lambda *a: negated(condense(*a), 0))
    for norm, where in [
        ("standard", "level 0: coarse block of 1 triangles at (66.7, 33.3)"),
        # solved on the unit square: the driver names the unit of the coordinates
        ("scaled", "level 0 (lengths in units of d = 100): coarse block of 1 triangles "
                   "at (0.667, 0.333)"),
    ]:
        assert sc.main(["--problem", "poisson", "--r1", "100", "--r2", "100", "--norm", norm,
                        "--levels", "2", "--ny0", "1"]) == 2
        assert where in capsys.readouterr().err


def test_cli_exits_two_on_an_indefinite_interior_block(monkeypatch, capsys):
    condense = slv.condense

    def negated_refined(elements, cls, *args):  # on the refined level only
        cond = condense(elements, cls, *args)
        return negated_middle_child(cond) if len(cls) > 2 else cond

    monkeypatch.setattr(slv, "condense", negated_refined)
    assert sc.main(["--problem", "poisson", "--levels", "2", "--ny0", "1"]) == 2
    err = capsys.readouterr().err
    assert "level 1" in err and "height 1, class" in err


@pytest.fixture
def collector_off():
    """The cyclic garbage collector off for one test: only reference counting frees."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_tree_factor_is_freed_when_its_level_is_solved(collector_off, monkeypatch):
    mesh, dm, cond = tree_level(TREE_CASES["clamped plate, two rows"], 1)[:3]
    factors, tree_factor = [], slv.TreeFactor

    def recorded(*args):
        factor = tree_factor(*args)
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(slv, "TreeFactor", recorded)
    slv.solve_condensed(mesh, dm, cond)
    assert len(factors) == 1 and factors[0]() is None


def test_a_study_leaves_no_reference_cycle(collector_off):
    gc.collect()  # what earlier code left
    sc.run_study(sc.StudyConfig(problem="plate", norm="scaled", ny0=1, levels=3))
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage
                if str(getattr(o, "__module__", "")).startswith("dpglock")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert left == []


def test_factor_rejects_a_negative_pivot():
    # [[1, 2], [2, 1]] factors without pivoting into the pivots 1 and -3
    import scipy.sparse as sp
    a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(slv.NotSPDError, match="not SPD"):
        slv.solve_spd(matrix_system(a, np.array([1.0, 2.0])), factor=dense)
