import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import cholesky

from dpglock import fem_core as fc
from dpglock import mesh as msh
from dpglock import poisson_uw as pw
from helpers import (ScalarTables, dense_edge_rule, expand_in_basis, physical,
                     poisson_consistency_residual, poisson_gram_oracle)

GENERAL_TRI = np.array([[0.1, -0.2], [1.1, 0.3], [0.3, 0.9]])


def general_map():
    return fc.affine_map_from_vertices(GENERAL_TRI)


def test_gram_constant_v_entry():
    amap = general_map()
    for d in (1.0, 3.0, 50.0):
        g = pw.local_gram_poisson(amap, d)
        # first basis function is the constant with unit reference L2 norm
        assert np.isclose(g[0, 0], amap.det / d ** 2, rtol=1e-13)


def test_gram_block_diagonal_between_v_and_tau():
    g = pw.local_gram_poisson(general_map(), 2.5)
    assert np.allclose(g[:6, 6:], 0.0)
    assert np.allclose(g[6:, :6], 0.0)


def test_gram_scaling_identity():
    # G_d = d^-2 M_v + K_v + M_tau + d^2 K_div with constituents assembled once
    amap = general_map()
    g1 = pw.local_gram_poisson(amap, 1.0)
    g2 = pw.local_gram_poisson(amap, 2.0)
    # solve for the d-dependent and d-independent parts from two evaluations
    mass_v = np.zeros_like(g1)
    mass_v[:6, :6] = (g1 - g2)[:6, :6] / (1.0 - 0.25)
    kdiv = np.zeros_like(g1)
    kdiv[6:, 6:] = (g2 - g1)[6:, 6:] / 3.0
    rest = g1 - mass_v - kdiv
    for d in (0.5, 7.0, 120.0):
        expected = mass_v / d ** 2 + d ** 2 * kdiv + rest
        got = pw.local_gram_poisson(amap, d)
        assert np.allclose(got, expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())


@pytest.mark.parametrize("d", [1.0, 10.0])
def test_gram_matches_dense_oracle(d):
    for verts in (GENERAL_TRI, 0.125 * fc.REF_VERTICES):
        amap = fc.affine_map_from_vertices(verts)
        g = pw.local_gram_poisson(amap, d)
        oracle = poisson_gram_oracle(amap, d)
        assert np.allclose(g, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


def test_gram_symmetric_positive_definite():
    for d in (1e-2, 1.0, 1e2):
        for verts in (GENERAL_TRI, 0.01 * fc.REF_VERTICES):
            g = pw.local_gram_poisson(fc.affine_map_from_vertices(verts), d)
            assert np.allclose(g, g.T, rtol=1e-12)
            cholesky(g, lower=True)  # raises if not SPD


def test_gram_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        pw.local_gram_poisson(general_map(), 0.0)


def test_b_u_column_against_unit_divergence_test():
    # tau = (x, 0) has div tau = 1; with gamma = 0 the u column pairs to |T|
    amap = fc.affine_map_from_vertices(fc.REF_VERTICES)
    b = pw.local_b_poisson(amap, 0.0)
    basis = fc.basis_p(2, np.zeros((1, 2)))
    c = expand_in_basis(basis, [0, 1, 0, 0, 0, 0])  # the monomial x
    assert np.isclose(c @ b[6:12, 0], 0.5, rtol=1e-13)


def test_b_gamma_term():
    amap = general_map()
    b0 = pw.local_b_poisson(amap, 0.0)
    b2 = pw.local_b_poisson(amap, 2.0)
    diff = b2 - b0
    assert np.allclose(diff[:, 1:], 0.0)
    assert np.allclose(diff[6:, 0], 0.0)
    basis = fc.basis_p(2, np.zeros((1, 2)))
    ones = expand_in_basis(basis, [1, 0, 0, 0, 0, 0])
    assert np.isclose(ones @ diff[:6, 0], 2.0 * amap.det / 2.0, rtol=1e-13)


def test_b_sigma_columns_against_constant_test():
    amap = general_map()
    b = pw.local_b_poisson(amap, 0.0)
    basis = fc.basis_p(2, np.zeros((1, 2)))
    ones = expand_in_basis(basis, [1, 0, 0, 0, 0, 0])
    area = amap.det / 2.0
    # sigma_x against tau = (1, 0): (sigma, tau) = |T|
    assert np.isclose(ones @ b[6:12, 1], area, rtol=1e-13)
    assert np.isclose(ones @ b[12:18, 1], 0.0, atol=1e-14)
    assert np.isclose(ones @ b[12:18, 2], area, rtol=1e-13)


def test_b_sighat_column_is_signed_edge_length():
    # sighat is taken along the outward normal on every edge: v = 1 pairs to
    # -|e|, whatever the mesh orientation of the edge
    amap = general_map()
    b = pw.local_b_poisson(amap, 0.0)
    basis = fc.basis_p(2, np.zeros((1, 2)))
    ones = expand_in_basis(basis, [1, 0, 0, 0, 0, 0])
    for k in range(3):
        assert np.isclose(ones @ b[:6, 6 + k], -amap.edge_lengths[k], rtol=1e-13)
        assert np.allclose(b[6:, 6 + k], 0.0)


def test_b_uhat_columns_zero_for_v_rows():
    b = pw.local_b_poisson(general_map(), 1.0)
    assert np.allclose(b[:6, 3:6], 0.0)


def test_b_uhat_columns_against_linear_oracle():
    # the hat traces reproduce a linear u, so the 3 vertex columns times u's
    # vertex values are -int_dT u (tau . n) ds for all 12 tau
    amap = general_map()
    c = np.random.default_rng(7).standard_normal(3)

    def u(x, y):
        return c[0] + c[1] * x + c[2] * y

    got = pw.local_b_poisson(amap, 0.0)[6:, 3:6] @ u(GENERAL_TRI[:, 0], GENERAL_TRI[:, 1])
    s, ws = dense_edge_rule()
    expected = np.zeros(12)
    for k in range(3):
        ref = fc.edge_ref_points(k, s)
        pts = physical(amap, ref)
        n = amap.edge_normals[k]
        vals = ScalarTables(2, amap, ref).values
        tau_n = np.hstack([n[0] * vals, n[1] * vals])
        expected -= amap.edge_lengths[k] * (ws @ (u(pts[:, 0], pts[:, 1])[:, None] * tau_n))
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_global_integration_by_parts_oracle(gamma):
    # exact smooth fields and traces inserted into the discrete form reproduce
    # the strong residual pairing on every element
    def u(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad_u(x, y):
        return np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)

    def f(x, y):
        return (2.0 * np.pi ** 2 + gamma) * u(x, y)

    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    assert poisson_consistency_residual(mesh, u, grad_u, f, gamma) < 1e-10
    mesh = msh.refine_uniform(mesh)
    assert poisson_consistency_residual(mesh, u, grad_u, f, gamma) < 1e-10


def test_load_examples():
    amap = general_map()
    basis = fc.basis_p(2, np.zeros((1, 2)))
    ones = expand_in_basis(basis, [1, 0, 0, 0, 0, 0])

    load = pw.local_load_poisson(GENERAL_TRI[None],
                                 lambda x, y: [(1.0, np.ones_like(x), np.ones_like(y))])[0]
    assert np.isclose(ones @ load[:6], amap.det / 2.0, rtol=1e-13)
    assert np.allclose(load[6:], 0.0)

    assert np.allclose(pw.local_load_poisson(GENERAL_TRI[None], lambda x, y: [(0.0, x, y)]), 0.0)


def test_load_trig_against_adaptive_reference():
    basis = fc.basis_p(2, np.zeros((1, 2)))
    ones = expand_in_basis(basis, [1, 0, 0, 0, 0, 0])
    load = pw.local_load_poisson(fc.REF_VERTICES[None],
                                 lambda x, y: [(1.0, np.sin(np.pi * x), np.ones_like(y))])[0]
    ref, _ = quad(lambda x: np.sin(np.pi * x) * (1.0 - x), 0.0, 1.0, epsabs=1e-14)
    assert np.isclose(ones @ load[:6], ref, atol=1e-10)


def test_dof_map_unit_square_all_dirichlet():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    dm = pw.dof_map_poisson(mesh)
    assert dm.n_free == 11  # u: 2, sigma: 4, uhat: 0, sighat: 5
    assert dm.n_trace == 5
    assert (dm.vertex == -1).all()
    assert (dm.edge >= 0).all()
    assert (np.sort(dm.edge[:, 0]) == np.arange(5)).all()


def test_dof_map_refined_unit_square():
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    dm = pw.dof_map_poisson(mesh)
    assert dm.n_free == 41  # u: 8, sigma: 16, uhat: 1, sighat: 16
    assert (dm.vertex >= 0).sum() == 1
    center = np.nonzero((np.abs(mesh.vertices - 0.5) < 1e-12).all(axis=1))[0]
    assert dm.vertex[center[0], 0] == 0  # the traces are numbered from 0


def test_dof_map_strip_mixed():
    mesh = msh.classify_boundary(msh.make_rect_mesh(10.0, 1.0, 1),
                                 msh.LEFT_RIGHT_DIRICHLET)
    dm = pw.dof_map_poisson(mesh)
    # all 4 vertices on x in {0, 10} constrained, the other 18 free
    assert (dm.vertex == -1).sum() == 4
    # sighat constrained exactly on the 20 top/bottom (neumann) edges
    assert (dm.edge == -1).sum() == 20
    assert dm.n_free == 3 * 20 + 18 + (41 - 20)


def test_element_dofs_layout():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    dm = pw.dof_map_poisson(mesh)
    # [uhat (Dirichlet), sighat in edge order 0..4]; the fields get no number
    assert dm.all_element_dofs(mesh).tolist() == [[-1, -1, -1, 0, 3, 2],
                                                  [-1, -1, -1, 2, 4, 1]]


def test_dof_map_unit_square_left_right():
    # every vertex of the single-cell square touches a vertical Dirichlet
    # edge, so no trace value stays free; the two horizontal edges lose their
    # flux unknowns
    mesh = msh.classify_boundary(msh.make_rect_mesh(1.0, 1.0, 1),
                                 msh.LEFT_RIGHT_DIRICHLET)
    dm = pw.dof_map_poisson(mesh)
    assert (dm.vertex == -1).all()
    assert (dm.edge == -1).sum() == 2
    assert dm.n_free == 6 + 3
