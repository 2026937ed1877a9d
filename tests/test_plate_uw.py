import numpy as np
import pytest
from scipy.linalg import cholesky

from dpglock import fem_core as fc
from dpglock import mesh as msh
from dpglock import plate_uw as plw
from helpers import (ScalarTables, dense_edge_rule, dense_triangle_rule, expand_in_basis,
                     physical, plate_consistency_residual, plate_gram_oracle, pointwise)

GENERAL_TRI = np.array([[0.1, -0.2], [1.1, 0.3], [0.3, 0.9]])


def general_map():
    return fc.affine_map_from_vertices(GENERAL_TRI)


def clamped_square_exact(r=1.0):
    """Manufactured clamped-plate solution sin(pi x/r)^2 sin(pi y/r)^2."""
    a = b = np.pi / r

    def u(x, y):
        return np.sin(a * x) ** 2 * np.sin(b * y) ** 2

    def grad(x, y):
        return np.stack([a * np.sin(2 * a * x) * np.sin(b * y) ** 2,
                         b * np.sin(a * x) ** 2 * np.sin(2 * b * y)], axis=-1)

    def hess(x, y):
        return np.stack([2 * a ** 2 * np.cos(2 * a * x) * np.sin(b * y) ** 2,
                         a * b * np.sin(2 * a * x) * np.sin(2 * b * y),
                         2 * b ** 2 * np.sin(a * x) ** 2 * np.cos(2 * b * y)], axis=-1)

    def div_m(x, y):
        # div M = -(u_xxx + u_xyy, u_xxy + u_yyy)
        uxxx = -4 * a ** 3 * np.sin(2 * a * x) * np.sin(b * y) ** 2
        uxyy = 2 * b ** 2 * a * np.sin(2 * a * x) * np.cos(2 * b * y)
        uxxy = 2 * a ** 2 * b * np.cos(2 * a * x) * np.sin(2 * b * y)
        uyyy = -4 * b ** 3 * np.sin(a * x) ** 2 * np.sin(2 * b * y)
        return -np.stack([uxxx + uxyy, uxxy + uyyy], axis=-1)

    def f(x, y):
        # the bilaplacian of u, as separable terms (c, X, Y)
        return [(-8 * a ** 4, np.cos(2 * a * x), np.sin(b * y) ** 2),
                (8 * a ** 2 * b ** 2, np.cos(2 * a * x), np.cos(2 * b * y)),
                (-8 * b ** 4, np.sin(a * x) ** 2, np.cos(2 * b * y))]

    return u, grad, hess, div_m, f


def test_gram_constant_v_entry():
    amap = general_map()
    for d in (1.0, 4.0):
        g = plw.local_gram_plate(amap, d)
        assert np.isclose(g[0, 0], amap.det / d ** 4, rtol=1e-12)


def test_gram_block_structure():
    g = plw.local_gram_plate(general_map(), 2.0)
    assert np.allclose(g[:10, 10:], 0.0)
    assert np.allclose(g, g.T, rtol=1e-12)


def test_gram_scaling_identity():
    amap = general_map()
    g1 = plw.local_gram_plate(amap, 1.0)
    g2 = plw.local_gram_plate(amap, 2.0)
    mass_v = np.zeros_like(g1)
    mass_v[:10, :10] = (g1 - g2)[:10, :10] / (1.0 - 2.0 ** -4)
    kdd = np.zeros_like(g1)
    kdd[10:, 10:] = (g2 - g1)[10:, 10:] / 15.0
    rest = g1 - mass_v - kdd
    for d in (0.5, 3.0, 40.0):
        expected = mass_v / d ** 4 + d ** 4 * kdd + rest
        got = plw.local_gram_plate(amap, d)
        assert np.allclose(got, expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())


@pytest.mark.parametrize("d", [1.0, 10.0])
def test_gram_matches_dense_oracle(d):
    for verts in (GENERAL_TRI, 0.25 * fc.REF_VERTICES):
        amap = fc.affine_map_from_vertices(verts)
        g = plw.local_gram_plate(amap, d)
        oracle = plate_gram_oracle(amap, d)
        assert np.allclose(g, oracle, rtol=1e-11, atol=1e-11 * np.abs(oracle).max())


def test_gram_spd_at_desk_scales():
    # element sizes as they occur in studies: h ~ d / ny on squares, and
    # h ~ 1 / ny with d = R on the mixed strips
    for d in (1.0, 10.0, 100.0):
        for ny in (2, 32):
            amap = fc.affine_map_from_vertices(d / ny * GENERAL_TRI)
            cholesky(plw.local_gram_plate(amap, d), lower=True)
    amap = fc.affine_map_from_vertices(GENERAL_TRI / 16.0)
    cholesky(plw.local_gram_plate(amap, 10.0), lower=True)


def test_b_moment_columns_against_constant_tests():
    amap = general_map()
    b = plw.local_b_plate(amap)
    basis = fc.basis_p(4, np.zeros((1, 2)))
    ones = expand_in_basis(basis, np.eye(15)[0])
    area = amap.det / 2.0
    # (M, Q) for constant Q matching the trial component; off-diagonal doubled
    assert np.isclose(ones @ b[10:25, 1], area, rtol=1e-12)
    assert np.isclose(ones @ b[25:40, 2], 2 * area, rtol=1e-12)
    assert np.isclose(ones @ b[40:55, 3], area, rtol=1e-12)
    assert np.isclose(ones @ b[25:40, 1], 0.0, atol=1e-13)


def test_b_u_column_against_unit_divdiv_test():
    # Q = (x^2/2) e11 has div div Q = 1
    amap = fc.affine_map_from_vertices(fc.REF_VERTICES)
    b = plw.local_b_plate(amap)
    basis = fc.basis_p(4, np.zeros((1, 2)))
    mono = np.zeros(15)
    mono[basis.powers.tolist().index([2, 0])] = 0.5
    c = expand_in_basis(basis, mono)
    assert np.isclose(c @ b[10:25, 0], 0.5, rtol=1e-12)


def test_b_qeff_column_is_signed_edge_length():
    # q_eff is taken along the outward normal on every edge: v = 1 pairs to
    # +|e|, whatever the mesh orientation of the edge
    amap = general_map()
    b = plw.local_b_plate(amap)
    basis = fc.basis_p(3, np.zeros((1, 2)))
    ones = expand_in_basis(basis, np.eye(10)[0])
    for k in range(3):
        assert np.isclose(ones @ b[:10, 14 + 3 * k], amap.edge_lengths[k], rtol=1e-12)
        assert np.allclose(b[10:, 13 + 3 * k:16 + 3 * k], 0.0)


def test_b_mtn_column_is_endpoint_difference():
    # twisting column pairs v to v(start) - v(end); constants drop out and a
    # coordinate function gives minus the edge vector component
    amap = general_map()
    b = plw.local_b_plate(amap)
    basis = fc.basis_p(3, np.zeros((1, 2)))
    ones = expand_in_basis(basis, np.eye(10)[0])
    lin_x = expand_in_basis(basis, np.eye(10)[1])  # reference coordinate x
    for k in range(3):
        assert np.isclose(ones @ b[:10, 15 + 3 * k], 0.0, atol=1e-12)
        expected = fc.REF_VERTICES[k][0] - fc.REF_VERTICES[(k + 1) % 3][0]
        assert np.isclose(lin_x @ b[:10, 15 + 3 * k], expected, rtol=1e-12)


def test_b_mnn_column_against_linear_test():
    # v = x has grad v = (1, 0); the m_nn column pairs to -n_x |e|
    amap = general_map()
    b = plw.local_b_plate(amap)
    basis = fc.basis_p(3, np.zeros((1, 2)))
    c = expand_in_basis(basis, np.eye(10)[1])  # the monomial x (reference coords)
    jinv = np.linalg.inv(amap.jac)
    for k in range(3):
        # reference x has physical gradient jinv^T e_x
        g = jinv.T @ np.array([1.0, 0.0])
        expected = -(g @ amap.edge_normals[k]) * amap.edge_lengths[k]
        assert np.isclose(c @ b[:10, 13 + 3 * k], expected, rtol=1e-12)


def test_b_uhat_value_column_against_constant_tensor():
    # constant Q = e11: only the tangential-derivative term survives, and
    # integrating the Hermite slopes gives -t_x n_x per incident edge
    amap = general_map()
    b = plw.local_b_plate(amap)
    basis = fc.basis_p(4, np.zeros((1, 2)))
    ones = expand_in_basis(basis, np.eye(15)[0])
    for vloc in range(3):
        e_start = vloc          # edge where the vertex is the start point
        e_end = (vloc + 2) % 3  # edge where it is the end point
        expected = 0.0
        for e, integral in ((e_start, -1.0), (e_end, 1.0)):
            t, n = amap.edge_tangents[e], amap.edge_normals[e]
            expected += (t[0] * n[0]) * integral
        assert np.isclose(ones @ b[10:25, 4 + 3 * vloc], expected, rtol=1e-11)


def test_b_deflection_columns_against_quadratic_oracle():
    # for a quadratic w the Hermite value trace and the linear normal-derivative
    # trace are exact, so the 9 vertex columns times w's vertex data (w, w_x,
    # w_y) are -sum_e int_e [w n.div Q - (n.Qn) dw/dn - (t.Qn) dw/dt] ds
    amap = general_map()
    c = np.random.default_rng(11).standard_normal(6)

    def w_grad(x, y):
        w = c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
        return w, np.stack([c[1] + 2 * c[3] * x + c[4] * y, c[2] + c[4] * x + 2 * c[5] * y], -1)

    w, g = w_grad(GENERAL_TRI[:, 0], GENERAL_TRI[:, 1])
    got = plw.local_b_plate(amap)[10:, 4:13] @ np.column_stack([w, g]).ravel()

    s, ws = dense_edge_rule()
    expected = np.zeros(45)
    for k in range(3):
        ref = fc.edge_ref_points(k, s)
        pts = physical(amap, ref)
        n, t = amap.edge_normals[k], amap.edge_tangents[k]
        q = ScalarTables(4, amap, ref)
        ndivq = np.hstack([n[0] * q.dx, n[0] * q.dy + n[1] * q.dx, n[1] * q.dy])
        nqn = np.hstack([n[0] * n[0] * q.values, 2 * n[0] * n[1] * q.values,
                         n[1] * n[1] * q.values])
        tqn = np.hstack([t[0] * n[0] * q.values, (t[0] * n[1] + t[1] * n[0]) * q.values,
                         t[1] * n[1] * q.values])
        we, ge = w_grad(pts[:, 0], pts[:, 1])
        integrand = we[:, None] * ndivq - (ge @ n)[:, None] * nqn - (ge @ t)[:, None] * tqn
        expected -= amap.edge_lengths[k] * (ws @ integrand)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_interelement_trace_pairing_cancels():
    """Vertex data shared by two elements pair against a smooth tensor through
    the boundary only: interior-edge contributions cancel."""
    rng = np.random.default_rng(5)
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    data = rng.standard_normal((4, 3))

    # smooth symmetric tensor with quartic components
    q_mono = rng.standard_normal((3, 15))
    basis4 = fc.basis_p(4, np.zeros((1, 2)))
    powers = basis4.powers

    def q_comp(c, x, y):
        return sum(q_mono[c, m] * x ** a * y ** b for m, (a, b) in enumerate(powers))

    total = 0.0
    for t in range(mesh.n_triangles):
        amap = fc.map_affine(mesh, t)
        b = plw.local_b_plate(amap)
        # expand each component of Q on this element: coefficients solve
        # values of the reference basis at mapped points = component values
        pts, _ = dense_triangle_rule(5)
        phys = physical(amap, pts)
        vand = fc.basis_p(4, pts).values
        coeffs = np.linalg.lstsq(
            vand, np.stack([q_comp(c, phys[:, 0], phys[:, 1]) for c in range(3)], axis=1),
            rcond=None)[0]
        elem_data = data[mesh.triangles[t]].ravel()
        pairing = coeffs.T.ravel() @ (b[10:, 4:13] @ elem_data)
        total += pairing

    # reference: -sum over the 4 outer boundary edges of the trace integral
    es, ew = dense_edge_rule(20)
    herm, dherm = plw._hermite(es)
    expected = 0.0
    boundary = np.nonzero(mesh.boundary_edge_mask())[0]
    for e in boundary:
        v0, v1 = mesh.edges[e]
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        length = np.hypot(*(p1 - p0))
        tg = (p1 - p0) / length
        # outward normal of the square along this edge
        mid = 0.5 * (p0 + p1)
        n = np.array([tg[1], -tg[0]])
        if n @ (mid - np.array([0.5, 0.5])) < 0:
            n = -n
        pts = p0 + np.outer(es, p1 - p0)
        x, y = pts[:, 0], pts[:, 1]
        w0, g0 = data[v0, 0], data[v0, 1:]
        w1, g1 = data[v1, 0], data[v1, 1:]
        tr = (w0 * herm[:, 0] + length * (tg @ g0) * herm[:, 1]
              + w1 * herm[:, 2] + length * (tg @ g1) * herm[:, 3])
        dt_tr = (w0 * dherm[:, 0] / length + (tg @ g0) * dherm[:, 1]
                 + w1 * dherm[:, 2] / length + (tg @ g1) * dherm[:, 3])
        dn_tr = (1 - es) * (n @ g0) + es * (n @ g1)

        def dq_comp(c, xx, yy, wrt):
            total = 0.0 * xx
            for m, (pa, pb) in enumerate(powers):
                if wrt == 0 and pa:
                    total += q_mono[c, m] * pa * xx ** (pa - 1) * yy ** pb
                elif wrt == 1 and pb:
                    total += q_mono[c, m] * pb * xx ** pa * yy ** (pb - 1)
            return total

        qc = np.stack([q_comp(c, x, y) for c in range(3)], axis=1)
        dqx = np.stack([dq_comp(c, x, y, 0) for c in range(3)], axis=1)
        dqy = np.stack([dq_comp(c, x, y, 1) for c in range(3)], axis=1)
        ndivq = n[0] * (dqx[:, 0] + dqy[:, 1]) + n[1] * (dqx[:, 1] + dqy[:, 2])
        nqn = n[0] ** 2 * qc[:, 0] + 2 * n[0] * n[1] * qc[:, 1] + n[1] ** 2 * qc[:, 2]
        tqn = (tg[0] * n[0] * qc[:, 0] + (tg[0] * n[1] + tg[1] * n[0]) * qc[:, 1]
               + tg[1] * n[1] * qc[:, 2])
        expected -= length * (ew @ (tr * ndivq - nqn * dn_tr - tqn * dt_tr))
    assert np.isclose(total, expected, atol=1e-10 * max(1.0, abs(expected)))


def test_global_integration_by_parts_oracle():
    u, grad, hess, div_m, f = clamped_square_exact()
    f = pointwise(f)
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    assert plate_consistency_residual(mesh, u, grad, hess, div_m, f) < 1e-8
    mesh = msh.refine_uniform(mesh)
    assert plate_consistency_residual(mesh, u, grad, hess, div_m, f) < 1e-8


def test_load_examples():
    amap = general_map()
    basis = fc.basis_p(3, np.zeros((1, 2)))
    ones = expand_in_basis(basis, np.eye(10)[0])
    load = plw.local_load_plate(GENERAL_TRI[None],
                                lambda x, y: [(1.0, np.ones_like(x), np.ones_like(y))])[0]
    assert np.isclose(ones @ load[:10], -amap.det / 2.0, rtol=1e-13)
    assert np.allclose(load[10:], 0.0)
    assert np.allclose(plw.local_load_plate(GENERAL_TRI[None], lambda x, y: [(0.0, x, y)]), 0.0)


def test_load_bilaplacian_against_dense_reference():
    *_, f = clamped_square_exact()
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    amap = fc.affine_map_from_vertices(verts)
    load = plw.local_load_plate(verts[None], f)[0]
    pts, wts = dense_triangle_rule(24)
    phys = physical(amap, pts)
    vals = fc.basis_p(3, pts).values
    ref = -np.einsum("q,q,qi->i", wts * amap.det, pointwise(f)(phys[:, 0], phys[:, 1]), vals)
    assert np.allclose(load[:10], ref, atol=1e-9)


def test_dof_map_clamped_unit_square():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    dm = plw.dof_map_plate(mesh)
    assert dm.n_free == 22  # u: 2, M: 6, uhat: 0, mhat: 15 - 1 pinned m_tn
    assert (dm.vertex == -1).all()
    assert (dm.edge[1:] >= 0).all()
    # m_tn of the first boundary edge, (0, 1), fixes the twisting-moment kernel
    assert dm.edge[0].tolist() == [0, 1, -1]


def test_dof_map_refined_clamped():
    mesh = msh.refine_uniform(msh.make_rect_mesh(1.0, 1.0, 1))
    dm = plw.dof_map_plate(mesh)
    assert (dm.vertex >= 0).sum() == 3  # only the center vertex stays free
    assert (dm.edge == -1).sum() == 1


def test_dof_map_mixed_free_strip():
    mesh = msh.classify_boundary(msh.make_rect_mesh(10.0, 1.0, 1),
                                 msh.LEFT_RIGHT_DIRICHLET)
    dm = plw.dof_map_plate(mesh)
    # clamped on x in {0, 10}: 4 vertices lose all three components
    assert (dm.vertex == -1).sum() == 12
    # free on top/bottom: all moment-trace components constrained there, and
    # the fixed m_tn there leaves no kernel to pin
    neumann = mesh.edge_tags == msh.NEUMANN
    assert (dm.edge[neumann] == -1).all()
    assert (dm.edge[~neumann] >= 0).all()


def test_element_dofs_layout():
    mesh = msh.make_rect_mesh(1.0, 1.0, 1)
    dm = plw.dof_map_plate(mesh)
    # [clamped deflection traces (9), mhat of edges (0,3) (2,3) (0,2)]; the
    # fields u and M get no number
    assert dm.all_element_dofs(mesh)[1].tolist() == [-1] * 9 + [
        5, 6, 7, 11, 12, 13, 2, 3, 4]
