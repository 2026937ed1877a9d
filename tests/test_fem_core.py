import numpy as np
import pytest

from dpglock import fem_core as fc
from dpglock import mesh as msh


def ref_monomial_integral(a, b):
    # int over reference triangle of x^a y^b
    from math import factorial
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_quad_triangle_basics():
    q = fc.quad_triangle(4)
    assert (q.weights > 0).all()
    assert np.isclose(q.weights.sum(), 0.5, rtol=1e-14)
    assert np.isclose(q.weights @ np.ones(len(q.weights)), 0.5)
    assert np.isclose(q.weights @ q.points[:, 0], 1.0 / 6.0, rtol=1e-14)
    assert np.isclose(q.weights @ (q.points[:, 0] ** 2 * q.points[:, 1] ** 2),
                      1.0 / 180.0, rtol=1e-13)


@pytest.mark.parametrize("degree", [0, 1, 2, 4, 8, 10])
def test_quad_triangle_exactness(degree):
    q = fc.quad_triangle(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = q.weights @ (q.points[:, 0] ** a * q.points[:, 1] ** b)
            assert np.isclose(val, ref_monomial_integral(a, b), rtol=1e-12), (a, b)


def test_quad_edge():
    q1 = fc.quad_edge(1)
    assert np.isclose(q1.weights.sum(), 1.0, rtol=1e-15)
    q2 = fc.quad_edge(3)
    assert len(q2.points) == 2
    assert np.isclose(q2.weights @ q2.points ** 3, 0.25, rtol=1e-14)
    q4 = fc.quad_edge(7)
    assert len(q4.points) == 4
    assert np.isclose(q4.weights @ q4.points ** 7, 0.125, rtol=1e-14)


def test_quad_degree_range():
    with pytest.raises(ValueError):
        fc.quad_triangle(-1)
    with pytest.raises(ValueError):
        fc.quad_edge(999)


@pytest.mark.parametrize("p,dim", [(0, 1), (1, 3), (2, 6), (3, 10), (4, 15)])
def test_basis_dimension(p, dim):
    q = fc.quad_triangle(2 * p)
    basis = fc.basis_p(p, q.points)
    assert [d.shape for d in basis.derivatives] == [(len(q.points), dim, j + 1) for j in range(3)]
    assert basis.values.shape == (len(q.points), dim)


def test_basis_p0_constant():
    basis = fc.basis_p(0, np.array([[0.1, 0.2], [0.3, 0.3]]))
    assert np.allclose(basis.values, basis.values[0, 0])
    assert np.allclose(basis.derivatives[1], 0.0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_basis_orthonormal_and_reproduces_polynomials(p):
    q = fc.quad_triangle(2 * p)
    basis = fc.basis_p(p, q.points)
    gram = np.einsum("q,qi,qj->ij", q.weights, basis.values, basis.values)
    dim = basis.values.shape[1]
    assert np.allclose(gram, np.eye(dim), atol=2e-11)
    # reproduce a random polynomial of degree p exactly via L2 projection
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(dim)
    target = fc._eval_monomials(basis.powers, q.points) @ coef
    proj = np.einsum("q,qi,q->i", q.weights, basis.values, target)
    assert np.allclose(basis.values @ proj, target, atol=1e-12)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_basis_gradients_match_finite_differences(p):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.4, size=(5, 2))
    h = 1e-6
    basis = fc.basis_p(p, pts)
    for d, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        plus = fc.basis_p(p, pts + e).values
        minus = fc.basis_p(p, pts - e).values
        fd = (plus - minus) / (2 * h)
        assert np.allclose(basis.derivatives[1][:, :, d], fd, atol=1e-6)


def test_basis_hessians_match_finite_differences():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.05, 0.4, size=(4, 2))
    h = 1e-5
    basis = fc.basis_p(4, pts)
    for d, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        plus = fc.basis_p(4, pts + e).derivatives[1]
        minus = fc.basis_p(4, pts - e).derivatives[1]
        fd = (plus - minus) / (2 * h)
        # d/dx of (d_x, d_y) is (d_xx, d_xy), d/dy is (d_xy, d_yy)
        assert np.allclose(basis.derivatives[2][:, :, d:d + 2], fd, atol=5e-6)


def test_basis_degree_range():
    with pytest.raises(ValueError):
        fc.basis_p(5, np.zeros((1, 2)))


def test_identity_map():
    amap = fc.affine_map_from_vertices(fc.REF_VERTICES)
    assert np.allclose(amap.jac, np.eye(2))
    assert np.isclose(amap.det, 1.0)
    assert np.allclose(amap.edge_normals[1], np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(amap.edge_normals[0], [0.0, -1.0])
    assert np.allclose(amap.edge_normals[2], [-1.0, 0.0])


def test_scaled_map():
    h = 0.25
    amap = fc.affine_map_from_vertices(h * fc.REF_VERTICES)
    assert np.isclose(amap.det, h ** 2)
    g = amap.push(np.array([[1.0, 0.0]]))
    assert np.allclose(g, [[1.0 / h, 0.0]])
    # on h ref every derivative of order j scales by h^-j alone
    assert np.array_equal(amap.push(np.eye(2)), np.eye(2) / h)
    assert np.array_equal(amap.push(np.eye(3)), np.eye(3) / h ** 2)


def test_map_normals_tangents_orthonormal():
    verts = np.array([[0.2, -0.1], [1.3, 0.4], [0.1, 1.1]])
    amap = fc.affine_map_from_vertices(verts)
    for k in range(3):
        n, t = amap.edge_normals[k], amap.edge_tangents[k]
        assert np.isclose(n @ t, 0.0, atol=1e-15)
        assert np.isclose(n @ n, 1.0)
        assert np.isclose(t @ t, 1.0)
        # outward: points away from the opposite vertex
        midpoint = 0.5 * (verts[k] + verts[(k + 1) % 3])
        assert n @ (midpoint - verts[(k + 2) % 3]) > 0


def test_map_rejects_degenerate():
    with pytest.raises(ValueError):
        fc.affine_map_from_vertices(np.array([[0, 0], [1, 0], [2, 0]], float))
    with pytest.raises(ValueError):  # clockwise
        fc.affine_map_from_vertices(np.array([[0, 0], [0, 1], [1, 0]], float))


def test_hessian_pushforward_vs_finite_differences():
    verts = np.array([[0.0, 0.0], [0.8, 0.1], [0.2, 0.9]])
    amap = fc.affine_map_from_vertices(verts)
    ref_pt = np.array([[0.3, 0.3]])
    basis = fc.basis_p(3, ref_pt)
    hess = amap.push(basis.derivatives[2])[0]

    # finite differences of pushed-forward gradients in physical coordinates
    h = 1e-6
    jac_inv = np.linalg.inv(amap.jac)

    def phys_grad(xp):
        ref = (np.asarray(xp) - verts[0]) @ jac_inv.T
        b = fc.basis_p(3, ref[None, :])
        return amap.push(b.derivatives[1])[0]

    x0 = verts[0] + amap.jac @ ref_pt[0]
    for d, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        fd = (phys_grad(x0 + e) - phys_grad(x0 - e)) / (2 * h)
        assert np.allclose(hess[:, d:d + 2], fd, atol=1e-6)
    # the order-1 push is the product with jac_inv_t, bit for bit
    ref = fc.basis_p(4, fc.quad_triangle(8).points).derivatives[1]
    assert np.array_equal(amap.push(ref), ref @ amap.jac_inv_t.T)


def test_quadrature_matches_symbolic_on_random_polynomials():
    rng = np.random.default_rng(11)
    for degree in (3, 6, 9):
        q = fc.quad_triangle(degree)
        powers = fc._monomial_powers(degree)
        coef = rng.standard_normal(len(powers))
        vals = fc._eval_monomials(powers, q.points) @ coef
        exact = sum(c * ref_monomial_integral(a, b)
                    for c, (a, b) in zip(coef, powers))
        assert np.isclose(q.weights @ vals, exact, rtol=1e-12)


def test_edge_ref_points():
    s = np.array([0.0, 0.5, 1.0])
    pts = fc.edge_ref_points(1, s)
    assert np.allclose(pts, [[1, 0], [0.5, 0.5], [0, 1]])


def test_unique_rows_match_numpy():
    a = np.random.default_rng(3).integers(0, 3, (200, 3)).astype(float)
    first, inverse = fc.unique_rows(a)
    rows, index, expected = np.unique(a, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(a[first], rows) and np.array_equal(first, index)
    assert np.array_equal(inverse, expected.ravel())
    assert [len(x) for x in fc.unique_rows(np.empty((0, 3)))] == [0, 0]


def test_point_values_match_the_element_maps(monkeypatch):
    # reference: each element's own affine map, x = v0 + J xi; blocks of 100 triangles
    m = msh.refine_uniform(msh.refine_uniform(msh.make_rect_mesh(100.0, 30.0, 2)))
    ref = fc.quad_triangle(10).points
    monkeypatch.setattr(fc, "POINT_CHUNK", 100 * len(ref))
    coords = lambda x, y: [(1.0, x, np.ones_like(y)), (1.0, np.ones_like(x), y)]
    blocks = list(fc.point_values(m.vertices[m.triangles], ref, coords))
    assert len(blocks) == 5
    det = np.concatenate([block_det for _, block_det, _ in blocks])
    phys = np.concatenate([np.stack(values, axis=-1) for *_, values in blocks])
    assert phys.shape == (m.n_triangles, len(ref), 2)
    for t in range(m.n_triangles):
        amap = fc.affine_map_from_vertices(m.vertices[m.triangles[t]])
        expected = amap.verts[0] + ref @ amap.jac.T
        assert np.abs(phys[t] - expected).max() <= 1e-14 * np.abs(expected).max()
        assert abs(det[t] - amap.det) <= 1e-14 * amap.det
