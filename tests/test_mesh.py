import numpy as np
import pytest

from dpglock import mesh as msh
from helpers import shape_regularity, signed_areas


def euler(m):
    return m.n_vertices - m.n_edges + m.n_triangles


@pytest.mark.parametrize("r1,r2,ny,nv,nt,ne", [
    (1.0, 1.0, 1, 4, 2, 5),
    (10.0, 1.0, 1, 22, 20, 41),
    (1.0, 1.0, 2, 9, 8, 16),
])
def test_rect_mesh_counts(r1, r2, ny, nv, nt, ne):
    m = msh.make_rect_mesh(r1, r2, ny)
    assert (m.n_vertices, m.n_triangles, m.n_edges) == (nv, nt, ne)
    assert euler(m) == 1


@pytest.mark.parametrize("r1,r2,ny", [(1, 1, 1), (10, 1, 1), (3, 2, 4), (1, 5, 3)])
def test_rect_mesh_triangles_match_cell_loop(r1, r2, ny):
    # cells row by row, each split into (ll, lr, ur) and (ll, ur, ul)
    m = msh.make_rect_mesh(r1, r2, ny)
    nx = max(1, int(np.floor(ny * r1 / r2 + 0.5)))
    tris = []
    for j in range(ny):
        for i in range(nx):
            ll, ul = i + j * (nx + 1), i + (j + 1) * (nx + 1)
            tris += [(ll, ll + 1, ul + 1), (ll, ul + 1, ul)]
    expected = np.array(tris, dtype=np.int64)
    assert m.triangles.dtype == expected.dtype
    assert (m.triangles == expected).all() and m.triangles.shape == expected.shape


def test_rect_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        msh.make_rect_mesh(-1.0, 1.0, 1)
    with pytest.raises(ValueError):
        msh.make_rect_mesh(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        msh.make_rect_mesh(1.0, 1.0, 0)


def test_positive_areas_and_total_area():
    m = msh.make_rect_mesh(3.0, 2.0, 4)
    areas = signed_areas(m)
    assert (areas > 0).all()
    assert np.isclose(areas.sum(), 6.0, rtol=1e-14)


def test_interior_edge_signs_cancel():
    m = msh.make_rect_mesh(2.0, 1.0, 2)
    sums = np.zeros(m.n_edges)
    counts = np.zeros(m.n_edges)
    np.add.at(sums, m.tri_edges.ravel(), m.tri_edge_signs.ravel())
    np.add.at(counts, m.tri_edges.ravel(), 1)
    assert ((counts == 1) | (counts == 2)).all()
    assert (sums[counts == 2] == 0).all()
    assert (np.abs(sums[counts == 1]) == 1).all()


def test_refine_counts_and_area():
    m = msh.make_rect_mesh(1.0, 1.0, 1)
    r = msh.refine_uniform(m)
    assert (r.n_vertices, r.n_triangles, r.n_edges) == (9, 8, 16)
    assert euler(r) == 1
    assert np.isclose(signed_areas(r).sum(), signed_areas(m).sum(), rtol=1e-12)
    rr = msh.refine_uniform(r)
    assert rr.n_triangles == 16 * m.n_triangles


def test_refine_preserves_shape_regularity():
    m = msh.make_rect_mesh(10.0, 1.0, 2)
    c0 = shape_regularity(m)
    for _ in range(3):
        m = msh.refine_uniform(m)
        assert np.isclose(shape_regularity(m), c0, rtol=1e-12)
    assert c0 < 8.0


def test_refine_children_similar():
    # right isoceles parent -> right isoceles children (same diam^2/area ratio)
    m = msh.make_rect_mesh(1.0, 1.0, 1)
    r = msh.refine_uniform(m)
    p = r.vertices[r.triangles]
    sides = np.sqrt(((p - np.roll(p, 1, axis=1)) ** 2).sum(axis=2))
    for tri_sides in sides:
        s = np.sort(tri_sides)
        assert np.isclose(s[0], s[1], rtol=1e-12)
        assert np.isclose(s[2], s[0] * np.sqrt(2), rtol=1e-12)


def test_all_dirichlet_tags():
    m = msh.make_rect_mesh(1.0, 1.0, 1)
    boundary = m.boundary_edge_mask()
    assert boundary.sum() == 4
    assert (m.edge_tags[boundary] == msh.DIRICHLET).all()
    assert (m.edge_tags[~boundary] == msh.INTERIOR).all()
    assert (m.vertex_tags == msh.DIRICHLET).all()


@pytest.mark.parametrize("ny", [1, 2, 3])
def test_left_right_tags_on_strip(ny):
    m = msh.classify_boundary(msh.make_rect_mesh(10.0, 1.0, ny),
                              msh.LEFT_RIGHT_DIRICHLET)
    assert (m.edge_tags == msh.DIRICHLET).sum() == 2 * ny
    x = m.vertices[:, 0]
    dir_edges = m.edges[m.edge_tags == msh.DIRICHLET]
    assert np.isin(x[dir_edges.ravel()], [0.0, 10.0]).all()
    # corner vertices touch a dirichlet edge, hence inherit the tag
    corners = np.nonzero(np.isin(x, [0.0, 10.0]) & np.isin(m.vertices[:, 1], [0.0, 1.0]))[0]
    assert (m.vertex_tags[corners] == msh.DIRICHLET).all()


def test_left_right_tags_on_single_cell_square():
    # the bottom edge spans x = 0 to x = 1; endpoints on *different* selected
    # lines must not make it Dirichlet
    m = msh.classify_boundary(msh.make_rect_mesh(1.0, 1.0, 1),
                              msh.LEFT_RIGHT_DIRICHLET)
    assert (m.edge_tags == msh.DIRICHLET).sum() == 2
    assert (m.edge_tags == msh.NEUMANN).sum() == 2
    dir_edges = m.edges[m.edge_tags == msh.DIRICHLET]
    xs = m.vertices[dir_edges, 0]
    assert ((xs == 0.0).all(axis=1) | (xs == 1.0).all(axis=1)).all()


def test_classify_idempotent():
    m = msh.classify_boundary(msh.make_rect_mesh(10.0, 1.0, 2),
                              msh.LEFT_RIGHT_DIRICHLET)
    again = msh.classify_boundary(m, msh.LEFT_RIGHT_DIRICHLET)
    assert (again.edge_tags == m.edge_tags).all()
    assert (again.vertex_tags == m.vertex_tags).all()


def test_refine_inherits_tags():
    m = msh.classify_boundary(msh.make_rect_mesh(4.0, 1.0, 1),
                              msh.LEFT_RIGHT_DIRICHLET)
    r = msh.refine_uniform(m)
    fresh = msh.classify_boundary(r, msh.LEFT_RIGHT_DIRICHLET)
    assert (r.edge_tags == fresh.edge_tags).all()
    assert (r.vertex_tags == fresh.vertex_tags).all()



def connect_rowwise(triangles):
    """Reference edge table: a unique over the (lower, higher) vertex rows."""
    pairs = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=2).reshape(-1, 2)
    edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
    signs = np.where(pairs[:, 0] < pairs[:, 1], 1, -1).reshape(-1, 3)
    return edges, inverse.reshape(-1, 3), signs.astype(np.int8)


def test_connect_matches_rowwise_unique():
    m = msh.classify_boundary(msh.make_rect_mesh(10.0, 1.0, 1), msh.LEFT_RIGHT_DIRICHLET)
    for _ in range(3):
        m = msh.refine_uniform(m)
    shuffled = np.random.default_rng(5).permutation(m.triangles)
    for tris, built in ((m.triangles, (m.edges, m.tri_edges, m.tri_edge_signs)),
                        (shuffled, msh._connect(shuffled))):
        for got, ref in zip(built, connect_rowwise(tris)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("r1", [1.0, 10.0])  # the unit square and the R = 10 strip
def test_refined_triangles_descend_from_triangle_i_mod_n(r1):
    # the indexing the refinement-tree factor relies on: after three
    # refinements triangle i lies in coarse triangle i mod n, and triangle
    # r < n is coarse triangle r scaled by 1/8 about its first vertex, so it
    # falls in the coarse triangle's shape class
    from dpglock import study_cli as sc
    root = msh.make_rect_mesh(r1, 1.0, 1)
    mesh = root
    for _ in range(3):
        mesh = msh.refine_uniform(mesh)
    assert (root.depth, mesh.depth) == (0, 3)
    n = root.n_triangles
    coarse = root.vertices[root.triangles[np.arange(mesh.n_triangles) % n]]
    fine = mesh.vertices[mesh.triangles]
    # barycentric coordinates of every fine vertex in its ancestor
    bary = np.einsum("tvk,tkj->tvj", fine - coarse[:, :1],
                     np.linalg.inv(coarse[:, 1:] - coarse[:, :1]))
    assert (bary >= -1e-12).all() and (bary.sum(axis=2) <= 1 + 1e-12).all()
    assert np.allclose(fine[:n] - fine[:n, :1], (coarse[:n] - coarse[:n, :1]) / 8,
                       rtol=0, atol=1e-14 * r1)

    cfg = sc.StudyConfig(problem="poisson")
    cls_root, cls = (sc.condense_mesh(m, cfg, lambda x, y: [(0.0, x, y)]).cls
                     for m in (root, mesh))
    same = (cls[np.arange(mesh.n_triangles) % n, None] == cls[None, :n])
    assert (same == (cls_root[np.arange(mesh.n_triangles) % n, None]
                     == cls_root[None, :])).all()
