"""Element-local assembly of the ultraweak plate bending system.

Fields are per-triangle constants: the deflection u and the symmetric moment
tensor M = (M11, M12, M22).  Skeleton unknowns carry the continuity of an
H^2-conforming deflection and an H(div div)-conforming moment:

* per vertex a triple (w, w_x, w_y); on each edge the deflection trace is the
  Hermite cubic through the endpoint values and tangential derivatives, and
  the normal-derivative trace is the linear interpolant of the endpoint
  normal derivatives;
* per edge a triple (m_nn, q_eff, m_tn): the constant normal-normal moment
  (even in the edge normal), the constant effective transverse shear
  n . div M + d/dt (t . M n) (odd in the normal; B takes it along the
  element's outward normal), and the constant twisting moment
  t . M n (even).  The twisting unknown acts through the endpoint
  differences of the test function along each traversed edge; those
  differences are exactly the corner terms produced when the tangential part
  of the gradient pairing is integrated by parts along an element boundary,
  and without them the moment trace of a smooth solution cannot be
  approximated (corner forces are an O(1) part of the duality).

Test functions are broken: v in P3 and a symmetric tensor Q with P4
components, measured in the norm

    (v, v)_T + (hess v, hess v)_T + (Q, Q)_T + (div div Q, div div Q)_T,

where tensor products count the off-diagonal twice, Q : P = Q11 P11
+ 2 Q12 P12 + Q22 P22, and div div Q = Q11_xx + 2 Q12_xy + Q22_yy (a scaled
norm is this one in units of its length d, see study_cli).  The norm and
B's field columns are fem_core's order-k element volume at k = ORDER = 2
(test_norm_rows, field_columns), whose multiplicities C(2, i) = (1, 2, 1)
are these weights, and to which this module hands its volume rule and its
bases of v and of Q's components; it holds the bases and quadrature
tables, B's trace columns, the load and the dof map.

The deflection pairing on an element boundary is

    <w, Q> = int_dT [ w (n . div Q) - (n.Qn) dw/dn - (t.Qn) dw/dt ] ds,

obtained by integrating (w, div div Q)_T - (hess w, Q)_T by parts twice and
splitting the boundary gradient of w into normal and tangential parts.  The
moment pairing is

    <m, v> = sum_e { int_e [ q_eff v - m_nn dv/dn ] ds
                     - m_tn [ v(end) - v(start) ] },

the edge-wise tangential integration by parts of int_dT [ v (n . div M)
- (grad v) . (M n) ] ds with edge-wise constant data: the interior part of
d/dt (t.Mn) joins n . div M in the effective shear and the endpoint
evaluations remain as the m_tn terms.

Local trial column order: [u, M11, M12, M22, (w, w_x, w_y) x vertices 0..2,
(m_nn, q_eff, m_tn) x edges 0..2]; test row order:
[v (10), Q11 (15), Q12 (15), Q22 (15)].
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import fem_core as fc
from . import mesh as msh

ORDER = 2           # (-lap)^ORDER u = f with the moment M = -hess u
TEST_V = 10
N_TEST = 55
N_TRIAL = 22
N_FIELD = 4         # u, M11, M12, M22 lead the trial columns
# trace slots (trial column - N_FIELD) of q_eff on edges 0..2: odd in the edge
# normal, outward in B and turned to the mesh orientation by Condensed.sign
SIGNED_TRACE = (10, 13, 16)

VOLUME_DEGREE = 8   # products of two P4 quantities
EDGE_DEGREE = 9
# the bilaplacian loads oscillate and the orthonormal cubic test basis has
# large coefficients; degree 10 leaves O(1e-2) errors on coarse elements
LOAD_DEGREE = 16


def _hermite(s):
    """Cubic Hermite shape functions and derivatives on [0, 1]."""
    h = np.stack([2 * s ** 3 - 3 * s ** 2 + 1,
                  s ** 3 - 2 * s ** 2 + s,
                  -2 * s ** 3 + 3 * s ** 2,
                  s ** 3 - s ** 2], axis=1)
    dh = np.stack([6 * s ** 2 - 6 * s,
                   3 * s ** 2 - 4 * s + 1,
                   -6 * s ** 2 + 6 * s,
                   3 * s ** 2 - 2 * s], axis=1)
    return h, dh


@lru_cache(maxsize=None)
def _kernels():
    vol = fc.quad_triangle(VOLUME_DEGREE)
    v3 = fc.basis_p(3, vol.points)
    q4 = fc.basis_p(4, vol.points)
    load_rule = fc.quad_triangle(LOAD_DEGREE)
    v3_load = fc.basis_p(3, load_rule.points).values
    edge = fc.quad_edge(EDGE_DEGREE)
    edge_v3 = [fc.basis_p(3, fc.edge_ref_points(k, edge.points)) for k in range(3)]
    edge_q4 = [fc.basis_p(4, fc.edge_ref_points(k, edge.points)) for k in range(3)]
    v3_at_vertices = fc.basis_p(3, fc.REF_VERTICES).values
    herm, dherm = _hermite(edge.points)
    lin = np.stack([1.0 - edge.points, edge.points], axis=1)
    # (nq, 2, 1) per endpoint role (start, end): the value and slope shape
    # functions, their s-derivatives and the linear normal-derivative profile
    hermite = [x[..., None] for x in (herm[:, ::2], herm[:, 1::2], dherm[:, ::2], dherm[:, 1::2], lin)]
    return vol, v3, q4, load_rule, v3_load, edge, edge_v3, edge_q4, v3_at_vertices, hermite


def local_gram_plate(amap: fc.AffineMap) -> np.ndarray:
    """Test inner product on the 55 broken test functions of one element:
    G = A^T A for the rows A of fem_core.test_norm_rows (k = 2)."""
    vol, v3, q4, *_ = _kernels()
    a = fc.test_norm_rows(amap, vol, v3, q4, ORDER)
    return a.T @ a


def local_b_plate(amap: fc.AffineMap) -> np.ndarray:
    """Trial-to-test matrix of the ultraweak plate form on one element.

    Volume part (fem_core.field_columns, k = 2, no reaction):
    (M, hess v + Q)_T + (u, div div Q)_T with the identity compliance
    tensor.  Skeleton part: -<w-trace, Q> and +<m-trace, v> as
    described in the module docstring.
    """
    vol, v3, q4, _, _, edge, edge_v3, edge_q4, v3_verts, hermite = _kernels()
    val, slope, dval, dslope, lin = hermite
    b = np.zeros((N_TEST, N_TRIAL))
    b[:, :N_FIELD] = fc.field_columns(amap, vol, v3, q4, ORDER, 0.0)

    for k in range(3):
        length = amap.edge_lengths[k]
        w = edge.weights * length
        n = amap.edge_normals[k]
        tg = amap.edge_tangents[k]
        qv = edge_q4[k].values
        qg = amap.push(edge_q4[k].derivatives[1])

        # weighted n . div Q, n.Qn and t.Qn of the 45 tensor test functions,
        # stacked over the edge points: (3 nq, 45)
        ndivq = np.concatenate([n[0] * qg[:, :, 0],
                                n[0] * qg[:, :, 1] + n[1] * qg[:, :, 0],
                                n[1] * qg[:, :, 1]], axis=1)
        coef = np.array([[n[0] * n[0], 2 * n[0] * n[1], n[1] * n[1]],
                         [tg[0] * n[0], tg[0] * n[1] + tg[1] * n[0], tg[1] * n[1]]])
        qn = (coef[:, None, :, None] * qv[:, None, :]).reshape(2 * len(w), 45)
        traces = np.tile(w, 3)[:, None] * np.concatenate([ndivq, qn])
        # (-trace, d/dn trace, d/dt trace) at the edge points of unit data
        # (w, w_x, w_y) at the endpoints (start, end) = vertices k, k+1: (3 nq, 6);
        # the slope data act through t . grad w, the normal derivative through n . grad w
        dw, dt, dn = np.eye(3)[0], np.r_[0.0, tg], np.r_[0.0, n]
        profiles = np.concatenate([-(val * dw + length * slope * dt), lin * dn,
                                   dval / length * dw + dslope * dt]).reshape(-1, 6)
        ends = 4 + 3 * np.array([k, (k + 1) % 3])[:, None] + np.arange(3)
        b[TEST_V:, ends.ravel()] += traces.T @ profiles

        vg = amap.push(edge_v3[k].derivatives[1])
        b[:TEST_V, 13 + 3 * k] = -(w @ (vg @ n))
        b[:TEST_V, 14 + 3 * k] = w @ edge_v3[k].values
        b[:TEST_V, 15 + 3 * k] = v3_verts[k] - v3_verts[(k + 1) % 3]
    return b


def local_load_plate(verts: np.ndarray, f) -> np.ndarray:
    """Load vectors l[v] = -(f, v)_T of the triangles with (nt, 3, 2) vertex
    array verts, shape (nt, 10): the v block, the leading test rows (the
    tensor block of l is zero).  f(x, y) returns separable terms, evaluated
    by fem_core.point_values."""
    _, _, _, load_rule, v3_load, *_ = _kernels()
    return fc.load_vectors(verts, f, load_rule, -v3_load)


class PlateDofMap(msh.DofMap):
    """Columns: vertex (w, w_x, w_y), edge (m_nn, q_eff, m_tn); the fields
    (u, M11, M12, M22) are condensed and count in n_free only."""


def dof_map_plate(mesh: msh.Mesh) -> PlateDofMap:
    """Clamped on Dirichlet vertices (the whole deflection triple fixed) and
    free on Neumann edges (all three moment-trace components fixed; zeroing
    m_tn there is a subspace of the jump-free twisting moments the free
    boundary requires).

    A constant m_tn on every edge telescopes to zero around each triangle, so
    without a Neumann edge it spans the kernel of the system; fixing m_tn on
    the first boundary edge removes it.
    """
    vertex_fixed = np.repeat((mesh.vertex_tags == msh.DIRICHLET)[:, None], 3, axis=1)
    edge_fixed = np.repeat((mesh.edge_tags == msh.NEUMANN)[:, None], 3, axis=1)
    if not edge_fixed.any():
        edge_fixed[np.argmax(mesh.boundary_edge_mask()), 2] = True
    return PlateDofMap.number(mesh, N_FIELD, vertex_fixed, edge_fixed)
