"""Element-local assembly of the ultraweak Poisson system.

Field unknowns live in L2 (per-triangle constants for the deflection u and the
flux sigma = grad u), continuity is carried by skeleton unknowns: one vertex
value per continuous piecewise-linear trace function uhat, and one constant
normal flux sighat per edge, signed by the global edge normal.  Test functions
are broken: v in P2 and tau in (P2)^2 per element, measured in the norm

    (v, v)_T + (grad v, grad v)_T + (tau, tau)_T + (div tau, div tau)_T

(a scaled norm is this one in units of its length d, see study_cli).  The
norm and B's field columns are fem_core's order-k element volume at
k = ORDER = 1 (test_norm_rows, field_columns), to which this module hands
its volume rule and test bases; it holds the bases and quadrature tables,
B's trace columns, the load and the dof map.

Local trial column order: [u, sigma_x, sigma_y, uhat_v0..v2, sighat_e0..e2];
test row order: [v (6), tau_x (6), tau_y (6)].
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import fem_core as fc
from . import mesh as msh

ORDER = 1           # gamma u + (-lap)^ORDER u = f with the flux sigma = grad u
N_TEST = 18
N_TRIAL = 9
N_FIELD = 3         # u, sigma_x, sigma_y lead the trial columns
# trace slots (trial column - N_FIELD) of sighat on edges 0..2: odd in the edge
# normal, outward in B and turned to the mesh orientation by Condensed.sign
SIGNED_TRACE = (3, 4, 5)

VOLUME_DEGREE = 4   # products of two P2 quantities
EDGE_DEGREE = 9
LOAD_DEGREE = 10


@lru_cache(maxsize=None)
def _kernels():
    vol = fc.quad_triangle(VOLUME_DEGREE)
    test = fc.basis_p(2, vol.points)
    load_rule = fc.quad_triangle(LOAD_DEGREE)
    test_load = fc.basis_p(2, load_rule.points).values
    edge = fc.quad_edge(EDGE_DEGREE)
    edge_vals = [fc.basis_p(2, fc.edge_ref_points(k, edge.points)).values for k in range(3)]
    hats = np.stack([1.0 - edge.points, edge.points], axis=1)  # start/end vertex
    return vol, test, load_rule, test_load, edge, edge_vals, hats


def local_gram_poisson(amap: fc.AffineMap) -> np.ndarray:
    """Test inner product on the 18 broken test functions of one element:
    G = A^T A for the rows A of fem_core.test_norm_rows (k = 1)."""
    vol, test, *_ = _kernels()
    a = fc.test_norm_rows(amap, vol, test, test, ORDER)
    return a.T @ a


def local_b_poisson(amap: fc.AffineMap, gamma: float) -> np.ndarray:
    """Trial-to-test matrix of the ultraweak bilinear form on one element.

    Volume part (fem_core.field_columns, k = 1):
    (u, div tau + gamma v)_T + (sigma, tau + grad v)_T.
    Skeleton part: -int_dT uhat (tau . n) for the piecewise-linear hat traces,
    and -sighat int_e v per edge, sighat taken along the outward normal.
    """
    if gamma < 0:
        raise ValueError(f"reaction coefficient must be nonnegative, got {gamma}")
    vol, test, _, _, edge, edge_vals, hats = _kernels()
    b = np.zeros((N_TEST, N_TRIAL))
    b[:, :N_FIELD] = fc.field_columns(amap, vol, test, test, ORDER, gamma)

    for k in range(3):
        w = edge.weights * amap.edge_lengths[k]
        nx, ny = amap.edge_normals[k]
        vals = edge_vals[k]
        # weighted tau . n of the 12 tau against the hats of the edge's endpoints
        tau_n = w[:, None] * np.concatenate([nx * vals, ny * vals], axis=1)
        b[6:, [3 + k, 3 + (k + 1) % 3]] -= tau_n.T @ hats
        b[:6, 6 + k] = -(w @ vals)
    return b


def local_load_poisson(verts: np.ndarray, f) -> np.ndarray:
    """Load vectors l[v] = (f, v)_T of the triangles with (nt, 3, 2) vertex
    array verts, shape (nt, 6): the v block, the leading test rows (the tau
    block of l is zero).  f(x, y) returns separable terms, evaluated by
    fem_core.point_values."""
    _, _, load_rule, test_load, *_ = _kernels()
    return fc.load_vectors(verts, f, load_rule, test_load)


class PoissonDofMap(msh.DofMap):
    """Columns: vertex (uhat), edge (sighat); the fields (u, sigma_x,
    sigma_y) are condensed and count in n_free only."""


def dof_map_poisson(mesh: msh.Mesh) -> PoissonDofMap:
    """uhat is fixed on Dirichlet vertices, sighat on Neumann edges."""
    return PoissonDofMap.number(mesh, N_FIELD, (mesh.vertex_tags == msh.DIRICHLET)[:, None],
                                (mesh.edge_tags == msh.NEUMANN)[:, None])
