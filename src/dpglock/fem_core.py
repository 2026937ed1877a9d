"""Reference-triangle polynomial bases, quadrature rules, affine element maps,
and the volume part of the ultraweak element of order k.

The reference triangle has vertices (0,0), (1,0), (0,1); local edge k runs
from vertex k to vertex k+1 (mod 3), traversed counterclockwise.  Scalar bases
are monomials orthonormalized against the reference L2 inner product, which
keeps local Gram matrices well conditioned under strongly scaled test norms.

Derivative tables are held by order: a table of order j, shape (..., j+1),
lists the derivatives d^(j-i, i) = d^j / dx^(j-i) dy^i, i = 0..j, and
AffineMap.push takes one of any order to physical coordinates.

Both model problems are the ultraweak form of order k (k = 1 Poisson, k = 2
the plate) with a symmetric k-tensor flux and test tensor: test_norm_rows
builds the rows of their test norm and field_columns B's field columns, from
the element map, the volume rule, the model's two test bases and k, and
multiplicities gives both how often each tensor component counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, factorial

import numpy as np

from .mesh import Mesh

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

_MAX_QUAD_DEGREE = 50

# quadrature points per block of point_chunks: one float64 array over a block
# takes about 1 MiB (3,640 triangles of a 36-point rule, 1,618 of 81 points)
POINT_CHUNK = 1 << 17


@dataclass(frozen=True)
class QuadRule:
    """Positive-weight quadrature; points are (nq, 2) on the reference triangle
    or (nq,) in [0, 1] for edges."""

    points: np.ndarray
    weights: np.ndarray


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def quad_edge(degree: int) -> QuadRule:
    """Gauss rule on [0, 1] exact for polynomials up to `degree`."""
    if not 0 <= degree <= _MAX_QUAD_DEGREE:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    n = degree // 2 + 1
    x, w = _gauss01(n)
    return QuadRule(x, w)


def quad_triangle(degree: int) -> QuadRule:
    """Product-Gauss rule on the reference triangle exact up to `degree`.

    Built by collapsing the unit square onto the triangle via
    (u, v) -> (u, v(1-u)) with Jacobian (1-u); the extra factor raises the
    u-degree by one, hence the rule size.
    """
    if not 0 <= degree <= _MAX_QUAD_DEGREE:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    x, w = _gauss01((degree + 3) // 2)  # n points: 2n-1 >= degree+1
    u, v = np.meshgrid(x, x)
    wu, wv = np.meshgrid(w, w)
    return QuadRule(np.column_stack([u.ravel(), (v * (1.0 - u)).ravel()]),
                    (wu * wv * (1.0 - u)).ravel())


def _monomial_powers(p: int) -> np.ndarray:
    return np.array([(a, b) for total in range(p + 1) for a in range(total, -1, -1)
                     for b in (total - a,)], dtype=np.int64)


def _monomial_gram(powers: np.ndarray) -> np.ndarray:
    """Exact reference-triangle Gram of monomials: int x^a y^b = a! b! / (a+b+2)!."""
    n = len(powers)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            a, b = powers[i] + powers[j]
            g[i, j] = factorial(a) * factorial(b) / factorial(a + b + 2)
    return g


def _eval_monomials(powers: np.ndarray, pts: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
    """Values of d^dx_x d^dy_y (x^a y^b) at pts, shape (npts, nmono)."""
    x = pts[:, 0][:, None]
    y = pts[:, 1][:, None]
    a = powers[:, 0][None, :].astype(float)
    b = powers[:, 1][None, :].astype(float)
    ca = np.ones_like(a)
    cb = np.ones_like(b)
    for _ in range(dx):
        ca, a = ca * a, np.maximum(a - 1, 0)
    for _ in range(dy):
        cb, b = cb * b, np.maximum(b - 1, 0)
    # a power below its derivative order has passed through the factor 0
    return ca * cb * x ** a * y ** b


@dataclass(frozen=True)
class ReferenceBasis:
    """Orthonormal polynomial basis of P^p on the reference triangle, its
    derivative tables of orders 0, 1 and 2 at the points basis_p was given:
    derivatives[j] (npts, n, j+1) holds d^(j-i, i) of the n basis functions."""

    derivatives: tuple
    coeffs: np.ndarray     # (n, n) rows over monomials, for re-expansion
    powers: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """(npts, n) values, the order-0 table."""
        return self.derivatives[0][..., 0]


@lru_cache(maxsize=None)
def _orthonormal_coeffs(p: int):
    powers = _monomial_powers(p)
    gram = _monomial_gram(powers)
    c = np.linalg.inv(np.linalg.cholesky(gram))
    # one re-orthonormalization pass wipes out the monomial Gram's conditioning
    g2 = c @ gram @ c.T
    c = np.linalg.solve(np.linalg.cholesky(g2), c)
    return c, powers


def basis_p(p: int, points) -> ReferenceBasis:
    """Orthonormal basis of P^p tabulated at the given reference points."""
    if not 0 <= p <= 4:
        raise ValueError(f"unsupported basis degree {p}")
    coeffs, powers = _orthonormal_coeffs(p)
    pts = np.asarray(points, float)
    return ReferenceBasis(tuple(np.stack([_eval_monomials(powers, pts, j - i, i) @ coeffs.T
                                          for i in range(j + 1)], axis=2) for j in range(3)),
                          coeffs, powers)


@dataclass(frozen=True)
class AffineMap:
    """Affine map from the reference triangle onto a physical triangle.

    push takes derivative tables to physical coordinates.  Edge data follow
    the local edge order k = (vertex k, vertex k+1): outward unit normal,
    counterclockwise unit tangent and length.
    """

    verts: np.ndarray
    jac: np.ndarray
    det: float
    jac_inv_t: np.ndarray
    edge_normals: np.ndarray
    edge_tangents: np.ndarray
    edge_lengths: np.ndarray

    def push(self, table: np.ndarray) -> np.ndarray:
        """A (..., j+1) table of reference derivatives of order j to physical
        ones.  With (a, b) and (c, d) the rows of jac_inv_t, d/dx = a d/dxi
        + b d/deta and d/dy = c d/dxi + d d/deta, so physical d^(j-i, i) is
        sum_m T[i, m] d^(j-m, m) in reference coordinates, row i of T being
        the coefficients of (a + b t)^(j-i) (c + d t)^i; at j = 1, T is
        jac_inv_t."""
        j = table.shape[-1] - 1
        ab, cd = self.jac_inv_t
        return table @ np.array([reduce(np.convolve, [ab] * (j - i) + [cd] * i, [1.0])
                                 for i in range(j + 1)]).T


def affine_map_from_vertices(verts: np.ndarray) -> AffineMap:
    verts = np.asarray(verts, float)
    jac = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    if det <= 0.0:
        raise ValueError(f"degenerate or inverted triangle, det = {det}")
    jac_inv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det
    d = np.roll(verts, -1, axis=0) - verts  # local edge k, vertex k to vertex k+1
    lengths = np.hypot(d[:, 0], d[:, 1])
    tangents = d / lengths[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])  # outward, counterclockwise
    return AffineMap(verts, jac, det, jac_inv.T, normals, tangents, lengths)


def map_affine(mesh: Mesh, t: int) -> AffineMap:
    """Affine map of triangle t."""
    return affine_map_from_vertices(mesh.vertices[mesh.triangles[t]])


def unique_rows(a: np.ndarray):
    """(first, inverse) of the distinct rows of the 2-D array a, taken in
    lexicographic order: first[i] is the index of the first row of a equal to
    distinct row i, and row t of a equals a[first[inverse[t]]]."""
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    new = np.ones(len(a), bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def point_chunks(verts: np.ndarray, ref_pts: np.ndarray):
    """Quadrature points of consecutive blocks of the (nt, 3, 2) vertex array,
    about POINT_CHUNK points a block, so point-wise work in the caller's loop
    needs memory of one block, not of the whole mesh.  Yields per block
    (slice, det, (x, ix), (y, iy)): the Jacobian determinants (n,) and per
    axis the points' coordinates (U, nq), one row per distinct triple of
    vertex coordinates along that axis, with the row (n,) of each triangle.
    A reference point (xi, eta) maps to the vertices' combination with
    barycentric weights (1 - xi - eta, xi, eta), so its x depends on the
    vertices' x alone, and on a structured mesh many triangles share a row."""
    bary = np.column_stack([1.0 - ref_pts[:, 0] - ref_pts[:, 1], ref_pts])
    step = POINT_CHUNK // len(ref_pts)
    for lo in range(0, len(verts), step):
        v = verts[lo:lo + step]
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        tables = []
        for coords in (v[..., 0], v[..., 1]):
            first, inverse = unique_rows(coords)
            tables.append((coords[first] @ bary.T, inverse))
        yield (slice(lo, lo + step), e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1], *tables)


def point_values(verts: np.ndarray, ref_pts: np.ndarray, fn):
    """Per block of point_chunks: (slice, det, values), where values[m]
    (n, nq) is the m-th term c X Y of fn at the block's quadrature points.
    fn(x, y) returns separable terms (c, X, Y), X a float array evaluated
    where x is and Y one where y is; it is called once per block, on the
    coordinate tables, and each term is gathered into one array in place."""
    for sl, det, (x, ix), (y, iy) in point_chunks(verts, ref_pts):
        values = []
        for c, fx, fy in fn(x, y):
            v = fx[ix]
            v *= fy[iy]
            v *= c
            values.append(v)
        yield sl, det, values


def edge_ref_points(k: int, s: np.ndarray) -> np.ndarray:
    """Reference coordinates of local edge k at parameters s in [0, 1]."""
    a = REF_VERTICES[k]
    b = REF_VERTICES[(k + 1) % 3]
    return a + np.outer(s, b - a)


def load_vectors(verts: np.ndarray, f, rule: QuadRule, values: np.ndarray) -> np.ndarray:
    """(nt, n) load vectors (f, phi_i)_T of the triangles with (nt, 3, 2)
    vertex array verts, for the n basis functions tabulated as values
    (nq, n) at rule.points.  f(x, y) returns separable terms (c, X, Y) with
    the value sum c X Y, evaluated per block by point_values."""
    load = np.empty((len(verts), values.shape[1]))
    for sl, det, terms in point_values(verts, rule.points, f):
        load[sl] = (sum(terms) * rule.weights * det[:, None]) @ values
    return load


def multiplicities(k: int) -> np.ndarray:
    """C(k, i), i = 0..k: how often the component d^k / dx^(k-i) dy^i, the
    i-th of a symmetric k-tensor, appears among the tensor's 2^k entries, so
    that tensor products are sum_i C(k, i) S_i T_i."""
    return np.array([comb(k, i) for i in range(k + 1)], float)


def _volume_tables(amap: AffineMap, vol: QuadRule, v_basis: ReferenceBasis,
                  tau_basis: ReferenceBasis, k: int):
    """(wdet, v, dv, tau, dtau) on the element of amap: the weights (nq,) of
    the volume rule vol times det, the scalar bases v (nq, nv) and tau
    (nq, nt) at its points, and their physical k-th derivatives dv
    (nq, nv, k+1) and dtau (nq, nt, k+1)."""
    return (vol.weights * amap.det, v_basis.values, amap.push(v_basis.derivatives[k]),
            tau_basis.values, amap.push(tau_basis.derivatives[k]))


def test_norm_rows(amap: AffineMap, vol: QuadRule, v_basis: ReferenceBasis,
                   tau_basis: ReferenceBasis, k: int) -> np.ndarray:
    """The rows A of the order-k test norm of one element, G = A^T A:

        (v, v)_T + (grad^k v, grad^k v)_T + (tau, tau)_T + (div^k tau, div^k tau)_T

    over the test functions v and tau = (tau_0, ..., tau_k), the components of
    a symmetric k-tensor, with tensor products counting component i C(k, i)
    times and div^k tau = sum_i C(k, i) d^(k-i, i) tau_i.  v_basis and
    tau_basis are the scalar bases, tabulated at the points of the volume
    rule vol, and amap the element's map (_volume_tables).  A row holds one
    term (of one tensor component) at one quadrature point, scaled by
    sqrt(w det C(k, i))."""
    wdet, v, dv, tau, dtau = _volume_tables(amap, vol, v_basis, tau_basis, k)
    c, root = multiplicities(k), np.sqrt(wdet)[:, None]
    v, tau = root * v, root * tau
    dv, dtau = root[..., None] * np.sqrt(c) * dv, root[..., None] * dtau
    zv, zt = np.zeros_like(v), np.zeros_like(tau)
    # columns (v, tau_0, ..., tau_k); rows v, grad^k v, tau and div^k tau, a
    # block row per tensor component
    return np.block([[v] + [zt] * (k + 1),
                     *[[dv[..., i]] + [zt] * (k + 1) for i in range(k + 1)],
                     *[[zv] + [np.sqrt(c[i]) * tau if j == i else zt for j in range(k + 1)]
                       for i in range(k + 1)],
                     [zv] + [c[i] * dtau[..., i] for i in range(k + 1)]])


def field_columns(amap: AffineMap, vol: QuadRule, v_basis: ReferenceBasis,
                  tau_basis: ReferenceBasis, k: int, gamma: float) -> np.ndarray:
    """B's k + 2 field columns on one element, for the arguments of
    test_norm_rows: the volume part of the ultraweak form of order k,

        (u, gamma v + div^k tau)_T + sum_i C(k, i) (sigma_i, d^(k-i, i) v + tau_i)_T,

    with the constant fields u and sigma = (sigma_0, ..., sigma_k); rows
    (v, tau_0, ..., tau_k), columns (u, sigma_0, ..., sigma_k)."""
    wdet, v, dv, tau, dtau = _volume_tables(amap, vol, v_basis, tau_basis, k)
    c = multiplicities(k)
    div = np.concatenate([c[i] * dtau[..., i] for i in range(k + 1)], axis=1)
    return np.block([[gamma * (wdet @ v)[:, None], np.einsum("q,qic->ic", wdet, dv) * c],
                     [(wdet @ div)[:, None], np.kron(np.diag(c), (wdet @ tau)[:, None])]])
