"""Structured triangulations of rectangles with uniform refinement and boundary tags.

Meshes are immutable value objects: triangles are stored counterclockwise,
edges with the lower vertex index first, and every triangle records for each
of its edges whether its outward normal agrees with the global edge normal
(the normal obtained by rotating the lower-to-higher-index direction
clockwise by 90 degrees).  A mesh carries its boundary layout, and its edge
and vertex tags are derived from the layout and the geometry on first use,
so refinement only passes the layout on.  A DofMap numbers the trace
unknowns that live on the vertices and edges of a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# boundary tags
INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

# boundary layouts, named as on the command line
ALL_DIRICHLET = "dirichlet"
LEFT_RIGHT_DIRICHLET = "mixed"
LAYOUTS = (ALL_DIRICHLET, LEFT_RIGHT_DIRICHLET)


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a simply connected polygon.

    vertices:       (nv, 2) coordinates
    triangles:      (nt, 3) int32 vertex indices, counterclockwise
    edges:          (ne, 2) int32 vertex indices, lower index first
    tri_edges:      (nt, 3) int32 edge index of local edge k = (vertex k, vertex k+1)
    tri_edge_signs: (nt, 3) +1 if local traversal runs lower->higher index
    layout:         boundary layout, one of LAYOUTS
    depth:          number of refine_uniform steps from the coarse mesh

    edge_tags and vertex_tags are computed from the layout when first read.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    layout: str = ALL_DIRICHLET
    depth: int = 0

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown boundary layout {self.layout!r}")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def boundary_edge_mask(self) -> np.ndarray:
        """Edges incident to exactly one triangle."""
        counts = np.bincount(self.tri_edges.ravel(), minlength=self.n_edges)
        return counts == 1

    @cached_property
    def edge_tags(self) -> np.ndarray:
        """(ne,) INTERIOR / DIRICHLET / NEUMANN.  ALL_DIRICHLET tags the whole
        boundary Dirichlet; LEFT_RIGHT_DIRICHLET tags only the boundary edges
        with both ends on the line x = xmin or both on x = xmax, and the rest
        of the boundary Neumann.  The lines are found to a relative tolerance
        of 1e-12, since vertices sit exactly on grid lines."""
        on_boundary = self.boundary_edge_mask()
        if not on_boundary.any():
            raise ValueError("mesh has no boundary edges")
        dirichlet = on_boundary
        if self.layout == LEFT_RIGHT_DIRICHLET:
            x = self.vertices[:, 0]
            tol = 1e-12 * np.ptp(self.vertices, axis=0).min()
            # [edge, end, line]: both ends on the same vertical line
            on_line = np.abs(x[self.edges][:, :, None] - [x.min(), x.max()]) <= tol
            dirichlet = on_boundary & on_line.all(axis=1).any(axis=1)
        return np.select([dirichlet, on_boundary], [DIRICHLET, NEUMANN],
                         INTERIOR).astype(np.int8)

    @cached_property
    def vertex_tags(self) -> np.ndarray:
        """(nv,) same encoding: DIRICHLET at the ends of Dirichlet edges (so
        at the corners of a mixed layout), else NEUMANN at those of Neumann edges."""
        tags = np.full(self.n_vertices, INTERIOR, dtype=np.int8)
        for tag in (NEUMANN, DIRICHLET):  # DIRICHLET applied last so it wins
            tags[self.edges[self.edge_tags == tag]] = tag
        return tags


@dataclass(frozen=True)
class DofMap:
    """Global numbering of the free trace unknowns of an ultraweak system.

    vertex: (nv, k) trace components per vertex
    edge:   (ne, k) trace components per edge

    The free vertex components are numbered from 0 in vertex order, then the
    free edge components in edge order, as int32; fixed slots hold -1.  So
    the free trace slots (slot_values' layout), in slot order, are the
    unknowns 0 ... n_trace - 1.  The
    n_field piecewise-constant fields of each triangle couple only inside it
    and are eliminated element by element, so they get no number; n_free
    counts them next to the n_trace traces.
    """

    n_free: int
    n_trace: int
    vertex: np.ndarray
    edge: np.ndarray

    @classmethod
    def number(cls, mesh: Mesh, n_field: int, vertex_fixed: np.ndarray,
               edge_fixed: np.ndarray):
        """Number the traces, leaving out the slots set in the (nv, k) and
        (ne, k) masks."""
        free = ~np.concatenate([vertex_fixed.ravel(), edge_fixed.ravel()])
        ids = np.where(free, np.cumsum(free) - 1, -1).astype(np.int32)
        n_trace = int(free.sum())
        vertex, edge = np.split(ids, [vertex_fixed.size])
        return cls(n_field * mesh.n_triangles + n_trace, n_trace,
                   vertex.reshape(vertex_fixed.shape), edge.reshape(edge_fixed.shape))

    def slot_values(self, vertex: np.ndarray, edge: np.ndarray) -> np.ndarray:
        """Per-vertex and per-edge values ((nv,) or (nv, k), (ne,) or
        (ne, k)) laid out over the trace slots: the components of every
        vertex in vertex order, then those of every edge."""
        return np.concatenate([
            np.broadcast_to(np.reshape(v, (len(v), -1)), like.shape).ravel()
            for v, like in ((vertex, self.vertex), (edge, self.edge))])

    def element_slots(self, mesh: Mesh) -> np.ndarray:
        """(nt, 3 k_vertex + 3 k_edge) int32 trace slot (in the slot_values
        layout) of every local trace of every triangle: the components of
        its vertices, then those of its edges, in local order.
        StudyConfig.validate keeps the slots below 2^31."""
        kv, ke, nt = self.vertex.shape[1], self.edge.shape[1], mesh.n_triangles
        return np.hstack([
            (kv * mesh.triangles[:, :, None] + np.arange(kv, dtype=np.int32)).reshape(nt, -1),
            (self.vertex.size + ke * mesh.tri_edges[:, :, None]
             + np.arange(ke, dtype=np.int32)).reshape(nt, -1),
        ])

    def all_element_dofs(self, mesh: Mesh) -> np.ndarray:
        """(nt, 3 k_vertex + 3 k_edge) global index of every local trace
        slot, -1 where fixed."""
        return self.slot_values(self.vertex, self.edge)[self.element_slots(mesh)]


def _connect(triangles: np.ndarray):
    """Build the unique edge list plus per-triangle edge indices (int32) and signs."""
    a = triangles
    b = np.roll(triangles, -1, axis=1)
    pairs = np.stack([a, b], axis=2).reshape(-1, 2)  # local edge k = (v_k, v_{k+1})
    n = np.int64(triangles.max()) + 1
    # (lo, hi) pairs sort as the 1-D keys lo * n + hi, formed in int64
    keys, inverse = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1),
                              return_inverse=True)
    edges = np.column_stack([keys // n, keys % n]).astype(np.int32)
    tri_edges = inverse.reshape(-1, 3).astype(np.int32)
    signs = np.where(pairs[:, 0] < pairs[:, 1], 1, -1).reshape(-1, 3)
    return edges, tri_edges, signs.astype(np.int8)


def cells(r1: float, r2: float, n: int) -> tuple:
    """(nx, ny): n cells along the shorter side and round(n long / short), at least 1, along
    the longer one, as floats (inf where the ratio overflows)."""
    k = max(1.0, float(np.floor(n * max(r1, r2) / min(r1, r2) + 0.5)))
    return (k, float(n)) if r1 >= r2 else (float(n), k)


def make_rect_mesh(r1: float, r2: float, n: int, shape: tuple | None = None) -> Mesh:
    """Triangulation of (0, r1) x (0, r2) with ny rows of nx diagonally split cells.

    (nx, ny) = shape, by default cells(r1, r2, n): n cells along the shorter
    side, so that the cells are near-square.
    Each cell is split along its lower-left to upper-right diagonal.  The layout
    is ALL_DIRICHLET; use classify_boundary for another.
    """
    if not (r1 > 0 and r2 > 0):
        raise ValueError(f"rectangle sides must be positive, got {r1} x {r2}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nx, ny = map(int, cells(r1, r2, n) if shape is None else shape)

    xs = np.linspace(0.0, r1, nx + 1)
    ys = np.linspace(0.0, r2, ny + 1)
    xg, yg = np.meshgrid(xs, ys)  # row j = line y = ys[j]
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    # lower-left vertex of every cell, row by row; the cell's two triangles
    # (ll, lr, ur) and (ll, ur, ul) follow each other
    ll = (np.arange(nx) + (nx + 1) * np.arange(ny)[:, None]).ravel()
    triangles = np.stack([ll, ll + 1, ll + nx + 2,
                          ll, ll + nx + 2, ll + nx + 1], axis=1).reshape(-1, 3).astype(np.int32)

    return Mesh(vertices, triangles, *_connect(triangles))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children (red refinement).

    Midpoint vertices are appended after the parent vertices in edge order,
    and the refined mesh keeps the boundary layout.  Child k of triangle t is
    triangle t + k nt, and child 0 keeps the vertex order of t at half its
    Jacobian.  So after d refinements of a mesh of n triangles, triangle i
    descends from triangle i mod n of that mesh, and triangle r < n is
    triangle r scaled by 2^-d about its first vertex.
    """
    nv = mesh.n_vertices
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    t = mesh.triangles
    m = nv + mesh.tri_edges  # m[:, k] = midpoint of local edge k = (v_k, v_{k+1})
    children = np.concatenate([
        np.stack([t[:, 0], m[:, 0], m[:, 2]], axis=1),
        np.stack([m[:, 0], t[:, 1], m[:, 1]], axis=1),
        np.stack([m[:, 2], m[:, 1], t[:, 2]], axis=1),
        np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
    ])

    return Mesh(vertices, children, *_connect(children), mesh.layout, mesh.depth + 1)


def classify_boundary(mesh: Mesh, layout: str) -> Mesh:
    """The mesh with another boundary layout; Mesh.edge_tags says how each
    layout tags the boundary."""
    return replace(mesh, layout=layout)
