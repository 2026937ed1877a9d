"""Structured triangulations of rectangles with uniform refinement and boundary tags.

Meshes are immutable value objects: triangles are stored counterclockwise,
edges with the lower vertex index first, and every triangle records for each
of its edges whether its outward normal agrees with the global edge normal
(the normal obtained by rotating the lower-to-higher-index direction
clockwise by 90 degrees).  A DofMap numbers the trace unknowns that live on
the vertices and edges of a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# boundary tags
INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

# boundary layouts, named as on the command line
ALL_DIRICHLET = "dirichlet"
LEFT_RIGHT_DIRICHLET = "mixed"


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a simply connected polygon.

    vertices:       (nv, 2) coordinates
    triangles:      (nt, 3) vertex indices, counterclockwise
    edges:          (ne, 2) vertex indices, lower index first
    tri_edges:      (nt, 3) edge index of local edge k = (vertex k, vertex k+1)
    tri_edge_signs: (nt, 3) +1 if local traversal runs lower->higher index
    edge_tags:      (ne,) INTERIOR / DIRICHLET / NEUMANN
    vertex_tags:    (nv,) same encoding; DIRICHLET wins at corners
    depth:          number of refine_uniform steps from the coarse mesh
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    edge_tags: np.ndarray
    vertex_tags: np.ndarray
    depth: int = 0

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


@dataclass(frozen=True)
class DofMap:
    """Global numbering of the free trace unknowns of an ultraweak system.

    vertex: (nv, k) trace components per vertex
    edge:   (ne, k) trace components per edge

    The free vertex components are numbered from 0 in vertex order, then the
    free edge components in edge order; fixed slots hold -1.  The n_field
    piecewise-constant fields of each triangle couple only inside it and are
    eliminated element by element, so they get no number; n_free counts
    them next to the n_trace traces.
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
        ids = np.where(free, np.cumsum(free) - 1, -1)
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
        """(nt, 3 k_vertex + 3 k_edge) trace slot (in the slot_values
        layout) of every local trace of every triangle: the components of
        its vertices, then those of its edges, in local order."""
        kv, ke, nt = self.vertex.shape[1], self.edge.shape[1], mesh.n_triangles
        return np.hstack([
            (kv * mesh.triangles[:, :, None] + np.arange(kv)).reshape(nt, -1),
            (self.vertex.size + ke * mesh.tri_edges[:, :, None] + np.arange(ke)).reshape(nt, -1),
        ])

    def all_element_dofs(self, mesh: Mesh) -> np.ndarray:
        """(nt, 3 k_vertex + 3 k_edge) global index of every local trace
        slot, -1 where fixed."""
        return self.slot_values(self.vertex, self.edge)[self.element_slots(mesh)]


def _connect(triangles: np.ndarray):
    """Build the unique edge list plus per-triangle edge indices and signs."""
    a = triangles
    b = np.roll(triangles, -1, axis=1)
    pairs = np.stack([a, b], axis=2).reshape(-1, 2)  # local edge k = (v_k, v_{k+1})
    n = triangles.max() + 1
    # (lo, hi) pairs sort as the 1-D keys lo * n + hi
    keys, inverse = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1),
                              return_inverse=True)
    edges = np.column_stack([keys // n, keys % n])
    tri_edges = inverse.reshape(-1, 3)
    signs = np.where(pairs[:, 0] < pairs[:, 1], 1, -1).reshape(-1, 3)
    return edges, tri_edges, signs.astype(np.int8)


def _vertex_tags_from_edges(n_vertices: int, edges: np.ndarray, edge_tags: np.ndarray) -> np.ndarray:
    """Vertex gets DIRICHLET if incident to a Dirichlet edge, else NEUMANN if on the boundary."""
    tags = np.full(n_vertices, INTERIOR, dtype=np.int8)
    for tag in (NEUMANN, DIRICHLET):  # DIRICHLET applied last so it wins
        sel = edges[edge_tags == tag]
        tags[sel.ravel()] = tag
    return tags


def columns(r1: float, r2: float, ny: int) -> float:
    """round(ny * r1 / r2), at least 1, as a float (inf where the ratio overflows)."""
    return max(1.0, float(np.floor(ny * r1 / r2 + 0.5)))


def make_rect_mesh(r1: float, r2: float, ny: int, nx: int | None = None) -> Mesh:
    """Triangulation of (0, r1) x (0, r2) with ny rows of nx diagonally split cells.

    nx = columns(r1, r2, ny) by default, so cells stay close to unit aspect ratio.
    Each cell is split along its lower-left to upper-right diagonal.  All boundary
    edges start out tagged Dirichlet; use classify_boundary for other layouts.
    """
    if not (r1 > 0 and r2 > 0):
        raise ValueError(f"rectangle sides must be positive, got {r1} x {r2}")
    if ny < 1:
        raise ValueError(f"ny must be >= 1, got {ny}")
    nx = int(columns(r1, r2, ny) if nx is None else nx)

    xs = np.linspace(0.0, r1, nx + 1)
    ys = np.linspace(0.0, r2, ny + 1)
    xg, yg = np.meshgrid(xs, ys)  # row j = line y = ys[j]
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    # lower-left vertex of every cell, row by row; the cell's two triangles
    # (ll, lr, ur) and (ll, ur, ul) follow each other
    ll = (np.arange(nx) + (nx + 1) * np.arange(ny)[:, None]).ravel()
    triangles = np.stack([ll, ll + 1, ll + nx + 2,
                          ll, ll + nx + 2, ll + nx + 1], axis=1).reshape(-1, 3)

    edges, tri_edges, signs = _connect(triangles)
    mesh = Mesh(vertices, triangles, edges, tri_edges, signs,
                np.zeros(len(edges), np.int8), np.zeros(len(vertices), np.int8))
    return classify_boundary(mesh, ALL_DIRICHLET)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children (red refinement).

    Midpoint vertices are appended after the parent vertices in edge order,
    children of boundary edges inherit the parent tag, and all edges created
    inside a parent triangle are interior.  Child k of triangle t is
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

    edges, tri_edges, signs = _connect(children)

    # sub-edge (parent endpoint, parent midpoint) inherits the parent tag; the
    # midpoint index is the higher one, and edges are sorted by (lower, higher)
    n = len(vertices)
    tagged = np.nonzero(mesh.edge_tags != INTERIOR)[0]
    halves = mesh.edges[tagged] * n + (nv + tagged)[:, None]
    edge_tags = np.full(len(edges), INTERIOR, dtype=np.int8)
    edge_tags[np.searchsorted(edges[:, 0] * n + edges[:, 1], halves)] = \
        mesh.edge_tags[tagged][:, None]
    vertex_tags = _vertex_tags_from_edges(len(vertices), edges, edge_tags)
    return Mesh(vertices, children, edges, tri_edges, signs, edge_tags, vertex_tags,
                mesh.depth + 1)


def classify_boundary(mesh: Mesh, layout: str) -> Mesh:
    """Return a copy of the mesh with boundary edges/vertices tagged for a BC layout.

    ALL_DIRICHLET tags the whole boundary Dirichlet; LEFT_RIGHT_DIRICHLET tags
    only the edges on the lines x = xmin and x = xmax (the remaining boundary
    becomes Neumann).  Detection uses a relative tolerance of 1e-12 since
    vertices sit exactly on grid lines.
    """
    if layout not in (ALL_DIRICHLET, LEFT_RIGHT_DIRICHLET):
        raise ValueError(f"unknown boundary layout {layout!r}")
    on_boundary = mesh.boundary_edge_mask()
    if not on_boundary.any():
        raise ValueError("mesh has no boundary edges")

    edge_tags = np.full(mesh.n_edges, INTERIOR, dtype=np.int8)
    if layout == ALL_DIRICHLET:
        edge_tags[on_boundary] = DIRICHLET
    else:
        x = mesh.vertices[:, 0]
        lo, hi = x.min(), x.max()
        width = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        tol = 1e-12 * min(width)
        on_dirichlet = np.zeros(mesh.n_edges, dtype=bool)
        for line in (lo, hi):  # both endpoints on the same vertical line
            on_line = np.abs(x - line) <= tol
            on_dirichlet |= on_line[mesh.edges[:, 0]] & on_line[mesh.edges[:, 1]]
        edge_tags[on_boundary & on_dirichlet] = DIRICHLET
        edge_tags[on_boundary & ~on_dirichlet] = NEUMANN

    vertex_tags = _vertex_tags_from_edges(mesh.n_vertices, mesh.edges, edge_tags)
    return replace(mesh, edge_tags=edge_tags, vertex_tags=vertex_tags)

