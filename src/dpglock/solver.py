"""Static condensation, the global trace system, linear solve, energy residual.

Each element contributes normal equations S = B^T G^-1 B; the sum of S over
the free trial unknowns is the SPD system of the minimum-residual scheme, and
the element residuals measured through G^-1 give the energy error estimator
exactly.  With the Cholesky factor G = L L^T both are computed in whitened
form: C = L^-1 B gives S = C^T C, the whitened load z = L^-1 l gives the
right side C^T z, and eta_T^2 = |z - C x|^2.  z is never held for the
mesh: the load is nonzero only on its leading (scalar) test rows, which are
kept, and z is rebuilt one class at a time where it is used (whiten).  The
piecewise-constant field unknowns couple only inside their own element, so
they are eliminated element by element (static condensation): the global
system holds the traces alone, with matrix the sum of the trace Schur
complements S_tt - S_tf S_ff^-1 S_ft, and the fields are recovered from the
solved traces afterwards.  B is built in the element's outward orientation,
so congruent elements share G and B; factorizations run once per congruence
class and every per-element product is one matrix product per class
(by_class).  The trace system is factored by the same dense elimination
(eliminate) one level up (TreeFactor), by nested dissection along the
refinement tree and then over the coarse mesh.  The full trace matrix is
never summed for the solve: its products A x, for the refinement residuals,
go through the class Schur complements (GlobalSystem.apply), and the
backward error that certifies the solve is scaled by a lower bound on |A|_2
from the same blocks (solve_spd).
A study runs numpy's BLAS on one thread (one_blas_thread).
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import scipy  # scipy.sparse loads on first use, for the readers of GlobalSystem.matrix

SOLVE_TOLERANCE = 1e-10


class SolverError(RuntimeError):
    """Numerical failure during condensation or the global solve."""


class NotSPDError(SolverError):
    """A matrix required to be symmetric positive definite is not."""


@dataclass(frozen=True)
class Condensed:
    """Element normal equations of a mesh with the fields eliminated, stored
    once per congruence class.

    Elements equal up to translation share the test Gram matrix G = L L^T
    and the whitened trial-to-test matrix C = L^-1 B of their class, both in
    the element's outward orientation; sign holds the mesh's edge
    orientation signs on the orientation-odd trace slots.  The first
    n_field local trial slots are the fields f, the rest the traces t.  Given
    the element's traces x_t (in the mesh orientation), its fields are
    field - lift (sign x_t).  The whitened load z = L^-1 l is not held: load
    keeps the leading, nonzero columns of l, and whiten rebuilds z per class.
    """

    c: np.ndarray      # (nc, n_test, n_trial) L^-1 B
    schur: np.ndarray  # (nc, n_trace, n_trace) S_tt - S_tf S_ff^-1 S_ft, S = C^T C
    lift: np.ndarray   # (nc, n_field, n_trace) S_ff^-1 S_ft
    cls: np.ndarray    # (nt,) congruence class of each element
    sign: np.ndarray   # (nt, n_trace) int8 +-1, the mesh orientation of each trace slot
    linv: np.ndarray   # (nc, n_test, n_test) L^-1
    load: np.ndarray   # (nt, n_load) the leading columns of l, zero beyond them
    field: np.ndarray  # (nt, n_field) S_ff^-1 r_f, with r = C^T z
    rhs: np.ndarray    # (nt, n_trace) sign (r_t - S_tf S_ff^-1 r_f)


@cache
def numpy_openblas():
    """numpy's OpenBLAS through ctypes, or None: the ILP64 scipy-openblas that numpy's
    Linux and Windows wheels bundle in site-packages/numpy.libs and load with numpy."""
    libs = Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*")
    return next((ctypes.CDLL(str(path)) for path in libs), None)


@contextmanager
def one_blas_thread():
    """Runs the block with numpy's OpenBLAS on one thread and restores the previous count
    however the block ends.  On one thread, BLAS and LAPACK split their sums one way, so
    the results do not depend on the core count or on OPENBLAS_NUM_THREADS, and no idle
    worker spins on another core between the many mid-sized calls.  Where numpy has no
    such library (numpy_openblas() is None: another BLAS or another layout, such as the
    macOS wheels' numpy/.dylibs), it does nothing."""
    lib = numpy_openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def inverse_factor(a: np.ndarray, what: str) -> np.ndarray:
    """L^-1 for the Cholesky factor L (A = L L^T) of every matrix A of an
    SPD (..., n, n) stack; a matrix that is not SPD raises NotSPDError."""
    try:
        return np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"{what} is not SPD: {exc}") from exc


def eliminate(m: np.ndarray, ni: int, what: str):
    """Elimination of the first ni unknowns of every exactly symmetric matrix M
    of a (..., n, n) stack: [L^-1 | L^-1 M_IB] for the Cholesky factor L of
    M_II, written into one array, and the Schur complement M_BB - W^T W,
    W = L^-1 M_IB, formed in place.  W^T W is exactly symmetric (numpy's
    product of an operand with its own transpose gives (i, j) and (j, i) the
    same sum), so the Schur complement is too."""
    op = np.empty((*m.shape[:-2], ni, m.shape[-1]))
    op[..., :ni] = inverse_factor(m[..., :ni, :ni], what)
    w = np.matmul(op[..., :ni], m[..., :ni, ni:], out=op[..., ni:])
    s = w.swapaxes(-1, -2) @ w
    np.subtract(m[..., ni:, ni:], s, out=s)
    return op, s


def condense_local(gram: np.ndarray, b: np.ndarray, n_field: int):
    """Whitening and condensed normal equations of an element, or of a
    stack of them: L^-1 for the Cholesky factor L of G, C = L^-1 B, the
    operator [S_ff^-1 | S_ff^-1 S_ft] that eliminates the field block of
    S = C^T C (exactly symmetric, as eliminate takes it), and the trace
    Schur complement S_tt - S_tf S_ff^-1 S_ft."""
    linv = inverse_factor(gram, "element Gram matrix")
    c = linv @ b
    s = c.swapaxes(-1, -2) @ c
    factor, schur = eliminate(s, n_field, "element field block")
    return linv, c, factor[..., :n_field].swapaxes(-1, -2) @ factor, schur


def class_rows(cls: np.ndarray, n_classes: int):
    """(k, rows) for each class k < n_classes: the elements of class k, as
    indices, resolved once (a boolean mask is resolved at each use)."""
    return ((k, np.flatnonzero(cls == k)) for k in range(n_classes))


def by_class(cls: np.ndarray, x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Row t of the (nt, n) stack x times blocks[cls[t]], the (nc, n, m)
    matrix of its class, by one matrix product per class."""
    out = np.empty((len(cls), blocks.shape[-1]))
    for k, sel in class_rows(cls, len(blocks)):
        out[sel] = x[sel] @ blocks[k]
    return out


def whiten(load: np.ndarray, linv: np.ndarray, k: int, sel: np.ndarray) -> np.ndarray:
    """z = L^-1 l of the elements sel of class k: their loads, the leading
    columns of l, zero-padded to the n_test rows of L^-1, times L^-T."""
    padded = np.zeros((len(sel), linv.shape[-1]))
    padded[:, :load.shape[1]] = load[sel]
    return padded @ linv[k].T


def condense_rhs(linv: np.ndarray, c: np.ndarray, op: np.ndarray,
                 cls: np.ndarray, sign: np.ndarray, load: np.ndarray):
    """Field parts S_ff^-1 r_f and signed trace right sides
    sign (r_t - S_tf S_ff^-1 r_f) of all elements, r = C^T z with the whitened
    loads z = L^-1 l, in one pass per class: the products of by_class, with
    no full-length z or r."""
    n_field = op.shape[1]
    field, rhs = (np.empty((len(cls), n)) for n in (n_field, op.shape[2] - n_field))
    for k, sel in class_rows(cls, len(c)):
        r = whiten(load, linv, k, sel) @ c[k]
        g = r[:, :n_field] @ op[k]
        field[sel] = g[:, :n_field]
        rhs[sel] = (r[:, n_field:] - g[:, n_field:]) * sign[sel]
        del r, g  # before the next class's loads are gathered
    return field, rhs


def condense(elements, cls: np.ndarray, sign: np.ndarray, n_field: int) -> Condensed:
    """Condensed systems of a mesh from elements(), which builds the (nc, ...)
    stacks of per-class G and B and the (nt, n_load) element loads (the
    leading columns of l, n_load <= n_test), the class of each element, the
    (nt, n_trace) mesh orientation signs of each element's trace slots and
    the number of field slots.

    Element systems that overflow (data of magnitude near the float64 limit),
    as built or as condensed, raise SolverError here, without numpy warnings
    and before a non-finite matrix reaches the global solve."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram, b, load = elements()
        linv, c, op, schur = condense_local(gram, b, n_field)
        field, rhs = condense_rhs(linv, c, op, cls, sign, load)
    if not all(np.isfinite(a).all() for a in (schur, field, rhs)):
        raise SolverError("element systems overflowed: their condensed "
                          "matrices or right sides are not finite")
    return Condensed(c, schur, op[..., n_field:], cls, sign, linv, load, field, rhs)


@dataclass(frozen=True)
class GlobalSystem:
    """The SPD system A x = rhs over n = len(rhs) unknowns, A the sum of
    symmetric dense blocks: block m is blocks[cls[m]] with the rows and
    columns of its slots turned by sign[m] and placed at dofs[m] (-1 slots
    are dropped).  A is applied block by block; the sparse matrix is summed
    only when something reads it."""

    dofs: np.ndarray    # (m, k) unknown of every block slot, -1 for none
    blocks: np.ndarray  # (nc, k, k) symmetric block of each class
    cls: np.ndarray     # (m,) class of each block
    sign: np.ndarray    # (m, k) +-1 of each block slot
    rhs: np.ndarray     # (n,)

    @cached_property
    def matrix(self) -> scipy.sparse.csc_matrix:
        return sum_blocks(self.dofs, len(self.rhs), self.blocks[self.cls], self.sign)

    def local(self, x: np.ndarray) -> np.ndarray:
        """(m, k) signed values of x on every block's slots, 0 on -1 slots."""
        out = gather_local(self.dofs, x)
        out *= self.sign
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x: gather, one product per class, sum."""
        y = by_class(self.cls, self.local(x), self.blocks.swapaxes(-1, -2))
        y *= self.sign
        return scatter(self.dofs, y, len(self.rhs))

    def diagonal(self) -> np.ndarray:
        """The diagonal of A, the sum of the class diagonals (sign^2 = 1)."""
        return scatter(self.dofs, np.diagonal(self.blocks, axis1=1, axis2=2)[self.cls],
                       len(self.rhs))


def sum_blocks(dofs: np.ndarray, n: int, blocks: np.ndarray, sign: np.ndarray):
    """Sum of the (m, k, k) symmetric dense blocks over n unknowns, given
    the (m, k) index of each block's slots (-1 slots are dropped) and the
    (m, k) signs that turn its rows and columns (in place)."""
    blocks *= sign[:, :, None]
    blocks *= sign[:, None, :]
    rows = np.broadcast_to(dofs[:, :, None], blocks.shape)
    cols = np.broadcast_to(dofs[:, None, :], blocks.shape)
    keep = (rows >= 0) & (cols >= 0)
    return scipy.sparse.coo_matrix((blocks[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsc()


def assemble_global(dofs: np.ndarray, n: int, cond: Condensed) -> GlobalSystem:
    """The sum of the element trace systems over the n free trace unknowns,
    given the (nt, n_trial - n_field) global index of every element's trace
    slots (DofMap.all_element_dofs).  Each element's Schur complement is its
    class's with the rows and columns of its flipped trace slots negated.
    The right side is summed here, the matrix only when it is read
    (GlobalSystem.matrix).

    Constrained slots are marked -1 and simply dropped, which imposes the
    (homogeneous) essential conditions.
    """
    if dofs.max() >= n:
        raise IndexError("dof map addresses beyond the free unknown count")
    return GlobalSystem(dofs, cond.schur, cond.cls, cond.sign, scatter(dofs, cond.rhs, n))


def solve_spd(gs: GlobalSystem, *, factor) -> np.ndarray:
    """Solve the SPD system by the factor that factor(gs) returns (anything
    with a solve method, such as a TreeFactor of the elements that sum to
    the matrix), with up to three steps of iterative refinement on
    residuals b - A x from gs.apply.

    A solution is accepted when the residual relative to the right side
    reaches 1e-10, or when the normwise backward error reaches machine
    level: on systems with strong cancellation (|A||x| >> |b|, the signature
    of the unscaled norm on large domains) the former has a double-precision
    floor above 1e-10 while the latter certifies the solve is as accurate as
    the arithmetic permits.  The backward error of Rigal and Gaches,
    |r| / (|A| |x| + |b|) in the 2-norm, is the smallest relative change of
    A and b that x solves exactly; any lower bound on |A|_2 in its place
    bounds it from above.  For SPD A, both the largest diagonal entry and
    |A x| / |x| lie below lambda_max = |A|_2 <= |A|_inf, so their maximum
    yields a test that every accepted x would also pass with |A|_2 or with
    the row sums of |A|, and it is computed without assembling A.
    A residual above |b| is never accepted: x = 0 would do better, and a
    huge |x| can meet the backward error test with any residual.
    Definiteness is the factor's to check: TreeFactor takes checked
    Cholesky factors only.
    """
    b = gs.rhs
    norm_b = np.linalg.norm(b)
    lu = factor(gs)
    x = lu.solve(b)
    ax = gs.apply(x)
    for _ in range(3):
        r = b - ax
        if norm_b == 0.0 or np.linalg.norm(r) <= SOLVE_TOLERANCE * norm_b:
            break
        x = x + lu.solve(r)
        ax = gs.apply(x)
    residual = np.linalg.norm(ax - b)
    scale = backward_scale(gs, x, ax)
    # written so that a NaN residual, scale or right side fails the test
    if not (residual <= norm_b
            and (residual <= SOLVE_TOLERANCE * norm_b or residual <= 1e-14 * scale)):
        raise SolverError(
            f"solve reached relative residual {residual / norm_b:.2e} "
            f"(backward error {residual / scale:.2e}) only")
    return x


def backward_scale(gs: GlobalSystem, x: np.ndarray, ax: np.ndarray) -> float:
    """max(max_i A_ii, |A x| / |x|) |x| + |b|, the denominator of the
    backward error that solve_spd certifies, given ax = A x."""
    return (max(gs.diagonal().max(initial=0.0) * np.linalg.norm(x), np.linalg.norm(ax))
            + np.linalg.norm(gs.rhs))


class TreeFactor:
    """Factor of a mesh's trace system gs, the sum of its elements' blocks
    (assemble_global), by nested dissection along the refinement tree, once
    per patch class, then over the coarse mesh.

    On a mesh refined d times (Mesh.depth), the triangles r + m n with
    m < 4^h and n = nt / 4^h form the height-h patch under triangle r of the
    mesh h refinements coarser.  Triangle r is that triangle scaled down
    (refine_uniform), so the patch's shape class is cls[r].  The four
    children of a patch leave Schur complements on their boundary traces.
    The patches of a class share local numbering and matrices up to a +-1
    per local trace, as elements do in gs.sign.  No interior trace touches
    the domain boundary, so constrained slots ride along to the coarse
    skeleton, the boundaries of the coarse mesh's triangles, in the blocks
    of their bisection.
    The heights and the coarse blocks go through one merge step (merge) and
    differ only in how they lay out their parts and in their inside rule.
    At a height, a patch's merged traces strictly inside its triangle are
    the ones two children list (one or three list a boundary trace), and
    they are eliminated by one checked Cholesky factor per class.  A coarse
    block eliminates, as a one-patch step, the free traces that no triangle
    outside it touches.  Either leaves a Schur complement on the boundary.
    solve takes right sides up the steps by L^-1 and traces down by L^-T, as
    matrix products over each step's patches; the explicit M_II^-1 of an
    ill-conditioned coarse block would raise the backward error 1000-fold.

    A factor holds the free-slot mask free (the dof map numbers the free
    slots 0 ... n_trace - 1 in slot order, so they are the unknowns in
    order) and steps: per step,
    the interior and boundary slots of its patches as int32, their +-1 signs
    as int8, and its [L^-1 | L^-1 M_IB].
    No object of the factor or of its construction refers to itself, so
    reference counting frees the factor once solve_condensed returns, and
    a level holds no earlier level's factor.
    """

    def __init__(self, mesh, dofmap, gs: GlobalSystem):
        # ids are int32 trace slots (DofMap.element_slots), signs int8 (Condensed.sign)
        nt = mesh.n_triangles
        self.free = dofmap.slot_values(dofmap.vertex, dofmap.edge) >= 0
        ids = dofmap.element_slots(mesh)
        cls, sign, schur = gs.cls, gs.sign, dict(enumerate(gs.blocks))
        # steps, in elimination order (one per height and class, then one per
        # coarse block): interior slots, signs, boundary slots, signs of its
        # patches and [L^-1 | L^-1 M_IB] for their interior block M_II = L L^T
        self.steps = []
        for h in range(1, mesh.depth + 1):
            n, nb = nt >> 2 * h, ids.shape[1]
            cat, cat_sign = (a.reshape(4, n, nb).transpose(1, 0, 2).reshape(n, 4 * nb)
                             for a in (ids, sign))
            ids, sign, schur = self.merge(
                cat, cat_sign, cls[:n], lambda r: [schur[cls[r + k * n]] for k in range(4)],
                lambda slots, count: count == 2,
                lambda c: f"interior block of height {h}, class {c}")
        free = self.free[ids]
        touches = np.bincount(ids[free], minlength=len(self.free))
        centroid = mesh.vertices[mesh.triangles].mean(axis=1).reshape(-1, len(ids), 2).mean(axis=0)
        done = []  # per block factored and not yet joined: (slots, signs, matrix) parts
        for tris in bisection(centroid, np.arange(len(ids))):
            if len(tris) == 1:
                r, keep = tris[0], free[tris[0]]
                parts = [(ids[r, keep], sign[r, keep], schur[cls[r]][np.ix_(keep, keep)])]
            else:
                right = done.pop()
                parts = done.pop() + right
            slots, signs, blocks = zip(*parts)
            touched, count = np.unique(ids[tris][free[tris]], return_counts=True)
            x, y = centroid[tris].mean(axis=0)
            up = self.merge(
                np.concatenate(slots)[None], np.concatenate(signs)[None], np.zeros(1, int),
                lambda r: blocks, lambda u, _: count[np.searchsorted(touched, u)] == touches[u],
                lambda _: f"coarse block of {len(tris)} triangles at ({x:.3g}, {y:.3g})")
            done.append(parts if up is None else [(up[0][0], up[1][0], up[2][0])])

    def merge(self, slots, signs, group, blocks, inside, what):
        """Merge and elimination of the parts listed by each row of the
        (rows, k) slots and signs: row r's parts are the matrices blocks(r),
        in turn on the next len(block) of its slots and signs.  Row 0 numbers
        the merged slots, with the ones that inside(slots, count) marks first
        (count: how many of row 0's part slots list each).  The rows of a
        group share their matrices up to the signs, so the sum of the first
        row's parts, signed relative to the merged signs (those of the first
        part listing each slot), is eliminated once per group and appended
        as one step for the group's rows.  Returns the rows' outer slots and
        signs and {group: Schur complement}, or None, and no step, when
        nothing is inside."""
        u, first, inv, count = np.unique(slots[0], return_index=True, return_inverse=True,
                                         return_counts=True)
        inner = inside(u, count)
        if not inner.any():
            return None
        order, ni = np.argsort(~inner, kind="stable"), inner.sum()
        pos = np.argsort(order)[inv]  # merged position of every part slot
        merged, merged_sign, schur = slots[:, first[order]], signs[:, first[order]], {}
        for g in np.flatnonzero(np.bincount(group)):  # np.unique would import numpy.ma
            sel = np.flatnonzero(group == g)
            parts = blocks(sel[0])
            cuts = np.cumsum([len(block) for block in parts[:-1]])
            rel = signs[sel[0]] * merged_sign[sel[0], pos]  # of the group's first row
            m = np.zeros((len(u), len(u)))
            for p, r, block in zip(np.split(pos, cuts), np.split(rel, cuts), parts):
                for i in range(0, len(p), 256):  # by 256 rows: no part-sized temporary
                    rows = slice(i, i + 256)
                    m[np.ix_(p[rows], p)] += r[rows, None] * block[rows] * r
            op, schur[g] = eliminate(m, ni, what(g))
            self.steps.append((merged[sel, :ni], merged_sign[sel, :ni],
                               merged[sel, ni:], merged_sign[sel, ni:], op))
        return merged[:, ni:], merged_sign[:, ni:], schur

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The traces x with A x = b, A the sum of the element systems."""
        w = np.zeros(len(self.free))
        w[self.free] = b
        y = []  # L^-1 f_I of every patch, f_I its interior right side
        for inner, inner_sign, outer, outer_sign, k in self.steps:
            y.append((w[inner] * inner_sign) @ k[:, :len(k)].T)
            w -= np.bincount(outer.ravel(), (y[-1] @ k[:, len(k):] * outer_sign).ravel(), len(w))
        xs = np.zeros(len(self.free))
        for inner, inner_sign, outer, outer_sign, k in reversed(self.steps):
            z = y.pop() - (xs[outer] * outer_sign) @ k[:, len(k):].T
            xs[inner] = z @ k[:, :len(k)] * inner_sign
        return xs[self.free]


def bisection(centroid: np.ndarray, tris: np.ndarray) -> list:
    """The blocks of the recursive bisection of the triangles tris at the
    median of their centroids along the wider axis, down to one triangle,
    each block after the two halves that it joins."""
    if len(tris) == 1:
        return [tris]
    axis = np.ptp(centroid[tris], axis=0).argmax()
    half = tris[np.argsort(centroid[tris, axis], kind="stable")]
    return (bisection(centroid, half[:len(half) // 2]) + bisection(centroid, half[len(half) // 2:])
            + [tris])


def solve_condensed(mesh, dofmap, cond: Condensed):
    """(fields, traces, local): the dofmap.n_trace traces of the mesh's trace
    system, solved by its TreeFactor, the (nt, n_field) fields of every
    element from its traces, and the (nt, n_trace) traces of every element
    in its slots, signed (GlobalSystem.local)."""
    gs = assemble_global(dofmap.all_element_dofs(mesh), dofmap.n_trace, cond)
    traces = solve_spd(gs, factor=lambda gs: TreeFactor(mesh, dofmap, gs))
    local = gs.local(traces)
    return cond.field - by_class(cond.cls, local, cond.lift.swapaxes(-1, -2)), traces, local


def gather_local(dofs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Local coefficient vector with constrained slots set to zero, in one array."""
    out = x[np.maximum(dofs, 0)]
    out[dofs < 0] = 0.0
    return out


def scatter(dofs: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum of the local values over the n unknowns; -1 slots are dropped."""
    keep = dofs >= 0
    return np.bincount(dofs[keep], values[keep], minlength=n)


def energy_residual(cond: Condensed, fields: np.ndarray, local: np.ndarray):
    """Per-element and global energy error: eta_T^2 = r^T G^-1 r with
    r = l - B x, x the element's fields and its signed traces local (as
    solve_condensed returns them), computed as |z - C x|^2 one class at a
    time, z rebuilt by whiten."""
    eta_sq = np.empty(len(cond.cls))
    for k, sel in class_rows(cond.cls, len(cond.c)):
        r = whiten(cond.load, cond.linv, k, sel)
        r -= np.hstack([fields[sel], local[sel]]) @ cond.c[k].T
        eta_sq[sel] = np.einsum("ti,ti->t", r, r)
        del r  # before the next class's loads are gathered
    return np.sqrt(eta_sq), float(np.sqrt(eta_sq.sum()))
