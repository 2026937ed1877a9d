"""Static condensation, global sparse assembly, linear solve, energy residual.

Each element contributes normal equations S = B^T G^-1 B obtained by solving
with the Cholesky factor of its test Gram matrix; the sum of S over the free
trial unknowns is the SPD system of the minimum-residual scheme, and the
element residuals measured through G^-1 give the energy error estimator
exactly.  The piecewise-constant field unknowns couple only inside their own
element, so they are eliminated element by element (static condensation):
the global system holds the traces alone, with matrix the sum of the trace
Schur complements S_tt - S_tf S_ff^-1 S_ft, and the fields are recovered
from the solved traces afterwards.  Congruent elements share G and B, so
factorizations and solves run once per congruence class, batched over the
class's elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve, cholesky
from scipy.sparse.linalg import splu

SOLVE_TOLERANCE = 1e-10


class SolverError(RuntimeError):
    """Numerical failure during condensation or the global solve."""


class NotSPDError(SolverError):
    """A matrix required to be symmetric positive definite is not."""


@dataclass(frozen=True)
class Condensed:
    """Element normal equations of a mesh with the fields eliminated, stored
    once per congruence class.

    Elements equal up to translation share the test Gram matrix G and the
    trial-to-test matrix B; only their loads differ.  The first n_field
    local trial slots are the fields f, the rest the traces t.  Given the
    element's traces x_t, its fields are field - lift x_t.
    """

    chol: np.ndarray   # (nc, n_test, n_test) lower Cholesky factors of G
    b: np.ndarray      # (nc, n_test, n_trial)
    schur: np.ndarray  # (nc, n_trace, n_trace) S_tt - S_tf S_ff^-1 S_ft
    lift: np.ndarray   # (nc, n_field, n_trace) S_ff^-1 S_ft
    cls: np.ndarray    # (nt,) congruence class of each element
    load: np.ndarray   # (nt, n_test)
    field: np.ndarray  # (nt, n_field) S_ff^-1 r_f, with r = B^T G^-1 l
    rhs: np.ndarray    # (nt, n_trace) r_t - S_tf S_ff^-1 r_f


def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    try:
        return cholesky(a, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotSPDError(f"{what} is not SPD: {exc}") from exc


def condense_local(gram: np.ndarray, b: np.ndarray, n_field: int):
    """Cholesky factors of one element's G and of the field block S_ff of
    its normal matrix S = B^T G^-1 B, the lift S_ff^-1 S_ft and the trace
    Schur complement S_tt - S_tf S_ff^-1 S_ft."""
    chol = _cholesky(gram, "element Gram matrix")
    s = b.T @ cho_solve((chol, True), b, check_finite=False)
    s = 0.5 * (s + s.T)
    ff = _cholesky(s[:n_field, :n_field], "element field block")
    lift = cho_solve((ff, True), s[:n_field, n_field:], check_finite=False)
    schur = s[n_field:, n_field:] - s[n_field:, :n_field] @ lift
    return chol, ff, lift, 0.5 * (schur + schur.T)


def condense_rhs(chol: np.ndarray, b: np.ndarray, ff: np.ndarray, lift: np.ndarray,
                 cls: np.ndarray, load: np.ndarray):
    """Field parts S_ff^-1 r_f and trace right sides r_t - S_tf S_ff^-1 r_f
    of all elements, r = B^T G^-1 l, with one batched solve per class."""
    n_field = lift.shape[1]
    field = np.empty((len(cls), n_field))
    rhs = np.empty((len(cls), lift.shape[2]))
    for c in range(len(chol)):
        sel = cls == c
        r = cho_solve((chol[c], True), load[sel].T, check_finite=False).T @ b[c]
        field[sel] = cho_solve((ff[c], True), r[:, :n_field].T, check_finite=False).T
        rhs[sel] = r[:, n_field:] - r[:, :n_field] @ lift[c]
    return field, rhs


def condense(gram: np.ndarray, b: np.ndarray, cls: np.ndarray,
             load: np.ndarray, n_field: int) -> Condensed:
    """Condensed systems of a mesh from the (nc, ...) stacks of per-class G
    and B, the class of each element, the (nt, n_test) element loads and
    the number of field slots."""
    chol, ff, lift, schur = map(np.stack, zip(*(condense_local(g, bc, n_field)
                                                for g, bc in zip(gram, b))))
    field, rhs = condense_rhs(chol, b, ff, lift, cls, load)
    return Condensed(chol, b, schur, lift, cls, load, field, rhs)


@dataclass(frozen=True)
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray


def trace_dofs(dofs: np.ndarray, n_field: int) -> np.ndarray:
    """Index of every element's trace slots among the trace unknowns, from
    the (nt, n_trial) element-dof array whose n_field * nt field unknowns
    are numbered first; -1 where fixed."""
    traces = dofs[:, n_field:]
    return np.where(traces >= 0, traces - n_field * len(dofs), -1)


def assemble_global(dofs: np.ndarray, n: int, cond: Condensed) -> GlobalSystem:
    """Sum the element trace systems over the n free trace unknowns, given
    the (nt, n_trace) trace_dofs of every element.

    Constrained slots are marked -1 and simply dropped, which imposes the
    (homogeneous) essential conditions.
    """
    if dofs.max() >= n:
        raise IndexError("dof map addresses beyond the free unknown count")
    data = cond.schur[cond.cls]
    rows = np.broadcast_to(dofs[:, :, None], data.shape)
    cols = np.broadcast_to(dofs[:, None, :], data.shape)
    keep = (rows >= 0) & (cols >= 0)
    matrix = sp.coo_matrix((data[keep], (rows[keep], cols[keep])),
                           shape=(n, n)).tocsr()

    rhs = np.zeros(n)
    keep = dofs >= 0
    np.add.at(rhs, dofs[keep], cond.rhs[keep])
    return GlobalSystem(matrix, rhs)


def solve_condensed(dofs: np.ndarray, n_free: int, cond: Condensed) -> np.ndarray:
    """All n_free unknowns, given the (nt, n_trial) element-dof array: the
    traces from the assembled trace system, then the fields of every
    element from its traces."""
    n_field = cond.lift.shape[1]
    n_fields = n_field * len(dofs)  # numbered first
    traces = trace_dofs(dofs, n_field)
    x = np.empty(n_free)
    x[n_fields:] = solve_spd(assemble_global(traces, n_free - n_fields, cond))
    local = gather_local(traces, x[n_fields:])
    x[dofs[:, :n_field]] = cond.field - np.einsum("tfk,tk->tf", cond.lift[cond.cls], local)
    return x


def factor_spd(a: sp.spmatrix):
    """Sparse LU factor of an SPD matrix without pivoting.

    SuperLU in symmetric mode: the minimum-degree ordering of the structure
    of A + A^T permutes rows and columns alike, and only diagonal pivots are
    taken, which is stable for SPD matrices.  A singular matrix fails its
    factorization rather than being pivoted past, running out of memory
    raises SolverError, and a factor that had to pivot off the diagonal (an
    exactly zero diagonal entry) raises NotSPDError.

    Negative pivots are not checked: [[1, 2], [2, 1]] factors, and
    solve_spd returns (1, 0) for the right side (1, 2).  Every matrix the
    harness factors is a sum of element trace Schur complements, each of
    which condense_local certifies positive semidefinite through its
    Cholesky factors, so an indefinite global matrix can come only from
    round-off.  Reading the pivots through lu.U would copy the factor
    (+80-100 MB on the plate R10 top level) for a check that only round-off
    could trip.
    """
    try:
        # relax=1 turns off relaxed supernodes: their explicit zeros raise
        # the fill of some trace factors 3.6x and their factor time 8x
        lu = splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1,
                  diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except (RuntimeError, MemoryError) as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc
    if (lu.perm_r != lu.perm_c).any():
        raise NotSPDError("direct factorization pivoted off the diagonal")
    return lu


def solve_spd(gs: GlobalSystem) -> np.ndarray:
    """Solve the assembled SPD system by the no-pivoting sparse LU of
    factor_spd with up to three steps of iterative refinement.

    A solution is accepted when the residual relative to the right side
    reaches 1e-10, or when the normwise backward error
    |r| / (|A| |x| + |b|) reaches machine level: on systems with strong
    cancellation (|A||x| >> |b|, the signature of the unscaled norm on large
    domains) the former has a double-precision floor above 1e-10 while the
    latter certifies the solve is as accurate as the arithmetic permits.
    Neither looks at definiteness; factor_spd says why that is left
    unchecked.
    """
    a, b = gs.matrix, gs.rhs
    norm_b = np.linalg.norm(b)
    lu = factor_spd(a)
    x = lu.solve(b)
    for _ in range(3):
        r = b - a @ x
        if norm_b == 0.0 or np.linalg.norm(r) <= SOLVE_TOLERANCE * norm_b:
            break
        x = x + lu.solve(r)
    if norm_b > 0:
        residual = np.linalg.norm(a @ x - b)
        scale = abs(a).sum(axis=1).max() * np.linalg.norm(x) + norm_b
        if residual > SOLVE_TOLERANCE * norm_b and residual > 1e-14 * scale:
            raise SolverError(
                f"solve reached relative residual {residual / norm_b:.2e} "
                f"(backward error {residual / scale:.2e}) only")
    return x


def gather_local(dofs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Local coefficient vector with constrained slots set to zero."""
    out = np.where(dofs >= 0, x[np.maximum(dofs, 0)], 0.0)
    return out


def energy_residual(cond: Condensed, element_dofs: np.ndarray, x: np.ndarray):
    """Per-element and global energy error: eta_T^2 = r^T G^-1 r with
    r = l - B x restricted to the element."""
    local = gather_local(element_dofs, x)
    eta_sq = np.empty(len(cond.cls))
    for c in range(len(cond.chol)):
        sel = cond.cls == c
        r = cond.load[sel] - local[sel] @ cond.b[c].T
        ginv_r = cho_solve((cond.chol[c], True), r.T, check_finite=False)
        eta_sq[sel] = np.einsum("ti,it->t", r, ginv_r)
    eta_sq = np.maximum(eta_sq, 0.0)
    return np.sqrt(eta_sq), float(np.sqrt(eta_sq.sum()))
