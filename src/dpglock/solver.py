"""Static condensation, global sparse assembly, linear solve, energy residual.

Each element contributes normal equations S = B^T G^-1 B obtained by solving
with the Cholesky factor of its test Gram matrix; assembling S over the free
trial unknowns and solving the resulting SPD system is the minimum-residual
scheme, and the element residuals measured through G^-1 give the energy error
estimator exactly.  Congruent elements share G and B, so factorizations and
solves run once per congruence class, batched over the class's elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve, cholesky
from scipy.sparse.linalg import cg, splu

DIRECT_SOLVE_LIMIT = 200_000
SOLVE_TOLERANCE = 1e-10


class SolverError(RuntimeError):
    """Numerical failure during condensation or the global solve."""


class NotSPDError(SolverError):
    """A matrix required to be symmetric positive definite is not."""


@dataclass(frozen=True)
class Condensed:
    """Element normal equations of a mesh, stored once per congruence class.

    Elements equal up to translation share the test Gram matrix G and the
    trial-to-test matrix B; only their loads differ.
    """

    chol: np.ndarray   # (nc, n_test, n_test) lower Cholesky factors of G
    b: np.ndarray      # (nc, n_test, n_trial)
    schur: np.ndarray  # (nc, n_trial, n_trial) B^T G^-1 B
    cls: np.ndarray    # (nt,) congruence class of each element
    load: np.ndarray   # (nt, n_test)
    rhs: np.ndarray    # (nt, n_trial) B^T G^-1 l


def condense_local(gram: np.ndarray, b: np.ndarray):
    """Cholesky factor of one element's G and its normal matrix B^T G^-1 B."""
    try:
        chol = cholesky(gram, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotSPDError(f"element Gram matrix is not SPD: {exc}") from exc
    schur = b.T @ cho_solve((chol, True), b, check_finite=False)
    return chol, 0.5 * (schur + schur.T)


def condense_rhs(chol: np.ndarray, b: np.ndarray, cls: np.ndarray,
                 load: np.ndarray) -> np.ndarray:
    """Right sides B^T G^-1 l of all elements, one batched solve per class."""
    rhs = np.empty((len(cls), b.shape[2]))
    for c in range(len(chol)):
        sel = cls == c
        rhs[sel] = cho_solve((chol[c], True), load[sel].T, check_finite=False).T @ b[c]
    return rhs


def condense(gram: np.ndarray, b: np.ndarray, cls: np.ndarray,
             load: np.ndarray) -> Condensed:
    """Condensed systems of a mesh from the (nc, ...) stacks of per-class G
    and B, the class of each element, and the (nt, n_test) element loads."""
    chol, schur = map(np.stack, zip(*map(condense_local, gram, b)))
    return Condensed(chol, b, schur, cls, load, condense_rhs(chol, b, cls, load))


@dataclass(frozen=True)
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray


def assemble_global(dofs: np.ndarray, n: int, cond: Condensed) -> GlobalSystem:
    """Sum the element normal equations over the n free unknowns, given the
    (nt, n_trial) global index of every element's trial slots.

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


def solve_spd(gs: GlobalSystem) -> np.ndarray:
    """Solve the assembled SPD system.

    Direct sparse factorization with iterative refinement up to
    DIRECT_SOLVE_LIMIT unknowns, diagonally preconditioned conjugate
    gradients beyond; both are deterministic.  A solution is accepted when
    the residual relative to the right side reaches 1e-10, or when the
    normwise backward error |r| / (|A| |x| + |b|) reaches machine level: on
    systems with strong cancellation (|A||x| >> |b|, the signature of the
    unscaled norm on large domains) the former has a double-precision floor
    above 1e-10 while the latter certifies the solve is as accurate as the
    arithmetic permits.
    """
    a, b = gs.matrix, gs.rhs
    n = a.shape[0]
    norm_b = np.linalg.norm(b)
    if n <= DIRECT_SOLVE_LIMIT:
        try:
            lu = splu(a.tocsc())
            x = lu.solve(b)
        except RuntimeError as exc:
            raise SolverError(f"direct factorization failed: {exc}") from exc
        for _ in range(3):
            r = b - a @ x
            if norm_b == 0.0 or np.linalg.norm(r) <= SOLVE_TOLERANCE * norm_b:
                break
            x = x + lu.solve(r)
    else:
        diag = a.diagonal()
        if (diag <= 0).any():
            raise NotSPDError("global matrix has nonpositive diagonal entries")
        precond = sp.diags(1.0 / diag)
        x, info = cg(a, b, rtol=1e-12, atol=0.0, maxiter=10 * n, M=precond)
        if info > 0:
            raise SolverError(f"conjugate gradients hit the iteration cap ({info})")
        if info < 0:
            raise SolverError("conjugate gradients broke down")
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
