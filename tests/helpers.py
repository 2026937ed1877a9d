"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's assembly code paths:
quadrature is an independently coded dense product rule, basis functions are
evaluated through their raw monomial coefficients, and derivatives are pushed
to physical coordinates with an explicitly inverted Jacobian.
"""

from dataclasses import replace

import numpy as np

from dpglock import fem_core as fc
from dpglock import mesh as msh
from dpglock import solver as slv
from dpglock import study_cli as sc


def dense_triangle_rule(n=16):
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    u, v = np.meshgrid(x, x)
    wu, wv = np.meshgrid(w, w)
    pts = np.column_stack([u.ravel(), (v * (1.0 - u)).ravel()])
    return pts, (wu * wv * (1.0 - u)).ravel()


def dense_edge_rule(n=12):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def mono_eval(powers, pts, dx=0, dy=0):
    """Raw monomial (derivative) values, one column per monomial."""
    out = np.empty((len(pts), len(powers)))
    for m, (a, b) in enumerate(powers):
        ca, aa = 1.0, a
        for _ in range(dx):
            ca, aa = ca * aa, aa - 1
        cb, bb = 1.0, b
        for _ in range(dy):
            cb, bb = cb * bb, bb - 1
        if aa < 0 or bb < 0 or ca == 0.0 or cb == 0.0:
            out[:, m] = 0.0
        else:
            out[:, m] = ca * cb * pts[:, 0] ** aa * pts[:, 1] ** bb
    return out


def expand_in_basis(basis, mono_vec):
    """Coefficients c with sum_i c_i basis_i = the polynomial given over monomials."""
    return np.linalg.solve(basis.coeffs.T, np.asarray(mono_vec, float))


def physical(amap, ref_pts):
    """Images of reference points under an element map."""
    return ref_pts @ amap.jac.T + amap.verts[0]


class ScalarTables:
    """Pointwise physical values/derivatives of one scalar reference basis."""

    def __init__(self, degree, amap, ref_pts):
        basis = fc.basis_p(degree, np.zeros((1, 2)))
        self.values = mono_eval(basis.powers, ref_pts) @ basis.coeffs.T
        gx = mono_eval(basis.powers, ref_pts, 1, 0) @ basis.coeffs.T
        gy = mono_eval(basis.powers, ref_pts, 0, 1) @ basis.coeffs.T
        hxx = mono_eval(basis.powers, ref_pts, 2, 0) @ basis.coeffs.T
        hxy = mono_eval(basis.powers, ref_pts, 1, 1) @ basis.coeffs.T
        hyy = mono_eval(basis.powers, ref_pts, 0, 2) @ basis.coeffs.T
        jinv = np.linalg.inv(amap.jac)
        self.dx = gx * jinv[0, 0] + gy * jinv[1, 0]
        self.dy = gx * jinv[0, 1] + gy * jinv[1, 1]
        a = jinv.T  # physical H = a @ H_ref @ a.T
        self.dxx = (a[0, 0] * (a[0, 0] * hxx + a[0, 1] * hxy)
                    + a[0, 1] * (a[0, 0] * hxy + a[0, 1] * hyy))
        self.dxy = (a[1, 0] * (a[0, 0] * hxx + a[0, 1] * hxy)
                    + a[1, 1] * (a[0, 0] * hxy + a[0, 1] * hyy))
        self.dyy = (a[1, 0] * (a[1, 0] * hxx + a[1, 1] * hxy)
                    + a[1, 1] * (a[1, 0] * hxy + a[1, 1] * hyy))


def poisson_gram_oracle(amap, d):
    """Dense naive assembly of the scaled 18x18 Poisson test Gram matrix."""
    pts, wts = dense_triangle_rule()
    w = wts * amap.det
    tab = ScalarTables(2, amap, pts)
    g = np.zeros((18, 18))
    for i in range(6):
        for j in range(6):
            g[i, j] = w @ (tab.values[:, i] * tab.values[:, j] / d ** 2
                           + tab.dx[:, i] * tab.dx[:, j]
                           + tab.dy[:, i] * tab.dy[:, j])
            mass = w @ (tab.values[:, i] * tab.values[:, j])
            g[6 + i, 6 + j] = mass + d ** 2 * (w @ (tab.dx[:, i] * tab.dx[:, j]))
            g[12 + i, 12 + j] = mass + d ** 2 * (w @ (tab.dy[:, i] * tab.dy[:, j]))
            g[6 + i, 12 + j] = d ** 2 * (w @ (tab.dx[:, i] * tab.dy[:, j]))
            g[12 + i, 6 + j] = d ** 2 * (w @ (tab.dy[:, i] * tab.dx[:, j]))
    return g


def plate_gram_oracle(amap, d):
    """Dense naive assembly of the scaled 55x55 plate test Gram matrix."""
    pts, wts = dense_triangle_rule()
    w = wts * amap.det
    t3 = ScalarTables(3, amap, pts)
    t4 = ScalarTables(4, amap, pts)
    g = np.zeros((55, 55))
    for i in range(10):
        for j in range(10):
            g[i, j] = w @ (t3.values[:, i] * t3.values[:, j] / d ** 4
                           + t3.dxx[:, i] * t3.dxx[:, j]
                           + 2 * t3.dxy[:, i] * t3.dxy[:, j]
                           + t3.dyy[:, i] * t3.dyy[:, j])
    # div div of the component tensors phi*e11, phi*e12(sym), phi*e22
    ddiv = (t4.dxx, 2.0 * t4.dxy, t4.dyy)
    comp_weight = (1.0, 2.0, 1.0)
    for ci in range(3):
        for cj in range(3):
            for i in range(15):
                for j in range(15):
                    val = d ** 4 * (w @ (ddiv[ci][:, i] * ddiv[cj][:, j]))
                    if ci == cj:
                        val += comp_weight[ci] * (w @ (t4.values[:, i] * t4.values[:, j]))
                    g[10 + 15 * ci + i, 10 + 15 * cj + j] = val
    return g


def poisson_consistency_residual(mesh, u, grad_u, f, gamma):
    """max_T max_i |b_T(exact fields and traces, test_i) - (f, test_i)_T|.

    The skeleton pairings are evaluated with the exact traces of u and grad u
    by quadrature, so a vanishing residual is the element-wise integration by
    parts identity for the ultraweak form.
    """
    vol_pts, vol_w = dense_triangle_rule()
    es, ew = dense_edge_rule()
    worst = 0.0
    for t in range(mesh.n_triangles):
        amap = fc.map_affine(mesh, t)
        tab = ScalarTables(2, amap, vol_pts)
        pts = physical(amap, vol_pts)
        w = vol_w * amap.det
        uu = u(pts[:, 0], pts[:, 1])
        gg = grad_u(pts[:, 0], pts[:, 1])
        ff = f(pts[:, 0], pts[:, 1])
        r = np.zeros(18)
        r[:6] = np.einsum("q,qi->i", w * (gamma * uu - ff), tab.values) \
            + np.einsum("q,qi->i", w * gg[:, 0], tab.dx) \
            + np.einsum("q,qi->i", w * gg[:, 1], tab.dy)
        r[6:12] = np.einsum("q,qi->i", w * uu, tab.dx) \
            + np.einsum("q,qi->i", w * gg[:, 0], tab.values)
        r[12:18] = np.einsum("q,qi->i", w * uu, tab.dy) \
            + np.einsum("q,qi->i", w * gg[:, 1], tab.values)
        for k in range(3):
            epts = physical(amap, fc.edge_ref_points(k, es))
            wl = ew * amap.edge_lengths[k]
            n = amap.edge_normals[k]
            ue = u(epts[:, 0], epts[:, 1])
            ge = grad_u(epts[:, 0], epts[:, 1])
            etab = ScalarTables(2, amap, fc.edge_ref_points(k, es))
            r[6:12] -= n[0] * np.einsum("q,qi->i", wl * ue, etab.values)
            r[12:18] -= n[1] * np.einsum("q,qi->i", wl * ue, etab.values)
            r[:6] -= np.einsum("q,qi->i", wl * (ge @ n), etab.values)
        worst = max(worst, np.abs(r).max())
    return worst


def plate_consistency_residual(mesh, u, grad_u, hess_u, div_m, f):
    """max_T max_i |b_T(exact fields and traces, test_i) - L_T(test_i)|.

    Uses the bending moments M = -hess(u), the load convention
    L(v, Q) = -(f, v), and evaluates both skeleton pairings with the exact
    traces (u, grad u) and (M n, n . div M) by quadrature; div_m is the
    analytic row-wise divergence of M.
    """
    vol_pts, vol_w = dense_triangle_rule()
    es, ew = dense_edge_rule()
    worst = 0.0
    for t in range(mesh.n_triangles):
        amap = fc.map_affine(mesh, t)
        t3 = ScalarTables(3, amap, vol_pts)
        t4 = ScalarTables(4, amap, vol_pts)
        pts = physical(amap, vol_pts)
        w = vol_w * amap.det
        uu = u(pts[:, 0], pts[:, 1])
        m = -hess_u(pts[:, 0], pts[:, 1])  # (nq, 3): xx, xy, yy
        ff = f(pts[:, 0], pts[:, 1])

        r = np.zeros(55)
        # (M, hess v)_T + (f, v)_T   [L(v) = -(f, v)]
        r[:10] = np.einsum("q,qi->i", w * m[:, 0], t3.dxx) \
            + 2 * np.einsum("q,qi->i", w * m[:, 1], t3.dxy) \
            + np.einsum("q,qi->i", w * m[:, 2], t3.dyy) \
            + np.einsum("q,qi->i", w * ff, t3.values)
        # (M, Q)_T + (u, div div Q)_T for the three symmetric components
        ddiv = (t4.dxx, 2.0 * t4.dxy, t4.dyy)
        comp_weight = (1.0, 2.0, 1.0)
        for c in range(3):
            sl = slice(10 + 15 * c, 25 + 15 * c)
            r[sl] = comp_weight[c] * np.einsum("q,qi->i", w * m[:, c], t4.values) \
                + np.einsum("q,qi->i", w * uu, ddiv[c])

        for k in range(3):
            ref_e = fc.edge_ref_points(k, es)
            epts = physical(amap, ref_e)
            wl = ew * amap.edge_lengths[k]
            n = amap.edge_normals[k]
            tg = amap.edge_tangents[k]
            x, y = epts[:, 0], epts[:, 1]
            ue = u(x, y)
            ge = grad_u(x, y)
            me = -hess_u(x, y)
            e4 = ScalarTables(4, amap, ref_e)
            e3 = ScalarTables(3, amap, ref_e)

            # -<uhat, Q>: -int u (n . div Q) - (n.Qn) dn_u - (t.Qn) dt_u with
            # div Q per component: e11 -> (phi_x, 0); e12 -> (phi_y, phi_x); e22 -> (0, phi_y)
            dn_u = ge @ n
            dt_u = ge @ tg
            div_q = (np.stack([e4.dx, np.zeros_like(e4.dx)], 2),
                     np.stack([e4.dy, e4.dx], 2),
                     np.stack([np.zeros_like(e4.dy), e4.dy], 2))
            nqn_c = (n[0] * n[0], 2 * n[0] * n[1], n[1] * n[1])
            tqn_c = (tg[0] * n[0], tg[0] * n[1] + tg[1] * n[0], tg[1] * n[1])
            for c in range(3):
                sl = slice(10 + 15 * c, 25 + 15 * c)
                ndiv = div_q[c] @ n
                r[sl] -= np.einsum("q,qi->i", wl * ue, ndiv)
                r[sl] += nqn_c[c] * np.einsum("q,qi->i", wl * dn_u, e4.values)
                r[sl] += tqn_c[c] * np.einsum("q,qi->i", wl * dt_u, e4.values)

            # +<mhat, v>: int v (n . div M) - (grad v) . (M n), exact M
            dme = div_m(x, y)
            mn = np.stack([me[:, 0] * n[0] + me[:, 1] * n[1],
                           me[:, 1] * n[0] + me[:, 2] * n[1]], axis=1)
            r[:10] += np.einsum("q,qi->i", wl * (dme @ n), e3.values)
            r[:10] -= np.einsum("q,qi->i", wl * mn[:, 0], e3.dx)
            r[:10] -= np.einsum("q,qi->i", wl * mn[:, 1], e3.dy)
        worst = max(worst, np.abs(r).max())
    return worst


def pointwise(fn):
    """The point values sum c X Y of a function fn(x, y) of separable terms
    (c, X, Y), as a callable of the points (x, y)."""
    return lambda x, y: sum(c * (fx * fy) for c, fx, fy in fn(x, y))


def exact_u_grad_hess(exact):
    """u, grad u (..., 2) and the (xx, xy, yy) Hessian (..., 3) of a
    manufactured solution, as callables of the points (x, y) built on
    exact.du, whose terms are one per derivative."""
    def derivatives(*orders):
        return lambda x, y: np.stack([c * (fx * fy) for c, fx, fy in exact.du(x, y, *orders)],
                                     axis=-1)

    return (pointwise(lambda x, y: exact.du(x, y, (0, 0))),
            derivatives((1, 0), (0, 1)), derivatives((2, 0), (1, 1), (0, 2)))


def permuted(cond, order):
    """The same condensed systems with the elements taken in the given order."""
    return replace(cond, cls=cond.cls[order], sign=cond.sign[order], load=cond.load[order],
                   field=cond.field[order], rhs=cond.rhs[order])


def full_load(load, n_test):
    """The (nt, n_test) element loads l from their leading columns, as the
    models return them, zero beyond them."""
    out = np.zeros((len(load), n_test))
    out[:, :load.shape[1]] = load
    return out


def whitened_load(cond):
    """The (nt, n_test) whitened loads z = L^-1 l of every element, which the
    condensed systems do not hold: the padded loads times their class's
    L^-T, one by_class product."""
    n_test = cond.linv.shape[-1]
    return slv.by_class(cond.cls, full_load(cond.load, n_test), cond.linv.swapaxes(-1, -2))


def full_dofs(dofs, n_field):
    """Element dofs over all unknowns, from the element trace dofs: the
    fields of triangle t are numbered t * n_field ... first, the traces
    after all n_field * nt of them; -1 where fixed."""
    nt = len(dofs)
    fields = np.arange(nt * n_field).reshape(nt, n_field)
    return np.column_stack([fields, np.where(dofs >= 0, dofs + nt * n_field, -1)])


def full_solution(fields, traces):
    """The solution over all unknowns, numbered as by full_dofs."""
    return np.concatenate([fields.ravel(), traces])


def full_normal_equations(dofs, n_free, cond):
    """Dense normal equations B^T G^-1 B x = B^T G^-1 l over all n_free
    unknowns, fields included and numbered as by full_dofs, summed element
    by element from the whitened matrices C = L^-1 B (columns signed by the
    element's trace orientation) and whitened loads z = L^-1 l of the
    condensed systems: B^T G^-1 B = C^T C and B^T G^-1 l = C^T z."""
    a = np.zeros((n_free, n_free))
    r = np.zeros(n_free)
    n_field = cond.lift.shape[1]
    z = whitened_load(cond)
    for t, row in enumerate(full_dofs(dofs, n_field)):
        c = cond.c[cond.cls[t]] * np.concatenate([np.ones(n_field), cond.sign[t]])
        free = row >= 0
        a[np.ix_(row[free], row[free])] += (c.T @ c)[np.ix_(free, free)]
        r[row[free]] += (c.T @ z[t])[free]
    return a, r


def trial_signs(mesh, t, model):
    """(n_trial,) signs that turn the trial columns of triangle t from the
    element's outward orientation, in which the model builds B, to the
    mesh's: the edge orientation signs on the model's SIGNED_TRACE slots,
    1 elsewhere."""
    sign = np.ones(model.N_TRIAL)
    sign[model.N_FIELD + np.array(model.SIGNED_TRACE)] = mesh.tri_edge_signs[t]
    return sign


def _dense_minres(mesh, dm, model, gram, bmat, loads):
    """From the element loads (their leading columns, as the model returns
    them), assemble the full block-diagonal test Gram matrix and the stacked
    trial-to-test matrix over all unknowns (numbered as by full_dofs, in the
    mesh's edge orientation), invert the Gram matrix through its
    eigendecomposition, and solve the explicit dense normal equations."""
    nt, n_test = mesh.n_triangles, model.N_TEST
    big_b = np.zeros((nt * n_test, dm.n_free))
    big_g = np.zeros((nt * n_test, nt * n_test))
    for t, dofs in enumerate(full_dofs(dm.all_element_dofs(mesh), model.N_FIELD)):
        amap = fc.map_affine(mesh, t)
        rows = slice(t * n_test, (t + 1) * n_test)
        big_g[rows, rows] = gram(amap)
        b = bmat(amap) * trial_signs(mesh, t, model)
        for j, dof in enumerate(dofs):
            if dof >= 0:
                big_b[rows, dof] += b[:, j]
    big_l = full_load(loads, n_test).ravel()
    lam, vec = np.linalg.eigh(big_g)
    ginv = (vec / lam) @ vec.T
    x = np.linalg.solve(big_b.T @ ginv @ big_b, big_b.T @ ginv @ big_l)
    resid = big_l - big_b @ x
    eta = float(np.sqrt(resid @ ginv @ resid))
    return x, eta, dm


def poisson_dense_minres(mesh, gamma, f):
    """Brute-force minimum-residual solve of the Poisson system."""
    from dpglock import poisson_uw as pw

    return _dense_minres(
        mesh, pw.dof_map_poisson(mesh), pw,
        pw.local_gram_poisson,
        lambda amap: pw.local_b_poisson(amap, gamma),
        pw.local_load_poisson(mesh.vertices[mesh.triangles], f))


def plate_dense_minres(mesh, f):
    """Brute-force minimum-residual solve of the plate system."""
    from dpglock import plate_uw as plw

    return _dense_minres(
        mesh, plw.dof_map_plate(mesh), plw,
        plw.local_gram_plate, plw.local_b_plate,
        plw.local_load_plate(mesh.vertices[mesh.triangles], f))


def signed_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def shape_regularity(mesh):
    """max over triangles of diam(T)^2 / |T|."""
    p = mesh.vertices[mesh.triangles]
    sides = p - np.roll(p, 1, axis=1)
    diam = np.sqrt((sides ** 2).sum(axis=2)).max(axis=1)
    return float((diam ** 2 / signed_areas(mesh)).max())


def condense_rhs_arguments(problem, ny0, refine):
    """The arguments (linv, c, op, cls, sign, load) that condense_mesh passes
    to solver.condense_rhs on the unit square of ny0 cells a side, refined
    refine times."""
    mesh = msh.make_rect_mesh(1.0, 1.0, ny0)
    for _ in range(refine):
        mesh = msh.refine_uniform(mesh)
    cfg, calls, real = sc.StudyConfig(problem=problem), [], slv.condense_rhs
    slv.condense_rhs = lambda *args: calls.append(args) or real(*args)
    try:
        sc.condense_mesh(mesh, cfg, sc.exact_bundle(cfg).f)
    finally:
        slv.condense_rhs = real
    return calls[0]
