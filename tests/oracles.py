"""Independent, loop-based reference computations for tiny meshes.

Everything here is written directly from the weak form and the norm
definition with plain Python loops and generous quadrature, so the
vectorized library code can be checked entry by entry.  Only the 1D
Lagrange basis (:func:`nipg2d.felib.lagrange_1d`) and the Gauss rule are
shared with the library; :func:`basis_2d` builds the 2D basis from them
here, and the 1D layer is verified separately against finite differences
and monomials.
:func:`reversed_edges` gives the other trace-side numbering of an edge
set; :func:`dg_eval` and the edge-trace helpers at the end evaluate a
library DGFunction pointwise.
"""

import dataclasses

import numpy as np

from nipg2d.felib import gauss_legendre, lagrange_1d
from nipg2d.mesh import NO_ELEMENT, EdgeType


def basis_2d(k, xi, eta):
    """Values and reference gradients (d/dxi, d/deta) of all Q_k basis
    functions at the points (xi, eta), each ((k+1)^2, npts); local index
    m = a*(k+1) + b pairs the xi-node a with the eta-node b."""
    lx, dx = lagrange_1d(k, xi)
    ly, dy = lagrange_1d(k, eta)

    def product(fx, fy):
        return np.einsum("ap,bp->abp", fx, fy).reshape((k + 1) ** 2, -1)

    return product(lx, ly), product(dx, ly), product(lx, dy)


def _phys_basis(mesh, k, i, j, xi, eta):
    """Values and physical gradients of all local basis functions of
    element (i, j) at reference points (xi, eta)."""
    vals, gxi, geta = basis_2d(k, xi, eta)
    gx = gxi * (2.0 / mesh.h_x[i])
    gy = geta * (2.0 / mesh.h_y[j])
    return vals, gx, gy


def _map_x(mesh, i, xi):
    return mesh.x_pts[i] + 0.5 * (xi + 1.0) * mesh.h_x[i]


def _map_y(mesh, j, eta):
    return mesh.y_pts[j] + 0.5 * (eta + 1.0) * mesh.h_y[j]


def classify_edge_by_geometry(mesh, orientation, line, cell):
    """Edge family from coordinates alone.

    A long edge spans a coarse cell band.  Long edges strictly inside
    the coarse box get the unit penalty family (M1), long edges on a
    transition line get M4, remaining long edges (inside the layer
    strips) get M2, and every short edge gets M3.
    """
    n = mesh.config.n
    tol = 1e-12
    if orientation == "v":
        length = mesh.h_y[cell]
        coarse = 2.0 * (1.0 - mesh.lambda_y) / n
        coord = mesh.x_pts[line]
        transition = 1.0 - mesh.lambda_x
    else:
        length = mesh.h_x[cell]
        coarse = 2.0 * (1.0 - mesh.lambda_x) / n
        coord = mesh.y_pts[line]
        transition = 1.0 - mesh.lambda_y
    long_edge = abs(length - coarse) <= tol * max(1.0, coarse)
    if not long_edge:
        return EdgeType.M3
    if abs(coord - transition) <= tol:
        return EdgeType.M4
    return EdgeType.M1 if coord < transition else EdgeType.M2


def census_by_geometry(mesh):
    """Count edges per family by enumerating every mesh segment."""
    n = mesh.config.n
    counts = {t: 0 for t in EdgeType}
    for line in range(n + 1):
        for cell in range(n):
            counts[classify_edge_by_geometry(mesh, "v", line, cell)] += 1
            counts[classify_edge_by_geometry(mesh, "h", line, cell)] += 1
    return counts


def _edge_rho(mesh, orientation, line, cell):
    """The paper's penalty schedule: 1, N^2, N, N on M1 to M4."""
    n = float(mesh.config.n)
    return {EdgeType.M1: 1.0, EdgeType.M2: n * n, EdgeType.M3: n,
            EdgeType.M4: n}[
        classify_edge_by_geometry(mesh, orientation, line, cell)]


def _all_edges(mesh):
    """(orientation, line, cell) triples for every mesh segment."""
    n = mesh.config.n
    for line in range(n + 1):
        for cell in range(n):
            yield ("v", line, cell)
            yield ("h", line, cell)


def dense_bilinear_matrix(mesh, dofmap, problem, nq=10, dirichlet="weak"):
    """Dense matrix of the discrete bilinear form, assembled by plain
    loops over elements and edges."""
    eps = problem.eps
    n = mesh.config.n
    k = dofmap.k
    ndl = dofmap.ndof_local
    total = mesh.n_elements * ndl
    a = np.zeros((total, total))
    t, w = gauss_legendre(nq)

    # volume terms, element by element, quadrature point by point
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * ndl
            for p in range(nq):
                for q in range(nq):
                    xi, eta = t[p], t[q]
                    x, y = _map_x(mesh, i, xi), _map_y(mesh, j, eta)
                    vals, gx, gy = _phys_basis(mesh, k, i, j, xi, eta)
                    vals, gx, gy = vals[:, 0], gx[:, 0], gy[:, 0]
                    jac = 0.25 * mesh.h_x[i] * mesh.h_y[j] * w[p] * w[q]
                    b1 = float(problem.b1(x, y))
                    b2 = float(problem.b2(x, y))
                    c = float(problem.c(x, y))
                    for r in range(ndl):
                        for s in range(ndl):
                            a[base + r, base + s] += jac * (
                                eps * (gx[s] * gx[r] + gy[s] * gy[r])
                                + (b1 * gx[s] + b2 * gy[s]) * vals[r]
                                + c * vals[s] * vals[r])

    def side_trace(i, j, side, s1d):
        """Values and physical gradients of element (i, j)'s basis on one
        of its sides, parametrized by the 1d reference coordinate."""
        if side == "left":
            xi, eta = -np.ones_like(s1d), s1d
        elif side == "right":
            xi, eta = np.ones_like(s1d), s1d
        elif side == "bottom":
            xi, eta = s1d, -np.ones_like(s1d)
        else:
            xi, eta = s1d, np.ones_like(s1d)
        return _phys_basis(mesh, k, i, j, xi, eta)

    # nonsymmetric flux + penalty terms, edge by edge
    for orientation, line, cell in _all_edges(mesh):
        rho = _edge_rho(mesh, orientation, line, cell)
        if orientation == "v":
            jac1d = 0.5 * mesh.h_y[cell]
            boundary = line in (0, n)
            if boundary:
                elems = [((0 if line == 0 else n - 1), cell)]
                nu = (-1.0, 0.0) if line == 0 else (1.0, 0.0)
                sides = ["left" if line == 0 else "right"]
                signs = [1.0]
            else:
                # plus side = higher element number = right element
                elems = [(line, cell), (line - 1, cell)]
                nu = (-1.0, 0.0)
                sides = ["left", "right"]
                signs = [1.0, -1.0]
        else:
            jac1d = 0.5 * mesh.h_x[cell]
            boundary = line in (0, n)
            if boundary:
                elems = [(cell, 0 if line == 0 else n - 1)]
                nu = (0.0, -1.0) if line == 0 else (0.0, 1.0)
                sides = ["bottom" if line == 0 else "top"]
                signs = [1.0]
            else:
                elems = [(cell, line), (cell, line - 1)]
                nu = (0.0, -1.0)
                sides = ["bottom", "top"]
                signs = [1.0, -1.0]
        if boundary and dirichlet != "weak":
            continue
        for p in range(nq):
            wq = w[p] * jac1d
            traces = []
            for (ei, ej), side in zip(elems, sides):
                vals, gx, gy = side_trace(ei, ej, side, np.array([t[p]]))
                gn = gx[:, 0] * nu[0] + gy[:, 0] * nu[1]
                traces.append(((ei * n + ej) * ndl, vals[:, 0], gn))
            half = 1.0 if boundary else 0.5
            for (br, vr, gr), sr in zip(traces, signs):
                for (bc, vc, gc), sc in zip(traces, signs):
                    for r in range(ndl):
                        for s in range(ndl):
                            a[br + r, bc + s] += wq * (
                                -eps * half * gc[s] * sr * vr[r]
                                + eps * sc * vc[s] * half * gr[r]
                                + rho * sc * vc[s] * sr * vr[r])

    # upwind convection terms: each element's inflow sides
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * ndl
            for side in ("left", "bottom", "right", "top"):
                if orientation_normal(side)[0]:
                    jac1d = 0.5 * mesh.h_y[j]
                else:
                    jac1d = 0.5 * mesh.h_x[i]
                nx, ny = orientation_normal(side)
                for p in range(nq):
                    s1d = np.array([t[p]])
                    vals, _, _ = side_trace(i, j, side, s1d)
                    if side in ("left", "right"):
                        x = mesh.x_pts[i if side == "left" else i + 1]
                        y = _map_y(mesh, j, t[p])
                    else:
                        x = _map_x(mesh, i, t[p])
                        y = mesh.y_pts[j if side == "bottom" else j + 1]
                    bn = (float(problem.b1(x, y)) * nx
                          + float(problem.b2(x, y)) * ny)
                    if bn >= 0.0:
                        continue  # outflow side: no convective face term
                    on_boundary = (
                        (side == "left" and i == 0)
                        or (side == "right" and i == n - 1)
                        or (side == "bottom" and j == 0)
                        or (side == "top" and j == n - 1))
                    wq = w[p] * jac1d
                    if on_boundary:
                        if dirichlet != "weak":
                            continue
                        for r in range(ndl):
                            for s in range(ndl):
                                a[base + r, base + s] -= (
                                    wq * bn * vals[s, 0] * vals[r, 0])
                    else:
                        if side == "left":
                            ni, nj, nside = i - 1, j, "right"
                        elif side == "right":
                            ni, nj, nside = i + 1, j, "left"
                        elif side == "bottom":
                            ni, nj, nside = i, j - 1, "top"
                        else:
                            ni, nj, nside = i, j + 1, "bottom"
                        nvals, _, _ = side_trace(ni, nj, nside, s1d)
                        nbase = (ni * n + nj) * ndl
                        for r in range(ndl):
                            for s in range(ndl):
                                a[base + r, base + s] -= (
                                    wq * bn * vals[s, 0] * vals[r, 0])
                                a[base + r, nbase + s] += (
                                    wq * bn * nvals[s, 0] * vals[r, 0])
    return a


def orientation_normal(side):
    return {"left": (-1.0, 0.0), "right": (1.0, 0.0),
            "bottom": (0.0, -1.0), "top": (0.0, 1.0)}[side]


def dense_load_vector(mesh, dofmap, problem, nq=10):
    """Load vector by plain per-element quadrature."""
    n = mesh.config.n
    k = dofmap.k
    ndl = dofmap.ndof_local
    t, w = gauss_legendre(nq)
    rhs = np.zeros(mesh.n_elements * ndl)
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * ndl
            for p in range(nq):
                for q in range(nq):
                    x, y = _map_x(mesh, i, t[p]), _map_y(mesh, j, t[q])
                    vals, _, _ = _phys_basis(mesh, k, i, j, t[p], t[q])
                    jac = 0.25 * mesh.h_x[i] * mesh.h_y[j] * w[p] * w[q]
                    fval = float(problem.f(x, y))
                    for r in range(ndl):
                        rhs[base + r] += jac * fval * vals[r, 0]
    return rhs


def energy_components_bruteforce(v, problem, nq=10):
    """Energy-norm pieces of a discrete function by plain loops.

    Returns a dict with the same keys as the library's component
    breakdown: grad, reaction, penalty, inflow_outflow.
    """
    eps = problem.eps
    mesh = v.mesh
    dofmap = v.dofmap
    n = mesh.config.n
    k = dofmap.k
    t, w = gauss_legendre(nq)
    coeffs = v.coefficients.reshape(n * n, -1)

    def value(i, j, xi, eta):
        vals, gx, gy = _phys_basis(mesh, k, i, j, xi, eta)
        coeff = coeffs[i * n + j]
        return coeff @ vals[:, 0], coeff @ gx[:, 0], coeff @ gy[:, 0]

    grad = reaction = 0.0
    for i in range(n):
        for j in range(n):
            for p in range(nq):
                for q in range(nq):
                    x, y = _map_x(mesh, i, t[p]), _map_y(mesh, j, t[q])
                    val, dx, dy = value(i, j, t[p], t[q])
                    jac = 0.25 * mesh.h_x[i] * mesh.h_y[j] * w[p] * w[q]
                    c0sq = (float(problem.c(x, y))
                            - 0.5 * float(problem.div_b(x, y)))
                    grad += jac * eps * (dx * dx + dy * dy)
                    reaction += jac * c0sq * val * val

    penalty = 0.0
    for orientation, line, cell in _all_edges(mesh):
        rho = _edge_rho(mesh, orientation, line, cell)
        if orientation == "v":
            jac1d = 0.5 * mesh.h_y[cell]
        else:
            jac1d = 0.5 * mesh.h_x[cell]
        for p in range(nq):
            if orientation == "v":
                if line == 0:
                    jump = value(0, cell, -1.0, t[p])[0]
                elif line == mesh.config.n:
                    jump = value(n - 1, cell, 1.0, t[p])[0]
                else:
                    jump = (value(line, cell, -1.0, t[p])[0]
                            - value(line - 1, cell, 1.0, t[p])[0])
            else:
                if line == 0:
                    jump = value(cell, 0, t[p], -1.0)[0]
                elif line == mesh.config.n:
                    jump = value(cell, n - 1, t[p], 1.0)[0]
                else:
                    jump = (value(cell, line, t[p], -1.0)[0]
                            - value(cell, line - 1, t[p], 1.0)[0])
            penalty += w[p] * jac1d * rho * jump * jump

    traces = 0.0
    for i in range(n):
        for j in range(n):
            for side in ("left", "bottom", "right", "top"):
                nx, ny = orientation_normal(side)
                jac1d = 0.5 * (mesh.h_y[j] if nx else mesh.h_x[i])
                on_boundary = (
                    (side == "left" and i == 0)
                    or (side == "right" and i == n - 1)
                    or (side == "bottom" and j == 0)
                    or (side == "top" and j == n - 1))
                for p in range(nq):
                    if side == "left":
                        x, y = mesh.x_pts[i], _map_y(mesh, j, t[p])
                        own = value(i, j, -1.0, t[p])[0]
                    elif side == "right":
                        x, y = mesh.x_pts[i + 1], _map_y(mesh, j, t[p])
                        own = value(i, j, 1.0, t[p])[0]
                    elif side == "bottom":
                        x, y = _map_x(mesh, i, t[p]), mesh.y_pts[j]
                        own = value(i, j, t[p], -1.0)[0]
                    else:
                        x, y = _map_x(mesh, i, t[p]), mesh.y_pts[j + 1]
                        own = value(i, j, t[p], 1.0)[0]
                    bn = (float(problem.b1(x, y)) * nx
                          + float(problem.b2(x, y)) * ny)
                    if bn < 0.0 and not on_boundary:
                        if side == "left":
                            other = value(i - 1, j, 1.0, t[p])[0]
                        elif side == "right":
                            other = value(i + 1, j, -1.0, t[p])[0]
                        elif side == "bottom":
                            other = value(i, j - 1, t[p], 1.0)[0]
                        else:
                            other = value(i, j + 1, t[p], -1.0)[0]
                        term = (own - other) ** 2
                    elif on_boundary:
                        term = own * own
                    else:
                        continue  # interior outflow side carries no term
                    traces += 0.5 * w[p] * jac1d * abs(bn) * term
    return {"grad": grad, "reaction": reaction, "penalty": penalty,
            "inflow_outflow": traces}


def reversed_edges(edges, subset=None):
    """The other trace-side numbering of an edge set: plus and minus
    swapped on every interior edge, or on the interior edges selected by
    the boolean mask ``subset``.  Swapped on all, the plus side is the
    lower-numbered element.  Boundary edges keep their one element."""
    swap = edges.minus != NO_ELEMENT
    if subset is not None:
        swap &= subset
    return dataclasses.replace(
        edges,
        plus=np.where(swap, edges.minus, edges.plus),
        minus=np.where(swap, edges.plus, edges.minus))


def edge_segment(mesh, edges, idx):
    """Fixed coordinate and running-coordinate range (lo, hi) of edge
    ``idx``: x and the y-range for a vertical edge, y and the x-range for
    a horizontal one."""
    line, cell = edges.line[idx], edges.cell[idx]
    if edges.orientation[idx] == "v":
        return mesh.x_pts[line], (mesh.y_pts[cell], mesh.y_pts[cell + 1])
    return mesh.y_pts[line], (mesh.x_pts[cell], mesh.x_pts[cell + 1])


def dg_eval(v, x, y, elem=None):
    """Values of a DGFunction at physical points (x, y).

    Each point is evaluated in element ``elem`` (flat index i*N + j) when
    given, extending its polynomial to the closed cell; otherwise in the
    cell containing it, where a point on an interior mesh line takes the
    cell to the right/above.
    """
    mesh, n = v.mesh, v.mesh.config.n
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    if elem is None:
        i = np.clip(np.searchsorted(mesh.x_pts, x, side="right") - 1, 0, n - 1)
        j = np.clip(np.searchsorted(mesh.y_pts, y, side="right") - 1, 0, n - 1)
    else:
        i, j = np.divmod(np.broadcast_to(elem, x.shape), n)
    i, j = i.ravel(), j.ravel()
    xi = 2.0 * (x.ravel() - mesh.x_pts[i]) / mesh.h_x[i] - 1.0
    eta = 2.0 * (y.ravel() - mesh.y_pts[j]) / mesh.h_y[j] - 1.0
    vals, _, _ = _phys_basis(mesh, v.dofmap.k, i, j, xi, eta)
    local = v.coefficients.reshape(n * n, -1)[i * n + j]
    return np.einsum("pm,mp->p", local, vals).reshape(x.shape)


def trace_pair(v, edges, idx, s):
    """Two-sided traces of a DGFunction along edge ``idx`` of an edge set.

    ``s`` holds running physical coordinates along the edge (y-values for
    a vertical edge, x-values for a horizontal one), inside the open
    segment.  Returns the (plus, minus) traces; ``minus`` is None on a
    boundary edge.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    fixed, _ = edge_segment(v.mesh, edges, idx)
    if edges.orientation[idx] == "v":
        x, y = np.full_like(s, fixed), s
    else:
        x, y = s, np.full_like(s, fixed)
    plus = dg_eval(v, x, y, edges.plus[idx])
    minus = None if edges.minus[idx] == NO_ELEMENT else dg_eval(
        v, x, y, edges.minus[idx])
    return plus, minus


def inflow_outflow_split(mesh, problem, i, j, nq=4):
    """Partition the sides of element (i, j) by the sign of b . n.

    Returns (inflow, outflow), tuples of side names from ("left",
    "bottom", "right", "top"); a side is inflow when b . n < 0 at every
    sample point, outflow when b . n >= 0 everywhere.  Raises ValueError
    if b . n changes sign within one side.
    """
    t, _ = gauss_legendre(nq)
    x0, x1 = mesh.x_pts[i:i + 2]
    y0, y1 = mesh.y_pts[j:j + 2]
    xs = x0 + (t + 1.0) * 0.5 * (x1 - x0)
    ys = y0 + (t + 1.0) * 0.5 * (y1 - y0)
    sides = {
        "left": -np.asarray(problem.b1(np.full_like(ys, x0), ys), dtype=float),
        "right": np.asarray(problem.b1(np.full_like(ys, x1), ys), dtype=float),
        "bottom": -np.asarray(problem.b2(xs, np.full_like(xs, y0)), dtype=float),
        "top": np.asarray(problem.b2(xs, np.full_like(xs, y1)), dtype=float),
    }
    inflow, outflow = [], []
    for name in ("left", "bottom", "right", "top"):
        bn = np.broadcast_to(sides[name], (nq,))
        if np.all(bn < 0.0):
            inflow.append(name)
        elif np.all(bn >= 0.0):
            outflow.append(name)
        else:
            raise ValueError(
                f"b . n changes sign on side {name!r} of element ({i}, {j}); "
                "the upwind splitting needs a single sign per side")
    return tuple(inflow), tuple(outflow)
