"""Interpolation operators, the DG energy norm, and convergence rates.

The energy norm of a broken function v is

    |||v|||^2 = sum_K ( eps |grad v|^2_K + |c0 v|^2_K )
              + sum_e rho_e |[v]|^2_e
              + 1/2 sum_K ( |v+|^2 on inflow-boundary faces
                            + |v+ - v-|^2 on interior inflow faces
                            + |v+|^2 on outflow-boundary faces ),

where c0^2 = c - div(b)/2 and the face seminorms carry the weight |b . n|.
For componentwise positive convection fields every interior edge is the
inflow face of exactly one element (the one on its +x / +y side), so each
interior edge contributes exactly one |b . n|-weighted jump term.

Two global interpolation operators map a smooth function into the broken
space:

* the vertices-edges-element interpolant, applied elementwise; its local
  traces are fixed by shared edge data, so the global result is continuous;
* a composite variant that replaces it by the local L2 projection on the
  coarse-coarse region (and keeps it elsewhere).
"""

import numpy as np
from dataclasses import dataclass, field

from .assembly import DGFunction, _cells, _faces, _sample
from .felib import l2_projector, reference_tables, vee_operator


def interpolate_vee_global(u, mesh, dofmap, nq=None):
    """Apply the vertices-edges-element interpolant on every element.

    Parameters
    ----------
    u : callable
        ``u(x, y)`` accepting ndarray arguments.
    mesh : ShishkinMesh
    dofmap : DofMap
    nq : int, optional
        Moment-quadrature points per direction (default k + 2).

    Returns
    -------
    DGFunction
        Continuous across edges up to roundoff.
    """
    op = vee_operator(dofmap.k, (dofmap.k + 2) if nq is None else int(nq))
    _, _, x, y = _cells(mesh, *op.points.T)
    coeffs = op.apply_to_values(u(x, y))
    return DGFunction(mesh, dofmap, coeffs.ravel())


def interpolate_composite(u, mesh, dofmap, nq=None):
    """Composite interpolant: local L2 projection on the coarse-coarse
    region, vertices-edges-element interpolant elsewhere.

    Coefficients coincide exactly with :func:`interpolate_vee_global`
    on every element outside the coarse-coarse region.
    """
    vee = interpolate_vee_global(u, mesh, dofmap, nq=nq)
    proj = l2_projector(dofmap.k, (dofmap.k + 2) if nq is None else int(nq))
    n = mesh.config.n
    coarse = np.s_[:n // 2, :n // 2]       # the coarse-coarse region
    _, _, x, y = _cells(mesh, *proj.points.T)
    vals = u(x.reshape(n, n, -1)[coarse], y.reshape(n, n, -1)[coarse])
    coeffs = vee.coefficients.reshape(n, n, -1).copy()
    coeffs[coarse] = proj.apply_to_values(vals)
    return DGFunction(mesh, dofmap, coeffs.ravel())


@dataclass(frozen=True)
class NormComponents:
    """Squared contributions to the energy norm; ``value`` is the norm."""

    grad: float
    reaction: float
    penalty: float
    inflow_outflow: float

    @property
    def value(self):
        return float(np.sqrt(self.grad + self.reaction
                             + self.penalty + self.inflow_outflow))

    def as_dict(self):
        return {"grad": self.grad, "reaction": self.reaction,
                "penalty": self.penalty,
                "inflow_outflow": self.inflow_outflow}


def energy_norm(v, edges, problem, eps, quad_order=None):
    """Energy norm of a :class:`DGFunction`, with component breakdown.

    Parameters
    ----------
    v : DGFunction
    edges : EdgeSet
    problem : ProblemData
        Supplies b, c and div(b) for the weights.
    eps : float
        Diffusion parameter.
    quad_order : int, optional
        Gauss points per direction (default k + 3).

    Returns
    -------
    NormComponents

    Raises
    ------
    ValueError
        If the sampled reaction weight c - div(b)/2 is not positive.
    """
    mesh, dofmap = v.mesh, v.dofmap
    k = dofmap.k
    nq = (k + 3) if quad_order is None else int(quad_order)
    tab = reference_tables(k, nq)
    coeffs = v.coefficients.reshape(mesh.n_elements, dofmap.ndof_local)

    # volume parts
    hx, hy, x_q, y_q = _cells(mesh, *tab.points.T)
    c0sq = (_sample(problem.c, x_q, y_q)
            - 0.5 * _sample(problem.div_b, x_q, y_q))
    if c0sq.min() < 0.0:
        raise ValueError(
            f"reaction weight c - div(b)/2 must not be negative; sampled "
            f"minimum {c0sq.min():.6g}")
    vals = coeffs @ tab.vals                     # (ne, nq^2)
    gx = (coeffs @ tab.gx) * (2.0 / hx)[:, None]
    gy = (coeffs @ tab.gy) * (2.0 / hy)[:, None]
    area = (0.25 * hx * hy)[:, None] * tab.w2[None, :]
    grad_part = eps * float(np.sum(area * (gx ** 2 + gy ** 2)))
    reaction_part = float(np.sum(area * c0sq * vals ** 2))

    # edge parts: the jump is the single trace on the boundary
    penalty_part = 0.0
    flow_part = 0.0
    for face in _faces(mesh, edges, problem, tab):
        jump = sum(t.sign * (coeffs[t.elem] @ tab.tr[t.side])
                   for t in face.traces)
        penalty_part += float(np.sum(face.w * face.rho[:, None] * jump ** 2))
        flow_part += 0.5 * float(np.sum(face.w * face.b * jump ** 2))

    return NormComponents(grad_part, reaction_part, penalty_part, flow_part)


def broken_l2_error(u, v, quad_order=None):
    """Broken L2 norm of u - v for a callable u and DGFunction v."""
    mesh, dofmap = v.mesh, v.dofmap
    nq = (dofmap.k + 3) if quad_order is None else int(quad_order)
    tab = reference_tables(dofmap.k, nq)
    hx, hy, x_q, y_q = _cells(mesh, *tab.points.T)
    coeffs = v.coefficients.reshape(mesh.n_elements, dofmap.ndof_local)
    diff = np.asarray(u(x_q, y_q), dtype=float) - coeffs @ tab.vals
    area = (0.25 * hx * hy)[:, None] * tab.w2[None, :]
    return float(np.sqrt(np.sum(area * diff ** 2)))


@dataclass(frozen=True)
class ErrorRecord:
    """Errors of one discrete solution against the exact solution.

    ``e_in`` is the energy norm of (interpolant of u) - u_h, the
    supercloseness quantity; ``e_pi`` the same with the composite
    interpolant; ``e_l2`` the broken L2 norm of u - u_h.
    """

    k: int
    n: int
    eps: float
    dofs: int
    e_in: float
    e_pi: float
    e_l2: float
    components: dict = field(default_factory=dict)


def supercloseness_error(u_h, edges, problem, eps, quad_order=None):
    """Distance of u_h to the two interpolants of the exact solution.

    Parameters
    ----------
    u_h : DGFunction
        Discrete solution.
    edges : EdgeSet
    problem : ProblemData
        Must carry an exact solution.
    eps : float
    quad_order : int, optional
        Gauss points per direction for the norms (default k + 3).

    Returns
    -------
    ErrorRecord
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution to compare against")
    mesh, dofmap = u_h.mesh, u_h.dofmap
    u = problem.exact.u
    vee = interpolate_vee_global(u, mesh, dofmap)
    comp = interpolate_composite(u, mesh, dofmap)
    diff_in = DGFunction(mesh, dofmap, vee.coefficients - u_h.coefficients)
    diff_pi = DGFunction(mesh, dofmap, comp.coefficients - u_h.coefficients)
    parts_in = energy_norm(diff_in, edges, problem, eps, quad_order=quad_order)
    parts_pi = energy_norm(diff_pi, edges, problem, eps, quad_order=quad_order)
    return ErrorRecord(
        k=dofmap.k,
        n=mesh.config.n,
        eps=eps,
        dofs=dofmap.total_dofs,
        e_in=parts_in.value,
        e_pi=parts_pi.value,
        e_l2=broken_l2_error(u, u_h, quad_order=quad_order),
        components=parts_in.as_dict(),
    )


def convergence_rates(errors):
    """Observed orders from a doubling sequence of (N, error) pairs.

    Returns a list of rates; entry i is log2(e_i / e_{i+1}), reported
    against the coarser mesh N_i (the finest mesh has no rate).

    Raises
    ------
    ValueError
        If the N values do not double, or any error is not positive.
    """
    if len(errors) < 2:
        return []
    ns = [n for n, _ in errors]
    es = [e for _, e in errors]
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ValueError(f"mesh sequence must double: got {a} then {b}")
    if min(es) <= 0.0:
        raise ValueError("errors must be positive to take rates")
    return [float(np.log2(ea / eb)) for ea, eb in zip(es, es[1:])]
