"""Interpolation operators, the DG energy norm, and convergence rates.

The energy norm of a broken function v is

    |||v|||^2 = sum_K ( eps |grad v|^2_K + |c0 v|^2_K )
              + sum_e rho_e |[v]|^2_e        (rho_e: mesh.PENALTY_POWER)
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
  coarse-coarse region (``MeshConfig.coarse_cells``) and keeps it elsewhere.
"""

import numpy as np
from dataclasses import dataclass

from .assembly import DGFunction, _cells, _coefficients, _faces, _sample
from .felib import l2_projector, reference_tables, vee_operator

#: Gauss points per direction beyond k in the energy norm and L2 error
ERROR_QUAD_POINTS_OVER_K = 3
#: Gauss points per direction beyond k in the interpolants' moments
INTERP_QUAD_POINTS_OVER_K = 2


def interpolate_vee_global(u, mesh, dofmap):
    """Apply the vertices-edges-element interpolant on every element.

    Moments are taken with the (k + INTERP_QUAD_POINTS_OVER_K)-point
    Gauss rule per direction.

    Parameters
    ----------
    u : callable
        ``u(x, y)`` accepting ndarray arguments that broadcast against
        each other, as elementwise NumPy code does; constants broadcast.
    mesh : ShishkinMesh
    dofmap : DofMap

    Returns
    -------
    DGFunction
        Continuous across edges up to roundoff.
    """
    points, matrix = vee_operator(dofmap.k,
                                  dofmap.k + INTERP_QUAD_POINTS_OVER_K)
    _, _, x, y = _cells(mesh, *points.T)
    coeffs = _sample(u, x, y) @ matrix.T
    return DGFunction(mesh, dofmap, coeffs.ravel())


def interpolate_composite(u, vee):
    """Composite interpolant: local L2 projection on the coarse-coarse
    region, vertices-edges-element interpolant elsewhere.

    ``vee`` is :func:`interpolate_vee_global` of the same ``u``; it gives
    the mesh, the dofmap and the coefficients kept outside the
    coarse-coarse region.  The projection uses the same Gauss rule.
    """
    mesh, dofmap = vee.mesh, vee.dofmap
    points, matrix = l2_projector(dofmap.k,
                                  dofmap.k + INTERP_QUAD_POINTS_OVER_K)
    n, m = mesh.config.n, mesh.config.coarse_cells
    _, _, x, y = _cells(mesh, *points.T)
    vals = _sample(u, x[:m], y[:, :m])     # the coarse-coarse region
    coeffs = vee.coefficients.reshape(n, n, -1).copy()
    coeffs[:m, :m] = (vals @ matrix.T).reshape(m, m, -1)
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


def energy_norm(v, edges, problem):
    """Energy norm of a :class:`DGFunction`, with component breakdown,
    by the (k + ERROR_QUAD_POINTS_OVER_K)-point Gauss rule per direction.

    Parameters
    ----------
    v : DGFunction
    edges : EdgeSet
    problem : ProblemData
        Supplies eps, and b, c and div(b) for the weights.

    Returns
    -------
    NormComponents

    Raises
    ------
    CoefficientConditionError
        If the sampled convection field drops below the mesh's declared
        bounds, or the reaction weight c - div(b)/2 is negative, beyond
        the round-off slack that :func:`~nipg2d.assembly.assemble` allows.
    """
    mesh, dofmap = v.mesh, v.dofmap
    tab = reference_tables(dofmap.k, dofmap.k + ERROR_QUAD_POINTS_OVER_K)
    coeffs = v.coefficients.reshape(mesh.n_elements, dofmap.ndof_local)

    # volume parts
    hx, hy, x_q, y_q = _cells(mesh, *tab.points.T)
    c0sq = _coefficients(problem, mesh.config, x_q, y_q)[3]
    vals = coeffs @ tab.vals                     # (ne, nq^2)
    gx = (coeffs @ tab.gx) * (2.0 / hx)[:, None]
    gy = (coeffs @ tab.gy) * (2.0 / hy)[:, None]
    area = (0.25 * hx * hy)[:, None] * tab.w2[None, :]
    grad_part = problem.eps * float(np.sum(area * (gx ** 2 + gy ** 2)))
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


def broken_l2_error(u, v):
    """Broken L2 norm of u - v for a callable u and DGFunction v, by the
    (k + ERROR_QUAD_POINTS_OVER_K)-point Gauss rule per direction."""
    mesh, dofmap = v.mesh, v.dofmap
    tab = reference_tables(dofmap.k, dofmap.k + ERROR_QUAD_POINTS_OVER_K)
    hx, hy, x_q, y_q = _cells(mesh, *tab.points.T)
    coeffs = v.coefficients.reshape(mesh.n_elements, dofmap.ndof_local)
    diff = _sample(u, x_q, y_q) - coeffs @ tab.vals
    area = (0.25 * hx * hy)[:, None] * tab.w2[None, :]
    return float(np.sqrt(np.sum(area * diff ** 2)))


@dataclass(frozen=True)
class ErrorRecord:
    """Errors of one discrete solution against the exact solution.

    ``e_in`` is the energy norm of (interpolant of u) - u_h, the
    supercloseness quantity; ``e_pi`` the same with the composite
    interpolant; ``e_l2`` the broken L2 norm of u - u_h.
    """

    e_in: float
    e_pi: float
    e_l2: float
    components: NormComponents


def supercloseness_error(u_h, edges, problem):
    """Distance of u_h to the two interpolants of the exact solution.

    Parameters
    ----------
    u_h : DGFunction
        Discrete solution.
    edges : EdgeSet
    problem : ProblemData
        Must carry an exact solution.

    Returns
    -------
    ErrorRecord
    """
    if problem.exact is None:
        raise ValueError("problem has no exact solution to compare against")
    mesh, dofmap, u = u_h.mesh, u_h.dofmap, problem.exact
    vee = interpolate_vee_global(u, mesh, dofmap)
    parts_in, parts_pi = (energy_norm(
        DGFunction(mesh, dofmap, w.coefficients - u_h.coefficients), edges,
        problem) for w in (vee, interpolate_composite(u, vee)))
    return ErrorRecord(e_in=parts_in.value, e_pi=parts_pi.value,
                       e_l2=broken_l2_error(u, u_h), components=parts_in)


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
