"""Nonsymmetric interior-penalty DG solver for singularly perturbed
convection-diffusion problems on two-band boundary-layer meshes.

Typical use::

    from nipg2d import (MeshConfig, build_mesh, classify_edges, DofMap,
                        assemble, solve, DGFunction, supercloseness_error,
                        boundary_layer_problem)

    eps, n, k = 1e-5, 16, 1
    problem = boundary_layer_problem(eps)
    grid = build_mesh(MeshConfig(n=n, eps=eps, sigma=k + 1.5,
                                 beta1=2.0, beta2=3.0))
    edges = classify_edges(grid)      # EdgeSet: one array entry per edge
    dofmap = DofMap(k=k)
    system = assemble(grid, edges, dofmap, problem)
    x, report = solve(system)
    record = supercloseness_error(DGFunction(grid, dofmap, x),
                                  edges, problem)

A :class:`DGFunction` is a coefficient vector on the mesh; the norms and
interpolants of :mod:`nipg2d.analysis` work on those arrays, and the two
reference-cell operators the interpolants apply are :func:`vee_operator`
and :func:`l2_projector`, each a cached (points, matrix) pair.  All
reference-cell data comes from two 1D primitives: :func:`gauss_legendre`
(the Gauss rule) and :func:`lagrange_1d` (the Lobatto-node Lagrange basis
and its derivative).
"""

from .analysis import (ErrorRecord, NormComponents, broken_l2_error,
                       convergence_rates, energy_norm, interpolate_composite,
                       interpolate_vee_global, supercloseness_error)
from .assembly import (CoefficientConditionError, DGFunction, DofMap,
                       ProblemData, SparseSystem, assemble, boundary_dofs)
from .felib import (gauss_legendre, l2_projector, lagrange_1d,
                    lobatto_nodes, vee_operator)
from .mesh import (EdgeSet, EdgeType, MeshConfig, ShishkinMesh, build_mesh,
                   classify_edges)
from .problems import boundary_layer_problem
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "CoefficientConditionError", "DGFunction", "DofMap", "EdgeSet",
    "EdgeType", "ErrorRecord", "MeshConfig", "NormComponents",
    "ProblemData", "ShishkinMesh", "SolveReport", "SolverConfig",
    "SparseSystem", "assemble", "boundary_dofs", "boundary_layer_problem",
    "broken_l2_error", "build_mesh", "classify_edges", "convergence_rates",
    "energy_norm", "gauss_legendre", "interpolate_composite",
    "interpolate_vee_global", "l2_projector", "lagrange_1d",
    "lobatto_nodes", "solve", "supercloseness_error", "vee_operator",
]
