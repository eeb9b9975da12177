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
    dofmap = DofMap(k=k, n=n)
    system = assemble(grid, edges, dofmap, problem, eps)
    x, report = solve(system)
    record = supercloseness_error(DGFunction(grid, dofmap, x),
                                  edges, problem, eps)
"""

from .analysis import (ErrorRecord, NormComponents, broken_l2_error,
                       convergence_rates, energy_norm, interpolate_composite,
                       interpolate_vee_global, supercloseness_error)
from .assembly import (CoefficientConditionError, DGFunction, DofMap,
                       ExactSolution, ProblemData, SparseSystem, assemble,
                       boundary_dofs)
from .felib import (L2Projector, QuadratureRule, ReferenceBasis,
                    VeeInterpolator, gauss_legendre, lobatto_nodes)
from .mesh import (EdgeSet, EdgeType, MeshConfig, RegionTag, ShishkinMesh,
                   build_mesh, classify_edges, penalty_weight, region_of)
from .problems import boundary_layer_problem, get_problem
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "CoefficientConditionError", "DGFunction", "DofMap", "EdgeSet",
    "EdgeType", "ErrorRecord", "ExactSolution", "L2Projector", "MeshConfig",
    "NormComponents", "ProblemData", "QuadratureRule", "ReferenceBasis",
    "RegionTag", "ShishkinMesh", "SolveReport", "SolverConfig",
    "SparseSystem", "VeeInterpolator", "assemble", "boundary_dofs",
    "boundary_layer_problem", "broken_l2_error", "build_mesh",
    "classify_edges", "convergence_rates", "energy_norm", "gauss_legendre",
    "get_problem", "interpolate_composite", "interpolate_vee_global",
    "lobatto_nodes", "penalty_weight", "region_of", "solve",
    "supercloseness_error",
]
