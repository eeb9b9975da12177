"""Shared construction and caching helpers for the test suite.

Solves are cached per configuration so that the acceptance chains,
property checks, and trend checks reuse the same discrete solutions.
"""

import dataclasses
import functools
import math
import warnings
from types import SimpleNamespace

import numpy as np

from nipg2d import (
    DGFunction,
    DofMap,
    MeshConfig,
    SolverConfig,
    assemble,
    boundary_layer_problem,
    build_mesh,
    classify_edges,
    solve,
    solver,
    supercloseness_error,
)


def make_mesh(n, eps, sigma, beta1=2.0, beta2=3.0):
    """Build a two-band mesh, with the eps > 1/N warning silenced (small
    oracle meshes use N = 2 and 4)."""
    cfg = MeshConfig(n=n, eps=eps, sigma=sigma, beta1=beta1, beta2=beta2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_mesh(cfg)


def bakhvalov_shishkin_mesh(grid):
    """``grid`` with the fine band of each direction graded as on a
    Bakhvalov-Shishkin mesh: line i = N/2 ... N lies at
    x_i = 1 + (sigma eps / beta) ln(1 - 2 (1 - 1/N) (N - i) / N),
    which runs from the transition point 1 - lambda to 1.

    The coarse band, the transition point and the edge families stay
    those of the two-band mesh, which is all that classify_edges reads;
    assembly and the norms read the moved lines.  The grading meets the
    transition point only where it is sigma eps ln(N) / beta, not capped
    at 1/2.
    """
    cfg = grid.config
    n, half = cfg.n, cfg.coarse_cells
    # the log only on the fine lines strictly inside the band: on the
    # coarse ones its argument falls below 1/N and turns negative
    t = (n - np.arange(half + 1, n)) / n
    lines = {}
    for axis, beta in ("x", cfg.beta1), ("y", cfg.beta2):
        pts = getattr(grid, f"{axis}_pts").copy()
        pts[half + 1:n] = 1.0 + (cfg.sigma * cfg.eps / beta) * np.log(
            1.0 - 2.0 * (1.0 - 1.0 / n) * t)
        lines[f"{axis}_pts"], lines[f"h_{axis}"] = pts, np.diff(pts)
    return dataclasses.replace(grid, **lines)


MESHES = {"shishkin": lambda grid: grid,
          "bakhvalov-shishkin": bakhvalov_shishkin_mesh}


def coarse_elements(mesh):
    """(N, N) mask of the elements inside the coarse region
    [0, 1-lambda_x] x [0, 1-lambda_y], found from the mesh lines."""
    in_x = mesh.x_pts[1:] <= 1.0 - mesh.lambda_x
    in_y = mesh.y_pts[1:] <= 1.0 - mesh.lambda_y
    return in_x[:, None] & in_y[None, :]


@functools.lru_cache(maxsize=None)
def make_case(k, n, eps, sigma=None, dirichlet="weak", mesh="shishkin"):
    """Mesh + edges + dofmap + assembled system for the built-in problem,
    on the two-band mesh or a :data:`MESHES` variant of it."""
    sigma = (k + 1.5) if sigma is None else sigma
    problem = boundary_layer_problem(eps)
    grid = MESHES[mesh](make_mesh(n, eps, sigma))
    edges = classify_edges(grid)
    dofmap = DofMap(k=k)
    system = assemble(grid, edges, dofmap, problem, dirichlet=dirichlet)
    return SimpleNamespace(k=k, n=n, eps=eps, sigma=sigma, problem=problem,
                           mesh=grid, edges=edges, dofmap=dofmap,
                           dofs=grid.n_elements * dofmap.ndof_local,
                           system=system)


@functools.lru_cache(maxsize=None)
def solve_case(k, n, eps, sigma=None, dirichlet="weak", mesh="shishkin"):
    """Direct solve of :func:`make_case` plus its error record."""
    case = make_case(k, n, eps, sigma, dirichlet, mesh)
    x, report = solve(case.system, SolverConfig(method="direct"))
    u_h = DGFunction(case.mesh, case.dofmap, x)
    record = supercloseness_error(u_h, case.edges, case.problem)
    return SimpleNamespace(case=case, u_h=u_h, report=report, record=record)


def error_chain(k, eps, ns, sigma=None, dirichlet="weak", mesh="shishkin"):
    """e_IN along a doubling chain plus the observed orders."""
    errors = [solve_case(k, n, eps, sigma, dirichlet, mesh).record.e_in
              for n in ns]
    rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    return errors, rates


def spend_budget(monkeypatch, restart, max_iters):
    """Shrink the GMRES restart length and budget, so that a solve with an
    unreachable tolerance stops after ``max_iters`` iterations (a spent
    default budget of 5,000 takes seconds)."""
    monkeypatch.setattr(solver, "GMRES_RESTART", restart)
    monkeypatch.setattr(solver, "GMRES_MAX_ITERS", max_iters)


def random_dg_coefficients(rng, case, scale=1.0):
    """A random coefficient vector over the broken space of a case."""
    return scale * rng.standard_normal(case.dofs)


def as_dg(case, coefficients):
    return DGFunction(case.mesh, case.dofmap, np.asarray(coefficients,
                                                         dtype=float))
