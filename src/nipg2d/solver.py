"""Linear solvers for the assembled systems.

Both paths first apply row equilibration (scaling each row by its largest
absolute entry): the penalty weights spread row magnitudes over several
orders, and equilibration keeps the factorizations well behaved for small
diffusion parameters.

The direct path factors the equilibrated matrix with SuperLU in its
symmetric-pattern mode: a minimum-degree ordering on the pattern of
A^T + A, applied to rows and columns alike, with diagonal pivots preferred
(threshold 1e-4).  That suits the NIPG matrix.  Its pattern is symmetric,
since every face couples its two elements both ways.  Its symmetric part
is positive definite, since v^T A v = B(v, v) = |v|_E^2 > 0, and such a
matrix has an LU without off-diagonal pivots.  Row scaling keeps that LU
(DA = (D L D^-1)(D U)), a symmetric permutation keeps A + A^T definite,
and strong Dirichlet rows only add identity rows and zero columns.  The
threshold is not 0: SuperLU then accepts any nonzero diagonal, however
tiny, and a general matrix that needs off-diagonal pivots loses accuracy.
Iterative refinement then stops at the target residual, after three
steps, or as soon as a step fails to halve the residual.

The reported residual is always measured on the original, unscaled system.
A run whose residual misses the requested tolerance is reported as not
converged but never raises: callers decide how to treat degraded solves.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import (LinearOperator, gmres, onenormest, spilu,
                                 splu)


@dataclass(frozen=True)
class SolverConfig:
    """Options for :func:`solve`.

    Attributes
    ----------
    method : {"direct", "iterative"}
        Sparse LU, or restarted GMRES with an incomplete-LU preconditioner.
    rel_tol : float
        Target relative residual |b - Ax| / |b|.
    max_iters : int
        Inner-iteration budget for the iterative path.
    restart : int
        GMRES restart length.
    estimate_condition : bool
        Estimate the 1-norm condition number of the equilibrated matrix
        (direct path only, so it is rejected with "iterative"; costs a
        few extra solves).
    """

    method: str = "direct"
    rel_tol: float = 1e-10
    max_iters: int = 5000
    restart: int = 50
    estimate_condition: bool = False

    def __post_init__(self):
        if self.method not in ("direct", "iterative"):
            raise ValueError(f"unknown solver method: {self.method!r}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_iters < 1 or self.restart < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.estimate_condition and self.method != "direct":
            raise ValueError(
                "estimate_condition needs the direct solver; the iterative "
                "path computes no condition estimate")


@dataclass
class SolveReport:
    """Outcome of one linear solve.

    ``iterations`` is 0 for the direct path; ``residual`` is the relative
    residual on the unscaled system; ``converged`` states whether it met
    the configured tolerance.  ``lu_fill`` is the number of stored entries
    of the sparse LU factors (``L.nnz + U.nnz``) on the direct path and
    ``None`` on the iterative one.
    """

    method: str
    iterations: int
    residual: float
    wall_time: float
    converged: bool
    condition_estimate: float | None = None
    message: str = ""
    lu_fill: int | None = None


def _equilibrate(matrix, rhs):
    """Scale rows by their largest absolute entry."""
    row_max = np.abs(matrix).max(axis=1).toarray().ravel()
    row_max[row_max == 0.0] = 1.0
    scale = 1.0 / row_max
    d = diags(scale)
    return (d @ matrix).tocsc(), d @ rhs, scale


def solve(system, config=None):
    """Solve an assembled :class:`~nipg2d.assembly.SparseSystem`.

    The direct path factors the row-equilibrated matrix with a
    minimum-degree ordering on the pattern of A^T + A and diagonal pivots
    preferred down to a threshold of 1e-4 (see the module docstring for
    why the coercive NIPG matrix admits them).  Iterative refinement
    against the unscaled system stops at the residual target
    ``min(rel_tol, 1e-12)``, after three steps, or once a step fails to
    halve the residual; the residual of the last step is the reported one.

    Parameters
    ----------
    system : SparseSystem
    config : SolverConfig, optional

    Returns
    -------
    (x, report) : (ndarray, SolveReport)
    """
    config = config or SolverConfig()
    matrix, rhs = system.matrix, np.asarray(system.rhs, dtype=float)
    rows, cols = matrix.shape
    if rows != cols:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if rhs.shape != (rows,):
        raise ValueError(
            f"rhs has shape {rhs.shape}, expected ({rows},)")
    if not np.all(np.isfinite(matrix.data)) or not np.all(np.isfinite(rhs)):
        raise ValueError("system contains non-finite entries")

    start = time.perf_counter()
    scaled, scaled_rhs, row_scale = _equilibrate(matrix, rhs)
    condition = None
    lu_fill = None
    message = ""
    rhs_norm = np.linalg.norm(rhs)

    if config.method == "direct":
        lu = splu(scaled, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-4,
                  options={"SymmetricMode": True})
        lu_fill = lu.nnz
        x = lu.solve(scaled_rhs)
        iterations = 0
        # iterative refinement against the unscaled system recovers the
        # digits lost to pivot growth in ill-scaled factors; a step that
        # does not halve the residual shows it has reached its floor
        target = min(config.rel_tol, 1e-12) * (rhs_norm if rhs_norm else 1.0)
        r = rhs - matrix @ x
        r_norm = np.linalg.norm(r)
        for _ in range(3):
            if r_norm <= target:
                break
            x = x + lu.solve(row_scale * r)
            r = rhs - matrix @ x
            r_norm, previous = np.linalg.norm(r), r_norm
            if r_norm > 0.5 * previous:
                break
        if config.estimate_condition:
            inv = LinearOperator(scaled.shape, matvec=lu.solve,
                                 rmatvec=lambda b: lu.solve(b, trans="T"))
            condition = float(onenormest(scaled) * onenormest(inv))
    else:
        try:
            ilu = spilu(scaled, drop_tol=1e-5, fill_factor=20)
            precond = LinearOperator(scaled.shape, matvec=ilu.solve)
        except RuntimeError as exc:  # singular pivot in the incomplete LU
            precond = None
            message = f"ILU preconditioner failed ({exc}); ran unpreconditioned"
        counter = _IterationCounter()
        x, info = gmres(scaled, scaled_rhs, rtol=config.rel_tol, atol=0.0,
                        restart=config.restart, maxiter=config.max_iters,
                        M=precond, callback=counter,
                        callback_type="pr_norm")
        iterations = counter.count
        if info > 0 and not message:
            message = f"GMRES stopped after {iterations} iterations"
        r_norm = np.linalg.norm(rhs - matrix @ x)

    wall = time.perf_counter() - start
    residual = float(r_norm / (rhs_norm if rhs_norm > 0 else 1.0))
    report = SolveReport(
        method=config.method,
        iterations=iterations,
        residual=residual,
        wall_time=wall,
        converged=residual <= config.rel_tol,
        condition_estimate=condition,
        message=message,
        lu_fill=lu_fill,
    )
    return x, report


class _IterationCounter:
    def __init__(self):
        self.count = 0

    def __call__(self, _):
        self.count += 1
