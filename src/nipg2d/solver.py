"""Linear solvers for the assembled systems.

Both paths first apply row equilibration (scaling each row by its largest
absolute entry): the penalty weights spread row magnitudes over several
orders, and equilibration keeps the factorizations well behaved for small
diffusion parameters.

The direct path factors the equilibrated matrix with SuperLU in its
symmetric-pattern mode: one ordering applied to rows and columns alike,
with diagonal pivots preferred (threshold 1e-4).  The ordering is the
system's own ``order`` when it has one; :func:`~nipg2d.assembly.assemble`
sets the minimum-degree order of the element graph, which keeps each
element's dofs together.  At k = 1 and 2 that leaves a smaller LU than
minimum degree on the dof graph (10.3M against 13.5M entries at k = 1,
N = 128), at k = 3 a larger one (5.5M against 3.9M at N = 32).  Without
an order, SuperLU's minimum degree on the pattern of A^T + A is used.

Symmetric-pattern mode suits the NIPG matrix.  Its pattern is symmetric,
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


def _equilibrate(matrix, rhs, order=None):
    """Scale rows by their largest absolute entry.

    Returns the scaled matrix DA as CSC, or P (DA) P^T (row and column
    ``order[i]`` of DA moved to position i) when an ``order`` is given, so
    that only the copy to be factored is kept; and Db and the diagonal of D.
    """
    row_max = np.abs(matrix).max(axis=1).toarray().ravel()
    row_max[row_max == 0.0] = 1.0
    scale = 1.0 / row_max
    d = diags(scale)
    scaled = d @ matrix
    if order is not None:
        scaled = scaled[order][:, order]
    return scaled.tocsc(), d @ rhs, scale


def _factor(scaled, order):
    """Sparse LU of the equilibrated matrix in symmetric-pattern mode.

    ``scaled`` comes from :func:`_equilibrate` with the same ``order``.
    With an order, P (DA) P^T is factored in natural order; without one,
    SuperLU orders DA by minimum degree on its A^T + A pattern.  Returns
    the solve function ``(b, trans="N") -> x`` for DA and the LU fill.
    """
    options = dict(diag_pivot_thresh=1e-4, options={"SymmetricMode": True})
    if order is None:
        lu = splu(scaled, permc_spec="MMD_AT_PLUS_A", **options)
        return lu.solve, lu.nnz
    lu = splu(scaled, permc_spec="NATURAL", **options)

    # a plain closure: an object holding the LU in a reference cycle
    # would keep it alive until the cycle collector runs
    def solve_unpermuted(b, trans="N"):
        x = np.empty_like(b)
        x[order] = lu.solve(b[order], trans)
        return x

    return solve_unpermuted, lu.nnz


def solve(system, config=None):
    """Solve an assembled :class:`~nipg2d.assembly.SparseSystem`.

    The direct path factors the row-equilibrated matrix in the system's
    ``order`` (SuperLU's minimum degree on A^T + A if it has none) with
    diagonal pivots preferred down to a threshold of 1e-4 (see the module
    docstring for why the coercive NIPG matrix admits them).  Iterative
    refinement against the unscaled system stops at the residual target
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
    # the ILU path keeps the dof order
    order = system.order if config.method == "direct" else None
    if order is not None and not np.array_equal(np.sort(order),
                                                np.arange(rows)):
        raise ValueError("order must be a permutation of the unknowns")

    start = time.perf_counter()
    scaled, scaled_rhs, row_scale = _equilibrate(matrix, rhs, order)
    condition = None
    lu_fill = None
    message = ""
    rhs_scale = np.linalg.norm(rhs) or 1.0

    if config.method == "direct":
        lu_solve, lu_fill = _factor(scaled, order)
        x = lu_solve(scaled_rhs)
        iterations = 0
        # iterative refinement against the unscaled system recovers the
        # digits lost to pivot growth in ill-scaled factors; a step that
        # does not halve the residual shows it has reached its floor
        target = min(config.rel_tol, 1e-12) * rhs_scale
        r = rhs - matrix @ x
        r_norm = np.linalg.norm(r)
        for _ in range(3):
            if r_norm <= target:
                break
            x = x + lu_solve(row_scale * r)
            r = rhs - matrix @ x
            r_norm, previous = np.linalg.norm(r), r_norm
            if r_norm > 0.5 * previous:
                break
        if config.estimate_condition:
            # 1-norms are invariant under the symmetric permutation
            inv = LinearOperator(scaled.shape, matvec=lu_solve,
                                 rmatvec=lambda b: lu_solve(b, trans="T"))
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
        r_norm = np.linalg.norm(rhs - matrix @ x)
        if not message and info > 0:
            message = f"GMRES stopped after {iterations} iterations"
        elif not message and r_norm / rhs_scale > config.rel_tol:
            # GMRES tests the equilibrated, preconditioned residual; the
            # verdict uses the unscaled one
            message = (f"GMRES met its stopping test on the equilibrated "
                       f"system, but the unscaled residual "
                       f"{r_norm / rhs_scale:.3e} misses rel_tol "
                       f"{config.rel_tol:.3e}")

    wall = time.perf_counter() - start
    residual = float(r_norm / rhs_scale)
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
