"""Linear solvers for the assembled systems.

Both paths factor the assembled matrix A itself.  The direct path solves
with its LU.  The iterative path runs restarted GMRES on A,
left-preconditioned by M r = ILU(A)^-1 r, so GMRES stops on the relative
residual |b - Ax| / |b| that decides ``converged``.

Both paths factor with SuperLU in its symmetric-pattern mode, one
ordering applied to rows and columns alike, with diagonal pivots preferred
(threshold 1e-4).  The ordering is the system's ``order``
(:func:`~nipg2d.assembly.elimination_order` for an assembled system) when
it has one, and SuperLU's minimum degree on the pattern of A^T + A
otherwise.  The ordering matters as much to an incomplete LU of a
convection-diffusion matrix (Benzi, Szyld and van Duin, SIAM J. Sci.
Comput. 20, 1999).

Symmetric-pattern mode suits the NIPG matrix.  Its pattern is symmetric,
since every face couples its two elements both ways.  Its symmetric part
is positive definite, since v^T A v = B(v, v) = |v|_E^2 > 0, and such a
matrix has an LU without off-diagonal pivots.  A symmetric permutation
keeps A + A^T definite, and strong Dirichlet rows only add identity rows
and zero columns.  On assembled systems the LU indeed takes every pivot on
the diagonal, although the edge-type penalties spread the row magnitudes
over several orders.  The threshold is not 0: SuperLU then accepts any
nonzero diagonal, however tiny, and a general matrix that needs
off-diagonal pivots loses accuracy.

Iterative refinement computes the residual b - A x in ``np.longdouble``
and takes the correction from the same double LU (Demmel, Hida, Kahan,
Li, Mukherjee and Riedy, "Error bounds from extra-precise iterative
refinement", ACM TOMS 32, 2006).  The forward error of x then falls from
about cond(A) times the double unit roundoff to about the unit roundoff
plus cond(A) times that of ``longdouble`` (5.4e-20 for the 80-bit format
of x86-64 Linux), so the solution, and the errors computed from it, no
longer depend on the ordering: two orderings of a k <= 3, N = 8 system
give solutions 1e-17 to 1e-16 apart instead of 5e-15 to 2e-14.  Where
``longdouble`` is plain double the residual is a double one, and the
double floor applies.

Each path ends with its solution x and its own notes (a spent GMRES
budget, a failed ILU); one verdict then serves both.  It computes the
double-precision residual b - A x once, reports |b - Ax| / |b|, and
compares it with the tolerance.  A run that misses the tolerance is
reported as not converged, with the normwise backward error of x in its
message, but never raises: callers decide how to treat degraded solves.
A direct solve of an exactly singular matrix does raise (see
:func:`solve`).
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
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
        Target relative residual |b - Ax| / |b|, positive and finite;
        GMRES stops on it, and both paths report ``converged`` by it.
    max_iters : int
        Inner-iteration budget for the iterative path.
    restart : int
        GMRES restart length.
    estimate_condition : bool
        Estimate the 1-norm condition number of the matrix (direct path
        only, so it is rejected with "iterative"; costs a few extra
        solves).  The estimate is deterministic.
    """

    method: str = "direct"
    rel_tol: float = 1e-10
    max_iters: int = 5000
    restart: int = 50
    estimate_condition: bool = False

    def __post_init__(self):
        if self.method not in ("direct", "iterative"):
            raise ValueError(f"unknown solver method: {self.method!r}")
        if not 0 < self.rel_tol < np.inf:    # NaN included
            raise ValueError(
                f"rel_tol must be positive and finite, got {self.rel_tol}")
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
    residual |b - Ax| / |b|, the quantity GMRES stops on; ``converged``
    states whether it met the configured tolerance.  If not, ``message``
    names the residual and ``rel_tol``, then the path's notes (a spent
    GMRES budget, a failed ILU), and last the normwise backward error
    |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf), on either path; a failed
    ILU is noted even when the solve converges.  ``condition_estimate`` is
    the estimated 1-norm condition number of A, when requested.
    ``lu_fill`` is the number of stored entries of the sparse LU factors
    (``L.nnz + U.nnz``) on the direct path and ``None`` on the iterative
    one.
    """

    iterations: int
    residual: float
    converged: bool
    condition_estimate: float | None = None
    message: str = ""
    lu_fill: int | None = None


_RESIDUAL_ROWS = 4096                 # CSR rows per chunk of _residual


def _residual(matrix, rhs, x):
    """b - A x for a CSR matrix, accumulated in ``np.longdouble`` and
    rounded to double.

    The rows go :data:`_RESIDUAL_ROWS` at a time, so the extended copy of
    the matrix values never holds more than one chunk.
    """
    x = x.astype(np.longdouble)
    r = np.empty_like(rhs)
    indptr = matrix.indptr
    for lo in range(0, matrix.shape[0], _RESIDUAL_ROWS):
        hi = min(lo + _RESIDUAL_ROWS, matrix.shape[0])
        start, stop = indptr[lo], indptr[hi]
        chunk = csr_matrix((matrix.data[start:stop].astype(np.longdouble),
                            matrix.indices[start:stop],
                            indptr[lo:hi + 1] - start),
                           shape=(hi - lo, matrix.shape[1]))
        r[lo:hi] = rhs[lo:hi] - chunk @ x
    return r


def _factor(matrix, order, factorize, **drop):
    """(Incomplete) LU of a CSR matrix A in symmetric-pattern mode, by
    ``factorize`` (``splu`` or ``spilu``, with the ``drop`` options).

    With an ``order``, P A P^T (row and column ``order[i]`` of A moved to
    position i) is factored in natural order; without one, SuperLU orders
    A by minimum degree on its A^T + A pattern.  Only the rows are
    gathered into a new CSR copy; their column indices are relabelled in
    it, and one CSR-to-CSC pass sorts the entries into columns.  Returns
    the solve function ``(b, trans="N") -> x`` for A and the LU fill.
    """
    if order is None:
        permuted = matrix.tocsc()
    else:
        position = np.empty_like(matrix.indices, shape=order.size)
        position[order] = np.arange(order.size)
        permuted = matrix[order]
        permuted.indices = position[permuted.indices]
        permuted = permuted.tocsc()
    lu = factorize(permuted, permc_spec="MMD_AT_PLUS_A" if order is None
                   else "NATURAL", diag_pivot_thresh=1e-4,
                   options={"SymmetricMode": True}, **drop)
    if order is None:
        return lu.solve, lu.nnz

    # a plain closure: an object holding the LU in a reference cycle
    # would keep it alive until the cycle collector runs
    def solve_unpermuted(b, trans="N"):
        x = np.empty_like(b)
        x[order] = lu.solve(b[order], trans)
        return x

    return solve_unpermuted, lu.nnz


def solve(system, config=None):
    """Solve an assembled :class:`~nipg2d.assembly.SparseSystem`.

    Both paths factor the matrix in the system's ``order`` with diagonal
    pivots preferred down to a threshold of 1e-4 (see the module docstring
    for the order, and for why the coercive NIPG matrix admits these
    pivots), the iterative path incompletely (drop tolerance 1e-5, fill
    factor 20).  The direct path refines with extended-precision
    residuals, and stops when the extrapolated next correction
    |dx|^2 / |dx_prev| drops below the unit roundoff times |x|, when a
    step fails to halve the correction, or after four steps; a
    well-conditioned system takes one.  The reported residual is the
    double-precision relative residual of the final x.

    Parameters
    ----------
    system : SparseSystem
    config : SolverConfig, optional

    Returns
    -------
    (x, report) : (ndarray, SolveReport)

    Raises
    ------
    ValueError
        If the matrix is not square, the right-hand side does not match
        it, an entry is not finite, or ``order`` is not a permutation.
    RuntimeError
        SuperLU's "Factor is exactly singular", on the direct path, when
        the LU meets a zero pivot column, as for an exactly singular
        matrix.  An assembled NIPG matrix is coercive, so only a
        hand-built system reaches this.
    """
    config = config or SolverConfig()
    matrix = system.matrix.tocsr()
    rhs = np.asarray(system.rhs, dtype=float)
    rows, cols = matrix.shape
    if rows != cols:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if rhs.shape != (rows,):
        raise ValueError(
            f"rhs has shape {rhs.shape}, expected ({rows},)")
    if not np.all(np.isfinite(matrix.data)) or not np.all(np.isfinite(rhs)):
        raise ValueError("system contains non-finite entries")
    order = system.order
    if order is not None and not np.array_equal(np.sort(order),
                                                np.arange(rows)):
        raise ValueError("order must be a permutation of the unknowns")

    condition = None
    lu_fill = None
    notes = []                      # why the solve may have degraded
    iterations = 0

    if config.method == "direct":
        lu_solve, lu_fill = _factor(matrix, order, splu)
        x = lu_solve(rhs)
        # refinement with extended-precision residuals: each correction
        # shrinks by about the LU's contraction factor, so the next one is
        # about |dx|^2 / |dx_prev|; stop once that is below the unit
        # roundoff of x, or when a step fails to halve the correction
        unit = 0.5 * np.finfo(float).eps
        dx_norm = np.linalg.norm(x)
        for _ in range(4):
            dx = lu_solve(_residual(matrix, rhs, x))
            x = x + dx
            dx_norm, previous = np.linalg.norm(dx), dx_norm
            if (dx_norm ** 2 <= unit * np.linalg.norm(x) * previous
                    or dx_norm > 0.5 * previous):
                break
        if config.estimate_condition:
            # exact |A|_1; Hager's estimate of |A^-1|_1 draws no random numbers
            inv = LinearOperator(matrix.shape, matvec=lu_solve,
                                 rmatvec=lambda b: lu_solve(b, trans="T"))
            condition = float(abs(matrix).sum(axis=0).max()
                              * onenormest(inv, t=1))
    else:
        # M r = ILU(A)^-1 r
        try:
            apply_inverse, _ = _factor(matrix, order, spilu,
                                       drop_tol=1e-5, fill_factor=20)
            precond = LinearOperator(matrix.shape, matvec=apply_inverse)
        except RuntimeError as exc:  # singular pivot in the incomplete LU
            precond = None
            notes.append(f"ILU preconditioner failed ({exc}); "
                         f"GMRES runs unpreconditioned")

        def count_iteration(_):
            nonlocal iterations
            iterations += 1

        x, info = gmres(matrix, rhs, rtol=config.rel_tol, atol=0.0,
                        restart=config.restart, maxiter=config.max_iters,
                        M=precond, callback=count_iteration,
                        callback_type="pr_norm")
        if info > 0:
            notes.append(f"GMRES stopped after {iterations} iterations")

    # the verdict, the same on both paths
    r = rhs - matrix @ x
    residual = float(np.linalg.norm(r) / (np.linalg.norm(rhs) or 1.0))
    converged = residual <= config.rel_tol
    if not converged:
        # the normwise backward error tells a failed solve from an
        # ill-conditioned system whose residual cannot get smaller
        backward = np.abs(r).max() / (
            abs(matrix).sum(axis=1).max() * np.abs(x).max()
            + np.abs(rhs).max())
        notes = [f"the relative residual {residual:.3e} misses rel_tol "
                 f"{config.rel_tol:.3e}", *notes,
                 f"the normwise backward error is {backward:.3e}"]
    report = SolveReport(
        iterations=iterations,
        residual=residual,
        converged=converged,
        condition_estimate=condition,
        message="; ".join(notes),
        lu_fill=lu_fill,
    )
    return x, report
