"""Reference-cell machinery: quadrature, tensor-product basis, local operators.

Everything in this module lives on the reference cell K = (-1, 1)^2 (or the
reference interval (-1, 1) for one-dimensional pieces).  Physical-cell
quantities are obtained by affine scaling in the calling code.

Conventions
-----------
* A degree-k tensor-product space Q_k has (k+1)^2 local degrees of freedom.
* The nodal basis uses Gauss-Lobatto points per direction; local index
  m = a*(k+1) + b pairs the xi-node a with the eta-node b.
* 2D quadrature points are tensorized x-major: q = qx*n + qy.
"""

import numpy as np
from dataclasses import dataclass
from functools import lru_cache

from numpy.polynomial import legendre as npleg
from scipy.linalg import lu_factor, lu_solve


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule with ``n`` points on (-1, 1).

    Attributes
    ----------
    n : int
        Number of points; the rule integrates polynomials of degree
        2n - 1 exactly.
    nodes, weights : ndarray, shape (n,)
        Points (ascending) and positive weights summing to 2.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def points_2d(self):
        """Tensorized points on (-1,1)^2, shape (n^2, 2), x-major order."""
        xi = np.repeat(self.nodes, self.n)
        eta = np.tile(self.nodes, self.n)
        return np.column_stack([xi, eta])

    def weights_2d(self):
        """Tensorized weights, shape (n^2,), matching :meth:`points_2d`."""
        return np.repeat(self.weights, self.n) * np.tile(self.weights, self.n)


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Return the ``n``-point Gauss-Legendre rule on (-1, 1).

    Parameters
    ----------
    n : int
        Number of quadrature points, n >= 1.

    Returns
    -------
    QuadratureRule
    """
    if n < 1:
        raise ValueError(f"quadrature rule needs at least one point, got n={n}")
    nodes, weights = npleg.leggauss(n)
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(n, nodes, weights)


def lobatto_nodes(m):
    """Return ``m`` Gauss-Lobatto points on [-1, 1] (endpoints included).

    For m >= 3 the interior points are the roots of P'_{m-1}, the derivative
    of the Legendre polynomial of degree m - 1.
    """
    if m < 2:
        raise ValueError(f"Lobatto node set needs m >= 2 points, got {m}")
    if m == 2:
        return np.array([-1.0, 1.0])
    inner = npleg.Legendre.basis(m - 1).deriv().roots()
    return np.concatenate([[-1.0], np.sort(inner.real), [1.0]])


class ReferenceBasis:
    """Nodal tensor-product basis for Q_k on the reference cell (-1, 1)^2.

    The one-dimensional Lagrange basis sits on k+1 Gauss-Lobatto nodes
    (so traces on a cell side are determined by the nodes on that side).
    Polynomials are represented through an inverted Vandermonde matrix,
    which is well conditioned for the small degrees used here.

    Parameters
    ----------
    k : int
        Polynomial degree per direction, k >= 1.
    """

    def __init__(self, k):
        if k < 1:
            raise ValueError(f"polynomial degree must be >= 1, got k={k}")
        self.k = k
        self.ndof_1d = k + 1
        self.ndof = (k + 1) ** 2
        self.nodes_1d = lobatto_nodes(k + 1)
        # coeff_1d[q, i]: coefficient of x^q in the i-th Lagrange polynomial
        vander = np.vander(self.nodes_1d, increasing=True)
        self.coeff_1d = np.linalg.inv(vander)
        # derivative coefficients: d/dx sum_q c_q x^q = sum_q (q+1) c_{q+1} x^q
        self.dcoeff_1d = self.coeff_1d[1:, :] * np.arange(1, k + 1)[:, None]

    # -- one-dimensional pieces -------------------------------------------

    def eval_1d(self, x):
        """Values of the k+1 Lagrange polynomials, shape (k+1, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        powers = np.vander(x, self.ndof_1d, increasing=True)
        return (powers @ self.coeff_1d).T

    def deriv_1d(self, x):
        """Derivatives of the k+1 Lagrange polynomials, shape (k+1, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        powers = np.vander(x, self.ndof_1d - 1, increasing=True)
        return (powers @ self.dcoeff_1d).T

    # -- two-dimensional pieces -------------------------------------------

    def eval_2d(self, points):
        """Basis values at ``points`` (npts, 2); returns (ndof, npts)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lx = self.eval_1d(points[:, 0])
        ly = self.eval_1d(points[:, 1])
        return np.einsum("ap,bp->abp", lx, ly).reshape(self.ndof, -1)

    def grad_2d(self, points):
        """Reference-cell gradients at ``points``; returns a pair of
        (ndof, npts) arrays (d/dxi, d/deta)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lx = self.eval_1d(points[:, 0])
        ly = self.eval_1d(points[:, 1])
        dx = self.deriv_1d(points[:, 0])
        dy = self.deriv_1d(points[:, 1])
        gx = np.einsum("ap,bp->abp", dx, ly).reshape(self.ndof, -1)
        gy = np.einsum("ap,bp->abp", lx, dy).reshape(self.ndof, -1)
        return gx, gy


@lru_cache(maxsize=None)
def reference_basis(k):
    """Cached :class:`ReferenceBasis` of degree ``k``."""
    return ReferenceBasis(k)


class VeeInterpolator:
    """Vertices-edges-element interpolation operator on the reference cell.

    For w smooth enough, the interpolant p in Q_k is fixed by the
    (k+1)^2 conditions

    * p agrees with w at the four corners,
    * edge moments: the integral of (p - w) q over each side vanishes for
      every polynomial q of degree <= k-2 in the edge-parallel variable,
    * cell moments: the integral of (p - w) q over the cell vanishes for
      every q in Q_{k-2}.

    Because the trace of p on a side is a degree-k polynomial fixed by the
    two corner values plus the k-1 edge moments of that side alone, two
    cells sharing an edge produce identical traces there; gluing local
    interpolants therefore yields a continuous global function.

    Moments are evaluated with an ``nq``-point Gauss rule per direction
    (exact for the polynomial side of every condition when nq >= k).

    Parameters
    ----------
    k : int
        Polynomial degree, k >= 1.
    nq : int, optional
        Moment-quadrature points per direction; defaults to k + 2.
    """

    #: corner order: bottom-left, bottom-right, top-right, top-left
    VERTICES = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
    #: side order used for the edge-moment blocks
    SIDES = ("bottom", "right", "top", "left")

    def __init__(self, k, nq=None):
        if k < 1:
            raise ValueError(f"polynomial degree must be >= 1, got k={k}")
        self.k = k
        self.nq = nq = (k + 2) if nq is None else int(nq)
        rule = gauss_legendre(nq)
        t, w = rule.nodes, rule.weights
        ndof = (k + 1) ** 2

        # evaluation points: 4 corners, nq per side, nq^2 interior
        pts = [np.asarray(self.VERTICES, dtype=float)]
        ones = np.ones_like(t)
        side_pts = {
            "bottom": np.column_stack([t, -ones]),
            "right": np.column_stack([ones, t]),
            "top": np.column_stack([t, ones]),
            "left": np.column_stack([-ones, t]),
        }
        pts.extend(side_pts[s] for s in self.SIDES)
        pts.append(gauss_legendre(nq).points_2d())
        self.points = np.vstack(pts)
        npts = self.points.shape[0]

        # cond[i, p]: weight of point p in condition functional i
        cond = np.zeros((ndof, npts))
        row = 0
        for v in range(4):
            cond[row, v] = 1.0
            row += 1
        if k >= 2:
            # Legendre values at the 1D nodes, degrees 0..k-2
            leg = np.stack(
                [npleg.legval(t, [0.0] * d + [1.0]) for d in range(k - 1)]
            )
            for s in range(4):
                base = 4 + s * nq
                for d in range(k - 1):
                    cond[row, base : base + nq] = w * leg[d]
                    row += 1
            w2 = rule.weights_2d()
            base = 4 + 4 * nq
            for a in range(k - 1):
                for b in range(k - 1):
                    lx = np.repeat(leg[a], nq)
                    ly = np.tile(leg[b], nq)
                    cond[row, base:] = w2 * lx * ly
                    row += 1
        assert row == ndof
        self.cond = cond

        basis = reference_basis(k)
        bvals = basis.eval_2d(self.points)  # (ndof, npts)
        self._lu = lu_factor(cond @ bvals.T)

    def apply_to_values(self, values):
        """Interpolate from samples of w at :attr:`points`.

        Parameters
        ----------
        values : ndarray, shape (..., npts)
            Samples w(points) for one or many functions.

        Returns
        -------
        ndarray, shape (..., (k+1)^2)
            Coefficients in the nodal reference basis.
        """
        rhs = np.asarray(values, dtype=float) @ self.cond.T
        if rhs.ndim > 1:
            flat = rhs.reshape(-1, rhs.shape[-1])
            return lu_solve(self._lu, flat.T).T.reshape(rhs.shape)
        return lu_solve(self._lu, rhs)

    def apply(self, w):
        """Interpolate a callable ``w(xi, eta)`` on the reference cell."""
        vals = np.asarray(w(self.points[:, 0], self.points[:, 1]), dtype=float)
        return self.apply_to_values(vals)


@lru_cache(maxsize=None)
def vee_operator(k, nq):
    """Cached :class:`VeeInterpolator` for degree ``k`` with ``nq``-point
    moment quadrature."""
    return VeeInterpolator(k, nq)


class L2Projector:
    """Local L2 projection onto Q_k on the reference cell.

    The projection p of w satisfies: integral of (w - p) v vanishes for
    every v in Q_k.  Right-hand sides are evaluated with an ``nq``-point
    Gauss rule per direction.
    """

    def __init__(self, k, nq=None):
        self.k = k
        self.nq = nq = (k + 2) if nq is None else int(nq)
        rule = gauss_legendre(nq)
        self.points = rule.points_2d()
        basis = reference_basis(k)
        bvals = basis.eval_2d(self.points)
        self._weighted = bvals * rule.weights_2d()  # (ndof, npts)
        self._lu = lu_factor(self._weighted @ bvals.T)

    def apply_to_values(self, values):
        """Project from samples of w at :attr:`points` (shape (..., npts))."""
        rhs = np.asarray(values, dtype=float) @ self._weighted.T
        if rhs.ndim > 1:
            flat = rhs.reshape(-1, rhs.shape[-1])
            return lu_solve(self._lu, flat.T).T.reshape(rhs.shape)
        return lu_solve(self._lu, rhs)

    def apply(self, w):
        """Project a callable ``w(xi, eta)`` on the reference cell."""
        vals = np.asarray(w(self.points[:, 0], self.points[:, 1]), dtype=float)
        return self.apply_to_values(vals)


@lru_cache(maxsize=None)
def l2_projector(k, nq):
    """Cached :class:`L2Projector` for degree ``k`` with ``nq``-point
    quadrature."""
    return L2Projector(k, nq)
