"""Reference-cell machinery: quadrature, tensor-product basis, local operators.

Everything in this module lives on the reference cell K = (-1, 1)^2 (or the
reference interval (-1, 1) for one-dimensional pieces).  Physical-cell
quantities are obtained by affine scaling in the calling code.

This module owns all reference-cell data: :func:`reference_tables` builds
the basis values, gradients and side traces at the Gauss points once per
(k, nq) and caches them read-only, and both local operators (the
vertices-edges-element interpolant and the L2 projection) are precomputed
matrices acting on samples.

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
from scipy.linalg import block_diag


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
    Values are evaluated in product form, prod_{j != i} (x - x_j) /
    (x_i - x_j), which is exactly 0 or 1 at the nodes, so a basis function
    vanishes exactly on the sides that do not carry its node.  Derivatives
    go through an inverted Vandermonde matrix, which is well conditioned
    for the small degrees used here.

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
        # denominators prod_{j != i} (x_i - x_j), formed by the same products
        # as the numerators so that L_i(x_i) is exactly 1
        self._denom_1d = np.diag(self._node_products(self.nodes_1d)).copy()
        # coeff_1d[q, i]: coefficient of x^q in the i-th Lagrange polynomial
        coeff_1d = np.linalg.inv(np.vander(self.nodes_1d, increasing=True))
        # derivative coefficients: d/dx sum_q c_q x^q = sum_q (q+1) c_{q+1} x^q
        self.dcoeff_1d = coeff_1d[1:, :] * np.arange(1, k + 1)[:, None]

    # -- one-dimensional pieces -------------------------------------------

    def _node_products(self, x):
        """prod_{j != i} (x - x_j) for every node i, shape (len(x), k+1)."""
        diff = x[:, None] - self.nodes_1d
        return np.stack([np.prod(np.delete(diff, i, axis=1), axis=1)
                         for i in range(self.ndof_1d)], axis=1)

    def eval_1d(self, x):
        """Values of the k+1 Lagrange polynomials, shape (k+1, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # point-major storage, as deriv_1d returns it: the assembly
        # contractions over quadrature points run faster on this layout
        return (self._node_products(x) / self._denom_1d).T

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


#: reference sides of the cell (xi = -1, xi = 1, eta = -1, eta = 1),
#: indexing the side tables of :class:`ReferenceTables`
LEFT, RIGHT, BOTTOM, TOP = range(4)


class ReferenceTables:
    """Basis tables at the ``nq``-point Gauss rule of the reference cell.

    ``t``, ``w1`` are the 1D Gauss points and weights, ``points`` (nq^2, 2)
    and ``w2`` their x-major tensor product.  ``vals``, ``gx``, ``gy`` hold
    the basis values and reference gradients at ``points``, shape
    ((k+1)^2, nq^2).  Indexed by side code, ``side_points`` holds the Gauss
    points on each side, ``tr`` the basis traces there and ``dn`` the
    reference derivative transverse to the side (d/dxi on left/right,
    d/deta on bottom/top).  One cached instance per (k, nq) serves
    assembly, the norms and both local operators, so every array is
    read-only.
    """

    def __init__(self, k, nq):
        basis = reference_basis(k)
        rule = gauss_legendre(nq)
        t, ones = rule.nodes, np.ones(nq)
        self.t, self.w1 = t, rule.weights
        self.points, self.w2 = rule.points_2d(), rule.weights_2d()
        self.vals = basis.eval_2d(self.points)
        self.gx, self.gy = basis.grad_2d(self.points)
        self.side_points = tuple(
            np.column_stack(p)
            for p in ((-ones, t), (ones, t), (t, -ones), (t, ones)))
        self.tr = tuple(basis.eval_2d(p) for p in self.side_points)
        self.dn = tuple(basis.grad_2d(p)[side // 2]
                        for side, p in enumerate(self.side_points))
        for value in vars(self).values():
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False


@lru_cache(maxsize=None)
def reference_tables(k, nq):
    """Cached :class:`ReferenceTables` of degree ``k`` on the ``nq``-point
    Gauss rule."""
    return ReferenceTables(k, nq)


class _LocalOperator:
    """Linear map from samples of w at :attr:`points` to nodal Q_k
    coefficients, stored as one ((k+1)^2, npts) matrix."""

    def __init__(self, points, matrix):
        self.points, self.matrix = points, matrix
        points.flags.writeable = matrix.flags.writeable = False

    def apply_to_values(self, values):
        """Coefficients from samples of w at :attr:`points`.

        Parameters
        ----------
        values : ndarray, shape (..., npts)
            Samples w(points) for one or many functions.

        Returns
        -------
        ndarray, shape (..., (k+1)^2)
            Coefficients in the nodal reference basis.
        """
        return np.asarray(values, dtype=float) @ self.matrix.T

    def apply(self, w):
        """Apply the operator to a callable ``w(xi, eta)`` on the
        reference cell."""
        return self.apply_to_values(w(self.points[:, 0], self.points[:, 1]))


class VeeInterpolator(_LocalOperator):
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

    def __init__(self, k, nq=None):
        self.k = k
        self.nq = nq = (k + 2) if nq is None else int(nq)
        tab = reference_tables(k, nq)       # rejects k < 1
        corners = np.array(self.VERTICES)
        # samples: 4 corners, nq per side in side-code order, nq^2 inside
        points = np.vstack([corners, *tab.side_points, tab.points])
        bvals = np.hstack([reference_basis(k).eval_2d(corners), *tab.tr,
                           tab.vals])
        # Gauss-weighted Legendre polynomials of degree 0..k-2 (none for k=1)
        moments = tab.w1 * npleg.legvander(tab.t, k)[:, :k - 1].T
        # cond[i, p]: weight of sample p in condition functional i
        cond = block_diag(np.eye(4), *[moments] * 4,
                          np.kron(moments, moments))
        super().__init__(points, np.linalg.solve(cond @ bvals.T, cond))


@lru_cache(maxsize=None)
def vee_operator(k, nq):
    """Cached :class:`VeeInterpolator` for degree ``k`` with ``nq``-point
    moment quadrature."""
    return VeeInterpolator(k, nq)


class L2Projector(_LocalOperator):
    """Local L2 projection onto Q_k on the reference cell.

    The projection p of w satisfies: integral of (w - p) v vanishes for
    every v in Q_k.  Right-hand sides are evaluated with an ``nq``-point
    Gauss rule per direction.
    """

    def __init__(self, k, nq=None):
        self.k = k
        self.nq = nq = (k + 2) if nq is None else int(nq)
        tab = reference_tables(k, nq)
        weighted = tab.vals * tab.w2             # (ndof, npts)
        super().__init__(tab.points,
                         np.linalg.solve(weighted @ tab.vals.T, weighted))


@lru_cache(maxsize=None)
def l2_projector(k, nq):
    """Cached :class:`L2Projector` for degree ``k`` with ``nq``-point
    quadrature."""
    return L2Projector(k, nq)
