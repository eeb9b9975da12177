"""Reference-cell machinery: 1D quadrature and Lagrange tables, their
tensor products, and the local operators.

Everything in this module lives on the reference cell K = (-1, 1)^2 (or the
reference interval (-1, 1) for one-dimensional pieces).  Physical-cell
quantities are obtained by affine scaling in the calling code.

Q_k is a tensor-product space and the library only evaluates it on tensor
products of 1D point sets, so two 1D primitives carry all the data:
:func:`gauss_legendre` (the Gauss rule) and :func:`lagrange_1d` (the
Lobatto-node Lagrange basis and its derivative).  :func:`reference_tables`
takes their outer products at the Gauss points once per (k, nq) and caches
them read-only, and both local operators (the vertices-edges-element
interpolant and the L2 projection) are precomputed matrices acting on
samples.

Conventions
-----------
* A degree-k tensor-product space Q_k has (k+1)^2 local degrees of freedom.
* The nodal basis uses Gauss-Lobatto points per direction; local index
  m = a*(k+1) + b pairs the xi-node a with the eta-node b.
* 2D quadrature points are tensorized x-major: q = qx*n + qy.
"""

import numpy as np
from functools import lru_cache

from numpy.polynomial import legendre as npleg
from scipy.linalg import block_diag


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Return the ``n``-point Gauss-Legendre rule on (-1, 1).

    The rule integrates polynomials of degree 2n - 1 exactly.

    Returns
    -------
    (nodes, weights) : read-only ndarrays of shape (n,), cached per n
        Ascending points and positive weights summing to 2.
    """
    if n < 1:
        raise ValueError(f"quadrature rule needs at least one point, got n={n}")
    nodes, weights = npleg.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def lobatto_nodes(m):
    """Return ``m`` Gauss-Lobatto points on [-1, 1] (endpoints included).

    The interior points are the roots of P'_{m-1}, the derivative of the
    Legendre polynomial of degree m - 1 (none for m = 2).
    """
    if m < 2:
        raise ValueError(f"Lobatto node set needs m >= 2 points, got {m}")
    inner = npleg.Legendre.basis(m - 1).deriv().roots()
    return np.concatenate([[-1.0], np.sort(inner.real), [1.0]])


def _node_products(x, nodes):
    """prod_{j != i} (x - x_j) for every node i, shape (len(x), len(nodes))."""
    diff = x[:, None] - nodes
    return np.stack([np.prod(np.delete(diff, i, axis=1), axis=1)
                     for i in range(len(nodes))], axis=1)


@lru_cache(maxsize=None)
def _lagrange_data(k):
    """Lobatto nodes, product-form denominators and derivative coefficients
    of the degree-``k`` Lagrange basis."""
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got k={k}")
    nodes = lobatto_nodes(k + 1)
    # denominators prod_{j != i} (x_i - x_j), formed by the same products
    # as the numerators so that L_i(x_i) is exactly 1
    denom = np.diag(_node_products(nodes, nodes)).copy()
    # coeff[q, i]: coefficient of x^q in the i-th Lagrange polynomial
    coeff = np.linalg.inv(np.vander(nodes, increasing=True))
    # derivative coefficients: d/dx sum_q c_q x^q = sum_q (q+1) c_{q+1} x^q
    return nodes, denom, coeff[1:, :] * np.arange(1, k + 1)[:, None]


def lagrange_1d(k, x):
    """Lagrange basis of degree ``k`` on the k+1 Gauss-Lobatto nodes.

    Values are evaluated in product form, prod_{j != i} (x - x_j) /
    (x_i - x_j), which is exactly 0 or 1 at the nodes, so a 2D basis
    function vanishes exactly on the sides that do not carry its node.
    Derivatives go through an inverted Vandermonde matrix, which is well
    conditioned for the small degrees used here.

    Returns
    -------
    (values, derivatives) : ndarrays of shape (k+1, len(x))
        Point-major (F-ordered): the assembly contractions over quadrature
        points run faster on this layout.
    """
    nodes, denom, dcoeff = _lagrange_data(k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    values = _node_products(x, nodes) / denom
    derivatives = np.vander(x, k, increasing=True) @ dcoeff
    return values.T, derivatives.T


def _outer(fx, fy):
    """Q_k table of the products fx[a, p] * fy[b, q] of two 1D tables:
    row a*(k+1) + b, column p*ny + q over the nx x-points p and ny y-points
    q (x-major, as the 2D Gauss points), stored point-major."""
    npts = fx.shape[1] * fy.shape[1]
    return np.einsum("ap,bq->pqab", fx, fy, order="C").reshape(npts, -1).T


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
    d/deta on bottom/top).  One cached instance per (k, nq) serves assembly,
    the norms and both local operators, so every array is read-only.  The
    tables are point-major, as :func:`lagrange_1d` returns them: the volume
    ``np.einsum`` calls of assembly depend on it (~45% slower on C order).
    """

    def __init__(self, k, nq):
        t, w1 = gauss_legendre(nq)
        ones = np.ones(nq)
        self.t, self.w1 = t, w1
        self.points = np.column_stack([np.repeat(t, nq), np.tile(t, nq)])
        self.w2 = np.repeat(w1, nq) * np.tile(w1, nq)
        val, der = lagrange_1d(k, t)
        end_val, end_der = lagrange_1d(k, (-1.0, 1.0))
        self.vals = _outer(val, val)
        self.gx, self.gy = _outer(der, val), _outer(val, der)
        self.side_points = tuple(
            np.column_stack(p)
            for p in ((-ones, t), (ones, t), (t, -ones), (t, ones)))
        ends = (slice(0, 1), slice(1, 2))       # xi or eta = -1, then 1
        self.tr = (tuple(_outer(end_val[:, e], val) for e in ends)
                   + tuple(_outer(val, end_val[:, e]) for e in ends))
        self.dn = (tuple(_outer(end_der[:, e], val) for e in ends)
                   + tuple(_outer(val, end_der[:, e]) for e in ends))
        for value in vars(self).values():
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False


@lru_cache(maxsize=None)
def reference_tables(k, nq):
    """Cached :class:`ReferenceTables` of degree ``k`` on the ``nq``-point
    Gauss rule."""
    return ReferenceTables(k, nq)


@lru_cache(maxsize=None)
def face_products(k, nq, row_side, col_side):
    """Cached, read-only (3 nq, (k+1)^4) stack of tr_r (x) dn_c, dn_r (x) tr_c
    and tr_r (x) tr_c for test side r = ``row_side`` and trial side c =
    ``col_side``, one row per side Gauss point: (faces, 3 nq) weights times
    it give all three face terms of the flattened (m, n) blocks at once."""
    tab = reference_tables(k, nq)
    rows = np.stack([tab.tr[row_side], tab.dn[row_side], tab.tr[row_side]])
    cols = np.stack([tab.dn[col_side], tab.tr[col_side], tab.tr[col_side]])
    out = np.einsum("tmq,tnq->tqmn", rows, cols, order="C").reshape(3 * nq, -1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def vee_operator(k, nq):
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

    Returns
    -------
    (points, matrix) : read-only ndarrays, cached per (k, nq)
        The sample points (npts, 2) -- the four corners (bottom-left,
        bottom-right, top-right, top-left), ``nq`` per side in side-code
        order, then the ``nq``^2 cell points -- and the ((k+1)^2, npts)
        matrix taking samples w(points) to the nodal coefficients of p.
    """
    tab = reference_tables(k, nq)       # rejects k < 1
    corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    points = np.vstack([corners, *tab.side_points, tab.points])
    end_val, _ = lagrange_1d(k, (-1.0, 1.0))
    # the x-major corner grid is (-1,-1), (-1,1), (1,-1), (1,1)
    bvals = np.hstack([_outer(end_val, end_val)[:, [0, 2, 3, 1]], *tab.tr,
                       tab.vals])
    # Gauss-weighted Legendre polynomials of degree 0..k-2 (none for k=1)
    moments = tab.w1 * npleg.legvander(tab.t, k)[:, :k - 1].T
    # cond[i, p]: weight of sample p in condition functional i
    cond = block_diag(np.eye(4), *[moments] * 4, np.kron(moments, moments))
    matrix = np.linalg.solve(cond @ bvals.T, cond)
    points.flags.writeable = matrix.flags.writeable = False
    return points, matrix


@lru_cache(maxsize=None)
def l2_projector(k, nq):
    """Local L2 projection onto Q_k on the reference cell.

    The projection p of w satisfies: integral of (w - p) v vanishes for
    every v in Q_k.  Right-hand sides are evaluated with an ``nq``-point
    Gauss rule per direction.

    Returns
    -------
    (points, matrix) : read-only ndarrays, cached per (k, nq)
        The Gauss points (nq^2, 2) and the ((k+1)^2, nq^2) matrix taking
        samples w(points) to the nodal coefficients of p.
    """
    tab = reference_tables(k, nq)
    weighted = tab.vals * tab.w2             # (ndof, npts)
    matrix = np.linalg.solve(weighted @ tab.vals.T, weighted)
    matrix.flags.writeable = False
    return tab.points, matrix
