"""Global assembly of the nonsymmetric interior-penalty DG scheme.

The discrete problem: find u_h in the broken space Q_k(mesh) with

    B(u_h, v) = B1(u_h, v) + B2(u_h, v) + B3(u_h, v) = L(v)   for all v,

where, with jumps [v] = v_plus - v_minus and averages <v> oriented by each
edge's normal nu, which points from its plus to its minus element (single
traces, and the outward normal, on the boundary),

* B1: sum_K eps (grad u, grad v)_K
      - sum_e eps (<grad u . nu>, [v])_e + sum_e eps ([u], <grad v . nu>)_e
      + sum_e rho_e ([u], [v])_e                  (note the + sign: NIPG),
* B2: sum_K (b . grad u, v)_K
      - sum_K ((b.n) u+, v+) on the inflow boundary part of K
      - sum_K ((b.n)(u+ - u-), v+) on the interior inflow part of K,
* B3: sum_K (c u, v)_K,
* L:  sum_K (f, v)_K,

with eps and the coefficients read from one :class:`ProblemData`.
Homogeneous Dirichlet data is imposed weakly through the boundary-edge
terms above (single-trace jumps); a strong variant that eliminates the
boundary-node degrees of freedom afterwards is available for comparison.

Degrees of freedom: element (i, j) (flat index E = i*N + j) owns the
contiguous block E*(k+1)^2 + m, where m is the local nodal index of
:mod:`nipg2d.felib`.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import bsr_matrix, csr_matrix, diags, eye, kron
from scipy.sparse.linalg import spilu

from .felib import BOTTOM, LEFT, RIGHT, TOP, face_products, reference_tables
from .mesh import NO_ELEMENT


#: values of :func:`assemble`'s ``dirichlet`` argument
DIRICHLET_MODES = ("weak", "strong")

#: Gauss points per direction beyond k in :func:`assemble`
QUAD_POINTS_OVER_K = 2


class CoefficientConditionError(ValueError):
    """Raised when sampled coefficients violate the standing assumptions
    (componentwise positive convection, nonnegative c - div(b)/2)."""


@dataclass(frozen=True)
class DofMap:
    """Local layout of the degree-k degrees of freedom: (k + 1)^2 nodal
    values per element.  The mesh supplies the element count, so one
    DofMap serves every mesh of a degree.

    Attributes
    ----------
    k : int
        Polynomial degree per direction (>= 1).
    """

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"polynomial degree must be >= 1, got k={self.k}")

    @property
    def ndof_local(self):
        return (self.k + 1) ** 2


@dataclass(frozen=True)
class ProblemData:
    """Coefficients of -eps Lap(u) + b . grad(u) + c u = f with u = 0 on
    the boundary of the unit square.

    ``eps`` is positive and finite; the other entries are callables of
    (x, y) accepting ndarray arguments; ``div_b`` is the divergence of
    (b1, b2), and ``exact`` is the solution u where it is known.  The
    scheme assumes b1 >= beta1 > 0, b2 >= beta2 > 0 and
    c - div_b / 2 >= 0; :func:`assemble` and the energy norm spot-check
    these at their quadrature points.
    """

    eps: float
    b1: object
    b2: object
    div_b: object
    c: object
    f: object
    exact: object | None = None

    def __post_init__(self):
        if not 0.0 < self.eps < np.inf:
            raise ValueError(f"eps={self.eps} is not positive and finite")


@dataclass
class SparseSystem:
    """Assembled matrix, load vector and the LU's elimination order.

    ``order`` lists the dofs in the order that the solver's LU, complete
    or incomplete, eliminates them: the solver factors P A P^T, with row
    and column ``order[i]`` of A at position i.  :func:`assemble` sets
    :func:`elimination_order`.
    """

    matrix: csr_matrix
    rhs: np.ndarray
    order: np.ndarray


@dataclass
class DGFunction:
    """A broken-space function: per-element nodal coefficients in degree
    of freedom order, ``mesh.n_elements * dofmap.ndof_local`` of them."""

    mesh: object
    dofmap: DofMap
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        size = self.mesh.n_elements * self.dofmap.ndof_local
        if self.coefficients.shape != (size,):
            raise ValueError(
                f"coefficient vector has shape {self.coefficients.shape}, "
                f"expected ({size},)")


def _sample(fn, x, y):
    """Evaluate a callable of (x, y), broadcasting constants."""
    out = np.asarray(fn(x, y), dtype=float)
    if out.shape != np.shape(x):
        out = np.broadcast_to(out, np.shape(x)).copy()
    return out


def _cells(mesh, xi, eta):
    """Element geometry in flat order E = i*N + j.

    Returns the widths ``hx``, ``hy`` (ne,) and the images ``x``, ``y``
    (ne, npts) of the reference points (xi, eta) in every element.
    """
    n = mesh.config.n
    i = np.repeat(np.arange(n), n)
    j = np.tile(np.arange(n), n)
    hx, hy = mesh.h_x[i], mesh.h_y[j]
    x = mesh.x_pts[i][:, None] + (np.asarray(xi) + 1.0) * 0.5 * hx[:, None]
    y = mesh.y_pts[j][:, None] + (np.asarray(eta) + 1.0) * 0.5 * hy[:, None]
    return hx, hy, x, y


@dataclass(frozen=True)
class _Trace:
    """One side of a face batch.

    ``elem`` are the elements on that side, meeting the faces on reference
    side ``side``; ``sign`` is +1 on the plus and -1 on the minus side, so
    the jump is the signed sum of the traces; ``dnu`` (per face) turns the
    reference transverse derivative into grad v . nu.
    """

    elem: np.ndarray
    side: int
    sign: float
    dnu: np.ndarray

    @property
    def inflow(self):
        """Whether the faces are inflow faces of ``elem`` (b . n < 0 for a
        componentwise positive convection field)."""
        return self.side in (LEFT, BOTTOM)


@dataclass(frozen=True)
class _FaceBatch:
    """Gauss quadrature on edges whose traces share reference sides.

    ``w`` (faces, nq) holds the weights times the edge Jacobian, ``b`` the
    convection component transverse to the edge at the quadrature points
    (b . nu up to the normal sign), ``rho`` the penalty weights.
    ``traces`` is (plus,) on the boundary and (plus, minus) inside.
    """

    w: np.ndarray
    b: np.ndarray
    rho: np.ndarray
    traces: tuple


def _faces(mesh, edges, problem, tab):
    """Split an :class:`~nipg2d.mesh.EdgeSet` into face batches.

    Edges are grouped by the reference side on which the plus element
    meets them and by whether a minus side exists, so every batch uses one
    trace table per side whatever the numbering convention.  An edge is
    the RIGHT (TOP) side of a plus element whose column (row) lies before
    the edge's line, and its LEFT (BOTTOM) side otherwise.
    """
    n = mesh.config.n
    vertical = edges.orientation == "v"
    before = np.where(vertical, edges.plus // n, edges.plus % n) < edges.line
    plus_side = np.where(vertical, LEFT, BOTTOM) + before
    key = 2 * plus_side + (edges.minus == NO_ELEMENT)
    for code in np.unique(key):
        idx = np.flatnonzero(key == code)
        side, on_boundary = divmod(int(code), 2)
        line, cell = edges.line[idx], edges.cell[idx]
        if side in (LEFT, RIGHT):
            h = mesh.h_y[cell]
            y = mesh.y_pts[cell][:, None] + (tab.t + 1.0) * 0.5 * h[:, None]
            x = np.broadcast_to(mesh.x_pts[line][:, None], y.shape)
            b = _sample(problem.b1, x, y)
            width, cell_of = mesh.h_x, np.floor_divide  # column e // N
        else:
            h = mesh.h_x[cell]
            x = mesh.x_pts[cell][:, None] + (tab.t + 1.0) * 0.5 * h[:, None]
            y = np.broadcast_to(mesh.y_pts[line][:, None], x.shape)
            b = _sample(problem.b2, x, y)
            width, cell_of = mesh.h_y, np.remainder  # row e % N
        nu = 1.0 if side in (RIGHT, TOP) else -1.0
        sides = [(edges.plus[idx], side, 1.0)]
        if not on_boundary:
            # the minus element meets the edge on the opposite side
            sides.append((edges.minus[idx], side ^ 1, -1.0))
        traces = tuple(_Trace(e, s, sign, nu * 2.0 / width[cell_of(e, n)])
                       for e, s, sign in sides)
        yield _FaceBatch(tab.w1 * (0.5 * h)[:, None], b, edges.rho[idx],
                         traces)


_SLACK = 1e-9                  # round-off allowance of the coefficient checks


def _coefficients(problem, config, x, y):
    """b1, b2, c and c0^2 = c - div(b)/2 clipped at 0, sampled at
    ``(x, y)``; callers keep what they use, so the rest is freed at once.
    Raises :class:`CoefficientConditionError` if b1 or b2 is below
    ``config.beta1`` or ``config.beta2``, or c0^2 below 0, beyond 1e-9."""
    b1, b2 = _sample(problem.b1, x, y), _sample(problem.b2, x, y)
    if b1.min() < config.beta1 - _SLACK or b2.min() < config.beta2 - _SLACK:
        raise CoefficientConditionError(
            f"convection field drops below its declared lower bounds: "
            f"min b = ({b1.min():.6g}, {b2.min():.6g}), "
            f"declared ({config.beta1}, {config.beta2})")
    c = _sample(problem.c, x, y)
    c0sq = c - 0.5 * _sample(problem.div_b, x, y)
    if c0sq.min() < -_SLACK:
        raise CoefficientConditionError(
            f"c - div(b)/2 must be nonnegative; sampled minimum "
            f"{c0sq.min():.6g}")
    return b1, b2, c, np.maximum(c0sq, 0.0)


def assemble(mesh, edges, dofmap, problem, dirichlet="weak"):
    """Assemble the NIPG matrix and load vector with the
    (k + QUAD_POINTS_OVER_K)-point Gauss rule per direction.

    Parameters
    ----------
    mesh : ShishkinMesh
    edges : EdgeSet
        Output of :func:`nipg2d.mesh.classify_edges`; swapping plus and
        minus on any interior edges gives the same system.
    dofmap : DofMap
    problem : ProblemData
        Supplies eps and the coefficients.
    dirichlet : {"weak", "strong"}
        Weak (default) keeps the boundary-edge terms; strong additionally
        eliminates boundary-node dofs to zero afterwards.

    Returns
    -------
    SparseSystem
        The matrix is canonical CSR with int32 indices and no stored
        zeros.  ``order`` is :func:`elimination_order`.
    """
    n = mesh.config.n
    k = dofmap.k
    if dirichlet not in DIRICHLET_MODES:
        raise ValueError(f"unknown Dirichlet mode: {dirichlet!r}")

    nq = k + QUAD_POINTS_OVER_K
    tab = reference_tables(k, nq)
    ndl = dofmap.ndof_local
    ne = n * n
    # blocks[E, s] couples element E (test) to E + offsets[s] (trial)
    offsets = np.array([-n, -1, 0, 1, n])
    blocks = np.zeros((ne, offsets.size, ndl, ndl))

    # ---- element volumes -------------------------------------------------
    hx, hy, x_q, y_q = _cells(mesh, *tab.points.T)
    b1_q, b2_q, c_q = _coefficients(problem, mesh.config, x_q, y_q)[:3]

    kxx = np.einsum("q,mq,nq->mn", tab.w2, tab.gx, tab.gx)
    kyy = np.einsum("q,mq,nq->mn", tab.w2, tab.gy, tab.gy)
    vol = blocks[:, 2]                   # offset 0: the element itself
    vol[...] = problem.eps * ((hy / hx)[:, None, None] * kxx
                              + (hx / hy)[:, None, None] * kyy)

    vol += np.einsum("eq,mq,nq->emn",
                     tab.w2 * b1_q * (0.5 * hy)[:, None], tab.vals, tab.gx)
    vol += np.einsum("eq,mq,nq->emn",
                     tab.w2 * b2_q * (0.5 * hx)[:, None], tab.vals, tab.gy)
    vol += np.einsum("eq,mq,nq->emn",
                     tab.w2 * c_q * (0.25 * hx * hy)[:, None],
                     tab.vals, tab.vals)

    f_q = _sample(problem.f, x_q, y_q)
    rhs = np.einsum("eq,mq->em",
                    tab.w2 * f_q * (0.25 * hx * hy)[:, None], tab.vals).ravel()

    # ---- edge terms -------------------------------------------------------
    for face in _faces(mesh, edges, problem, tab):
        # {grad u . nu} averages two traces inside, takes one on the boundary
        avg = 0.5 if len(face.traces) == 2 else 1.0
        for r in face.traces:
            # penalty, plus the upwind term on the element the face flows into
            w_r = face.w * (face.rho[:, None] + (face.b if r.inflow else 0.0))
            for c in face.traces:
                weights = np.hstack([
                    -avg * problem.eps * r.sign * face.w * c.dnu[:, None],
                    avg * problem.eps * c.sign * face.w * r.dnu[:, None],
                    r.sign * c.sign * w_r])
                block = weights @ face_products(k, nq, r.side, c.side)
                # one offset per batch, and no element twice in a batch
                slot = np.searchsorted(offsets, c.elem[0] - r.elem[0])
                blocks[r.elem, slot] += block.reshape(-1, ndl, ndl)

    # ---- blocks to CSR ----------------------------------------------------
    # keep the slots of neighbours on the mesh; columns ascend within a row
    i, j = np.divmod(np.arange(ne), n)
    exists = np.column_stack([i > 0, j > 0, np.full(ne, True), j < n - 1,
                              i < n - 1])
    block_rows = bsr_matrix(
        (blocks[exists], (np.arange(ne)[:, None] + offsets)[exists],
         np.append(0, np.cumsum(exists.sum(1)))),
        shape=(ne * ndl,) * 2)
    del blocks, vol
    matrix = block_rows.tocsr()
    # neighbour blocks are exactly zero wherever neither node lies on the
    # shared side, where the Lobatto-nodal traces vanish
    matrix.eliminate_zeros()

    system = SparseSystem(matrix, rhs, elimination_order(n, k))
    if dirichlet == "strong":
        _eliminate_boundary_dofs(system, mesh, dofmap)
    return system


@lru_cache(maxsize=None)
def elimination_order(n, k):
    """Dof elimination order of the solver's LU, complete or incomplete,
    for degree k on an N x N mesh: the dofs of the :class:`DofMap` layout
    in the order the LU eliminates them, read-only and cached per (N, k).

    At k = 1 whole elements are eliminated, each element's four dofs
    together, in minimum-degree order of the element graph (George and
    Liu, *Computer Solution of Large Sparse Positive Definite Systems*,
    1981).  That order is the inverse of SuperLU's ``perm_c`` for
    ``MMD_AT_PLUS_A`` in symmetric mode on the 5-point Laplacian of the
    element numbering i*N + j (Liu, ACM TOMS 11, 1985, then SuperLU's
    elimination-tree postorder).  It does not depend on the numeric
    factors, so an incomplete LU that drops every entry it may supplies
    it (20 ms against 68 ms for a full LU at N = 128).  At k >= 2 the
    order is face-node nested dissection (:func:`_face_dissection`).

    Against SuperLU's minimum degree on the dof graph, the LU has 10.3M
    against 13.5M entries at k = 1, N = 128, 8.2M against 11.2M at
    k = 2, N = 64 and 3.2M against 3.9M at k = 3, N = 32.  Each order
    loses where the other is used: face-node dissection gives 16.0M at
    k = 1, N = 128 and the element order 5.5M at k = 3, N = 32.
    """
    if k == 1:
        line = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        laplacian = (kron(line, eye(n)) + kron(eye(n), line)).tocsc()
        lu = spilu(laplacian, drop_tol=1.0, fill_factor=1,
                   permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        order = (np.argsort(lu.perm_c)[:, None] * 4 + np.arange(4)).ravel()
    else:
        order = _face_dissection(n, k)
    order.flags.writeable = False
    return order


def _face_dissection(n, k):
    """Face-node nested-dissection order of the dofs of an N x N mesh.

    The element grid is bisected along its longer side (x on a tie), and
    each half again, down to leaves of at most 2 elements.  A cut's
    separator is the face-node dofs on both sides of the cut line: local
    node a == k of the elements before it and a == 0 of those after it
    (b for a cut in y), less the dofs an outer separator already holds.
    Neighbour blocks of the NIPG matrix vanish unless one of the two nodes
    lies on the shared face, so a separator disconnects the two halves.
    The order is [first half, second half, separator] at every level,
    and the dofs of one separator or leaf stay in natural order (A.
    George, "Nested dissection of a regular finite element mesh", SIAM J.
    Numer. Anal. 10, 1973).
    """
    m = k + 1
    i, j = np.divmod(np.arange(n * n), n)
    a, b = np.divmod(np.arange(m * m), m)
    # the box [x0, x1) x [y0, y1) holding each element at the current level
    x0, x1 = np.zeros_like(i), np.full_like(i, n)
    y0, y1 = np.zeros_like(j), np.full_like(j, n)
    # a dof sorts by the tree path of the box whose separator or leaf holds
    # it, one base-3 digit per level (0 first half, 1 second half), padded
    # with 2s from that box's level on: so after both halves of its box
    depth = 2 * (n - 1).bit_length() + 1
    path = np.zeros(n * n, dtype=np.int64)
    key = np.full((n * n, m * m), -1, dtype=np.int64)
    for level in range(depth):
        w, h = x1 - x0, y1 - y0
        in_x = w >= h
        mid = np.where(in_x, x0 + w // 2, y0 + h // 2)
        at = np.where(in_x, i, j)
        local = np.where(in_x[:, None], a, b)
        on_cut = (((at == mid - 1)[:, None] & (local == k))
                  | ((at == mid)[:, None] & (local == 0)))
        take = (key < 0) & (on_cut | (w * h <= 2)[:, None])
        key[take] = np.broadcast_to(
            path[:, None] + (3 ** (depth - level) - 1), key.shape)[take]
        if (key >= 0).all():
            break
        second = at >= mid
        path += second * 3 ** (depth - level - 1)
        x0 = np.where(in_x & second, mid, x0)
        x1 = np.where(in_x & ~second, mid, x1)
        y0 = np.where(~in_x & second, mid, y0)
        y1 = np.where(~in_x & ~second, mid, y1)
    return np.argsort(key.ravel(), kind="stable")


def boundary_dofs(mesh, dofmap):
    """Global indices of nodal dofs sitting on the domain boundary,
    ascending."""
    n, k = mesh.config.n, dofmap.k
    i, j, a, b = np.ix_(np.arange(n), np.arange(n),
                        np.arange(k + 1), np.arange(k + 1))
    on_boundary = (((i == 0) & (a == 0)) | ((i == n - 1) & (a == k))
                   | ((j == 0) & (b == 0)) | ((j == n - 1) & (b == k)))
    # C order of (i, j, a, b) is the dof order (i*N + j)*(k+1)^2 + a*(k+1) + b
    return np.flatnonzero(on_boundary)


def _eliminate_boundary_dofs(system, mesh, dofmap):
    """Strong homogeneous Dirichlet: identity rows/zero columns on
    boundary-node dofs, written into the assembled CSR arrays."""
    bdofs = boundary_dofs(mesh, dofmap)
    a = system.matrix
    on_boundary = np.zeros(system.rhs.size, dtype=bool)
    on_boundary[bdofs] = True
    pos = np.flatnonzero(np.repeat(on_boundary, np.diff(a.indptr)))
    # the boundary face's penalty makes each boundary row's diagonal stored
    diagonal = pos[a.indices[pos] == a.indptr.searchsorted(pos, "right") - 1]
    assert diagonal.size == bdofs.size
    a.data[on_boundary[a.indices]] = 0.0
    a.data[pos] = 0.0
    a.data[diagonal] = 1.0
    a.eliminate_zeros()
    system.rhs[bdofs] = 0.0
