"""Global assembly of the nonsymmetric interior-penalty DG scheme.

The discrete problem: find u_h in the broken space Q_k(mesh) with

    B(u_h, v) = B1(u_h, v) + B2(u_h, v) + B3(u_h, v) = L(v)   for all v,

where, with jumps [v] = v_plus - v_minus and averages <v> oriented by each
edge's normal nu (single traces on the boundary),

* B1: sum_K eps (grad u, grad v)_K
      - sum_e eps (<grad u . nu>, [v])_e + sum_e eps ([u], <grad v . nu>)_e
      + sum_e rho_e ([u], [v])_e                  (note the + sign: NIPG),
* B2: sum_K (b . grad u, v)_K
      - sum_K ((b.n) u+, v+) on the inflow boundary part of K
      - sum_K ((b.n)(u+ - u-), v+) on the interior inflow part of K,
* B3: sum_K (c u, v)_K,
* L:  sum_K (f, v)_K.

Homogeneous Dirichlet data is imposed weakly through the boundary-edge
terms above (single-trace jumps); a strong variant that eliminates the
boundary-node degrees of freedom afterwards is available for comparison.

Degrees of freedom: element (i, j) (flat index E = i*N + j) owns the
contiguous block E*(k+1)^2 + m, where m is the local nodal index of
:mod:`nipg2d.felib`.
"""

import numpy as np
from dataclasses import dataclass

from scipy.sparse import bsr_matrix, csr_matrix, diags

from .felib import BOTTOM, LEFT, RIGHT, TOP, face_products, reference_tables
from .mesh import NO_ELEMENT


class CoefficientConditionError(ValueError):
    """Raised when sampled coefficients violate the standing assumptions
    (componentwise positive convection, positive reaction measure)."""


@dataclass(frozen=True)
class DofMap:
    """Layout of the broken-space degrees of freedom.

    Attributes
    ----------
    k : int
        Polynomial degree per direction (>= 1).
    n : int
        Mesh cells per direction.
    """

    k: int
    n: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"polynomial degree must be >= 1, got k={self.k}")
        if self.n < 2:
            raise ValueError(f"cell count must be >= 2, got N={self.n}")

    @property
    def ndof_local(self):
        return (self.k + 1) ** 2

    @property
    def total_dofs(self):
        return self.n ** 2 * self.ndof_local


@dataclass(frozen=True)
class ProblemData:
    """Coefficients of -eps Lap(u) + b . grad(u) + c u = f with u = 0 on
    the boundary of the unit square.

    All entries are callables of (x, y) accepting ndarray arguments;
    ``div_b`` is the divergence of (b1, b2), and ``exact`` is the solution
    u where it is known.  The scheme assumes b1 >= beta1 > 0,
    b2 >= beta2 > 0 and c - div_b / 2 >= 0; :func:`assemble` spot-checks
    these at the quadrature points.
    """

    b1: object
    b2: object
    div_b: object
    c: object
    f: object
    exact: object | None = None


@dataclass
class SparseSystem:
    """Assembled matrix and load vector."""

    matrix: csr_matrix
    rhs: np.ndarray


@dataclass
class DGFunction:
    """A broken-space function: per-element nodal coefficients in degree
    of freedom order."""

    mesh: object
    dofmap: DofMap
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.dofmap.total_dofs,):
            raise ValueError(
                f"coefficient vector has shape {self.coefficients.shape}, "
                f"expected ({self.dofmap.total_dofs},)")


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
    trace table per side whatever the numbering convention.
    """
    # element widths across vertical (hx) and horizontal (hy) faces
    width_x, width_y, _, _ = _cells(mesh, (), ())
    plus_side = (np.where(edges.orientation == "v", LEFT, BOTTOM)
                 + (edges.normal > 0))
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
            width = width_x
        else:
            h = mesh.h_x[cell]
            x = mesh.x_pts[cell][:, None] + (tab.t + 1.0) * 0.5 * h[:, None]
            y = np.broadcast_to(mesh.y_pts[line][:, None], x.shape)
            b = _sample(problem.b2, x, y)
            width = width_y
        nu = 1.0 if side in (RIGHT, TOP) else -1.0
        sides = [(edges.plus[idx], side, 1.0)]
        if not on_boundary:
            # the minus element meets the edge on the opposite side
            sides.append((edges.minus[idx], side ^ 1, -1.0))
        traces = tuple(_Trace(e, s, sign, nu * 2.0 / width[e])
                       for e, s, sign in sides)
        yield _FaceBatch(tab.w1 * (0.5 * h)[:, None], b, edges.rho[idx],
                         traces)


def _check_coefficients(problem, x, y, b1, b2, c, beta1, beta2):
    """Spot-check the standing coefficient assumptions at sample points.

    ``b1``, ``b2`` and ``c`` are the coefficients already sampled at
    ``(x, y)``; only ``div_b`` is sampled here.
    """
    slack = 1e-9
    c0sq = c - 0.5 * _sample(problem.div_b, x, y)
    if b1.min() < beta1 - slack or b2.min() < beta2 - slack:
        raise CoefficientConditionError(
            f"convection field drops below its declared lower bounds: "
            f"min b = ({b1.min():.6g}, {b2.min():.6g}), "
            f"declared ({beta1}, {beta2})")
    if c0sq.min() < -slack:
        raise CoefficientConditionError(
            f"c - div(b)/2 must be nonnegative; sampled minimum "
            f"{c0sq.min():.6g}")


def assemble(mesh, edges, dofmap, problem, eps, quad_order=None,
             dirichlet="weak"):
    """Assemble the NIPG matrix and load vector.

    Parameters
    ----------
    mesh : ShishkinMesh
    edges : EdgeSet
        Output of :func:`nipg2d.mesh.classify_edges` (any numbering).
    dofmap : DofMap
    problem : ProblemData
    eps : float
        Diffusion parameter.
    quad_order : int, optional
        Gauss points per direction; default k + 2, minimum k + 1.
    dirichlet : {"weak", "strong"}
        Weak (default) keeps the boundary-edge terms; strong additionally
        eliminates boundary-node dofs to zero afterwards.

    Returns
    -------
    SparseSystem
        The matrix is canonical CSR with int32 indices; weak mode stores
        one dense (k+1)^2 block per element and face neighbour.
    """
    n = mesh.config.n
    k = dofmap.k
    if dofmap.n != n:
        raise ValueError(f"dofmap is for N={dofmap.n}, mesh has N={n}")
    if dirichlet not in ("weak", "strong"):
        raise ValueError(f"unknown Dirichlet mode: {dirichlet!r}")
    nq = (k + 2) if quad_order is None else int(quad_order)
    if nq < k + 1:
        raise ValueError(
            f"quadrature order {nq} too low for degree {k}; need >= {k + 1}")

    tab = reference_tables(k, nq)
    ndl = dofmap.ndof_local
    ne = n * n
    # blocks[E, s] couples element E (test) to E + offsets[s] (trial)
    offsets = np.array([-n, -1, 0, 1, n])
    blocks = np.zeros((ne, offsets.size, ndl, ndl))

    # ---- element volumes -------------------------------------------------
    hx, hy, x_q, y_q = _cells(mesh, *tab.points.T)
    b1_q = _sample(problem.b1, x_q, y_q)
    b2_q = _sample(problem.b2, x_q, y_q)
    c_q = _sample(problem.c, x_q, y_q)
    _check_coefficients(problem, x_q, y_q, b1_q, b2_q, c_q,
                        mesh.config.beta1, mesh.config.beta2)

    kxx = np.einsum("q,mq,nq->mn", tab.w2, tab.gx, tab.gx)
    kyy = np.einsum("q,mq,nq->mn", tab.w2, tab.gy, tab.gy)
    vol = blocks[:, 2]                   # offset 0: the element itself
    vol[...] = eps * ((hy / hx)[:, None, None] * kxx
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
                    -avg * eps * r.sign * face.w * c.dnu[:, None],
                    avg * eps * c.sign * face.w * r.dnu[:, None],
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
        shape=(dofmap.total_dofs,) * 2)
    del blocks, vol
    matrix = block_rows.tocsr()

    system = SparseSystem(matrix, rhs)
    if dirichlet == "strong":
        _eliminate_boundary_dofs(system, mesh, dofmap)
    return system


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
    boundary-node dofs."""
    bdofs = boundary_dofs(mesh, dofmap)
    keep = np.ones(dofmap.total_dofs)
    keep[bdofs] = 0.0
    a = system.matrix
    a.data *= np.repeat(keep, np.diff(a.indptr)) * keep[a.indices]
    a.eliminate_zeros()
    system.matrix = a + diags(1.0 - keep, format="csr")
    system.rhs[bdofs] = 0.0
