"""Piecewise-uniform boundary-layer meshes on the unit square.

The mesh is the tensor product of two one-dimensional two-band grids: in
each direction a transition point lambda = min(1/2, sigma*eps*ln(N)/beta)
splits [0, 1] into a coarse band [0, 1-lambda] and a fine band [1-lambda, 1],
each divided into N/2 equal cells.  The fine bands resolve the exponential
outflow layers at x = 1 and y = 1 of a convection-diffusion problem whose
convection field has componentwise positive lower bounds (beta1, beta2).

Element numbering runs bottom-to-top then left-to-right: element (i, j)
(column i, row j) has index i*N + j.

Mesh edges are open segments classified into four families that drive the
interior-penalty weights:

* M1 -- long edges inside the coarse region [0, 1-lambda_x) x [0, 1-lambda_y),
  penalty 1;
* M2 -- long edges inside the two layer strips, penalty N^2;
* M3 -- all short edges (strips and the corner patch), penalty N;
* M4 -- long edges lying on the transition lines x = 1-lambda_x or
  y = 1-lambda_y, penalty N.

"Long" means the edge length equals the coarse spacing 2(1-lambda)/N in the
edge's own direction; equivalently, the cell band the edge spans is coarse.
Boundary edges are classified by the same geometric rule as interior ones.

:func:`classify_edges` returns all 2N(N+1) edges as one :class:`EdgeSet`
of parallel arrays (line, cell band, plus/minus element, normal sign,
family, penalty), computed by broadcasting over the tensor grid.
"""

import math
import warnings
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np


class RegionTag(Enum):
    """Quadrant of the tensor mesh an element belongs to."""

    OMEGA11 = "coarse-coarse"
    OMEGA12 = "x-fine"
    OMEGA21 = "y-fine"
    OMEGA22 = "corner"


class EdgeType(IntEnum):
    """Penalty family of a mesh edge; the value is the family code stored
    in :attr:`EdgeSet.family`."""

    M1 = 1
    M2 = 2
    M3 = 3
    M4 = 4


def penalty_weight(edge_type, n):
    """Penalty parameter rho for an edge family (an :class:`EdgeType` or
    its integer code) on an N x N mesh."""
    edge_type = EdgeType(edge_type)
    if edge_type is EdgeType.M1:
        return 1.0
    if edge_type is EdgeType.M2:
        return float(n) ** 2
    return float(n)


@dataclass(frozen=True)
class MeshConfig:
    """Parameters defining a boundary-layer mesh.

    Attributes
    ----------
    n : int
        Cells per direction; even and >= 8.
    eps : float
        Singular perturbation parameter, 0 < eps <= 1.
    sigma : float
        Transition-point constant (larger sigma widens the fine bands).
    beta1, beta2 : float
        Positive componentwise lower bounds of the convection field,
        entering the transition points in the x and y direction.
    """

    n: int
    eps: float
    sigma: float
    beta1: float
    beta2: float


@dataclass
class ShishkinMesh:
    """Tensor-product two-band mesh; treat as immutable once built.

    Attributes
    ----------
    config : MeshConfig
    lambda_x, lambda_y : float
        Transition points, in (0, 1/2].
    x_pts, y_pts : ndarray, shape (N+1,)
        Strictly increasing mesh lines from 0 to 1.
    h_x, h_y : ndarray, shape (N,)
        Cell widths per column / row.
    """

    config: MeshConfig
    lambda_x: float
    lambda_y: float
    x_pts: np.ndarray
    y_pts: np.ndarray
    h_x: np.ndarray
    h_y: np.ndarray

    @property
    def n(self):
        return self.config.n

    @property
    def n_elements(self):
        return self.config.n ** 2

    def element_ij(self, idx):
        """Column i and row j of the element with flat index
        idx = i*N + j (bottom-to-top, left-to-right numbering)."""
        return divmod(idx, self.config.n)

    def cell_bounds(self, i, j):
        """Physical bounds (x0, x1, y0, y1) of element (i, j)."""
        return (self.x_pts[i], self.x_pts[i + 1],
                self.y_pts[j], self.y_pts[j + 1])


def _band_points(lam, n):
    """One-dimensional two-band grid: N/2 equal cells on [0, 1-lam] and
    N/2 equal cells on [1-lam, 1]."""
    half = n // 2
    i = np.arange(n + 1, dtype=float)
    pts = np.where(
        i <= half,
        2.0 * (1.0 - lam) * i / n,
        1.0 - lam + 2.0 * lam * (i - half) / n,
    )
    pts[0] = 0.0
    pts[half] = 1.0 - lam
    pts[n] = 1.0
    return pts


def build_mesh(config):
    """Build the two-band mesh described by ``config``.

    Raises
    ------
    ValueError
        If N is odd or < 8, or eps/sigma/beta1/beta2 are not positive.

    Warns
    -----
    UserWarning
        If eps > 1/N, outside the singularly perturbed regime the mesh
        is designed for (the mesh is still built).
    """
    n, eps = config.n, config.eps
    if n < 8 or n % 2 != 0:
        raise ValueError(f"mesh needs an even cell count N >= 8, got N={n}")
    return _build_unchecked(config)


def _build_unchecked(config):
    """Build without the N-bound check (used by small oracle problems);
    all positivity checks and geometric invariants still apply."""
    n, eps, sigma = config.n, config.eps, config.sigma
    beta1, beta2 = config.beta1, config.beta2
    if n < 2 or n % 2 != 0:
        raise ValueError(f"cell count must be even and >= 2, got N={n}")
    if eps <= 0:
        raise ValueError(f"perturbation parameter must be positive, got eps={eps}")
    if sigma <= 0:
        raise ValueError(f"transition constant must be positive, got sigma={sigma}")
    if beta1 <= 0 or beta2 <= 0:
        raise ValueError(
            f"convection lower bounds must be positive, got ({beta1}, {beta2})")
    if eps > 1.0 / n:
        warnings.warn(
            f"eps={eps} exceeds 1/N={1.0 / n}; the two-band mesh targets the "
            "layer-dominated regime eps <= 1/N", UserWarning,
            stacklevel=3)                 # the caller of build_mesh

    lam_x = min(0.5, sigma * eps * math.log(n) / beta1)
    lam_y = min(0.5, sigma * eps * math.log(n) / beta2)
    x_pts = _band_points(lam_x, n)
    y_pts = _band_points(lam_y, n)
    for pts in (x_pts, y_pts):
        pts.flags.writeable = False
    h_x = np.diff(x_pts)
    h_y = np.diff(y_pts)
    h_x.flags.writeable = False
    h_y.flags.writeable = False
    return ShishkinMesh(config, lam_x, lam_y, x_pts, y_pts, h_x, h_y)


def region_of(mesh, i, j):
    """Region tag of element (i, j): the coarse-coarse quadrant, one of the
    two layer strips, or the corner patch."""
    n = mesh.config.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"element ({i}, {j}) outside a {n} x {n} mesh")
    half = n // 2
    if i < half:
        return RegionTag.OMEGA11 if j < half else RegionTag.OMEGA21
    return RegionTag.OMEGA12 if j < half else RegionTag.OMEGA22


#: ``EdgeSet.minus`` entry of a boundary edge, which has no minus side
NO_ELEMENT = -1


@dataclass(frozen=True, eq=False)
class EdgeSet:
    """All mesh edges (open segments between two mesh nodes), one array
    entry per edge.

    Attributes
    ----------
    orientation : ndarray of str
        "v" for vertical edges (constant x), "h" for horizontal.
    line : ndarray of int
        Index of the mesh line the edge lies on (0..N), transverse to the
        edge direction.
    cell : ndarray of int
        Index of the cell band the edge spans along its own direction
        (0..N-1).
    plus, minus : ndarray of int
        Flat indices of the elements whose traces are the "plus" and the
        "minus" side; a boundary edge has its single adjacent element as
        plus side and :data:`NO_ELEMENT` as minus side.
    normal : ndarray of float
        Sign of the unit normal nu along the transverse axis: nu is
        (normal, 0) on vertical and (0, normal) on horizontal edges.  It
        points from the plus side toward the minus side, and outward on
        the boundary.
    family : ndarray of int
        :class:`EdgeType` code of each edge.
    rho : ndarray of float
        Interior-penalty weight of each edge.
    """

    orientation: np.ndarray
    line: np.ndarray
    cell: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    normal: np.ndarray
    family: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.flags.writeable = False

    def __len__(self):
        return self.line.size


def classify_edges(mesh, numbering="standard"):
    """Enumerate all mesh edges with families, penalties and trace sides.

    Parameters
    ----------
    mesh : ShishkinMesh
    numbering : {"standard", "reversed"}
        "standard" makes the higher-numbered adjacent element the plus
        side of every interior edge (normals (-1, 0) and (0, -1));
        "reversed" swaps plus/minus and flips the interior normals.  The
        assembled scheme is invariant under this choice; the option exists
        to let tests check that.

    Returns
    -------
    EdgeSet
        Deterministic order: horizontal edges sorted by (line, cell), then
        vertical edges sorted by (line, cell).
    """
    if numbering not in ("standard", "reversed"):
        raise ValueError(f"unknown numbering convention: {numbering!r}")
    n = mesh.config.n
    half = n // 2
    line = np.repeat(np.arange(n + 1), n)
    cell = np.tile(np.arange(n), n + 1)

    # the family rule is the same for both orientations; "long" edges span
    # a coarse cell band
    long = cell < half
    family = np.where(~long, EdgeType.M3,
                      np.where(line == half, EdgeType.M4,
                               np.where(line < half, EdgeType.M1,
                                        EdgeType.M2)))
    rho = np.array([penalty_weight(t, n) for t in EdgeType])[family - 1]

    # adjacent elements: "hi" above / right of the line, "lo" below / left
    plus_lo = (line == n) | ((numbering == "reversed") & (line > 0))
    boundary = (line == 0) | (line == n)
    plus, minus = [], []
    for hi, lo in ((cell * n + line, cell * n + line - 1),       # horizontal
                   (line * n + cell, (line - 1) * n + cell)):    # vertical
        plus.append(np.where(plus_lo, lo, hi))
        minus.append(np.where(boundary, NO_ELEMENT,
                              np.where(plus_lo, hi, lo)))
    normal = np.where(plus_lo, 1.0, -1.0)

    return EdgeSet(
        orientation=np.repeat(np.array(["h", "v"]), line.size),
        line=np.tile(line, 2), cell=np.tile(cell, 2),
        plus=np.concatenate(plus), minus=np.concatenate(minus),
        normal=np.tile(normal, 2), family=np.tile(family, 2),
        rho=np.tile(rho, 2))
