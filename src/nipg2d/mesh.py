"""Piecewise-uniform boundary-layer meshes on the unit square.

The mesh is the tensor product of two one-dimensional two-band grids: in
each direction a transition point lambda = min(1/2, sigma*eps*ln(N)/beta)
splits [0, 1] into a coarse band [0, 1-lambda] and a fine band [1-lambda, 1],
each divided into N/2 equal cells (the split :attr:`MeshConfig.coarse_cells`
states once).  The fine bands resolve the exponential outflow layers at
x = 1 and y = 1 of a convection-diffusion problem whose convection field
has componentwise positive lower bounds (beta1, beta2).

Element numbering runs bottom-to-top then left-to-right: element (i, j)
(column i, row j) has index i*N + j.

Mesh edges are open segments classified into four families, whose
interior-penalty weights (powers of N in :data:`PENALTY_POWER`) are:

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
of parallel arrays (line, cell band, plus/minus element, family,
penalty), computed by broadcasting over the tensor grid.
"""

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class EdgeType(IntEnum):
    """Penalty family of a mesh edge; the value is the family code stored
    in :attr:`EdgeSet.family`."""

    M1 = 1
    M2 = 2
    M3 = 3
    M4 = 4


#: penalty schedule: the power of N that each edge family's rho is
PENALTY_POWER = {EdgeType.M1: 0, EdgeType.M2: 2, EdgeType.M3: 1,
                 EdgeType.M4: 1}


@dataclass(frozen=True)
class MeshConfig:
    """Parameters defining a boundary-layer mesh; construction raises
    ValueError unless N is even and >= 2 and every float is positive and
    finite.

    Attributes
    ----------
    n : int
        Cells per direction.
    eps : float
        Singular perturbation parameter; :func:`build_mesh` warns if > 1/N.
    sigma : float
        Transition-point constant (larger sigma widens the fine bands).
    beta1, beta2 : float
        Componentwise lower bounds of the convection field, entering the
        transition points in the x and y direction.
    """

    n: int
    eps: float
    sigma: float
    beta1: float
    beta2: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(
                f"cell count must be even and >= 2, got N={self.n}")
        # NaN fails these tests too: min() would turn it into lambda = 1/2;
        # an infinite beta would give zero-width cells
        for name in ("eps", "sigma", "beta1", "beta2"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")

    @property
    def coarse_cells(self):
        """Cells per direction in the coarse band, N/2; the fine has N/2."""
        return self.n // 2


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

    def __post_init__(self):
        for arr in (self.x_pts, self.y_pts, self.h_x, self.h_y):
            arr.flags.writeable = False

    @property
    def n_elements(self):
        return self.config.n ** 2


def _band_points(lam, config):
    """One-dimensional two-band grid: equal cells on [0, 1-lam] and on
    [1-lam, 1], split as :attr:`MeshConfig.coarse_cells` says."""
    n, half = config.n, config.coarse_cells
    i = np.arange(n + 1, dtype=float)
    pts = np.where(
        i <= half,
        2.0 * (1.0 - lam) * i / n,
        1.0 - lam + 2.0 * lam * (i - half) / n,
    )
    pts[half] = 1.0 - lam
    pts[n] = 1.0
    return pts


def build_mesh(config):
    """Build the two-band mesh described by ``config``.

    Raises
    ------
    None
        :class:`MeshConfig` has already rejected every invalid value.

    Warns
    -----
    UserWarning
        If eps > 1/N, outside the singularly perturbed regime the mesh
        is designed for (the mesh is still built).
    """
    n, eps, sigma = config.n, config.eps, config.sigma
    if eps > 1.0 / n:
        warnings.warn(
            f"eps={eps} exceeds 1/N={1.0 / n}; the two-band mesh targets the "
            "layer-dominated regime eps <= 1/N", UserWarning, stacklevel=2)

    lam_x, lam_y = (min(0.5, sigma * eps * math.log(n) / beta)
                    for beta in (config.beta1, config.beta2))
    x_pts, y_pts = _band_points(lam_x, config), _band_points(lam_y, config)
    return ShishkinMesh(config, lam_x, lam_y, x_pts, y_pts,
                        np.diff(x_pts), np.diff(y_pts))


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
        plus side and :data:`NO_ELEMENT` as minus side.  The edge's unit
        normal nu points from plus to minus, outward on the boundary.
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
    family: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.flags.writeable = False

    def __len__(self):
        return self.line.size


def classify_edges(mesh):
    """Enumerate all mesh edges with families, penalties and trace sides.

    The higher-numbered adjacent element is the plus side of every
    interior edge, and a boundary edge's one element is its plus side.
    Assembly and the norms do not depend on this choice of sides.

    Parameters
    ----------
    mesh : ShishkinMesh

    Returns
    -------
    EdgeSet
        Deterministic order: horizontal edges sorted by (line, cell), then
        vertical edges sorted by (line, cell).
    """
    n, half = mesh.config.n, mesh.config.coarse_cells
    line = np.repeat(np.arange(n + 1), n)
    cell = np.tile(np.arange(n), n + 1)

    # the family rule is the same for both orientations; "long" edges span
    # a coarse cell band
    long = cell < half
    family = np.where(~long, EdgeType.M3,
                      np.where(line == half, EdgeType.M4,
                               np.where(line < half, EdgeType.M1,
                                        EdgeType.M2)))
    power = np.array([PENALTY_POWER[t] for t in EdgeType])
    rho = float(n) ** power[family - 1]

    # adjacent elements: "hi" above / right of the line, "lo" below / left;
    # the last line has only "lo"
    last = line == n
    boundary = (line == 0) | last
    plus, minus = [], []
    for hi, lo in ((cell * n + line, cell * n + line - 1),       # horizontal
                   (line * n + cell, (line - 1) * n + cell)):    # vertical
        plus.append(np.where(last, lo, hi))
        minus.append(np.where(boundary, NO_ELEMENT, lo))

    return EdgeSet(
        orientation=np.repeat(np.array(["h", "v"]), line.size),
        line=np.tile(line, 2), cell=np.tile(cell, 2),
        plus=np.concatenate(plus), minus=np.concatenate(minus),
        family=np.tile(family, 2), rho=np.tile(rho, 2))
