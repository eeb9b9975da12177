"""How the reference-table gap moves with the mesh and the outflow-boundary
penalty, where the energy norm's weight sits, and which edge family's
penalty the supercloseness bound rests on.

Not a test: pytest does not collect this file.  Run it from the
repository root with

    PYTHONPATH=src python3 tests/sensitivity.py

Each variant changes one setting of the default study.  Two markdown
tables give, per degree k = 1, 2, 3 on the chains of the published
tables, the ratio published / computed e_IN at each N and the observed
orders log2(e_N / e_2N): the first for the mesh variants (transition
constant sigma, the mesh's beta), the second for the penalties (on the
boundary edges of the outflow lines x = 1 and y = 1, of the whole
boundary, or eps times every edge's).  As acceptance criterion 11 does,
a penalty variant overrides ``EdgeSet.rho`` through
``dataclasses.replace``, and the norm is measured with the same edges, so
the library gains no option.  A third table gives each part's share of
e_IN^2 at the finest N of each chain, read from
``ErrorRecord.components``.  A fourth changes the power of N in one edge
family's rho at a time (``mesh.PENALTY_POWER``: M1 1, M2 N^2, M3 and M4
N) and gives C_N = e_IN (N / ln N)^(k+1/2) along each chain, with its
ratio, finest N over N = 8.
"""

import dataclasses
import math
import time

import numpy as np

from nipg2d import (DGFunction, DofMap, assemble, boundary_layer_problem,
                    classify_edges, solve, supercloseness_error)
from nipg2d.mesh import NO_ELEMENT, PENALTY_POWER, EdgeType

from helpers import make_mesh
from test_acceptance import REFERENCE, supercloseness_constant

#: (k, mesh sizes) of each chain; eps and published e_IN from REFERENCE
CHAINS = ((1, (8, 16, 32, 64)), (2, (8, 16, 32)), (3, (8, 16, 32)))


def boundary(penalty, lines="outflow"):
    """A rho override: ``penalty(N, h)`` on the boundary edges of the
    outflow lines x = 1 and y = 1 (or of the whole boundary, ``lines=
    "all"``), with h the plus element's width across the edge; rho
    elsewhere."""
    def rho(grid, edges, eps):
        n = grid.config.n
        chosen = edges.minus == NO_ELEMENT
        if lines == "outflow":
            chosen &= edges.line == n
        h = np.where(edges.orientation == "v", grid.h_x[edges.plus // n],
                     grid.h_y[edges.plus % n])
        return np.where(chosen, penalty(n, h), edges.rho)
    return rho


#: (label, settings) of each variant; unset settings keep the default:
#: ``sigma`` maps k to the transition constant (k + 3/2), ``beta`` is the
#: mesh's (beta1, beta2) ((2, 3)), and ``rho`` maps (mesh, edges, eps) to
#: the penalties that replace ``EdgeSet.rho``
DEFAULT = ("default", {})
MESH_VARIANTS = (
    DEFAULT,
    ("one λ with β = min(β₁, β₂) = 2", dict(beta=(2.0, 2.0))),
    ("σ = 2(k+1)", dict(sigma=lambda k: 2.0 * (k + 1))),
    ("β = (1, 1)", dict(beta=(1.0, 1.0))),
)
PENALTY_VARIANTS = (
    DEFAULT,
    ("N", dict(rho=boundary(lambda n, h: n))),
    ("N ln N (all boundary edges)",
     dict(rho=boundary(lambda n, h: n * math.log(n), lines="all"))),
    ("N^{3/2}", dict(rho=boundary(lambda n, h: n ** 1.5))),
    ("N^{3/2}, and β = (2, 2)",
     dict(rho=boundary(lambda n, h: n ** 1.5), beta=(2.0, 2.0))),
    ("1/h, h the element's width across the edge",
     dict(rho=boundary(lambda n, h: 1.0 / h))),
    ("ε × the default, on every edge",
     dict(rho=lambda grid, edges, eps: eps * edges.rho)),
)


def family_powers(**powers):
    """A rho override: N to the given power on the named edge families,
    the schedule's power on the others."""
    power = {**PENALTY_POWER, **{EdgeType[t]: p for t, p in powers.items()}}
    table = np.array([power[t] for t in EdgeType], dtype=float)

    def rho(grid, edges, eps):
        return float(grid.config.n) ** table[edges.family - 1]
    return rho


FAMILY_VARIANTS = (
    DEFAULT,
    ("M2 → N", dict(rho=family_powers(M2=1))),
    ("M2 → 1", dict(rho=family_powers(M2=0))),
    ("M3 → 1", dict(rho=family_powers(M3=0))),
    ("M4 → 1", dict(rho=family_powers(M4=0))),
    ("M1 → N", dict(rho=family_powers(M1=1))),
    ("M3 → N²", dict(rho=family_powers(M3=2))),
)

#: the parts of e_IN^2, as ``NormComponents`` names them
PARTS = ("grad", "reaction", "penalty", "inflow_outflow")


def error_record(k, n, eps, sigma=lambda k: k + 1.5, beta=(2.0, 3.0),
                 rho=None):
    """ErrorRecord of the built-in problem under one variant."""
    grid = make_mesh(n, eps, sigma(k), *beta)
    edge_set = classify_edges(grid)
    if rho is not None:
        edge_set = dataclasses.replace(edge_set,
                                       rho=rho(grid, edge_set, eps))
    problem = boundary_layer_problem(eps)
    dofmap = DofMap(k=k)
    x, _ = solve(assemble(grid, edge_set, dofmap, problem))
    return supercloseness_error(DGFunction(grid, dofmap, x), edge_set,
                                problem)


def print_table(header, rows):
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print()


def main():
    start = time.perf_counter()
    records = {}                         # label -> one record list per chain
    for label, settings in dict(MESH_VARIANTS + PENALTY_VARIANTS
                                + FAMILY_VARIANTS).items():
        records[label] = [
            [error_record(k, n, REFERENCE[k]["eps"], **settings) for n in ns]
            for k, ns in CHAINS]

    header = []
    for k, ns in CHAINS:
        published = "/".join(f"{r:.2f}" for r in
                             REFERENCE[k]["rates"][:len(ns) - 1])
        header += [f"k={k} ratio", f"k={k} orders ({published})"]
    for first, variants in (("mesh variant", MESH_VARIANTS),
                            ("penalty on outflow-boundary edges",
                             PENALTY_VARIANTS)):
        rows = []
        for label, _ in variants:
            row = [label]
            for (k, _), chain in zip(CHAINS, records[label]):
                errors = [r.e_in for r in chain]
                row.append("/".join(f"{p / e:.2f}" for p, e in
                                    zip(REFERENCE[k]["e_in"], errors)))
                row.append("/".join(f"{math.log2(a / b):.2f}"
                                    for a, b in zip(errors, errors[1:])))
            rows.append(row)
        print_table([first] + header, rows)

    rows = []
    for label, _ in MESH_VARIANTS + PENALTY_VARIANTS[1:]:
        row = [label]
        for chain in records[label]:
            finest = chain[-1]
            parts = dataclasses.asdict(finest.components)
            row.append("/".join(f"{100 * parts[p] / finest.e_in ** 2:.1f}"
                                for p in PARTS))
        rows.append(row)
    print_table(["% of e_IN² at the finest N"]
                + [f"k={k} N={ns[-1]} ({'/'.join(PARTS)})"
                   for k, ns in CHAINS], rows)

    rows = []
    for label, _ in FAMILY_VARIANTS:
        row = [label]
        for (k, ns), chain in zip(CHAINS, records[label]):
            constants = [supercloseness_constant(k, n, r.e_in)
                         for n, r in zip(ns, chain)]
            row.append("/".join(f"{c:.3f}" for c in constants))
            row.append(f"{constants[-1] / constants[0]:.2f}")
        rows.append(row)
    print_table(["penalty family"]
                + [f"k={k} N={ns[0]}…{ns[-1]} {column}"
                   for k, ns in CHAINS for column in ("C_N", "ratio")], rows)
    print(f"run time {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
