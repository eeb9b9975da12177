"""How the reference-table gap moves with the outflow-boundary penalty.

Not a test: pytest does not collect this file.  Run it from the
repository root with

    PYTHONPATH=src python3 tests/sensitivity.py

For each variant it prints one markdown row: per degree k = 1, 2, 3, on
the chains of the published tables, the ratio published / computed e_IN
at each N and the observed orders log2(e_N / e_2N).  A variant replaces
the penalty on the boundary edges of the outflow lines x = 1 and y = 1
(or of the whole boundary) and may change the mesh's beta.  As
acceptance criterion 11 does, it overrides ``EdgeSet.rho`` through
``dataclasses.replace``, and the norm is measured with the same edges,
so the library gains no option.
"""

import dataclasses
import math
import time

import numpy as np

from nipg2d import (DGFunction, DofMap, assemble, boundary_layer_problem,
                    classify_edges, solve, supercloseness_error)
from nipg2d.mesh import NO_ELEMENT

from helpers import make_mesh
from test_acceptance import REFERENCE

#: (k, mesh sizes) of each chain; eps and published e_IN from REFERENCE
CHAINS = ((1, (8, 16, 32, 64)), (2, (8, 16, 32)), (3, (8, 16, 32)))

#: (label, boundary edges whose penalty is replaced, new penalty as a
#: function of N, mesh (beta1, beta2)); None keeps the default penalties
VARIANTS = (
    ("default (N² long, N short)", None, None, (2.0, 3.0)),
    ("N", "outflow", lambda n: n, (2.0, 3.0)),
    ("N ln N (all boundary edges)", "all", lambda n: n * math.log(n),
     (2.0, 3.0)),
    ("N^{3/2}", "outflow", lambda n: n ** 1.5, (2.0, 3.0)),
    ("N^{3/2}, and β = (2, 2)", "outflow", lambda n: n ** 1.5, (2.0, 2.0)),
)


def e_in(k, n, eps, edges_rule, penalty, beta):
    """e_IN of the built-in problem with the variant's penalties."""
    grid = make_mesh(n, eps, k + 1.5, *beta)
    edges = classify_edges(grid)
    if edges_rule is not None:
        chosen = edges.minus == NO_ELEMENT
        if edges_rule == "outflow":
            chosen &= edges.line == n
        edges = dataclasses.replace(
            edges, rho=np.where(chosen, penalty(n), edges.rho))
    problem = boundary_layer_problem(eps)
    dofmap = DofMap(k=k)
    x, _ = solve(assemble(grid, edges, dofmap, problem))
    return supercloseness_error(DGFunction(grid, dofmap, x), edges,
                                problem).e_in


def main():
    start = time.perf_counter()
    header = ["penalty on outflow-boundary edges"]
    for k, ns in CHAINS:
        published = "/".join(f"{r:.2f}" for r in
                             REFERENCE[k]["rates"][:len(ns) - 1])
        header += [f"k={k} ratio", f"k={k} orders ({published})"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for label, edges_rule, penalty, beta in VARIANTS:
        row = [label]
        for k, ns in CHAINS:
            ref = REFERENCE[k]
            errors = [e_in(k, n, ref["eps"], edges_rule, penalty, beta)
                      for n in ns]
            row.append("/".join(f"{p / e:.2f}"
                                for p, e in zip(ref["e_in"], errors)))
            row.append("/".join(f"{math.log2(a / b):.2f}"
                                for a, b in zip(errors, errors[1:])))
        print("| " + " | ".join(row) + " |")
    print(f"\nrun time {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
