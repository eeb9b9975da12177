"""Acceptance gate for the supercloseness study.

Each test prints exactly one line

    ACCEPTANCE <n> <name>: PASS/FAIL -- <detail>

before asserting, so the verdicts survive in captured output either way.

Criteria 1-3 pin the published reference tables for e_IN = |I_N u - u_h|
in the energy norm.  This implementation currently produces errors well
BELOW those reference values (by a factor 0.43-0.62) with faster observed
orders approaching the same k + 1/2 asymptote; every consistency oracle
in the suite (dense-matrix comparison, exact reproduction of a discrete
polynomial solution, coercivity identity, numbering invariance) confirms
the scheme, so the three table criteria are left to fail honestly rather
than be tuned to match.  See the repository notes for the full analysis.
"""

import numpy as np
import pytest

from nipg2d import classify_edges
from nipg2d.analysis import (
    energy_norm,
    interpolate_composite,
    interpolate_vee_global,
    supercloseness_error,
)
from nipg2d.assembly import assemble
from nipg2d.felib import gauss_legendre
from nipg2d.mesh import NO_ELEMENT, RegionTag, region_of

import oracles
from helpers import (
    as_dg,
    error_chain,
    make_case,
    random_dg_coefficients,
    solve_case,
)

# Published reference values for e_IN and observed orders.  The rate
# lists carry one more entry than a doubling chain can produce; only the
# computable prefix is compared.
REFERENCE = {
    1: {
        "eps": 1e-5,
        "ns": (8, 16, 32, 64, 128),
        "e_in": (0.219, 0.0997, 0.0396, 0.0143, 0.00486),
        "rates": (1.13, 1.33, 1.47, 1.56, 1.62),
        "value_rtol": 0.02,
        "rate_atol": 0.03,
    },
    2: {
        "eps": 1e-6,
        "ns": (8, 16, 32, 64),
        "e_in": (0.0745, 0.0265, 0.00730, 0.00168),
        "rates": (1.49, 1.86, 2.12, 2.28),
        "value_rtol": 0.03,
        "rate_atol": 0.05,
    },
    3: {
        "eps": 1e-5,
        "ns": (8, 16, 32),
        "e_in": (0.0197, 0.00479, 0.000894),
        "rates": (2.04, 2.42, 2.58),
        "value_rtol": 0.05,
        "rate_atol": 0.06,
    },
}


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def check_reference_table(num, k):
    ref = REFERENCE[k]
    errors, rates = error_chain(k, ref["eps"], ref["ns"])
    value_ok = all(
        abs(e - r) <= ref["value_rtol"] * r
        for e, r in zip(errors, ref["e_in"]))
    rate_ok = all(
        abs(p - r) <= ref["rate_atol"]
        for p, r in zip(rates, ref["rates"]))
    measured = " ".join(format(e, ".4e") for e in errors)
    expected = " ".join(format(r, ".4e") for r in ref["e_in"])
    measured_r = " ".join(format(p, ".3f") for p in rates)
    detail = (f"k={k} eps={ref['eps']:g} N={ref['ns']}: measured e_IN "
              f"[{measured}] vs reference [{expected}] (rtol "
              f"{ref['value_rtol']:.0%}); orders [{measured_r}] vs "
              f"{ref['rates'][:len(rates)]} (atol {ref['rate_atol']})")
    verdict(num, f"reference-table-k{k}", value_ok and rate_ok, detail)


class TestAcceptance:
    def test_1_reference_table_linear(self):
        check_reference_table(1, 1)

    def test_2_reference_table_quadratic(self):
        check_reference_table(2, 2)

    def test_3_reference_table_cubic(self):
        check_reference_table(3, 3)

    def test_4_error_is_robust_in_eps(self):
        eps_values = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
        errors = [solve_case(1, 32, e).record.e_in for e in eps_values]
        spread = (max(errors) - min(errors)) / min(errors)
        ok = spread < 0.01
        verdict(4, "eps-robustness",
                ok,
                f"k=1 N=32, eps in {eps_values}: e_IN in "
                f"[{min(errors):.6e}, {max(errors):.6e}], spread "
                f"{spread:.2%} (< 1% required)")

    def test_5_coercivity_identity(self):
        rng = np.random.default_rng(1234)
        worst = np.inf
        draws = 100
        for k in (1, 2, 3):
            for eps in (1e-3, 1e-6):
                case = make_case(k=k, n=8, eps=eps)
                a = case.system.matrix
                for _ in range(draws):
                    coeffs = random_dg_coefficients(rng, case.dofmap)
                    quad_form = float(coeffs @ (a @ coeffs))
                    norm_sq = energy_norm(as_dg(case, coeffs), case.edges,
                                          case.problem, eps).value ** 2
                    worst = min(worst, (quad_form - norm_sq) / norm_sq)
        ok = worst >= -1e-9
        verdict(5, "coercivity",
                ok,
                f"{draws} draws x (N=8, k in 1..3, eps in {{1e-3, 1e-6}}): "
                f"min relative slack of v'Av - |v|^2 is {worst:.3e} "
                f"(>= -1e-9 required)")

    def test_6_small_mesh_oracle(self):
        from helpers import make_mesh
        from nipg2d import DofMap
        from nipg2d.problems import boundary_layer_problem

        eps = 0.05
        mesh = make_mesh(2, eps, 2.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=1, n=2)
        problem = boundary_layer_problem(eps)
        system = assemble(mesh, edges, dofmap, problem, eps)
        dense = oracles.dense_bilinear_matrix(mesh, dofmap, problem, eps)
        matrix_gap = np.abs(system.matrix.toarray() - dense).max()

        rng = np.random.default_rng(77)
        coeffs = rng.standard_normal(dofmap.total_dofs)
        from nipg2d import DGFunction
        v = DGFunction(mesh, dofmap, coeffs)
        parts = energy_norm(v, edges, problem, eps).as_dict()
        expected = oracles.energy_components_bruteforce(v, problem, eps)
        comp_gap = max(
            abs(parts[key] - expected[key]) / abs(expected[key])
            for key in parts)
        ok = matrix_gap <= 1e-12 and comp_gap <= 1e-12
        verdict(6, "two-cell-oracle",
                ok,
                f"N=2 k=1: max matrix entry gap {matrix_gap:.2e} "
                f"(<= 1e-12), max energy component rel gap {comp_gap:.2e} "
                f"(<= 1e-12)")

    def test_7_operator_identities(self):
        rng = np.random.default_rng(2718)
        gaps = {}

        # (a) tensor-polynomial reproduction of both interpolants
        repro = 0.0
        for k in (1, 2, 3):
            case = make_case(k=k, n=8, eps=1e-3)
            coeff = rng.standard_normal((k + 1, k + 1))
            p = lambda x, y, c=coeff, k=k: sum(
                c[a, b] * x ** a * y ** b
                for a in range(k + 1) for b in range(k + 1))
            xs, ys = rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)
            for op in (interpolate_vee_global, interpolate_composite):
                v = op(p, case.mesh, case.dofmap)
                repro = max(repro, np.abs(v.eval(xs, ys) - p(xs, ys)).max())
        gaps["reproduction"] = (repro, 1e-12)

        # (b) continuity of the nodal interpolant of the exact solution
        case = make_case(k=1, n=8, eps=1e-3)
        v = interpolate_vee_global(case.problem.exact.u, case.mesh,
                                   case.dofmap)
        jump = 0.0
        for idx in np.flatnonzero(case.edges.minus != NO_ELEMENT):
            _, (lo, hi) = oracles.edge_segment(case.mesh, case.edges, idx)
            s = np.linspace(lo, hi, 5)[1:-1]
            plus, minus = oracles.trace_pair(v, case.edges, idx, s)
            jump = max(jump, np.abs(plus - minus).max())
        gaps["interpolant-jumps"] = (jump, 1e-10)

        # (c) projection moments vanish on the coarse-coarse region
        k = 2
        case2 = make_case(k=k, n=8, eps=1e-3)
        u = case2.problem.exact.u
        comp = interpolate_composite(u, case2.mesh, case2.dofmap)
        rule = gauss_legendre(k + 2)
        xi = np.repeat(rule.nodes, k + 2)
        eta = np.tile(rule.nodes, k + 2)
        w2 = np.repeat(rule.weights, k + 2) * np.tile(rule.weights, k + 2)
        moment = 0.0
        for i, j in [(0, 0), (1, 2), (3, 3)]:
            assert region_of(case2.mesh, i, j) is RegionTag.OMEGA11
            x0, x1, y0, y1 = case2.mesh.cell_bounds(i, j)
            xq = x0 + 0.5 * (xi + 1.0) * (x1 - x0)
            yq = y0 + 0.5 * (eta + 1.0) * (y1 - y0)
            diff = u(xq, yq) - comp.eval_in_element(i, j, xi, eta)
            for a in range(k + 1):
                for b in range(k + 1):
                    moment = max(moment,
                                 abs(np.sum(w2 * diff * xi ** a * eta ** b)))
        gaps["projection-moments"] = (moment, 1e-11)

        # (d) e_IN vanishes when u_h is the interpolant itself
        rec = supercloseness_error(v, case.edges, case.problem, case.eps)
        gaps["self-distance"] = (rec.e_in, 0.0)

        ok = all(value <= max(tol, 0.0) for value, tol in gaps.values())
        detail = "; ".join(f"{name} {value:.2e} (<= {tol:g})"
                           for name, (value, tol) in gaps.items())
        verdict(7, "operator-identities", ok, detail)

    def test_8_numbering_invariance(self):
        case = make_case(k=1, n=8, eps=1e-4)
        run = solve_case(k=1, n=8, eps=1e-4)
        reversed_edges = classify_edges(case.mesh, numbering="reversed")
        other = assemble(case.mesh, reversed_edges, case.dofmap,
                         case.problem, eps=case.eps)
        diff = (case.system.matrix - other.matrix).tocoo()
        entry_gap = np.abs(diff.data).max() if diff.nnz else 0.0

        from nipg2d import solve
        x, _ = solve(other)
        rec = supercloseness_error(as_dg(case, x), reversed_edges,
                                   case.problem, case.eps)
        e_gap = abs(rec.e_in - run.record.e_in) / run.record.e_in
        ok = entry_gap <= 1e-14 and e_gap <= 1e-12
        verdict(8, "numbering-invariance",
                ok,
                f"max matrix entry gap {entry_gap:.2e} (<= 1e-14); "
                f"e_IN relative gap {e_gap:.2e} (<= 1e-12)")
