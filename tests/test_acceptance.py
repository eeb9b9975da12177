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

Criteria 9-11 test the paper's theorem instead of its table (arXiv
2303.03827): supercloseness |I_N u - u_h|_E <= C (N^-1 ln N)^(k+1/2),
uniformly in eps, because the penalties differ by edge type; see Roos,
Stynes and Tobiska, Robust Numerical Methods for Singularly Perturbed
Differential Equations (2008), for such rates on Shishkin meshes.
"""

import dataclasses
import math

import numpy as np

from nipg2d import classify_edges, solve
from nipg2d.analysis import (
    energy_norm,
    interpolate_composite,
    interpolate_vee_global,
    supercloseness_error,
)
from nipg2d.assembly import assemble
from nipg2d.felib import reference_tables
from nipg2d.mesh import NO_ELEMENT

import oracles
from helpers import (
    as_dg,
    coarse_elements,
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


# The doubling chains of the theorem checks: (k, eps, N values)
THEOREM_CHAINS = (
    (1, 1e-5, (8, 16, 32, 64)),
    (2, 1e-6, (8, 16, 32)),
    (3, 1e-5, (8, 16)),
)


def supercloseness_constant(k, n, e_in):
    """C_N = e_IN (N / ln N)^(k+1/2), which the theorem bounds
    uniformly in N and eps."""
    return e_in * (n / math.log(n)) ** (k + 0.5)


def format_constants(constants):
    return "[" + " ".join(format(c, ".3f") for c in constants) + "]"


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
                    coeffs = random_dg_coefficients(rng, case)
                    quad_form = float(coeffs @ (a @ coeffs))
                    norm_sq = energy_norm(as_dg(case, coeffs), case.edges,
                                          case.problem).value ** 2
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
        dofmap = DofMap(k=1)
        problem = boundary_layer_problem(eps)
        system = assemble(mesh, edges, dofmap, problem)
        dense = oracles.dense_bilinear_matrix(mesh, dofmap, problem)
        matrix_gap = np.abs(system.matrix.toarray() - dense).max()

        rng = np.random.default_rng(77)
        coeffs = rng.standard_normal(system.rhs.size)
        from nipg2d import DGFunction
        v = DGFunction(mesh, dofmap, coeffs)
        parts = energy_norm(v, edges, problem).as_dict()
        expected = oracles.energy_components_bruteforce(v, problem)
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
            vee = interpolate_vee_global(p, case.mesh, case.dofmap)
            for v in (vee, interpolate_composite(p, vee)):
                repro = max(repro, np.abs(oracles.dg_eval(v, xs, ys)
                                          - p(xs, ys)).max())
        gaps["reproduction"] = (repro, 1e-12)

        # (b) continuity of the nodal interpolant of the exact solution
        case = make_case(k=1, n=8, eps=1e-3)
        v = interpolate_vee_global(case.problem.exact, case.mesh,
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
        u = case2.problem.exact
        comp = interpolate_composite(
            u, interpolate_vee_global(u, case2.mesh, case2.dofmap))
        tab = reference_tables(k, k + 2)
        (xi, eta), w2 = tab.points.T, tab.w2
        moment = 0.0
        coarse = coarse_elements(case2.mesh)
        for i, j in [(0, 0), (1, 2), (3, 3)]:
            assert coarse[i, j]
            xq = case2.mesh.x_pts[i] + 0.5 * (xi + 1.0) * case2.mesh.h_x[i]
            yq = case2.mesh.y_pts[j] + 0.5 * (eta + 1.0) * case2.mesh.h_y[j]
            diff = u(xq, yq) - oracles.dg_eval(comp, xq, yq, i * 8 + j)
            for a in range(k + 1):
                for b in range(k + 1):
                    moment = max(moment,
                                 abs(np.sum(w2 * diff * xi ** a * eta ** b)))
        gaps["projection-moments"] = (moment, 1e-11)

        # (d) e_IN vanishes when u_h is the interpolant itself
        rec = supercloseness_error(v, case.edges, case.problem)
        gaps["self-distance"] = (rec.e_in, 0.0)

        ok = all(value <= max(tol, 0.0) for value, tol in gaps.values())
        detail = "; ".join(f"{name} {value:.2e} (<= {tol:g})"
                           for name, (value, tol) in gaps.items())
        verdict(7, "operator-identities", ok, detail)

    def test_8_numbering_invariance(self):
        case = make_case(k=1, n=8, eps=1e-4)
        run = solve_case(k=1, n=8, eps=1e-4)
        other_edges = oracles.reversed_edges(case.edges)
        other = assemble(case.mesh, other_edges, case.dofmap,
                         case.problem)
        diff = (case.system.matrix - other.matrix).tocoo()
        entry_gap = np.abs(diff.data).max() if diff.nnz else 0.0

        from nipg2d import solve
        x, _ = solve(other)
        rec = supercloseness_error(as_dg(case, x), other_edges,
                                   case.problem)
        e_gap = abs(rec.e_in - run.record.e_in) / run.record.e_in
        ok = entry_gap <= 1e-14 and e_gap <= 1e-12
        verdict(8, "numbering-invariance",
                ok,
                f"max matrix entry gap {entry_gap:.2e} (<= 1e-14); "
                f"e_IN relative gap {e_gap:.2e} (<= 1e-12)")

    def test_9_supercloseness_constant_does_not_grow(self):
        ok, details = True, []
        for k, eps, ns in THEOREM_CHAINS:
            errors, _ = error_chain(k, eps, ns)
            constants = [supercloseness_constant(k, n, e)
                         for n, e in zip(ns, errors)]
            ok = ok and all(b <= a for a, b in zip(constants, constants[1:]))
            details.append(f"k={k} eps={eps:g} N={ns}: C_N "
                           f"{format_constants(constants)}")
        verdict(9, "theorem-rate", ok,
                "; ".join(details) + " (non-increasing in N required)")

    def test_10_error_is_robust_in_eps_at_higher_degree(self):
        eps_values = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
        ok, details = True, []
        for k, n in ((2, 16), (3, 8)):
            errors = [solve_case(k, n, e).record.e_in for e in eps_values]
            spread = (max(errors) - min(errors)) / min(errors)
            ok = ok and spread < 0.01
            details.append(f"k={k} N={n}: e_IN in [{min(errors):.6e}, "
                           f"{max(errors):.6e}], spread {spread:.2%}")
        verdict(10, "eps-robustness-hp", ok,
                f"eps in {eps_values}: " + "; ".join(details)
                + " (< 1% required)")

    def test_11_uniform_penalty_breaks_the_bound(self):
        # the ablation that gives criterion 9 its teeth: with every
        # penalty 1 instead of the edge-type schedule, C_N grows
        eps, ns = 1e-5, (8, 16, 32, 64)
        constants = []
        for n in ns:
            case = make_case(k=1, n=n, eps=eps)
            edges = dataclasses.replace(case.edges,
                                        rho=np.ones_like(case.edges.rho))
            system = assemble(case.mesh, edges, case.dofmap, case.problem)
            x, _ = solve(system)
            record = supercloseness_error(as_dg(case, x), edges,
                                          case.problem)
            constants.append(supercloseness_constant(1, n, record.e_in))
        growth = constants[-1] / constants[0]
        ok = growth >= 1.5
        verdict(11, "penalty-ablation", ok,
                f"k=1 eps={eps:g} N={ns}, every rho = 1: C_N "
                f"{format_constants(constants)}, growth {growth:.2f}x "
                f"(>= 1.5x required)")
