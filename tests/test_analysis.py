"""Tests for interpolation operators, the energy norm, and error records."""

import numpy as np
import pytest

from nipg2d import DGFunction, DofMap, classify_edges, convergence_rates
from nipg2d.analysis import (
    broken_l2_error,
    energy_norm,
    interpolate_composite,
    interpolate_vee_global,
    supercloseness_error,
)
from nipg2d.assembly import ProblemData
from nipg2d.felib import gauss_legendre
from nipg2d.mesh import NO_ELEMENT, RegionTag, region_of

import oracles
from helpers import as_dg, error_chain, make_case, random_dg_coefficients

RNG = np.random.default_rng(42)


def tensor_polynomial(k):
    """A fixed full-degree member of Q_k."""
    rng = np.random.default_rng(7 * k)
    coeff = rng.standard_normal((k + 1, k + 1))
    return lambda x, y: sum(
        coeff[a, b] * x ** a * y ** b
        for a in range(k + 1) for b in range(k + 1))


class TestVeeInterpolant:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reproduces_tensor_polynomials(self, k):
        case = make_case(k=k, n=8, eps=1e-2)
        p = tensor_polynomial(k)
        v = interpolate_vee_global(p, case.mesh, case.dofmap)
        xs = RNG.uniform(0.0, 1.0, 40)
        ys = RNG.uniform(0.0, 1.0, 40)
        np.testing.assert_allclose(v.eval(xs, ys), p(xs, ys),
                                   atol=1e-12, rtol=1e-12)

    def test_zero_function_gives_zero_coefficients(self):
        case = make_case(k=2, n=8, eps=1e-2)
        v = interpolate_vee_global(lambda x, y: np.zeros_like(x),
                                   case.mesh, case.dofmap)
        assert np.all(v.coefficients == 0.0)

    def test_interpolant_of_smooth_layer_is_continuous(self):
        # Jumps of the interpolant vanish across interior edges, so the
        # jump terms of the supercloseness error come from u_h alone.
        case = make_case(k=1, n=8, eps=1e-3)
        v = interpolate_vee_global(case.problem.exact.u,
                                   case.mesh, case.dofmap)
        interior = np.flatnonzero(case.edges.minus != NO_ELEMENT)
        picks = RNG.choice(len(interior), size=10, replace=False)
        for idx in interior[picks]:
            _, (lo, hi) = oracles.edge_segment(case.mesh, case.edges, idx)
            s = np.linspace(lo, hi, 5)[1:-1]
            plus, minus = oracles.trace_pair(v, case.edges, idx, s)
            np.testing.assert_allclose(plus, minus, atol=1e-10)


class TestCompositeInterpolant:
    @pytest.mark.parametrize("k", [1, 2])
    def test_reproduces_tensor_polynomials(self, k):
        case = make_case(k=k, n=8, eps=1e-3)
        p = tensor_polynomial(k)
        v = interpolate_composite(p, case.mesh, case.dofmap)
        xs = RNG.uniform(0.0, 1.0, 40)
        ys = RNG.uniform(0.0, 1.0, 40)
        np.testing.assert_allclose(v.eval(xs, ys), p(xs, ys),
                                   atol=1e-12, rtol=1e-12)

    def test_matches_nodal_interpolant_outside_coarse_region(self):
        case = make_case(k=2, n=8, eps=1e-3)
        u = case.problem.exact.u
        vee = interpolate_vee_global(u, case.mesh, case.dofmap)
        comp = interpolate_composite(u, case.mesh, case.dofmap)
        differs = False
        for i in range(8):
            for j in range(8):
                dofs = case.dofmap.element_dofs(i, j)
                same = np.array_equal(vee.coefficients[dofs],
                                      comp.coefficients[dofs])
                if region_of(case.mesh, i, j) is RegionTag.OMEGA11:
                    differs = differs or not same
                else:
                    assert same
        assert differs  # the projection does change the coarse region

    def test_projection_moments_vanish_on_coarse_region(self):
        # On each coarse-coarse element, u - (composite u) is orthogonal
        # to Q_k under the projector's own quadrature.
        k = 2
        case = make_case(k=k, n=8, eps=1e-3)
        u = case.problem.exact.u
        comp = interpolate_composite(u, case.mesh, case.dofmap)
        rule = gauss_legendre(k + 2)
        xi = np.repeat(rule.nodes, k + 2)
        eta = np.tile(rule.nodes, k + 2)
        w2 = np.repeat(rule.weights, k + 2) * np.tile(rule.weights, k + 2)
        for i, j in [(0, 0), (1, 2), (3, 3), (2, 0)]:
            assert region_of(case.mesh, i, j) is RegionTag.OMEGA11
            x0, x1, y0, y1 = case.mesh.cell_bounds(i, j)
            xq = x0 + 0.5 * (xi + 1.0) * (x1 - x0)
            yq = y0 + 0.5 * (eta + 1.0) * (y1 - y0)
            diff = u(xq, yq) - comp.eval_in_element(i, j, xi, eta)
            for a in range(k + 1):
                for b in range(k + 1):
                    moment = np.sum(w2 * diff * xi ** a * eta ** b)
                    assert abs(moment) <= 1e-11


class TestEnergyNorm:
    def test_zero_function_has_zero_norm(self):
        case = make_case(k=1, n=8, eps=1e-3)
        v = as_dg(case, np.zeros(case.dofmap.total_dofs))
        parts = energy_norm(v, case.edges, case.problem, case.eps)
        assert parts.value == 0.0
        assert all(x == 0.0 for x in parts.as_dict().values())

    def test_reaction_component_is_weighted_l2_mass(self):
        # The built-in field has c - div(b)/2 = 2 identically.
        case = make_case(k=2, n=8, eps=1e-3)
        v = interpolate_vee_global(lambda x, y: np.sin(3 * x) * y,
                                   case.mesh, case.dofmap)
        parts = energy_norm(v, case.edges, case.problem, case.eps)
        l2 = broken_l2_error(lambda x, y: np.zeros_like(x), v)
        assert parts.reaction == pytest.approx(2.0 * l2 ** 2, rel=1e-12)

    @pytest.mark.parametrize("kind", ["indicator", "random"])
    def test_components_match_bruteforce_reference(self, kind):
        case = make_case(k=1, n=2, eps=0.05)
        if kind == "indicator":
            coeffs = np.zeros(case.dofmap.total_dofs)
            coeffs[case.dofmap.element_dofs(0, 1)] = 1.0
        else:
            coeffs = random_dg_coefficients(RNG, case.dofmap)
        v = as_dg(case, coeffs)
        parts = energy_norm(v, case.edges, case.problem, case.eps)
        expected = oracles.energy_components_bruteforce(
            v, case.problem, case.eps)
        for key, value in parts.as_dict().items():
            assert value == pytest.approx(expected[key], rel=1e-12,
                                          abs=1e-15), key

    def test_absolute_homogeneity(self):
        case = make_case(k=1, n=8, eps=1e-3)
        coeffs = random_dg_coefficients(RNG, case.dofmap)
        v = as_dg(case, coeffs)
        w = as_dg(case, -2.5 * coeffs)
        nv = energy_norm(v, case.edges, case.problem, case.eps).value
        nw = energy_norm(w, case.edges, case.problem, case.eps).value
        assert nw == pytest.approx(2.5 * nv, rel=1e-12)

    def test_triangle_inequality(self):
        case = make_case(k=1, n=8, eps=1e-3)
        for _ in range(50):
            a = random_dg_coefficients(RNG, case.dofmap)
            b = random_dg_coefficients(RNG, case.dofmap)
            na = energy_norm(as_dg(case, a), case.edges, case.problem,
                             case.eps).value
            nb = energy_norm(as_dg(case, b), case.edges, case.problem,
                             case.eps).value
            nab = energy_norm(as_dg(case, a + b), case.edges, case.problem,
                              case.eps).value
            assert nab <= na + nb + 1e-10

    def test_negative_reaction_measure_is_rejected(self):
        case = make_case(k=1, n=8, eps=1e-3)
        bad = ProblemData(
            b1=case.problem.b1,
            b2=case.problem.b2,
            div_b=lambda x, y: np.zeros_like(x),
            c=lambda x, y: -np.ones_like(x),
            f=case.problem.f,
        )
        v = as_dg(case, random_dg_coefficients(RNG, case.dofmap))
        with pytest.raises(ValueError, match="negative"):
            energy_norm(v, case.edges, bad, case.eps)


class TestErrorRecord:
    def test_component_breakdown_sums_to_the_square(self):
        from helpers import solve_case
        run = solve_case(k=1, n=8, eps=1e-3)
        rec = run.record
        assert rec.e_in ** 2 == pytest.approx(sum(rec.components.values()),
                                              rel=1e-12)
        assert rec.dofs == 8 * 8 * 4
        assert rec.e_pi > 0.0 and rec.e_l2 > 0.0

    def test_error_vanishes_when_solution_is_the_interpolant(self):
        case = make_case(k=1, n=8, eps=1e-3)
        u_h = interpolate_vee_global(case.problem.exact.u,
                                     case.mesh, case.dofmap)
        rec = supercloseness_error(u_h, case.edges, case.problem, case.eps)
        assert rec.e_in == 0.0
        assert rec.e_pi > 0.0  # composite differs on the coarse region

    def test_missing_exact_solution_is_rejected(self):
        case = make_case(k=1, n=8, eps=1e-3)
        anon = ProblemData(b1=case.problem.b1, b2=case.problem.b2,
                           div_b=case.problem.div_b, c=case.problem.c,
                           f=case.problem.f)
        v = as_dg(case, np.zeros(case.dofmap.total_dofs))
        with pytest.raises(ValueError, match="exact"):
            supercloseness_error(v, case.edges, anon, case.eps)


class TestConvergenceRates:
    def test_known_pair(self):
        rates = convergence_rates([(8, 0.219), (16, 0.0997)])
        assert rates == pytest.approx([np.log2(0.219 / 0.0997)])
        assert rates[0] == pytest.approx(1.1356, abs=1e-3)

    def test_stagnation_and_second_order(self):
        assert convergence_rates([(8, 0.5), (16, 0.5)]) == [0.0]
        assert convergence_rates([(8, 0.4), (16, 0.1)]) == pytest.approx([2.0])

    def test_short_sequences_give_no_rates(self):
        assert convergence_rates([]) == []
        assert convergence_rates([(8, 0.1)]) == []

    def test_non_doubling_sequence_is_rejected(self):
        with pytest.raises(ValueError, match="double"):
            convergence_rates([(8, 0.5), (24, 0.1)])

    def test_nonpositive_errors_are_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            convergence_rates([(8, 0.5), (16, 0.0)])


class TestRateTrend:
    """Observed orders sharpen monotonically along the doubling chains."""

    def test_linear_elements_rates_increase(self):
        errors, rates = error_chain(1, 1e-5, (8, 16, 32, 64))
        assert all(e > 0 for e in errors)
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert 1.0 < rates[0] < rates[-1] < 1.75

    def test_quadratic_elements_rates_increase(self):
        errors, rates = error_chain(2, 1e-6, (8, 16, 32))
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert 1.5 < rates[0] < rates[-1] < 2.75
