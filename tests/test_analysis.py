"""Tests for interpolation operators, the energy norm, and error records."""

import dataclasses

import numpy as np
import pytest

from nipg2d import convergence_rates
from nipg2d.analysis import (
    ERROR_QUAD_POINTS_OVER_K,
    INTERP_QUAD_POINTS_OVER_K,
    broken_l2_error,
    energy_norm,
    interpolate_composite,
    interpolate_vee_global,
    supercloseness_error,
)
from nipg2d.assembly import QUAD_POINTS_OVER_K, assemble
from nipg2d.felib import reference_tables, vee_operator
from nipg2d.mesh import NO_ELEMENT
from nipg2d.solver import solve

import oracles
from helpers import (as_dg, coarse_elements, error_chain, make_case,
                     random_dg_coefficients)

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
        np.testing.assert_allclose(oracles.dg_eval(v, xs, ys), p(xs, ys),
                                   atol=1e-12, rtol=1e-12)

    def test_zero_function_gives_zero_coefficients(self):
        case = make_case(k=2, n=8, eps=1e-2)
        v = interpolate_vee_global(lambda x, y: np.zeros_like(x),
                                   case.mesh, case.dofmap)
        assert np.all(v.coefficients == 0.0)

    def test_constant_callable_is_broadcast(self):
        case = make_case(k=2, n=8, eps=1e-2)
        u = lambda x, y: 3.0
        vee = interpolate_vee_global(u, case.mesh, case.dofmap)
        for v in (vee, interpolate_composite(u, vee)):
            np.testing.assert_allclose(v.coefficients, 3.0, rtol=1e-13)
        assert broken_l2_error(u, v) < 1e-13

    def test_interpolant_of_smooth_layer_is_continuous(self):
        # Jumps of the interpolant vanish across interior edges, so the
        # jump terms of the supercloseness error come from u_h alone.
        case = make_case(k=1, n=8, eps=1e-3)
        v = interpolate_vee_global(case.problem.exact,
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
        v = interpolate_composite(
            p, interpolate_vee_global(p, case.mesh, case.dofmap))
        xs = RNG.uniform(0.0, 1.0, 40)
        ys = RNG.uniform(0.0, 1.0, 40)
        np.testing.assert_allclose(oracles.dg_eval(v, xs, ys), p(xs, ys),
                                   atol=1e-12, rtol=1e-12)

    def test_matches_nodal_interpolant_outside_coarse_region(self):
        case = make_case(k=2, n=8, eps=1e-3)
        u = case.problem.exact
        vee = interpolate_vee_global(u, case.mesh, case.dofmap)
        comp = interpolate_composite(u, vee)
        vee_blocks = vee.coefficients.reshape(8, 8, -1)
        comp_blocks = comp.coefficients.reshape(8, 8, -1)
        coarse = coarse_elements(case.mesh)
        differs = False
        for i in range(8):
            for j in range(8):
                same = np.array_equal(vee_blocks[i, j], comp_blocks[i, j])
                if coarse[i, j]:
                    differs = differs or not same
                else:
                    assert same
        assert differs  # the projection does change the coarse region

    def test_projection_moments_vanish_on_coarse_region(self):
        # On each coarse-coarse element, u - (composite u) is orthogonal
        # to Q_k under the projector's own quadrature.
        k = 2
        case = make_case(k=k, n=8, eps=1e-3)
        u = case.problem.exact
        comp = interpolate_composite(
            u, interpolate_vee_global(u, case.mesh, case.dofmap))
        tab = reference_tables(k, k + INTERP_QUAD_POINTS_OVER_K)
        (xi, eta), w2 = tab.points.T, tab.w2
        coarse = coarse_elements(case.mesh)
        for i, j in [(0, 0), (1, 2), (3, 3), (2, 0)]:
            assert coarse[i, j]
            xq = case.mesh.x_pts[i] + 0.5 * (xi + 1.0) * case.mesh.h_x[i]
            yq = case.mesh.y_pts[j] + 0.5 * (eta + 1.0) * case.mesh.h_y[j]
            diff = u(xq, yq) - oracles.dg_eval(comp, xq, yq, i * 8 + j)
            for a in range(k + 1):
                for b in range(k + 1):
                    moment = np.sum(w2 * diff * xi ** a * eta ** b)
                    assert abs(moment) <= 1e-11


class TestEnergyNorm:
    def test_zero_function_has_zero_norm(self):
        case = make_case(k=1, n=8, eps=1e-3)
        v = as_dg(case, np.zeros(case.dofs))
        parts = energy_norm(v, case.edges, case.problem)
        assert parts.value == 0.0
        assert all(x == 0.0 for x in dataclasses.asdict(parts).values())

    def test_reaction_component_is_weighted_l2_mass(self):
        # The built-in field has c - div(b)/2 = 2 identically.
        case = make_case(k=2, n=8, eps=1e-3)
        v = interpolate_vee_global(lambda x, y: np.sin(3 * x) * y,
                                   case.mesh, case.dofmap)
        parts = energy_norm(v, case.edges, case.problem)
        l2 = broken_l2_error(lambda x, y: np.zeros_like(x), v)
        assert parts.reaction == pytest.approx(2.0 * l2 ** 2, rel=1e-12)

    @pytest.mark.parametrize("kind", ["indicator", "random"])
    def test_components_match_bruteforce_reference(self, kind):
        case = make_case(k=1, n=2, eps=0.05)
        if kind == "indicator":
            coeffs = np.zeros(case.dofs)
            coeffs.reshape(2, 2, -1)[0, 1] = 1.0
        else:
            coeffs = random_dg_coefficients(RNG, case)
        v = as_dg(case, coeffs)
        parts = energy_norm(v, case.edges, case.problem)
        expected = oracles.energy_components_bruteforce(v, case.problem)
        for key, value in dataclasses.asdict(parts).items():
            assert value == pytest.approx(expected[key], rel=1e-12,
                                          abs=1e-15), key

    def test_absolute_homogeneity(self):
        case = make_case(k=1, n=8, eps=1e-3)
        coeffs = random_dg_coefficients(RNG, case)
        v = as_dg(case, coeffs)
        w = as_dg(case, -2.5 * coeffs)
        nv = energy_norm(v, case.edges, case.problem).value
        nw = energy_norm(w, case.edges, case.problem).value
        assert nw == pytest.approx(2.5 * nv, rel=1e-12)

    def test_triangle_inequality(self):
        case = make_case(k=1, n=8, eps=1e-3)
        for _ in range(50):
            a = random_dg_coefficients(RNG, case)
            b = random_dg_coefficients(RNG, case)
            na = energy_norm(as_dg(case, a), case.edges, case.problem).value
            nb = energy_norm(as_dg(case, b), case.edges, case.problem).value
            nab = energy_norm(as_dg(case, a + b), case.edges,
                              case.problem).value
            assert nab <= na + nb + 1e-10

    def test_negative_reaction_measure_is_rejected(self):
        case = make_case(k=1, n=8, eps=1e-3)
        bad = dataclasses.replace(case.problem,
                                  div_b=lambda x, y: np.zeros_like(x),
                                  c=lambda x, y: -np.ones_like(x))
        v = as_dg(case, random_dg_coefficients(RNG, case))
        with pytest.raises(ValueError, match="negative"):
            energy_norm(v, case.edges, bad)


class TestErrorRecord:
    def test_component_breakdown_sums_to_the_square(self):
        from helpers import solve_case
        run = solve_case(k=1, n=8, eps=1e-3)
        rec = run.record
        parts = dataclasses.asdict(rec.components)
        assert rec.e_in ** 2 == pytest.approx(sum(parts.values()), rel=1e-12)
        assert rec.e_pi > 0.0 and rec.e_l2 > 0.0

    def test_error_vanishes_when_solution_is_the_interpolant(self):
        case = make_case(k=1, n=8, eps=1e-3)
        u_h = interpolate_vee_global(case.problem.exact,
                                     case.mesh, case.dofmap)
        rec = supercloseness_error(u_h, case.edges, case.problem)
        assert rec.e_in == 0.0
        assert rec.e_pi > 0.0  # composite differs on the coarse region

    def test_round_off_reaction_weight_is_accepted(self):
        # c - div(b)/2 = 0.15 - (0.1 + 0.2)/2 = -2.8e-17: assemble accepts
        # it, so the error record must too
        case = make_case(k=1, n=8, eps=1e-3)
        problem = dataclasses.replace(
            case.problem, div_b=lambda x, y: np.full_like(x, 0.1 + 0.2),
            c=lambda x, y: np.full_like(x, 0.15))
        system = assemble(case.mesh, case.edges, case.dofmap, problem)
        x, report = solve(system)
        assert report.converged
        rec = supercloseness_error(as_dg(case, x), case.edges, problem)
        assert rec.components.reaction == 0.0
        assert np.isfinite(rec.e_in) and rec.e_in > 0.0

    def test_missing_exact_solution_is_rejected(self):
        case = make_case(k=1, n=8, eps=1e-3)
        anon = dataclasses.replace(case.problem, exact=None)
        v = as_dg(case, np.zeros(case.dofs))
        with pytest.raises(ValueError, match="exact"):
            supercloseness_error(v, case.edges, anon)


class TestBroadcastContract:
    """Problem data is sampled on the mesh's tensor grid, x (N, 1, npts)
    against y (1, N, npts), and elementwise callables give there the bits
    they give on the full (N, N, npts) arrays."""

    CALLABLES = ("b1", "b2", "div_b", "c", "f", "exact")

    @classmethod
    def on_full_arrays(cls, problem, calls):
        """``problem`` with every callable evaluated on
        ``np.broadcast_arrays(x, y)``, logging the shapes it was passed
        under its name in ``calls``."""
        def full(name, fn):
            def wrapped(x, y):
                calls.setdefault(name, []).append((np.shape(x), np.shape(y)))
                return fn(*np.broadcast_arrays(x, y))
            return wrapped
        return dataclasses.replace(problem, **{
            name: full(name, getattr(problem, name))
            for name in cls.CALLABLES})

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_arrays_give_the_same_bits(self, k):
        case = make_case(k=k, n=8, eps=1e-6)
        problem = self.on_full_arrays(case.problem, {})
        system = assemble(case.mesh, case.edges, case.dofmap, problem)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(system.matrix, name),
                                          getattr(case.system.matrix, name))
        np.testing.assert_array_equal(system.rhs, case.system.rhs)
        u_h = as_dg(case, random_dg_coefficients(np.random.default_rng(k),
                                                 case))
        assert (supercloseness_error(u_h, case.edges, problem)
                == supercloseness_error(u_h, case.edges, case.problem))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cell_samples_arrive_on_the_tensor_grid(self, k):
        case = make_case(k=k, n=8, eps=1e-6)
        calls = {}
        problem = self.on_full_arrays(case.problem, calls)
        assemble(case.mesh, case.edges, case.dofmap, problem)
        supercloseness_error(as_dg(case, np.zeros(case.dofs)), case.edges,
                             problem)

        def grid(cells, npts):
            return (cells, 1, npts), (1, cells, npts)

        n, m = case.n, case.mesh.config.coarse_cells
        n_vee = vee_operator(k, k + INTERP_QUAD_POINTS_OVER_K)[0].shape[0]
        n_interp = (k + INTERP_QUAD_POINTS_OVER_K) ** 2
        n_assemble = (k + QUAD_POINTS_OVER_K) ** 2
        n_error = (k + ERROR_QUAD_POINTS_OVER_K) ** 2
        assert calls["f"] == [grid(n, n_assemble)]
        assert calls["c"] == [grid(n, n_assemble), grid(n, n_error),
                              grid(n, n_error)]
        # vee interpolant, composite interpolant, broken L2 error
        assert calls["exact"] == [grid(n, n_vee), grid(m, n_interp),
                                  grid(n, n_error)]


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
