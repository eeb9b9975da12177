"""Tests for the NIPG system assembly.

The assembled sparse matrix and load vector are compared entry-by-entry
against the dense, loop-based reference in :mod:`oracles` on meshes small
enough to enumerate by hand, and the scheme is exercised on a globally
polynomial solution that the discrete space contains exactly.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from nipg2d import (
    CoefficientConditionError,
    DGFunction,
    DofMap,
    ExactSolution,
    ProblemData,
    assemble,
    boundary_layer_problem,
    boundary_dofs,
    classify_edges,
)
import nipg2d
from nipg2d.analysis import interpolate_vee_global

from helpers import make_case, make_mesh, random_dg_coefficients
from oracles import edge_segment, inflow_outflow_split, trace_pair

RNG = np.random.default_rng(20240915)


def find_edge(edges, orientation, line, cell):
    """Index of the edge with the given orientation, line and cell band."""
    idx = np.flatnonzero((edges.orientation == orientation)
                         & (edges.line == line) & (edges.cell == cell))
    if idx.size != 1:
        raise AssertionError(f"no edge {(orientation, line, cell)}")
    return int(idx[0])


def test_public_names_resolve():
    for name in nipg2d.__all__:
        assert hasattr(nipg2d, name), name


class TestDofMap:
    def test_local_and_total_counts(self):
        dm = DofMap(k=2, n=4)
        assert dm.ndof_local == 9
        assert dm.total_dofs == 16 * 9

    def test_element_blocks_are_contiguous_and_disjoint(self):
        dm = DofMap(k=1, n=4)
        seen = []
        for i in range(4):
            for j in range(4):
                dofs = dm.element_dofs(i, j)
                assert dofs[0] == dm.base(i, j)
                assert list(dofs) == list(range(dofs[0], dofs[0] + 4))
                seen.extend(dofs.tolist())
        assert sorted(seen) == list(range(dm.total_dofs))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DofMap(k=0, n=8)
        with pytest.raises(ValueError):
            DofMap(k=1, n=1)


class TestTracePair:
    def setup_method(self):
        self.case = make_case(k=1, n=8, eps=0.05)

    def test_smooth_interpolant_has_matching_traces(self):
        # The nodal interpolant of a global bilinear is continuous, so the
        # two traces agree with each other and with the function itself.
        case = self.case
        g = lambda x, y: 2.0 * x - 3.0 * y + x * y + 1.0
        v = interpolate_vee_global(g, case.mesh, case.dofmap)
        for idx in range(len(case.edges)):
            fixed, (lo, hi) = edge_segment(case.mesh, case.edges, idx)
            s = np.linspace(lo, hi, 7)[1:-1]
            if case.edges.orientation[idx] == "v":
                xs, ys = np.full_like(s, fixed), s
            else:
                xs, ys = s, np.full_like(s, fixed)
            plus, minus = trace_pair(v, case.edges, idx, s)
            np.testing.assert_allclose(plus, g(xs, ys), atol=1e-12)
            if minus is not None:
                np.testing.assert_allclose(minus, plus, atol=1e-12)

    def test_indicator_jump_is_plus_minus_one(self):
        # v = 1 on element (1, 1), 0 elsewhere (the basis sums to one).
        case = self.case
        coeffs = np.zeros(case.dofmap.total_dofs)
        coeffs[case.dofmap.element_dofs(1, 1)] = 1.0
        v = DGFunction(case.mesh, case.dofmap, coeffs)
        mid_y = 0.5 * (case.mesh.y_pts[1] + case.mesh.y_pts[2])
        mid_x = 0.5 * (case.mesh.x_pts[1] + case.mesh.x_pts[2])

        # Left vertical edge of (1, 1): plus side is the right element (1, 1).
        idx = find_edge(case.edges, "v", 1, 1)
        plus, minus = trace_pair(v, case.edges, idx, mid_y)
        assert plus[0] == pytest.approx(1.0, abs=1e-14)
        assert minus[0] == pytest.approx(0.0, abs=1e-14)
        # Right vertical edge: plus side is now element (2, 1) where v = 0.
        idx = find_edge(case.edges, "v", 2, 1)
        plus, minus = trace_pair(v, case.edges, idx, mid_y)
        assert plus[0] == pytest.approx(0.0, abs=1e-14)
        assert minus[0] == pytest.approx(1.0, abs=1e-14)
        # Bottom horizontal edge of (1, 1): plus side is the upper element.
        idx = find_edge(case.edges, "h", 1, 1)
        plus, minus = trace_pair(v, case.edges, idx, mid_x)
        assert plus[0] == pytest.approx(1.0, abs=1e-14)
        assert minus[0] == pytest.approx(0.0, abs=1e-14)

    def test_traces_are_one_sided_limits(self):
        # Compare against point evaluation slightly inside each element.
        case = self.case
        v = DGFunction(case.mesh, case.dofmap,
                       random_dg_coefficients(RNG, case.dofmap))
        delta = 1e-10
        idx = find_edge(case.edges, "v", 4, 2)  # transition line, interior
        x_e, (lo, hi) = edge_segment(case.mesh, case.edges, idx)
        s = np.array([0.5 * (lo + hi)])
        plus, minus = trace_pair(v, case.edges, idx, s)
        assert plus[0] == pytest.approx(v.eval(x_e + delta, s[0]), abs=1e-5)
        assert minus[0] == pytest.approx(v.eval(x_e - delta, s[0]), abs=1e-5)

    def test_boundary_edge_has_no_minus_trace(self):
        case = self.case
        v = DGFunction(case.mesh, case.dofmap,
                       np.ones(case.dofmap.total_dofs))
        idx = find_edge(case.edges, "v", 0, 3)
        _, (lo, _) = edge_segment(case.mesh, case.edges, idx)
        plus, minus = trace_pair(v, case.edges, idx, [lo + 1e-3])
        assert minus is None
        assert plus[0] == pytest.approx(1.0, abs=1e-14)


class TestInflowOutflowSplit:
    def test_builtin_field_inflow_is_left_and_bottom(self):
        # b = (3 - x, 4 - y) is positive in both components everywhere,
        # so every element sees inflow on left/bottom, outflow right/top.
        case = make_case(k=1, n=8, eps=1e-3)
        for i in range(8):
            for j in range(8):
                inflow, outflow = inflow_outflow_split(
                    case.mesh, case.problem, i, j)
                assert inflow == ("left", "bottom")
                assert outflow == ("right", "top")

    def test_sign_change_within_a_side_is_rejected(self):
        mesh = make_mesh(8, 0.4, 2.5, beta1=1.0, beta2=1.0)  # near-uniform
        problem = ProblemData(
            b1=lambda x, y: np.ones_like(x),
            b2=lambda x, y: x - 0.2,  # changes sign along horizontal sides
            div_b=lambda x, y: np.zeros_like(x),
            c=lambda x, y: np.ones_like(x),
            f=lambda x, y: np.zeros_like(x),
        )
        i = int(np.searchsorted(mesh.x_pts, 0.2) - 1)  # cell straddling 0.2
        with pytest.raises(ValueError, match="changes sign"):
            inflow_outflow_split(mesh, problem, i, 0)


class TestMatrixOracle:
    """Entry-by-entry agreement with the dense loop-based reference."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_two_cell_mesh_matches_dense_reference(self, k):
        import oracles

        mesh = make_mesh(2, 0.05, 2.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=k, n=2)
        problem = boundary_layer_problem(0.05)
        system = assemble(mesh, edges, dofmap, problem, eps=0.05)
        dense = oracles.dense_bilinear_matrix(mesh, dofmap, problem, eps=0.05)
        np.testing.assert_allclose(system.matrix.toarray(), dense,
                                   atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_two_cell_mesh_strong_mode_matches_dense_reference(self, k):
        import oracles

        mesh = make_mesh(2, 0.05, 2.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=k, n=2)
        problem = boundary_layer_problem(0.05)
        system = assemble(mesh, edges, dofmap, problem, eps=0.05,
                          dirichlet="strong")
        dense = oracles.dense_bilinear_matrix(mesh, dofmap, problem, eps=0.05,
                                              dirichlet="strong")
        bdofs = boundary_dofs(mesh, dofmap)
        interior = np.setdiff1d(np.arange(dofmap.total_dofs), bdofs)
        got = system.matrix.toarray()
        # Interior block agrees; boundary rows/columns are eliminated to
        # the identity.
        np.testing.assert_allclose(got[np.ix_(interior, interior)],
                                   dense[np.ix_(interior, interior)],
                                   atol=1e-12, rtol=0.0)
        np.testing.assert_allclose(got[bdofs][:, bdofs],
                                   np.eye(bdofs.size), atol=0.0)
        assert np.all(got[np.ix_(bdofs, interior)] == 0.0)
        assert np.all(got[np.ix_(interior, bdofs)] == 0.0)

    def test_load_vector_matches_dense_reference(self):
        import oracles

        mesh = make_mesh(2, 0.05, 2.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=1, n=2)
        # Low-degree polynomial data: both quadratures integrate exactly.
        problem = ProblemData(
            b1=lambda x, y: 3.0 - x,
            b2=lambda x, y: 4.0 - y,
            div_b=lambda x, y: -2.0 * np.ones_like(x),
            c=lambda x, y: np.ones_like(x),
            f=lambda x, y: 1.0 + 2.0 * x + 3.0 * y + x * y,
        )
        system = assemble(mesh, edges, dofmap, problem, eps=0.05)
        dense = oracles.dense_load_vector(mesh, dofmap, problem)
        np.testing.assert_allclose(system.rhs, dense, atol=1e-12, rtol=0.0)

    def test_trivial_problem_assembles_zero_load(self):
        # b = (1, 1), c = 0, f = 0 is admissible (c - div b / 2 = 0) and
        # produces the zero solution.
        mesh = make_mesh(8, 1e-2, 2.5, beta1=1.0, beta2=1.0)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=1, n=8)
        one = lambda x, y: np.ones_like(x)
        zero = lambda x, y: np.zeros_like(x)
        problem = ProblemData(b1=one, b2=one, div_b=zero, c=zero, f=zero)
        system = assemble(mesh, edges, dofmap, problem, eps=1e-2)
        assert np.all(system.rhs == 0.0)
        sol = splu(system.matrix.tocsc()).solve(system.rhs)
        np.testing.assert_allclose(sol, 0.0, atol=1e-14)


class TestPolynomialConsistency:
    """A solution in the discrete space is reproduced to round-off.

    u = x(1-x) y(1-y) lies in Q2; with the matching right-hand side the
    NIPG solution coincides with u up to linear-solver round-off, which
    pins down every term of the bilinear form at once.
    """

    @staticmethod
    def _field():
        u = lambda x, y: x * (1.0 - x) * y * (1.0 - y)

        def f(x, y):
            g, w = x * (1.0 - x), y * (1.0 - y)
            lap = -2.0 * w - 2.0 * g
            conv = (3.0 - x) * (1.0 - 2.0 * x) * w + (4.0 - y) * g * (1.0 - 2.0 * y)
            return -0.01 * lap + conv + g * w

        return ProblemData(
            b1=lambda x, y: 3.0 - x,
            b2=lambda x, y: 4.0 - y,
            div_b=lambda x, y: -2.0 * np.ones_like(x),
            c=lambda x, y: np.ones_like(x),
            f=f,
            exact=ExactSolution(u=u),
        )

    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    def test_quadratic_solution_is_exact(self, dirichlet):
        problem = self._field()
        mesh = make_mesh(8, 0.01, 2.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=2, n=8)
        system = assemble(mesh, edges, dofmap, problem, eps=0.01,
                          dirichlet=dirichlet)
        sol = splu(system.matrix.tocsc()).solve(system.rhs)
        expected = interpolate_vee_global(problem.exact.u, mesh, dofmap)
        np.testing.assert_allclose(sol, expected.coefficients, atol=1e-10)


class TestNumberingInvariance:
    def test_reversed_numbering_gives_identical_system(self):
        case = make_case(k=1, n=8, eps=1e-4)
        reversed_edges = classify_edges(case.mesh, numbering="reversed")
        other = assemble(case.mesh, reversed_edges, case.dofmap,
                         case.problem, eps=case.eps)
        diff = (case.system.matrix - other.matrix).tocoo()
        max_entry = np.abs(diff.data).max() if diff.nnz else 0.0
        assert max_entry <= 1e-14
        np.testing.assert_allclose(other.rhs, case.system.rhs, atol=1e-14)


class TestValidation:
    def setup_method(self):
        self.mesh = make_mesh(8, 1e-3, 2.5)
        self.edges = classify_edges(self.mesh)
        self.dofmap = DofMap(k=1, n=8)

    def test_convection_below_mesh_bounds_is_rejected(self):
        # The mesh was built for b1 >= 5, but the field only reaches 2.
        strict = make_mesh(8, 1e-3, 2.5, beta1=5.0, beta2=3.0)
        problem = boundary_layer_problem(1e-3)
        with pytest.raises(CoefficientConditionError, match="lower bounds"):
            assemble(strict, classify_edges(strict), self.dofmap,
                     problem, eps=1e-3)

    def test_negative_reaction_measure_is_rejected(self):
        problem = ProblemData(
            b1=lambda x, y: x + 1.0,
            b2=lambda x, y: y + 1.0,
            div_b=lambda x, y: 2.0 * np.ones_like(x),
            c=lambda x, y: np.zeros_like(x),  # c - div b / 2 = -1
            f=lambda x, y: np.zeros_like(x),
        )
        relaxed = make_mesh(8, 1e-3, 2.5, beta1=1.0, beta2=1.0)
        with pytest.raises(CoefficientConditionError, match="nonnegative"):
            assemble(relaxed, classify_edges(relaxed), self.dofmap,
                     problem, eps=1e-3)

    def test_insufficient_quadrature_is_rejected(self):
        problem = boundary_layer_problem(1e-3)
        with pytest.raises(ValueError):
            assemble(self.mesh, self.edges, self.dofmap, problem,
                     eps=1e-3, quad_order=1)

    def test_unknown_dirichlet_mode_is_rejected(self):
        problem = boundary_layer_problem(1e-3)
        with pytest.raises(ValueError):
            assemble(self.mesh, self.edges, self.dofmap, problem,
                     eps=1e-3, dirichlet="penalty")


class TestSparsityAndMetadata:
    def test_coupling_is_nearest_neighbor_only(self):
        case = make_case(k=2, n=8, eps=1e-3)
        lil = case.system.matrix.tolil()
        ndl = case.dofmap.ndof_local
        for i in range(8):
            for j in range(8):
                allowed = set(case.dofmap.element_dofs(i, j).tolist())
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    if 0 <= i + di < 8 and 0 <= j + dj < 8:
                        allowed.update(
                            case.dofmap.element_dofs(i + di, j + dj).tolist())
                for row in case.dofmap.element_dofs(i, j):
                    cols = lil.rows[row]
                    assert len(cols) <= 5 * ndl
                    assert set(cols) <= allowed

    def test_metadata_records_discretization(self):
        case = make_case(k=1, n=8, eps=1e-4)
        md = case.system.metadata
        assert md["n"] == 8 and md["k"] == 1 and md["eps"] == 1e-4
        assert md["penalty_schedule"] == "M1:1 M2:N^2 M3:N M4:N"
        assert md["boundary_edge_rule"] == "same-as-interior"
        assert md["dirichlet"] == "weak"
        assert md["quad_order"] == 3

    def test_strong_mode_zeroes_boundary_coefficients(self):
        case = make_case(k=1, n=8, eps=1e-3, dirichlet="strong")
        sol = splu(case.system.matrix.tocsc()).solve(case.system.rhs)
        bdofs = boundary_dofs(case.mesh, case.dofmap)
        np.testing.assert_allclose(sol[bdofs], 0.0, atol=1e-14)
        assert (sol != 0.0).any()
