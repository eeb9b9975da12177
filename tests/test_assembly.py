"""Tests for the NIPG system assembly.

The assembled sparse matrix and load vector are compared entry-by-entry
against the dense, loop-based reference in :mod:`oracles` on meshes small
enough to enumerate by hand, and the scheme is exercised on a globally
polynomial solution that the discrete space contains exactly.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

from nipg2d import (
    CoefficientConditionError,
    DGFunction,
    DofMap,
    ProblemData,
    assemble,
    boundary_layer_problem,
    boundary_dofs,
    classify_edges,
)
import nipg2d
from nipg2d.analysis import interpolate_vee_global
from nipg2d.assembly import elimination_order
from nipg2d.felib import lobatto_nodes

from helpers import make_case, make_mesh, random_dg_coefficients
from oracles import (dg_eval, edge_segment, inflow_outflow_split,
                     reversed_edges, trace_pair)

RNG = np.random.default_rng(20240915)


def element_laplacian(n):
    """The 5-point Laplacian on the element numbering i*N + j."""
    line = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (kron(line, identity(n)) + kron(identity(n), line)).tocsc()


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
        dm = DofMap(k=2)
        assert dm.ndof_local == 9
        # the mesh owns N: an N = 4 function has 16 * 9 coefficients
        mesh = make_mesh(4, 1e-2, 3.5)
        assert DGFunction(mesh, dm, np.zeros(16 * 9)).coefficients.size == 144

    def test_element_blocks_are_contiguous_and_disjoint(self):
        # element (i, j) owns dofs (i*N + j)*(k+1)^2 + a*(k+1) + b, the
        # node (a, b) of its Lobatto grid: the interpolant of x + 10 y
        # carries exactly those nodal values, block by block
        k, n = 2, 4
        case = make_case(k=k, n=n, eps=1e-2)
        v = interpolate_vee_global(lambda x, y: x + 10.0 * y, case.mesh,
                                   case.dofmap)
        nodes = (lobatto_nodes(k + 1) + 1.0) * 0.5
        x = case.mesh.x_pts[:-1, None] + nodes * case.mesh.h_x[:, None]
        y = case.mesh.y_pts[:-1, None] + nodes * case.mesh.h_y[:, None]
        expected = x[:, None, :, None] + 10.0 * y[None, :, None, :]
        np.testing.assert_allclose(
            v.coefficients.reshape(n, n, k + 1, k + 1), expected, atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DofMap(k=0)

    def test_function_sized_for_another_mesh_is_rejected(self):
        # N = 16 coefficients on an N = 8 mesh: 8 * 8 * 4 = 256 expected
        mesh = make_mesh(8, 1e-3, 2.5)
        with pytest.raises(ValueError, match=r"1024.*expected \(256,\)"):
            DGFunction(mesh, DofMap(k=1), np.zeros(1024))


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
        coeffs = np.zeros(case.dofs)
        coeffs.reshape(8, 8, -1)[1, 1] = 1.0
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
                       random_dg_coefficients(RNG, case))
        delta = 1e-10
        idx = find_edge(case.edges, "v", 4, 2)  # transition line, interior
        x_e, (lo, hi) = edge_segment(case.mesh, case.edges, idx)
        s = np.array([0.5 * (lo + hi)])
        plus, minus = trace_pair(v, case.edges, idx, s)
        assert plus[0] == pytest.approx(dg_eval(v, x_e + delta, s)[0],
                                        abs=1e-5)
        assert minus[0] == pytest.approx(dg_eval(v, x_e - delta, s)[0],
                                         abs=1e-5)

    def test_boundary_edge_has_no_minus_trace(self):
        case = self.case
        v = DGFunction(case.mesh, case.dofmap,
                       np.ones(case.dofs))
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
        problem = ProblemData(
            eps=0.4,
            b1=lambda x, y: np.ones_like(x),
            b2=lambda x, y: x - 0.2,  # changes sign along horizontal sides
            div_b=lambda x, y: np.zeros_like(x),
            c=lambda x, y: np.ones_like(x),
            f=lambda x, y: np.zeros_like(x),
        )
        # eps = 0.4 makes the mesh near-uniform
        mesh = make_mesh(8, problem.eps, 2.5, beta1=1.0, beta2=1.0)
        i = int(np.searchsorted(mesh.x_pts, 0.2) - 1)  # cell straddling 0.2
        with pytest.raises(ValueError, match="changes sign"):
            inflow_outflow_split(mesh, problem, i, 0)


class TestMatrixOracle:
    """Entry-by-entry agreement with the dense loop-based reference."""

    # N=4 has interior elements, which couple to all four face neighbours
    @pytest.mark.parametrize("k,n", [
        pytest.param(1, 2, id="1"), pytest.param(2, 2, id="2"),
        pytest.param(3, 2, id="3"), pytest.param(1, 4, id="1-N4"),
        pytest.param(2, 4, id="2-N4")])
    def test_two_cell_mesh_matches_dense_reference(self, k, n):
        import oracles

        problem = boundary_layer_problem(0.05)
        mesh = make_mesh(n, problem.eps, 2.5)
        dofmap = DofMap(k=k)
        dense = oracles.dense_bilinear_matrix(mesh, dofmap, problem)
        standard = classify_edges(mesh)
        for edges in (standard, reversed_edges(standard)):
            matrix = assemble(mesh, edges, dofmap, problem).matrix
            assert matrix.has_canonical_format
            assert matrix.indices.dtype == np.int32
            np.testing.assert_allclose(matrix.toarray(), dense,
                                       atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_two_cell_mesh_strong_mode_matches_dense_reference(self, k):
        import oracles

        problem = boundary_layer_problem(0.05)
        mesh = make_mesh(2, problem.eps, 2.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=k)
        system = assemble(mesh, edges, dofmap, problem, dirichlet="strong")
        dense = oracles.dense_bilinear_matrix(mesh, dofmap, problem,
                                              dirichlet="strong")
        bdofs = boundary_dofs(mesh, dofmap)
        interior = np.setdiff1d(np.arange(system.rhs.size), bdofs)
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

        # Low-degree polynomial data: both quadratures integrate exactly.
        problem = ProblemData(
            eps=0.05,
            b1=lambda x, y: 3.0 - x,
            b2=lambda x, y: 4.0 - y,
            div_b=lambda x, y: -2.0 * np.ones_like(x),
            c=lambda x, y: np.ones_like(x),
            f=lambda x, y: 1.0 + 2.0 * x + 3.0 * y + x * y,
        )
        mesh = make_mesh(2, problem.eps, 2.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=1)
        system = assemble(mesh, edges, dofmap, problem)
        dense = oracles.dense_load_vector(mesh, dofmap, problem)
        np.testing.assert_allclose(system.rhs, dense, atol=1e-12, rtol=0.0)

    def test_trivial_problem_assembles_zero_load(self):
        # b = (1, 1), c = 0, f = 0 is admissible (c - div b / 2 = 0) and
        # produces the zero solution.
        one = lambda x, y: np.ones_like(x)
        zero = lambda x, y: np.zeros_like(x)
        problem = ProblemData(eps=1e-2, b1=one, b2=one, div_b=zero, c=zero,
                              f=zero)
        mesh = make_mesh(8, problem.eps, 2.5, beta1=1.0, beta2=1.0)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=1)
        system = assemble(mesh, edges, dofmap, problem)
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
        eps = 0.01
        u = lambda x, y: x * (1.0 - x) * y * (1.0 - y)

        def f(x, y):
            g, w = x * (1.0 - x), y * (1.0 - y)
            lap = -2.0 * w - 2.0 * g
            conv = (3.0 - x) * (1.0 - 2.0 * x) * w + (4.0 - y) * g * (1.0 - 2.0 * y)
            return -eps * lap + conv + g * w

        return ProblemData(
            eps=eps,
            b1=lambda x, y: 3.0 - x,
            b2=lambda x, y: 4.0 - y,
            div_b=lambda x, y: -2.0 * np.ones_like(x),
            c=lambda x, y: np.ones_like(x),
            f=f,
            exact=u,
        )

    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    def test_quadratic_solution_is_exact(self, dirichlet):
        problem = self._field()
        mesh = make_mesh(8, problem.eps, 2.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=2)
        system = assemble(mesh, edges, dofmap, problem, dirichlet=dirichlet)
        sol = splu(system.matrix.tocsc()).solve(system.rhs)
        expected = interpolate_vee_global(problem.exact, mesh, dofmap)
        np.testing.assert_allclose(sol, expected.coefficients, atol=1e-10)


class TestNumberingInvariance:
    def test_reversed_numbering_gives_identical_system(self):
        case = make_case(k=1, n=8, eps=1e-4)
        other = assemble(case.mesh, reversed_edges(case.edges), case.dofmap,
                         case.problem)
        diff = (case.system.matrix - other.matrix).tocoo()
        max_entry = np.abs(diff.data).max() if diff.nnz else 0.0
        assert max_entry <= 1e-14
        np.testing.assert_allclose(other.rhs, case.system.rhs, atol=1e-14)


class TestValidation:
    def setup_method(self):
        self.mesh = make_mesh(8, 1e-3, 2.5)
        self.edges = classify_edges(self.mesh)
        self.dofmap = DofMap(k=1)

    def test_convection_below_mesh_bounds_is_rejected(self):
        # The mesh was built for b1 >= 5, but the field only reaches 2.
        strict = make_mesh(8, 1e-3, 2.5, beta1=5.0, beta2=3.0)
        problem = boundary_layer_problem(1e-3)
        with pytest.raises(CoefficientConditionError, match="lower bounds"):
            assemble(strict, classify_edges(strict), self.dofmap, problem)

    def test_negative_reaction_measure_is_rejected(self):
        problem = ProblemData(
            eps=1e-3,
            b1=lambda x, y: x + 1.0,
            b2=lambda x, y: y + 1.0,
            div_b=lambda x, y: 2.0 * np.ones_like(x),
            c=lambda x, y: np.zeros_like(x),  # c - div b / 2 = -1
            f=lambda x, y: np.zeros_like(x),
        )
        relaxed = make_mesh(8, 1e-3, 2.5, beta1=1.0, beta2=1.0)
        with pytest.raises(CoefficientConditionError, match="nonnegative"):
            assemble(relaxed, classify_edges(relaxed), self.dofmap, problem)

    def test_unknown_dirichlet_mode_is_rejected(self):
        problem = boundary_layer_problem(1e-3)
        with pytest.raises(ValueError):
            assemble(self.mesh, self.edges, self.dofmap, problem,
                     dirichlet="penalty")

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
    def test_diffusion_parameter_must_be_positive_and_finite(self, eps):
        zero = lambda x, y: np.zeros_like(x)
        with pytest.raises(ValueError, match="positive and finite"):
            ProblemData(eps=eps, b1=zero, b2=zero, div_b=zero, c=zero,
                        f=zero)
        with pytest.raises(ValueError, match="positive and finite"):
            boundary_layer_problem(eps)


class TestSparsityAndMetadata:
    def test_coupling_is_nearest_neighbor_only(self):
        case = make_case(k=2, n=8, eps=1e-3)
        lil = case.system.matrix.tolil()
        ndl = case.dofmap.ndof_local
        dofs = np.arange(case.dofs).reshape(8, 8, ndl)
        for i in range(8):
            for j in range(8):
                allowed = set(dofs[i, j].tolist())
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    if 0 <= i + di < 8 and 0 <= j + dj < 8:
                        allowed.update(dofs[i + di, j + dj].tolist())
                for row in dofs[i, j]:
                    cols = lil.rows[row]
                    assert len(cols) <= 5 * ndl
                    assert set(cols) <= allowed

    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    def test_no_zeros_are_stored(self, dirichlet):
        # Lobatto-nodal traces vanish off the shared side, so parts of
        # every neighbour block are exact zeros
        case = make_case(k=3, n=8, eps=1e-3, dirichlet=dirichlet)
        matrix = case.system.matrix
        assert matrix.has_canonical_format
        assert np.all(matrix.data != 0.0)

    def test_order_eliminates_elements_whole(self):
        # at k = 1 only; higher degrees use face-node dissection
        case = make_case(k=1, n=8, eps=1e-3)
        ndl = case.dofmap.ndof_local
        blocks = case.system.order.reshape(-1, ndl)
        # minimum degree on the element graph, read from a full LU
        lu = splu(element_laplacian(8), permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
        np.testing.assert_array_equal(blocks[:, 0] // ndl,
                                      np.argsort(lu.perm_c))
        np.testing.assert_array_equal(blocks, blocks[:, :1] + np.arange(ndl))

    @pytest.mark.parametrize("k", [2, 3])
    def test_dissection_order_separates_the_halves(self, k):
        # the top cut of the 8 x 8 grid runs between element columns 3
        # and 4; its separator is the a == k nodes of column 3 and the
        # a == 0 nodes of column 4, eliminated last
        case = make_case(k=k, n=8, eps=1e-3)
        order = case.system.order
        assert not order.flags.writeable
        np.testing.assert_array_equal(np.sort(order),
                                      np.arange(case.dofs))
        i, _, a, _ = np.unravel_index(np.arange(order.size),
                                      (8, 8, k + 1, k + 1))
        separator = ((i == 3) & (a == k)) | ((i == 4) & (a == 0))
        first = np.flatnonzero((i < 4) & ~separator)
        second = np.flatnonzero((i >= 4) & ~separator)
        parts = np.split(order, [first.size, first.size + second.size])
        for part, dofs in zip(parts, (first, second,
                                      np.flatnonzero(separator))):
            np.testing.assert_array_equal(np.sort(part), dofs)
        matrix = case.system.matrix
        assert matrix[first][:, second].nnz == 0
        assert matrix[second][:, first].nnz == 0

    @pytest.mark.parametrize("k,n,dirichlet", [
        (2, 16, "weak"), (1, 32, "weak"), (2, 16, "strong"), (1, 32, "strong"),
    ], ids=["2-16", "1-32", "2-16-strong", "1-32-strong"])
    def test_peak_memory_is_a_few_csr_copies(self, k, n, dirichlet):
        # Blocks go to CSR via their block-CSR form; a COO round trip
        # of the same matrix peaked near 10.6x.  Strong Dirichlet data
        # is written into that CSR; adding an identity to a copy of it
        # peaked near 4.8x.
        problem = boundary_layer_problem(1e-4)
        mesh = make_mesh(n, problem.eps, k + 1.5)
        edges = classify_edges(mesh)
        dofmap = DofMap(k=k)
        assemble(mesh, edges, dofmap, problem)   # fill the table caches
        tracemalloc.start()
        try:
            matrix = assemble(mesh, edges, dofmap, problem, dirichlet).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        csr = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert peak <= 4 * csr, f"peak {peak} B is {peak / csr:.2f}x the CSR"

    def test_strong_mode_zeroes_boundary_coefficients(self):
        case = make_case(k=1, n=8, eps=1e-3, dirichlet="strong")
        sol = splu(case.system.matrix.tocsc()).solve(case.system.rhs)
        bdofs = boundary_dofs(case.mesh, case.dofmap)
        np.testing.assert_allclose(sol[bdofs], 0.0, atol=1e-14)
        assert (sol != 0.0).any()


class TestElementOrder:
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_is_a_cached_read_only_permutation(self, n):
        order = elimination_order(n, 1)
        np.testing.assert_array_equal(np.sort(order[::4] // 4),
                                      np.arange(n * n))
        np.testing.assert_array_equal(np.sort(order), np.arange(4 * n * n))
        assert not order.flags.writeable
        assert elimination_order(n, 1) is order

    def test_reduces_fill_of_the_element_graph(self):
        # the 5-point element Laplacian fills far less in this order than
        # in the natural (banded) one
        n = 16
        laplacian = element_laplacian(n)
        order = elimination_order(n, 1)[::4] // 4

        def fill(matrix):
            return splu(matrix, permc_spec="NATURAL").nnz

        assert fill(laplacian[order][:, order]) < 0.7 * fill(laplacian)
