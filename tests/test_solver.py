"""Tests for the sparse linear solver wrapper."""

import dataclasses
import gc
import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags
from scipy.sparse import random as sparse_random
from scipy.sparse.linalg import spilu, splu

from nipg2d import (DGFunction, DofMap, SolverConfig, SparseSystem, assemble,
                    boundary_layer_problem, classify_edges, solve, solver,
                    supercloseness_error)
from nipg2d.assembly import elimination_order

from helpers import make_case, make_mesh, spend_budget


def diagonal_system(n=50):
    d = np.arange(1.0, n + 1.0)
    rhs = np.sin(np.arange(n))
    return SparseSystem(diags(d).tocsr(), rhs, np.arange(n)), rhs / d


def permuted_identity_with_noise(n=400, density=0.005, scale=1e-6, seed=7):
    """A permutation matrix plus tiny random fill: its diagonal is noise."""
    rng = np.random.default_rng(seed)
    perm = csr_matrix((np.ones(n), (np.arange(n), rng.permutation(n))),
                      shape=(n, n))
    noise = sparse_random(n, n, density=density, random_state=rng,
                          format="csr")
    return perm + scale * noise


class TestDirect:
    def test_diagonal_system_is_solved_exactly(self):
        system, expected = diagonal_system()
        x, report = solve(system)
        np.testing.assert_allclose(x, expected, rtol=1e-14)
        assert report.iterations == 0
        assert report.converged
        assert report.residual <= 1e-14

    def test_assembled_system_residual_is_tiny(self):
        case = make_case(k=1, n=8, eps=1e-4)
        x, report = solve(case.system)
        assert report.converged
        assert report.residual <= 1e-12
        assert report.message == ""
        assert np.all(np.isfinite(x))

    def test_missed_tolerance_says_why(self):
        case = make_case(k=1, n=8, eps=1e-4)
        x, report = solve(case.system, SolverConfig(rel_tol=1e-20))
        assert not report.converged
        matrix, rhs = case.system.matrix, case.system.rhs
        backward = (np.abs(rhs - matrix @ x).max()
                    / (abs(matrix).sum(axis=1).max() * np.abs(x).max()
                       + np.abs(rhs).max()))
        assert f"relative residual {report.residual:.3e}" in report.message
        assert "rel_tol 1.000e-20" in report.message
        stated = re.search(r"backward error is (\S+)", report.message)[1]
        assert float(stated) == pytest.approx(backward, rel=1e-3)

    def test_repeat_solves_are_bitwise_identical(self):
        case = make_case(k=1, n=8, eps=1e-4)
        x1, r1 = solve(case.system)
        x2, r2 = solve(case.system)
        np.testing.assert_array_equal(x1, x2)
        assert r1.residual == r2.residual

    def test_condition_estimate_on_request(self):
        case = make_case(k=1, n=8, eps=1e-3)
        _, plain = solve(case.system)
        assert plain.condition_estimate is None
        _, report = solve(case.system,
                          SolverConfig(estimate_condition=True))
        assert report.condition_estimate is not None
        assert report.condition_estimate >= 1.0
        assert np.isfinite(report.condition_estimate)

    def test_condition_estimate_is_reproducible(self):
        case = make_case(k=1, n=8, eps=1e-3)
        config = SolverConfig(estimate_condition=True)
        state = np.random.get_state()
        first = solve(case.system, config)[1].condition_estimate
        second = solve(case.system, config)[1].condition_estimate
        assert first == second
        # no draws from the global RNG
        after = np.random.get_state()
        np.testing.assert_array_equal(after[1], state[1])
        assert after[2:] == state[2:]
        # a lower bound that is tight on this system
        exact = np.linalg.cond(case.system.matrix.toarray(), 1)
        assert first == pytest.approx(exact, rel=1e-9)
        assert first <= exact * (1.0 + 1e-12)

    @pytest.mark.parametrize("matrix", [
        csr_matrix([[1e-14, 1.0], [1.0, 1.0]]),
        csr_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
        permuted_identity_with_noise(),
    ], ids=["tiny-pivot", "zero-diagonal", "permuted-identity"])
    def test_matrices_needing_off_diagonal_pivots(self, matrix):
        # the LU prefers diagonal pivots; its threshold must still reject
        # diagonals that are tiny next to the rest of their column
        rhs = np.cos(np.arange(matrix.shape[0]))
        x, report = solve(SparseSystem(matrix, rhs,
                                       np.arange(matrix.shape[0])))
        residual = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        assert residual <= 1e-14
        assert report.residual <= 1e-14

    def test_exactly_singular_matrix_raises(self):
        # SuperLU's error, documented on solve; no assembled NIPG matrix
        # is singular
        system = SparseSystem(csr_matrix([[0.0, 0.0], [0.0, 1.0]]),
                              np.array([1.0, 1.0]), np.arange(2))
        with pytest.raises(RuntimeError, match="exactly singular"):
            solve(system)

    def test_ilu_fill_is_below_the_lu_fill(self):
        # both paths report their factor's entries; the incomplete LU
        # drops some (6,609 against 10,132 here)
        case = make_case(k=1, n=8, eps=1e-4)
        _, direct = solve(case.system)
        _, iterative = solve(case.system, SolverConfig(method="iterative"))
        assert isinstance(iterative.lu_fill, int)
        assert 0 < iterative.lu_fill < direct.lu_fill


def natural_order(system):
    """The same system, eliminated in dof order."""
    return dataclasses.replace(system,
                               order=np.arange(system.rhs.size))


def minimum_degree_lu(matrix):
    """SuperLU's minimum degree on the pattern of A^T + A, with the
    solver's pivoting: the reference ordering, which no solver path
    takes."""
    return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=1e-4, options={"SymmetricMode": True})


class TestOrdering:
    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_errors_do_not_depend_on_the_order(self, k, n, dirichlet):
        case = make_case(k=k, n=n, eps=1e-4, dirichlet=dirichlet)
        records = []
        for system in (case.system, natural_order(case.system)):
            x, report = solve(system)
            assert report.converged
            records.append(supercloseness_error(
                DGFunction(case.mesh, case.dofmap, x), case.edges,
                case.problem))
        ordered, natural = records
        for name in ("e_in", "e_pi", "e_l2"):
            assert getattr(ordered, name) == pytest.approx(
                getattr(natural, name), rel=1e-12, abs=0.0), name

    def test_element_order_reduces_fill(self):
        case = make_case(k=1, n=32, eps=1e-5)
        _, ordered = solve(case.system)
        assert ordered.lu_fill < minimum_degree_lu(case.system.matrix).nnz

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solutions_do_not_depend_on_the_order(self, k):
        # refinement with extended-precision residuals takes the solution
        # to double precision whatever the LU: the system's order and dof
        # order give solutions 7e-18 to 3e-17 apart here
        case = make_case(k=k, n=8, eps=1e-4)
        x_ordered, _ = solve(case.system)
        x_natural, _ = solve(natural_order(case.system))
        assert (np.linalg.norm(x_ordered - x_natural)
                <= 1e-15 * np.linalg.norm(x_natural))

    def test_dissection_order_reduces_fill_at_k3(self):
        case = make_case(k=3, n=16, eps=1e-5)
        ndl = case.dofmap.ndof_local
        elements = elimination_order(16, 1)[::4] // 4
        blocks = (elements[:, None] * ndl + np.arange(ndl)).ravel()
        _, dissection = solve(case.system)
        _, element_blocks = solve(dataclasses.replace(case.system,
                                                      order=blocks))
        assert dissection.lu_fill < element_blocks.lu_fill

    def test_order_must_be_a_permutation(self):
        system, _ = diagonal_system(n=4)
        for order in (np.array([0, 1, 2]), np.array([0, 1, 1, 3])):
            with pytest.raises(ValueError, match="permutation"):
                solve(dataclasses.replace(system, order=order))

    @pytest.mark.parametrize("method, factorize", [
        ("iterative", spilu),
        ("direct", splu),
    ], ids=["ordered", "direct-ordered"])
    def test_ilu_factors_the_system_in_its_order(self, monkeypatch, method,
                                                 factorize):
        # the incomplete LU, and the direct path's LU, factor P A P^T, the
        # assembled matrix itself, in natural order
        system = make_case(k=1, n=8, eps=1e-3).system
        calls = []

        def recording(matrix, **kwargs):
            calls.append((matrix.toarray(), kwargs))
            return factorize(matrix, **kwargs)

        monkeypatch.setattr(solver, factorize.__name__, recording)
        _, report = solve(system, SolverConfig(method=method))
        assert report.converged
        [(factored, kwargs)] = calls
        order = system.order
        np.testing.assert_array_equal(
            factored, system.matrix.toarray()[np.ix_(order, order)])
        assert kwargs["permc_spec"] == "NATURAL"
        assert kwargs["diag_pivot_thresh"] == 1e-4
        assert kwargs["options"] == {"SymmetricMode": True}

    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-10])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lu_pivots_on_the_diagonal(self, monkeypatch, k, eps,
                                       dirichlet):
        # the premise of the module docstring: the LU of an assembled
        # system interchanges no rows, in its order (perm_c is the
        # identity under NATURAL) and under SuperLU's minimum degree
        # (perm_r is the symmetric ordering perm_c itself)
        case = make_case(k=k, n=8, eps=eps, dirichlet=dirichlet)
        factors = []

        def recording_splu(matrix, **kwargs):
            factors.append(splu(matrix, **kwargs))
            return factors[-1]

        monkeypatch.setattr(solver, "splu", recording_splu)
        solve(case.system)
        [ordered] = factors
        np.testing.assert_array_equal(ordered.perm_r, np.arange(case.dofs))
        reference = minimum_degree_lu(case.system.matrix)
        np.testing.assert_array_equal(reference.perm_r, reference.perm_c)

    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_iterative_errors_do_not_depend_on_the_order(self, k,
                                                         dirichlet):
        case = make_case(k=k, n=8, eps=1e-4, dirichlet=dirichlet)
        cfg = SolverConfig(method="iterative")
        records = []
        for system in (case.system, natural_order(case.system)):
            x, report = solve(system, cfg)
            assert report.converged
            records.append(supercloseness_error(
                DGFunction(case.mesh, case.dofmap, x), case.edges,
                case.problem))
        ordered, natural = records
        for name in ("e_in", "e_pi", "e_l2"):
            assert getattr(ordered, name) == pytest.approx(
                getattr(natural, name), rel=1e-8, abs=0.0), name

    def test_solves_leave_no_reference_cycles(self):
        # an LU kept alive by a reference cycle would stay in memory until
        # the cycle collector runs
        eps = 1e-4
        grid = make_mesh(8, eps, 2.5)
        edges = classify_edges(grid)
        problem = boundary_layer_problem(eps)
        configs = (SolverConfig(), SolverConfig(estimate_condition=True),
                   SolverConfig(method="iterative"))
        gc.collect()
        gc.disable()
        try:
            system = assemble(grid, edges, DofMap(k=1), problem)
            for config in configs:
                solve(system, config)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIterative:
    def test_matches_direct_solution(self):
        case = make_case(k=1, n=16, eps=1e-4)
        x_dir, _ = solve(case.system)
        cfg = SolverConfig(method="iterative", rel_tol=1e-10)
        x_it, report = solve(case.system, cfg)
        assert report.converged
        assert report.iterations > 0
        rel = (np.linalg.norm(x_it - x_dir)
               / np.linalg.norm(x_dir))
        assert rel <= max(1e-8, 10 * cfg.rel_tol)

    def test_repeat_solves_are_deterministic(self):
        case = make_case(k=1, n=8, eps=1e-3)
        cfg = SolverConfig(method="iterative", rel_tol=1e-10)
        x1, r1 = solve(case.system, cfg)
        x2, r2 = solve(case.system, cfg)
        np.testing.assert_array_equal(x1, x2)
        assert (r1.iterations, r1.residual) == (r2.iterations, r2.residual)

    def test_exhausted_budget_reports_not_converged(self, monkeypatch):
        spend_budget(monkeypatch, restart=2, max_iters=2)
        case = make_case(k=1, n=16, eps=1e-5)
        cfg = SolverConfig(method="iterative", rel_tol=1e-14)
        x, report = solve(case.system, cfg)
        assert not report.converged
        assert np.all(np.isfinite(x))
        assert report.residual > 1e-14
        # the verdict leads the message, the GMRES note follows it
        assert report.message.startswith(
            f"the relative residual {report.residual:.3e} misses rel_tol "
            f"1.000e-14; GMRES stopped after 2 of its 2 iterations; ")

    def test_budget_counts_inner_iterations(self, monkeypatch):
        # three restart cycles of two: SciPy's maxiter counts cycles, so
        # passing it the budget itself would allow 12 iterations
        spend_budget(monkeypatch, restart=2, max_iters=6)
        case = make_case(k=1, n=16, eps=1e-5)
        _, report = solve(case.system,
                          SolverConfig(method="iterative", rel_tol=1e-14))
        assert not report.converged
        assert "GMRES stopped after 6 of its 6 iterations" in report.message

    def test_missed_tolerance_states_the_backward_error(self, monkeypatch):
        # the verdict is shared by both paths, so a GMRES miss ends with
        # the normwise backward error as a direct one does
        spend_budget(monkeypatch, restart=2, max_iters=2)
        case = make_case(k=1, n=8, eps=1e-4)
        cfg = SolverConfig(method="iterative", rel_tol=1e-14)
        x, report = solve(case.system, cfg)
        assert not report.converged
        matrix, rhs = case.system.matrix, case.system.rhs
        backward = (np.abs(rhs - matrix @ x).max()
                    / (abs(matrix).sum(axis=1).max() * np.abs(x).max()
                       + np.abs(rhs).max()))
        stated = re.fullmatch(r".*; the normwise backward error is (\S+)",
                              report.message)[1]
        assert float(stated) == pytest.approx(backward, rel=1e-3)

    @pytest.mark.parametrize("eps, n", [(1e-8, 16), (1e-4, 64)])
    def test_stopping_test_is_the_verdict(self, eps, n):
        # GMRES stops on the relative residual, so a stop within the
        # budget meets rel_tol; these are the two cells where a stopping
        # test on the row-equilibrated system once missed it
        case = make_case(k=1, n=n, eps=eps, dirichlet="strong")
        cfg = SolverConfig(method="iterative")
        _, report = solve(case.system, cfg)
        assert report.converged
        assert report.residual <= cfg.rel_tol
        assert report.message == ""

    @pytest.mark.parametrize("order", [np.arange(2), np.array([1, 0])],
                             ids=["natural", "reversed"])
    def test_failed_preconditioner_raises(self, order):
        # a singular matrix: the incomplete LU of P A P^T meets a zero
        # pivot in either order and raises, as the direct path's LU does
        system = SparseSystem(csr_matrix(np.ones((2, 2))),
                              np.array([1.0, 0.0]), order)
        with pytest.raises(RuntimeError, match="exactly singular"):
            solve(system, SolverConfig(method="iterative"))

    def test_converged_solve_has_no_message(self):
        case = make_case(k=1, n=16, eps=1e-4)
        _, report = solve(case.system, SolverConfig(method="iterative"))
        assert report.converged
        assert report.message == ""


class TestValidation:
    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError, match="method"):
            SolverConfig(method="multigrid")

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0},
        {"rel_tol": -1e-10},
        {"rel_tol": float("-inf")},
        {"method": "iterative", "rel_tol": 0.0},
        {"method": "iterative", "estimate_condition": True},
        {"rel_tol": float("nan")},
        {"rel_tol": float("inf")},
    ])
    def test_bad_numeric_options_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_non_square_matrix_is_rejected(self):
        matrix = csr_matrix(np.ones((3, 4)))
        with pytest.raises(ValueError, match="square"):
            solve(SparseSystem(matrix, np.ones(3), np.arange(3)))

    def test_mismatched_rhs_is_rejected(self):
        matrix = csr_matrix(np.eye(3))
        with pytest.raises(ValueError, match="rhs"):
            solve(SparseSystem(matrix, np.ones(4), np.arange(3)))

    def test_non_finite_entries_are_rejected(self):
        matrix = csr_matrix(np.eye(3))
        rhs = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            solve(SparseSystem(matrix, rhs, np.arange(3)))
