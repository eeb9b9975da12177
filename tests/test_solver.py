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

from helpers import make_case, make_mesh


def diagonal_system(n=50):
    d = np.arange(1.0, n + 1.0)
    rhs = np.sin(np.arange(n))
    return SparseSystem(diags(d).tocsr(), rhs), rhs / d


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
        x, report = solve(SparseSystem(matrix, rhs))
        residual = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        assert residual <= 1e-14
        assert report.residual <= 1e-14

    def test_exactly_singular_matrix_raises(self):
        # SuperLU's error, documented on solve; no assembled NIPG matrix
        # is singular
        system = SparseSystem(csr_matrix([[0.0, 0.0], [0.0, 1.0]]),
                              np.array([1.0, 1.0]))
        with pytest.raises(RuntimeError, match="exactly singular"):
            solve(system)

    def test_lu_fill_is_reported_for_direct_solves_only(self):
        case = make_case(k=1, n=8, eps=1e-4)
        _, direct = solve(case.system)
        assert direct.lu_fill > 0
        _, iterative = solve(case.system, SolverConfig(method="iterative"))
        assert iterative.lu_fill is None


def unordered(system):
    """The same system without its elimination order."""
    return dataclasses.replace(system, order=None)


class TestOrdering:
    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_errors_do_not_depend_on_the_order(self, k, n, dirichlet):
        case = make_case(k=k, n=n, eps=1e-4, dirichlet=dirichlet)
        records = []
        for system in (case.system, unordered(case.system)):
            x, report = solve(system)
            assert report.converged
            records.append(supercloseness_error(
                DGFunction(case.mesh, case.dofmap, x), case.edges,
                case.problem))
        ordered, plain = records
        for name in ("e_in", "e_pi", "e_l2"):
            assert getattr(ordered, name) == pytest.approx(
                getattr(plain, name), rel=1e-12, abs=0.0), name

    def test_element_order_reduces_fill(self):
        case = make_case(k=1, n=32, eps=1e-5)
        _, ordered = solve(case.system)
        _, plain = solve(unordered(case.system))
        assert ordered.lu_fill < plain.lu_fill

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solutions_do_not_depend_on_the_order(self, k):
        # refinement with extended-precision residuals takes the solution
        # to double precision whatever the LU (1e-17 to 1e-16 apart here);
        # refinement with double residuals leaves 5e-15 to 2e-14
        case = make_case(k=k, n=8, eps=1e-4)
        x_ordered, _ = solve(case.system)
        x_plain, _ = solve(unordered(case.system))
        assert (np.linalg.norm(x_ordered - x_plain)
                <= 1e-15 * np.linalg.norm(x_plain))

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

    @pytest.mark.parametrize("ordered, method, factorize", [
        (True, "iterative", spilu),
        (False, "iterative", spilu),
        (True, "direct", splu),
        (False, "direct", splu),
    ], ids=["ordered", "unordered", "direct-ordered", "direct-unordered"])
    def test_ilu_factors_the_system_in_its_order(self, monkeypatch,
                                                 ordered, method,
                                                 factorize):
        # the incomplete LU, and the direct path's LU, factor P A P^T, the
        # assembled matrix itself, in natural order, or A under minimum
        # degree when the system has no order
        case = make_case(k=1, n=8, eps=1e-3)
        system = case.system if ordered else unordered(case.system)
        calls = []

        def recording(matrix, **kwargs):
            calls.append((matrix.toarray(), kwargs))
            return factorize(matrix, **kwargs)

        monkeypatch.setattr(solver, factorize.__name__, recording)
        _, report = solve(system, SolverConfig(method=method))
        assert report.converged
        [(factored, kwargs)] = calls
        matrix = system.matrix.toarray()
        if ordered:
            order = system.order
            matrix = matrix[np.ix_(order, order)]
        np.testing.assert_array_equal(factored, matrix)
        assert kwargs["permc_spec"] == ("NATURAL" if ordered
                                        else "MMD_AT_PLUS_A")
        assert kwargs["diag_pivot_thresh"] == 1e-4
        assert kwargs["options"] == {"SymmetricMode": True}

    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-10])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lu_pivots_on_the_diagonal(self, monkeypatch, k, eps,
                                       dirichlet):
        # the premise of the module docstring: the LU of an assembled
        # system interchanges no rows, in its order (perm_c is the
        # identity under NATURAL) or under minimum degree (perm_r is the
        # symmetric ordering perm_c itself)
        case = make_case(k=k, n=8, eps=eps, dirichlet=dirichlet)
        factors = []

        def recording_splu(matrix, **kwargs):
            factors.append(splu(matrix, **kwargs))
            return factors[-1]

        monkeypatch.setattr(solver, "splu", recording_splu)
        for system in (case.system, unordered(case.system)):
            solve(system)
        ordered, plain = factors
        rows = case.dofs
        np.testing.assert_array_equal(ordered.perm_r, np.arange(rows))
        np.testing.assert_array_equal(plain.perm_r, plain.perm_c)

    @pytest.mark.parametrize("dirichlet", ["weak", "strong"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_iterative_errors_do_not_depend_on_the_order(self, k,
                                                         dirichlet):
        case = make_case(k=k, n=8, eps=1e-4, dirichlet=dirichlet)
        cfg = SolverConfig(method="iterative")
        records = []
        for system in (case.system, unordered(case.system)):
            x, report = solve(system, cfg)
            assert report.converged
            records.append(supercloseness_error(
                DGFunction(case.mesh, case.dofmap, x), case.edges,
                case.problem))
        ordered, plain = records
        for name in ("e_in", "e_pi", "e_l2"):
            assert getattr(ordered, name) == pytest.approx(
                getattr(plain, name), rel=1e-8, abs=0.0), name

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
            solve(unordered(system))
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

    def test_exhausted_budget_reports_not_converged(self):
        case = make_case(k=1, n=16, eps=1e-5)
        cfg = SolverConfig(method="iterative", rel_tol=1e-14, max_iters=1,
                           restart=2)
        x, report = solve(case.system, cfg)
        assert not report.converged
        assert np.all(np.isfinite(x))
        assert report.residual > 1e-14
        assert "GMRES stopped after 2 iterations" in report.message
        assert (f"relative residual {report.residual:.3e} misses rel_tol "
                f"1.000e-14") in report.message

    def test_missed_tolerance_states_the_backward_error(self):
        # the verdict is shared by both paths, so a GMRES miss ends with
        # the normwise backward error as a direct one does
        case = make_case(k=1, n=8, eps=1e-4)
        cfg = SolverConfig(method="iterative", rel_tol=1e-14, max_iters=1,
                           restart=2)
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

    def test_failed_preconditioner_names_the_residual(self):
        # a singular matrix: the incomplete LU fails and GMRES cannot
        # reach the inconsistent right-hand side
        system = SparseSystem(csr_matrix(np.ones((2, 2))),
                              np.array([1.0, 0.0]))
        _, report = solve(system, SolverConfig(method="iterative"))
        assert not report.converged
        assert "ILU preconditioner failed" in report.message
        assert (f"relative residual {report.residual:.3e} misses rel_tol "
                f"1.000e-10") in report.message

    def test_failed_ordered_preconditioner_falls_back(self):
        # the same singular matrix with an order: the incomplete LU of
        # P A P^T fails too, and GMRES runs without a preconditioner
        system = SparseSystem(csr_matrix(np.ones((2, 2))),
                              np.array([1.0, 0.0]), np.array([1, 0]))
        _, report = solve(system, SolverConfig(method="iterative"))
        assert not report.converged
        # the verdict leads the message, the ILU note follows it
        assert report.message.startswith(
            f"the relative residual {report.residual:.3e} misses rel_tol "
            f"1.000e-10; ILU preconditioner failed (")
        assert "GMRES runs unpreconditioned" in report.message

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
        {"max_iters": 0},
        {"restart": 0},
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
            solve(SparseSystem(matrix, np.ones(3)))

    def test_mismatched_rhs_is_rejected(self):
        matrix = csr_matrix(np.eye(3))
        with pytest.raises(ValueError, match="rhs"):
            solve(SparseSystem(matrix, np.ones(4)))

    def test_non_finite_entries_are_rejected(self):
        matrix = csr_matrix(np.eye(3))
        rhs = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            solve(SparseSystem(matrix, rhs))
