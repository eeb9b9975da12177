"""Tests for the sparse linear solver wrapper."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags
from scipy.sparse import random as sparse_random

from nipg2d import SolverConfig, SparseSystem, solve

from helpers import make_case


def diagonal_system(n=50):
    d = np.arange(1.0, n + 1.0)
    rhs = np.sin(np.arange(n))
    return SparseSystem(diags(d).tocsr(), rhs, {}), rhs / d


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
        assert report.method == "direct"
        assert report.iterations == 0
        assert report.converged
        assert report.residual <= 1e-14

    def test_assembled_system_residual_is_tiny(self):
        case = make_case(k=1, n=8, eps=1e-4)
        x, report = solve(case.system)
        assert report.converged
        assert report.residual <= 1e-12
        assert np.all(np.isfinite(x))

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

    def test_wall_time_is_reported(self):
        system, _ = diagonal_system()
        _, report = solve(system)
        assert report.wall_time >= 0.0

    @pytest.mark.parametrize("matrix", [
        csr_matrix([[1e-14, 1.0], [1.0, 1.0]]),
        csr_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
        permuted_identity_with_noise(),
    ], ids=["tiny-pivot", "zero-diagonal", "permuted-identity"])
    def test_matrices_needing_off_diagonal_pivots(self, matrix):
        # the LU prefers diagonal pivots; its threshold must still reject
        # diagonals that are tiny next to the rest of their column
        rhs = np.cos(np.arange(matrix.shape[0]))
        x, report = solve(SparseSystem(matrix, rhs, {}))
        residual = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        assert residual <= 1e-14
        assert report.residual <= 1e-14

    def test_lu_fill_is_reported_for_direct_solves_only(self):
        case = make_case(k=1, n=8, eps=1e-4)
        _, direct = solve(case.system)
        assert direct.lu_fill > 0
        _, iterative = solve(case.system, SolverConfig(method="iterative"))
        assert iterative.lu_fill is None


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


class TestValidation:
    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError, match="method"):
            SolverConfig(method="multigrid")

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0},
        {"rel_tol": -1e-10},
        {"max_iters": 0},
        {"restart": 0},
    ])
    def test_bad_numeric_options_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_non_square_matrix_is_rejected(self):
        matrix = csr_matrix(np.ones((3, 4)))
        with pytest.raises(ValueError, match="square"):
            solve(SparseSystem(matrix, np.ones(3), {}))

    def test_mismatched_rhs_is_rejected(self):
        matrix = csr_matrix(np.eye(3))
        with pytest.raises(ValueError, match="rhs"):
            solve(SparseSystem(matrix, np.ones(4), {}))

    def test_non_finite_entries_are_rejected(self):
        matrix = csr_matrix(np.eye(3))
        rhs = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            solve(SparseSystem(matrix, rhs, {}))
