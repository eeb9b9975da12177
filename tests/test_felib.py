"""Reference-cell machinery: quadrature, tensor basis, local operators."""

import numpy as np
import pytest

from nipg2d.felib import (
    L2Projector,
    VeeInterpolator,
    gauss_legendre,
    l2_projector,
    reference_basis,
    reference_tables,
    vee_operator,
)


def eval_basis(k, xi, eta):
    """All Q_k basis functions at the points (xi, eta), ((k+1)^2, npts)."""
    return reference_basis(k).eval_2d(np.column_stack([xi, eta]))


class TestGaussLegendre:
    def test_single_point_is_midpoint_rule(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([2.0])

    def test_two_point_rule_is_analytic(self):
        rule = gauss_legendre(2)
        assert np.allclose(sorted(rule.nodes),
                           [-1/np.sqrt(3), 1/np.sqrt(3)], atol=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_weights_sum_to_interval_length(self, n):
        assert sum(gauss_legendre(n).weights) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_monomial_exactness_up_to_degree_2n_minus_1(self, n):
        rule = gauss_legendre(n)
        for d in range(2 * n):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            approx = float(np.dot(rule.weights, rule.nodes ** d))
            assert approx == pytest.approx(exact, abs=1e-14)

    def test_three_point_rule_integrates_quartic(self):
        rule = gauss_legendre(3)
        assert float(np.dot(rule.weights, rule.nodes ** 4)) == pytest.approx(
            2.0 / 5.0, abs=1e-14)

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    def test_tensor_view_integrates_2d_monomials(self):
        rule = gauss_legendre(4)
        pts = rule.points_2d()
        w2 = rule.weights_2d()
        for a in range(6):
            for b in range(6):
                ex = (0.0 if a % 2 else 2.0 / (a + 1)) * (
                    0.0 if b % 2 else 2.0 / (b + 1))
                val = float(np.sum(w2 * pts[:, 0] ** a * pts[:, 1] ** b))
                assert val == pytest.approx(ex, abs=1e-13)


class TestReferenceBasis:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nodal_partition_of_unity(self, k):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(20, 2))
        vals = eval_basis(k, pts[:, 0], pts[:, 1])
        assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_values_at_the_nodes_are_exactly_kronecker(self, k):
        basis = reference_basis(k)
        np.testing.assert_array_equal(basis.eval_1d(basis.nodes_1d),
                                      np.eye(k + 1))

    def test_gradient_of_bilinear_product(self):
        # coefficients representing w(xi, eta) = xi * eta on a nodal basis
        basis = reference_basis(1)
        nodes = basis.nodes_1d
        coeffs = np.array([nodes[a] * nodes[b]
                           for a in range(2) for b in range(2)])
        gx, gy = basis.grad_2d(np.array([[0.3, -0.2]]))
        assert coeffs @ gx[:, 0] == pytest.approx(-0.2, abs=1e-14)
        assert coeffs @ gy[:, 0] == pytest.approx(0.3, abs=1e-14)

    def test_random_cubic_reproduced_pointwise(self):
        rng = np.random.default_rng(11)
        cof = rng.standard_normal((4, 4))

        def w(xi, eta):
            return sum(cof[a, b] * xi ** a * eta ** b
                       for a in range(4) for b in range(4))

        basis = reference_basis(3)
        nodes = basis.nodes_1d
        coeffs = np.array([w(nodes[a], nodes[b])
                           for a in range(4) for b in range(4)])
        grid = np.linspace(-1, 1, 5)
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        vals = eval_basis(3, xs.ravel(), ys.ravel())
        assert np.max(np.abs(coeffs @ vals - w(xs.ravel(), ys.ravel()))) \
            <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gradients_match_finite_differences(self, k):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.9, 0.9, size=(10, 2))
        h = 1e-6
        gx, gy = reference_basis(k).grad_2d(pts)
        fd_x = (eval_basis(k, pts[:, 0] + h, pts[:, 1])
                - eval_basis(k, pts[:, 0] - h, pts[:, 1])) / (2 * h)
        fd_y = (eval_basis(k, pts[:, 0], pts[:, 1] + h)
                - eval_basis(k, pts[:, 0], pts[:, 1] - h)) / (2 * h)
        assert np.max(np.abs(gx - fd_x)) <= 1e-7
        assert np.max(np.abs(gy - fd_y)) <= 1e-7


class TestReferenceTables:
    def test_cached_tables_are_shared_and_read_only(self):
        tab = reference_tables(2, 4)
        assert reference_tables(2, 4) is tab
        arrays = []
        for value in vars(tab).values():
            if isinstance(value, tuple):
                arrays.extend(value)
            elif isinstance(value, np.ndarray):
                arrays.append(value)
        assert len(arrays) == 19       # 7 arrays and 3 tuples of 4 sides
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0.0


def _random_qk(rng, k):
    cof = rng.standard_normal((k + 1, k + 1))

    def w(xi, eta):
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        return sum(cof[a, b] * xi ** a * eta ** b
                   for a in range(k + 1) for b in range(k + 1))

    return w


def _pointwise_max_error(k, coeffs, w):
    grid = np.linspace(-1, 1, 7)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    vals = eval_basis(k, xs.ravel(), ys.ravel())
    return float(np.max(np.abs(coeffs @ vals - w(xs.ravel(), ys.ravel()))))


class TestVeeInterpolation:
    def test_k1_reduces_to_vertex_interpolation(self):
        rng = np.random.default_rng(3)
        w = _random_qk(rng, 1)
        coeffs = vee_operator(1, 3).apply(w)
        assert _pointwise_max_error(1, coeffs, w) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reproduces_qk(self, k):
        rng = np.random.default_rng(17 + k)
        w = _random_qk(rng, k)
        coeffs = vee_operator(k, k + 2).apply(w)
        assert _pointwise_max_error(k, coeffs, w) <= 1e-12

    def test_condition_families_for_cubic_input(self):
        # interpolating xi^3 with k=2: the output must match the input at
        # the four corners, in the mean against constants on each edge,
        # and in the cell mean; verify each family with an independent
        # higher-order quadrature.
        k = 2
        def w(xi, eta):
            return np.asarray(xi, dtype=float) ** 3 + 0.0 * np.asarray(eta)

        coeffs = vee_operator(k, k + 2).apply(w)
        rule = gauss_legendre(2 * (k + 2))
        t, wt = rule.nodes, rule.weights

        def p(xi, eta):
            vals = eval_basis(k, np.atleast_1d(xi), np.atleast_1d(eta))
            return coeffs @ vals

        for corner in [(-1, -1), (1, -1), (1, 1), (-1, 1)]:
            assert p(*corner)[0] == pytest.approx(w(*corner), abs=1e-12)
        ones = np.ones_like(t)
        edges = [(t, -ones), (ones, t), (t, ones), (-ones, t)]
        for xi, eta in edges:
            moment = float(np.dot(wt, p(xi, eta) - w(xi, eta)))
            assert moment == pytest.approx(0.0, abs=1e-12)
        xs, ys = np.meshgrid(t, t, indexing="ij")
        w2 = np.outer(wt, wt).ravel()
        cell_moment = float(np.dot(
            w2, p(xs.ravel(), ys.ravel()) - w(xs.ravel(), ys.ravel())))
        assert cell_moment == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_linearity(self, k):
        rng = np.random.default_rng(29)
        op = VeeInterpolator(k)
        w1 = rng.standard_normal(op.points.shape[0])
        w2 = rng.standard_normal(op.points.shape[0])
        combo = op.apply_to_values(2.5 * w1 - 0.75 * w2)
        parts = 2.5 * op.apply_to_values(w1) - 0.75 * op.apply_to_values(w2)
        assert np.max(np.abs(combo - parts)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sup_norm_stability_on_smooth_samples(self, k):
        rng = np.random.default_rng(31)
        worst = 0.0
        grid = np.linspace(-1, 1, 9)
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        for _ in range(25):
            a, b, c, d = rng.uniform(-2, 2, size=4)

            def w(xi, eta):
                return np.sin(a * xi + b) * np.cos(c * eta + d)

            coeffs = vee_operator(k, k + 2).apply(w)
            vals = eval_basis(k, xs.ravel(), ys.ravel())
            sup_in = np.max(np.abs(w(xs.ravel(), ys.ravel())))
            sup_out = np.max(np.abs(coeffs @ vals))
            worst = max(worst, sup_out / sup_in)
        assert worst <= 10.0


class TestLocalL2Projection:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reproduces_qk(self, k):
        rng = np.random.default_rng(41 + k)
        w = _random_qk(rng, k)
        coeffs = l2_projector(k, k + 2).apply(w)
        assert _pointwise_max_error(k, coeffs, w) <= 1e-12

    def test_projects_constant(self):
        coeffs = l2_projector(2, 4).apply(lambda xi, eta: np.full_like(
            np.asarray(xi, dtype=float), 3.25))
        vals = eval_basis(2, np.array([0.37]), np.array([-0.61]))
        assert coeffs @ vals == pytest.approx(3.25, abs=1e-13)

    def test_quadratic_truncates_to_constant_for_k1(self):
        def w(xi, eta):
            return np.asarray(xi, dtype=float) ** 2 + 0.0 * np.asarray(eta)

        coeffs = l2_projector(1, 4).apply(w)
        # the best bilinear approximation of xi^2 is the constant 1/3
        assert np.allclose(coeffs, 1.0 / 3.0, atol=1e-13)
        rule = gauss_legendre(4)
        t, wt = rule.nodes, rule.weights
        xs, ys = np.meshgrid(t, t, indexing="ij")
        w2 = np.outer(wt, wt).ravel()
        vals = eval_basis(1, xs.ravel(), ys.ravel())
        residual = w(xs.ravel(), ys.ravel()) - coeffs @ vals
        for test_fn in (np.ones_like(xs.ravel()), xs.ravel(), ys.ravel(),
                        xs.ravel() * ys.ravel()):
            assert float(np.dot(w2, residual * test_fn)) == pytest.approx(
                0.0, abs=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_linearity(self, k):
        rng = np.random.default_rng(43)
        op = L2Projector(k, k + 2)
        w1 = rng.standard_normal(op.points.shape[0])
        w2 = rng.standard_normal(op.points.shape[0])
        combo = op.apply_to_values(-1.5 * w1 + 0.3 * w2)
        parts = -1.5 * op.apply_to_values(w1) + 0.3 * op.apply_to_values(w2)
        assert np.max(np.abs(combo - parts)) <= 1e-12


def local_mass_matrix(k):
    """Reference-cell mass matrix; the (k+2)-point rule is exact for it."""
    rule = gauss_legendre(k + 2)
    vals = reference_basis(k).eval_2d(rule.points_2d())
    return (vals * rule.weights_2d()) @ vals.T


class TestLocalMassMatrix:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_symmetric(self, k):
        m = local_mass_matrix(k)
        assert np.max(np.abs(m - m.T)) <= 1e-14

    def test_total_mass_is_cell_area(self):
        # the basis sums to one, so summing all entries integrates 1
        m = local_mass_matrix(1)
        assert float(np.sum(m)) == pytest.approx(4.0, abs=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_positive_definite(self, k):
        m = np.asarray(local_mass_matrix(k))
        eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
        assert eigs.min() > 0.0
