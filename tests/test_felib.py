"""Reference-cell machinery: 1D quadrature and Lagrange tables, their
tensor products, local operators."""

import numpy as np
import pytest

from nipg2d.felib import (
    LEFT,
    RIGHT,
    TOP,
    face_products,
    gauss_legendre,
    l2_projector,
    lagrange_1d,
    lobatto_nodes,
    reference_tables,
    vee_operator,
    volume_products,
)

from oracles import basis_2d


def eval_basis(k, xi, eta):
    """All Q_k basis functions at the points (xi, eta), ((k+1)^2, npts)."""
    return basis_2d(k, xi, eta)[0]


def apply(operator, w):
    """Coefficients of a (points, matrix) operator applied to a callable
    ``w(xi, eta)`` on the reference cell."""
    points, matrix = operator
    return w(points[:, 0], points[:, 1]) @ matrix.T


class TestGaussLegendre:
    def test_single_point_is_midpoint_rule(self):
        t, w = gauss_legendre(1)
        assert t == pytest.approx([0.0])
        assert w == pytest.approx([2.0])

    def test_two_point_rule_is_analytic(self):
        t, w = gauss_legendre(2)
        assert np.allclose(sorted(t), [-1/np.sqrt(3), 1/np.sqrt(3)],
                           atol=1e-15)
        assert w == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_weights_sum_to_interval_length(self, n):
        _, w = gauss_legendre(n)
        assert sum(w) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_monomial_exactness_up_to_degree_2n_minus_1(self, n):
        t, w = gauss_legendre(n)
        for d in range(2 * n):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            assert float(np.dot(w, t ** d)) == pytest.approx(exact, abs=1e-14)

    def test_three_point_rule_integrates_quartic(self):
        t, w = gauss_legendre(3)
        assert float(np.dot(w, t ** 4)) == pytest.approx(2.0 / 5.0, abs=1e-14)

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    def test_cached_rule_is_read_only(self):
        rule = gauss_legendre(3)
        assert gauss_legendre(3) is rule
        for arr in rule:
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_tensor_view_integrates_2d_monomials(self):
        tab = reference_tables(1, 4)
        pts, w2 = tab.points, tab.w2
        for a in range(6):
            for b in range(6):
                ex = (0.0 if a % 2 else 2.0 / (a + 1)) * (
                    0.0 if b % 2 else 2.0 / (b + 1))
                val = float(np.sum(w2 * pts[:, 0] ** a * pts[:, 1] ** b))
                assert val == pytest.approx(ex, abs=1e-13)


class TestReferenceBasis:
    """The 1D Lagrange tables, and the 2D basis the oracles build from
    them."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shapes_are_point_major(self, k):
        vals, ders = lagrange_1d(k, np.linspace(-1, 1, 7))
        for arr in (vals, ders):
            assert arr.shape == (k + 1, 7)
            assert arr.flags.f_contiguous

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            lagrange_1d(0, [0.0])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nodal_partition_of_unity(self, k):
        pts = np.random.default_rng(7).uniform(-1, 1, size=(20, 2))
        vals, ders = lagrange_1d(k, pts[:, 0])
        assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-13)
        assert np.allclose(ders.sum(axis=0), 0.0, atol=1e-12)
        vals = eval_basis(k, pts[:, 0], pts[:, 1])
        assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_values_at_the_nodes_are_exactly_kronecker(self, k):
        vals, _ = lagrange_1d(k, lobatto_nodes(k + 1))
        np.testing.assert_array_equal(vals, np.eye(k + 1))

    def test_gradient_of_bilinear_product(self):
        # coefficients representing w(xi, eta) = xi * eta on a nodal basis
        nodes = lobatto_nodes(2)
        coeffs = np.array([nodes[a] * nodes[b]
                           for a in range(2) for b in range(2)])
        _, gx, gy = basis_2d(1, [0.3], [-0.2])
        assert coeffs @ gx[:, 0] == pytest.approx(-0.2, abs=1e-14)
        assert coeffs @ gy[:, 0] == pytest.approx(0.3, abs=1e-14)

    def test_random_cubic_reproduced_pointwise(self):
        rng = np.random.default_rng(11)
        cof = rng.standard_normal((4, 4))

        def w(xi, eta):
            return sum(cof[a, b] * xi ** a * eta ** b
                       for a in range(4) for b in range(4))

        nodes = lobatto_nodes(4)
        coeffs = np.array([w(nodes[a], nodes[b])
                           for a in range(4) for b in range(4)])
        grid = np.linspace(-1, 1, 5)
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        vals = eval_basis(3, xs.ravel(), ys.ravel())
        assert np.max(np.abs(coeffs @ vals - w(xs.ravel(), ys.ravel()))) \
            <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gradients_match_finite_differences(self, k):
        pts = np.random.default_rng(5).uniform(-0.9, 0.9, size=(10, 2))
        h = 1e-6
        _, ders = lagrange_1d(k, pts[:, 0])
        fd = (lagrange_1d(k, pts[:, 0] + h)[0]
              - lagrange_1d(k, pts[:, 0] - h)[0]) / (2 * h)
        assert np.max(np.abs(ders - fd)) <= 1e-7
        _, gx, gy = basis_2d(k, pts[:, 0], pts[:, 1])
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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_2d_tables_are_point_major(self, k):
        # the layout lagrange_1d returns, which the docstrings state
        for nq in range(k + 1, k + 5):
            tab = reference_tables(k, nq)
            for arr in (tab.vals, tab.gx, tab.gy, *tab.tr, *tab.dn):
                assert arr.shape[0] == (k + 1) ** 2
                assert arr.flags.f_contiguous and not arr.flags.c_contiguous

    @pytest.mark.parametrize("operator", [vee_operator, l2_projector])
    def test_local_operators_are_cached_and_read_only(self, operator):
        points, matrix = operator(2, 4)
        assert operator(2, 4)[1] is matrix
        assert matrix.shape == (9, points.shape[0])
        for arr in (points, matrix):
            with pytest.raises(ValueError):
                arr[...] = 0.0

    @pytest.mark.parametrize("row_side,col_side", [(LEFT, LEFT),
                                                   (RIGHT, LEFT),
                                                   (TOP, TOP)])
    def test_face_products_give_the_three_face_terms(self, row_side,
                                                     col_side):
        k, nq = 2, 4
        prod = face_products(k, nq, row_side, col_side)
        assert face_products(k, nq, row_side, col_side) is prod
        with pytest.raises(ValueError):
            prod[...] = 0.0
        tab = reference_tables(k, nq)
        tr_r, dn_r = tab.tr[row_side], tab.dn[row_side]
        tr_c, dn_c = tab.tr[col_side], tab.dn[col_side]
        w = np.random.default_rng(7).standard_normal((5, 3, nq))
        expected = (np.einsum("eq,mq,nq->emn", w[:, 0], tr_r, dn_c)
                    + np.einsum("eq,mq,nq->emn", w[:, 1], dn_r, tr_c)
                    + np.einsum("eq,mq,nq->emn", w[:, 2], tr_r, tr_c))
        got = (w.reshape(5, -1) @ prod).reshape(expected.shape)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_volume_products_give_the_three_volume_terms(self, k):
        nq = k + 2
        prod = volume_products(k, nq)
        assert volume_products(k, nq) is prod
        with pytest.raises(ValueError):
            prod[...] = 0.0
        tab = reference_tables(k, nq)
        w = np.random.default_rng(7).standard_normal((5, 3, nq * nq))
        expected = (np.einsum("eq,mq,nq->emn", w[:, 0], tab.vals, tab.gx)
                    + np.einsum("eq,mq,nq->emn", w[:, 1], tab.vals, tab.gy)
                    + np.einsum("eq,mq,nq->emn", w[:, 2], tab.vals, tab.vals))
        got = (w.reshape(5, -1) @ prod).reshape(expected.shape)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


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
        coeffs = apply(vee_operator(1, 3), w)
        assert _pointwise_max_error(1, coeffs, w) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reproduces_qk(self, k):
        rng = np.random.default_rng(17 + k)
        w = _random_qk(rng, k)
        coeffs = apply(vee_operator(k, k + 2), w)
        assert _pointwise_max_error(k, coeffs, w) <= 1e-12

    def test_condition_families_for_cubic_input(self):
        # interpolating xi^3 with k=2: the output must match the input at
        # the four corners, in the mean against constants on each edge,
        # and in the cell mean; verify each family with an independent
        # higher-order quadrature.
        k = 2
        def w(xi, eta):
            return np.asarray(xi, dtype=float) ** 3 + 0.0 * np.asarray(eta)

        coeffs = apply(vee_operator(k, k + 2), w)
        t, wt = gauss_legendre(2 * (k + 2))

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
        points, matrix = vee_operator(k, k + 2)
        w1 = rng.standard_normal(points.shape[0])
        w2 = rng.standard_normal(points.shape[0])
        combo = (2.5 * w1 - 0.75 * w2) @ matrix.T
        parts = 2.5 * (w1 @ matrix.T) - 0.75 * (w2 @ matrix.T)
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

            coeffs = apply(vee_operator(k, k + 2), w)
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
        coeffs = apply(l2_projector(k, k + 2), w)
        assert _pointwise_max_error(k, coeffs, w) <= 1e-12

    def test_projects_constant(self):
        coeffs = apply(l2_projector(2, 4), lambda xi, eta: np.full_like(
            np.asarray(xi, dtype=float), 3.25))
        vals = eval_basis(2, np.array([0.37]), np.array([-0.61]))
        assert coeffs @ vals == pytest.approx(3.25, abs=1e-13)

    def test_quadratic_truncates_to_constant_for_k1(self):
        def w(xi, eta):
            return np.asarray(xi, dtype=float) ** 2 + 0.0 * np.asarray(eta)

        coeffs = apply(l2_projector(1, 4), w)
        # the best bilinear approximation of xi^2 is the constant 1/3
        assert np.allclose(coeffs, 1.0 / 3.0, atol=1e-13)
        t, wt = gauss_legendre(4)
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
        points, matrix = l2_projector(k, k + 2)
        w1 = rng.standard_normal(points.shape[0])
        w2 = rng.standard_normal(points.shape[0])
        combo = (-1.5 * w1 + 0.3 * w2) @ matrix.T
        parts = -1.5 * (w1 @ matrix.T) + 0.3 * (w2 @ matrix.T)
        assert np.max(np.abs(combo - parts)) <= 1e-12


def local_mass_matrix(k):
    """Reference-cell mass matrix; the (k+2)-point rule is exact for it."""
    tab = reference_tables(k, k + 2)
    return (tab.vals * tab.w2) @ tab.vals.T


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
