"""Two-band mesh construction and edge classification."""

import dataclasses
import math

import numpy as np
import pytest

from nipg2d.mesh import (
    NO_ELEMENT,
    EdgeType,
    MeshConfig,
    build_mesh,
    classify_edges,
    penalty_weight,
)

import oracles
from helpers import make_mesh


class TestBuildMesh:
    def test_transition_width_matches_formula(self):
        grid = build_mesh(MeshConfig(n=8, eps=1e-4, sigma=2.5,
                                     beta1=2.0, beta2=3.0))
        expected = 2.5 * 1e-4 * math.log(8) / 2.0
        assert grid.lambda_x == pytest.approx(expected, rel=1e-14)
        assert grid.lambda_x == pytest.approx(2.5993e-4, rel=1e-4)
        assert grid.lambda_y == pytest.approx(expected * 2.0 / 3.0,
                                              rel=1e-14)

    def test_cap_gives_uniform_mesh(self):
        with pytest.warns(UserWarning):
            grid = build_mesh(MeshConfig(n=8, eps=0.5, sigma=2.5,
                                         beta1=2.0, beta2=3.0))
        assert grid.lambda_x == 0.5
        assert grid.lambda_y == 0.5
        assert np.allclose(grid.h_x, 1.0 / 8.0, atol=1e-15)

    def test_two_band_point_layout(self):
        grid = build_mesh(MeshConfig(n=8, eps=1e-3, sigma=2.5,
                                     beta1=2.0, beta2=3.0))
        assert grid.x_pts[4] == pytest.approx(1.0 - grid.lambda_x, abs=1e-15)
        assert grid.h_x[0] == pytest.approx((1.0 - grid.lambda_x) / 4.0,
                                            abs=1e-15)
        assert grid.x_pts[0] == 0.0
        assert grid.x_pts[-1] == 1.0

    @pytest.mark.parametrize("n", [7, 9, 4, 2, 0])
    def test_rejects_bad_cell_counts(self, n):
        with pytest.raises(ValueError):
            build_mesh(MeshConfig(n=n, eps=1e-3, sigma=2.5,
                                  beta1=2.0, beta2=3.0))

    @pytest.mark.parametrize("field,value", [
        ("eps", 0.0), ("eps", -1e-3), ("sigma", 0.0),
        ("beta1", -2.0), ("beta2", 0.0),
    ])
    def test_rejects_nonpositive_parameters(self, field, value):
        kwargs = dict(n=8, eps=1e-3, sigma=2.5, beta1=2.0, beta2=3.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            build_mesh(MeshConfig(**kwargs))

    def test_warns_outside_perturbed_regime(self):
        with pytest.warns(UserWarning) as record:
            build_mesh(MeshConfig(n=8, eps=0.2, sigma=2.5,
                                  beta1=2.0, beta2=3.0))
        assert record[0].filename == __file__

    def test_random_configurations_partition_unit_interval(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = 2 * int(rng.integers(4, 33))
            eps = float(10.0 ** rng.uniform(-9, -2))
            sigma = float(rng.uniform(1.5, 5.5))
            grid = build_mesh(MeshConfig(n=n, eps=eps, sigma=sigma,
                                         beta1=2.0, beta2=3.0))
            for pts, h, lam in ((grid.x_pts, grid.h_x, grid.lambda_x),
                                (grid.y_pts, grid.h_y, grid.lambda_y)):
                assert abs(h.sum() - 1.0) <= 1e-14
                assert np.all(np.diff(pts) > 0)
                assert pts[n // 2] == pytest.approx(1.0 - lam, abs=1e-14)
                assert np.allclose(h[: n // 2], h[0], atol=1e-14)
                assert np.allclose(h[n // 2:], h[-1], atol=1e-14)


def find_edges(edges, orientation, line, cell):
    return np.flatnonzero((edges.orientation == orientation)
                          & (edges.line == line) & (edges.cell == cell))


class TestEdgeClassification:
    def test_counts(self):
        n = 8
        edges = classify_edges(make_mesh(n, 1e-3, 2.5))
        assert len(edges) == 2 * n * (n + 1)
        boundary = edges.minus == NO_ELEMENT
        assert np.count_nonzero(boundary) == 4 * n
        assert np.count_nonzero(~boundary) == 2 * n * (n - 1)

    def test_penalty_schedule(self):
        n = 8
        edges = classify_edges(make_mesh(n, 1e-3, 2.5))
        expected = {EdgeType.M1: 1.0, EdgeType.M2: float(n * n),
                    EdgeType.M3: float(n), EdgeType.M4: float(n)}
        for family, rho in zip(edges.family, edges.rho):
            assert rho == expected[EdgeType(family)]
        for t, rho in expected.items():
            assert penalty_weight(t, n) == rho
            assert penalty_weight(int(t), n) == rho
            assert penalty_weight(np.int64(t), n) == rho

    def test_transition_line_edge_is_m4(self):
        grid = make_mesh(8, 1e-3, 2.5)
        edges = classify_edges(grid)
        target = find_edges(edges, "v", 4, 0)
        assert len(target) == 1
        assert edges.family[target[0]] == EdgeType.M4
        assert edges.rho[target[0]] == 8.0
        assert grid.x_pts[edges.line[target[0]]] == pytest.approx(
            1.0 - grid.lambda_x, abs=1e-15)

    def test_corner_block_edge_is_m3(self):
        grid = make_mesh(8, 1e-3, 2.5)
        edges = classify_edges(grid)
        target = find_edges(edges, "h", 6, 5)
        assert len(target) == 1
        assert edges.family[target[0]] == EdgeType.M3
        assert edges.rho[target[0]] == 8.0

    @pytest.mark.parametrize("n,eps", [(8, 1e-3), (8, 1e-6), (12, 1e-4)])
    def test_types_match_geometric_census(self, n, eps):
        grid = make_mesh(n, eps, 2.5)
        edges = classify_edges(grid)
        counts = {t: 0 for t in EdgeType}
        for idx in range(len(edges)):
            family = EdgeType(edges.family[idx])
            counts[family] += 1
            assert family is oracles.classify_edge_by_geometry(
                grid, edges.orientation[idx], edges.line[idx],
                edges.cell[idx])
        assert counts == oracles.census_by_geometry(grid)
        assert sum(counts.values()) == 2 * n * (n + 1)

    def test_census_values_for_n8(self):
        counts = oracles.census_by_geometry(make_mesh(8, 1e-3, 2.5))
        assert counts == {EdgeType.M1: 32, EdgeType.M2: 32,
                          EdgeType.M3: 72, EdgeType.M4: 8}

    def test_deterministic_recomputation(self):
        grid = make_mesh(8, 1e-3, 2.5)
        first, second = classify_edges(grid), classify_edges(grid)
        for field in dataclasses.fields(first):
            np.testing.assert_array_equal(getattr(first, field.name),
                                          getattr(second, field.name))

    def test_boundary_edges_follow_the_same_region_rule(self):
        grid = make_mesh(8, 1e-3, 2.5)
        edges = classify_edges(grid)
        # long edge on the left boundary, inside the coarse band: unit
        # penalty; short edge on the right boundary: M3
        left = find_edges(edges, "v", 0, 0)[0]
        assert edges.family[left] == EdgeType.M1
        right_fine = find_edges(edges, "v", 8, 6)[0]
        assert edges.family[right_fine] == EdgeType.M3
        # long edge on the right boundary spanning a coarse y-band lies in
        # the x-layer strip: quadratic penalty family
        right_long = find_edges(edges, "v", 8, 0)[0]
        assert edges.family[right_long] == EdgeType.M2
        assert edges.rho[right_long] == 64.0

    @pytest.mark.parametrize("numbering", ["standard", "reversed"])
    def test_normals_and_sides_standard_numbering(self, numbering):
        grid = make_mesh(8, 1e-3, 2.5)
        edges = classify_edges(grid, numbering=numbering)
        standard = classify_edges(grid)
        boundary = edges.minus == NO_ELEMENT
        np.testing.assert_array_equal(
            boundary, (edges.line == 0) | (edges.line == 8))
        # outward normal on the four boundary lines, and the same single
        # adjacent element in both numberings
        np.testing.assert_array_equal(
            edges.normal[boundary],
            np.where(edges.line[boundary] == 0, -1.0, 1.0))
        np.testing.assert_array_equal(edges.plus[boundary],
                                      standard.plus[boundary])
        interior = ~boundary
        if numbering == "standard":
            assert np.all(edges.plus[interior] > edges.minus[interior])
            assert np.all(edges.normal[interior] == -1.0)
        else:
            np.testing.assert_array_equal(edges.plus[interior],
                                          standard.minus[interior])
            np.testing.assert_array_equal(edges.minus[interior],
                                          standard.plus[interior])
            assert np.all(edges.normal[interior] == 1.0)
