"""Property-based checks of the assembled NIPG system and its solution on
random problems.

hypothesis draws the degree, the mesh, eps and problem data that meet
the standing assumptions: affine b1 >= beta1 and b2 >= beta2 on the unit
square, a constant c with c - div(b)/2 >= 0 (at, just above or well
above 0) and an affine load.  With such data the Gauss rules of the
assembly and of the energy norm are exact, so the properties hold to
round-off.  Data that breaks one assumption must be rejected.  Two
properties replace the load: the vee interpolant's continuity takes a
smooth u with an outflow layer, and exact reproduction a u in Q_k with f
formed from it.  The examples are fixed by the profile in ``conftest.py``.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nipg2d import (CoefficientConditionError, DGFunction, DofMap,
                    ProblemData, assemble, classify_edges, energy_norm,
                    interpolate_vee_global, solve)
from nipg2d.assembly import elimination_order
from nipg2d.mesh import NO_ELEMENT

from helpers import make_mesh
from oracles import (dense_bilinear_matrix, edge_segment, reversed_edges,
                     trace_pair)

degrees = st.integers(1, 3)
cells = st.sampled_from([2, 4, 8])
eps_values = st.floats(-8.0, -2.0).map(lambda e: 10.0 ** e)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def coefficients(draw):
    """Coefficients of a problem meeting the standing assumptions, as
    plain numbers so that a failing example prints them."""
    slope = st.floats(-1.0, 1.0)
    margin = st.one_of(st.just(0.0), st.floats(0.0, 1.0))

    def affine_at_least(beta):
        # the minimum over the unit square sits at a corner
        dx, dy = draw(slope), draw(slope)
        return beta + draw(margin) - min(dx, 0.0) - min(dy, 0.0), dx, dy

    beta1, beta2 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    b1, b2 = affine_at_least(beta1), affine_at_least(beta2)
    # c - div(b)/2 at, just above or well above 0
    c0sq = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-9),
                          st.floats(0.0, 2.0)))
    f = tuple(draw(slope) for _ in range(3))
    return SimpleNamespace(beta1=beta1, beta2=beta2, b1=b1, b2=b2,
                           c0sq=c0sq, f=f)


@st.composite
def broken_coefficients(draw):
    """Coefficients that break one standing assumption by more than the
    1e-9 slack of the checks: b1 or b2 below its declared bound on the
    whole square, or a negative c - div(b)/2."""
    coeffs = draw(coefficients())
    gap = draw(st.floats(1e-8, 1.0))
    broken = draw(st.sampled_from(["b1", "b2", "c0sq"]))
    if broken == "c0sq":
        value = -gap
    else:
        # the maximum over the unit square sits at a corner
        _, dx, dy = getattr(coeffs, broken)
        beta = coeffs.beta1 if broken == "b1" else coeffs.beta2
        value = beta - gap - max(dx, 0.0) - max(dy, 0.0), dx, dy
    return SimpleNamespace(**{**vars(coeffs), broken: value})


def affine(a, dx, dy):
    return lambda x, y: a + dx * x + dy * y


def discretize(k, n, eps, coeffs):
    div_b = coeffs.b1[1] + coeffs.b2[2]
    c = 0.5 * div_b + coeffs.c0sq
    problem = ProblemData(eps=eps,
                          b1=affine(*coeffs.b1), b2=affine(*coeffs.b2),
                          div_b=lambda x, y: div_b, c=lambda x, y: c,
                          f=affine(*coeffs.f))
    mesh = make_mesh(n, eps, k + 1.5, coeffs.beta1, coeffs.beta2)
    return mesh, classify_edges(mesh), DofMap(k), problem


@settings(max_examples=100)
@given(k=degrees, n=cells, eps=eps_values, coeffs=coefficients(), seed=seeds)
def test_bilinear_form_is_the_energy_norm(k, n, eps, coeffs, seed):
    """B(v, v) = |v|_E^2 with weak Dirichlet data."""
    mesh, edges, dofmap, problem = discretize(k, n, eps, coeffs)
    system = assemble(mesh, edges, dofmap, problem)
    v = np.random.default_rng(seed).standard_normal(system.rhs.size)
    norm_sq = energy_norm(DGFunction(mesh, dofmap, v), edges,
                          problem).value ** 2
    assert float(v @ (system.matrix @ v)) == pytest.approx(norm_sq,
                                                           rel=1e-12)


@settings(max_examples=100)
@given(k=degrees, n=cells, eps=eps_values, coeffs=coefficients(), seed=seeds,
       dirichlet=st.sampled_from(["weak", "strong"]))
def test_any_swapped_subset_of_edges_gives_the_same_system(
        k, n, eps, coeffs, seed, dirichlet):
    """The system, weak or strong, is unchanged when plus and minus swap
    on a random subset of interior edges, which sends edges of one mesh
    line to both reference sides of their plus elements."""
    mesh, edges, dofmap, problem = discretize(k, n, eps, coeffs)
    subset = np.random.default_rng(seed).random(len(edges)) < 0.5
    base = assemble(mesh, edges, dofmap, problem, dirichlet)
    mixed = assemble(mesh, reversed_edges(edges, subset), dofmap, problem,
                     dirichlet)
    gap = abs(mixed.matrix - base.matrix).max()
    assert gap <= 1e-14 * abs(base.matrix).max()
    np.testing.assert_array_equal(mixed.rhs, base.rhs)
    np.testing.assert_array_equal(mixed.order, base.order)


@settings(max_examples=100)
@given(k=degrees, n=cells, eps=eps_values, coeffs=coefficients(),
       dirichlet=st.sampled_from(["weak", "strong"]))
def test_solution_does_not_depend_on_the_elimination_order(
        k, n, eps, coeffs, dirichlet):
    """The solution is the same to 1e-15 of its norm whether the LU takes
    the system's own order, dof order or whole elements in the k = 1
    element order."""
    mesh, edges, dofmap, problem = discretize(k, n, eps, coeffs)
    system = assemble(mesh, edges, dofmap, problem, dirichlet)
    ndl = dofmap.ndof_local
    blocks = (elimination_order(n, 1)[::4, None] // 4 * ndl
              + np.arange(ndl)).ravel()
    natural = np.arange(system.rhs.size)
    x, *others = (solve(dataclasses.replace(system, order=order))[0]
                  for order in (system.order, natural, blocks))
    for other in others:
        assert np.linalg.norm(other - x) <= 1e-15 * np.linalg.norm(x)


# the loop-based oracle takes up to 0.7 s per example at k = 3
@settings(max_examples=12)
@given(k=degrees, eps=eps_values, coeffs=coefficients())
def test_matrix_matches_the_dense_oracle(k, eps, coeffs):
    """At N = 2 with weak Dirichlet data, the assembled matrix is the
    loop-based oracle's to 1e-12 of its largest entry."""
    mesh, edges, dofmap, problem = discretize(k, 2, eps, coeffs)
    dense = dense_bilinear_matrix(mesh, dofmap, problem)
    matrix = assemble(mesh, edges, dofmap, problem).matrix
    assert abs(matrix.toarray() - dense).max() <= 1e-12 * abs(dense).max()


@settings(max_examples=100)
@given(k=degrees, n=cells, eps=eps_values, coeffs=broken_coefficients())
def test_data_that_breaks_an_assumption_is_rejected(k, n, eps, coeffs):
    """Both the assembly and the energy norm reject the problem."""
    mesh, edges, dofmap, problem = discretize(k, n, eps, coeffs)
    with pytest.raises(CoefficientConditionError):
        assemble(mesh, edges, dofmap, problem)
    v = DGFunction(mesh, dofmap,
                   np.zeros(mesh.n_elements * dofmap.ndof_local))
    with pytest.raises(CoefficientConditionError):
        energy_norm(v, edges, problem)


@settings(max_examples=100)
@given(k=degrees, n=cells, eps=eps_values,
       a=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_vee_interpolant_is_continuous(k, n, eps, a):
    """The two traces of the vertices-edges-element interpolant of a
    smooth function with an outflow layer agree on every interior edge to
    1e-12 of the function's largest value at the mesh nodes."""
    def u(x, y):
        return (a[0] + np.sin(a[1] * x + a[2] * y + a[3])
                + a[4] * np.exp(-(1.0 - x) / eps) * np.cos(a[5] * y))

    mesh = make_mesh(n, eps, k + 1.5)
    edges = classify_edges(mesh)
    v = interpolate_vee_global(u, mesh, DofMap(k))
    scale = np.abs(u(*np.meshgrid(mesh.x_pts, mesh.y_pts))).max()
    for idx in np.flatnonzero(edges.minus != NO_ELEMENT):
        _, (lo, hi) = edge_segment(mesh, edges, idx)
        plus, minus = trace_pair(v, edges, idx, np.linspace(lo, hi, 5)[1:-1])
        assert np.abs(plus - minus).max() <= 1e-12 * scale


@settings(max_examples=100)
@given(k=st.integers(2, 3), n=cells, eps=eps_values, coeffs=coefficients(),
       pq=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_solution_reproduces_a_solution_in_q_k(k, n, eps, coeffs, pq):
    """With f formed from u = x(1-x)y(1-y)p(x)q(y), deg p, q <= k - 2,
    the weak-Dirichlet solution is the interpolant of u, which is u, to
    1e-10 of its largest coefficient."""
    mesh, edges, dofmap, base = discretize(k, n, eps, coeffs)
    bubble = np.polynomial.Polynomial([0.0, 1.0, -1.0])
    g = bubble * np.polynomial.Polynomial(pq[:k - 1])
    h = bubble * np.polynomial.Polynomial(pq[2:k + 1])

    def f(x, y):
        return (-eps * (g.deriv(2)(x) * h(y) + g(x) * h.deriv(2)(y))
                + base.b1(x, y) * g.deriv()(x) * h(y)
                + base.b2(x, y) * g(x) * h.deriv()(y)
                + base.c(x, y) * g(x) * h(y))

    problem = dataclasses.replace(base, f=f)
    x, _ = solve(assemble(mesh, edges, dofmap, problem))
    expected = interpolate_vee_global(lambda x, y: g(x) * h(y), mesh,
                                      dofmap).coefficients
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()
