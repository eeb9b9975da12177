"""Property-based checks of the assembled NIPG system on random problems.

hypothesis draws the degree, the mesh, eps and problem data that meet
the standing assumptions: affine b1 >= beta1 and b2 >= beta2 on the unit
square, a constant c with c - div(b)/2 >= 0 (at, just above or well
above 0) and an affine load.  With such data the Gauss rules of the
assembly and of the energy norm are exact, so both properties hold to
round-off.  The examples are fixed by the profile in ``conftest.py``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nipg2d import (DGFunction, DofMap, ProblemData, assemble,
                    classify_edges, energy_norm)

from helpers import make_mesh
from oracles import reversed_edges

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


def affine(a, dx, dy):
    return lambda x, y: a + dx * x + dy * y


def discretize(k, n, eps, coeffs):
    div_b = coeffs.b1[1] + coeffs.b2[2]
    c = 0.5 * div_b + coeffs.c0sq
    problem = ProblemData(b1=affine(*coeffs.b1), b2=affine(*coeffs.b2),
                          div_b=lambda x, y: div_b, c=lambda x, y: c,
                          f=affine(*coeffs.f))
    mesh = make_mesh(n, eps, k + 1.5, coeffs.beta1, coeffs.beta2)
    return mesh, classify_edges(mesh), DofMap(k, n), problem


@settings(max_examples=100)
@given(k=degrees, n=cells, eps=eps_values, coeffs=coefficients(), seed=seeds)
def test_bilinear_form_is_the_energy_norm(k, n, eps, coeffs, seed):
    """B(v, v) = |v|_E^2 with weak Dirichlet data."""
    mesh, edges, dofmap, problem = discretize(k, n, eps, coeffs)
    system = assemble(mesh, edges, dofmap, problem, eps)
    v = np.random.default_rng(seed).standard_normal(dofmap.total_dofs)
    norm_sq = energy_norm(DGFunction(mesh, dofmap, v), edges, problem,
                          eps).value ** 2
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
    base = assemble(mesh, edges, dofmap, problem, eps, dirichlet)
    mixed = assemble(mesh, reversed_edges(edges, subset), dofmap, problem,
                     eps, dirichlet)
    gap = abs(mixed.matrix - base.matrix).max()
    assert gap <= 1e-14 * abs(base.matrix).max()
    np.testing.assert_array_equal(mixed.rhs, base.rhs)
    np.testing.assert_array_equal(mixed.order, base.order)
