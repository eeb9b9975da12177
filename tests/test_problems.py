"""The built-in problem's forcing against its closed-form solution.

sympy forms f = -eps Lap(u) + (3 - x, 4 - y) . grad(u) + u from the
closed-form u, and mpmath evaluates that raw form at 60 digits, where the
O(1/eps) terms that cancel cost nothing.  The grouped form of
:func:`~nipg2d.problems.boundary_layer_problem` must agree with it in
double precision, inside the layers too.
"""

import numpy as np
import pytest

from nipg2d import boundary_layer_problem

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

DIGITS = 60


def reference_forcing():
    """f(x, y, eps) of the closed-form u, as an mpmath function."""
    x, y, eps = sympy.symbols("x y eps", positive=True)
    u = (sympy.sin(x) * (1 - sympy.exp(-2 * (1 - x) / eps))
         * sympy.sin(2 * y) * (1 - sympy.exp(-3 * (1 - y) / eps)))
    f = (-eps * (sympy.diff(u, x, 2) + sympy.diff(u, y, 2))
         + (3 - x) * sympy.diff(u, x) + (4 - y) * sympy.diff(u, y) + u)
    return sympy.lambdify((x, y, eps), f, modules="mpmath")


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_forcing_matches_the_closed_form_solution(eps):
    # 50 points uniform on the square and 50 within 5 eps of the corner
    # (1, 1), where both layers are active
    rng = np.random.default_rng(16)
    x = np.concatenate([rng.random(50), 1.0 - 5.0 * eps * rng.random(50)])
    y = np.concatenate([rng.random(50), 1.0 - 5.0 * eps * rng.random(50)])
    f_exact = reference_forcing()
    with mpmath.workdps(DIGITS):
        exact = np.array([float(f_exact(mpmath.mpf(a), mpmath.mpf(b),
                                        mpmath.mpf(eps)))
                          for a, b in zip(x, y)])
    coded = boundary_layer_problem(eps).f(x, y)
    gap = np.abs(coded - exact).max()
    assert gap <= 1e-14 * np.abs(exact).max(), gap / np.abs(exact).max()
