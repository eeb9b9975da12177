"""The built-in model problem.

It is a convection-diffusion equation on the unit square,

    -eps Lap(u) + (3 - x, 4 - y) . grad(u) + u = f,    u = 0 on the boundary,

whose convection field satisfies b1 >= 2, b2 >= 3 on the square, with the
closed-form solution

    u(x, y) = sin(x) (1 - exp(-2(1-x)/eps)) * sin(2y) (1 - exp(-3(1-y)/eps)).

The solution has exponential boundary layers along x = 1 and y = 1, which
is exactly the regime the two-band meshes of :mod:`nipg2d.mesh` resolve
(beta1 = 2, beta2 = 3 match the layer exponents).
"""

import numpy as np

from .assembly import ProblemData

#: componentwise convection lower bounds of the built-in problem
BETA1 = 2.0
BETA2 = 3.0


def boundary_layer_problem(eps):
    """The built-in layered problem for a given diffusion parameter.

    The forcing term is coded in a grouped form in which every appearance
    of 1/eps is paired with a decaying exponential: the raw expansion of
    -eps Lap(u) + b . grad(u) contains O(1/eps) pieces that cancel
    analytically, and summing them in floating point would lose roughly
    log10(1/eps) digits inside the layers.  With t1 = (1-x)/eps and
    t2 = (1-y)/eps the grouped products t*exp(-2t) stay bounded by 1/(2e).

    Parameters
    ----------
    eps : float
        Diffusion parameter, 0 < eps <= 1; ``ProblemData.eps``.

    Returns
    -------
    ProblemData
    """

    def xfactor(x):
        t1 = (1.0 - x) / eps
        e1 = np.exp(-2.0 * t1)
        return np.sin(x) * (1.0 - e1), t1, e1

    def yfactor(y):
        t2 = (1.0 - y) / eps
        e2 = np.exp(-3.0 * t2)
        return np.sin(2.0 * y) * (1.0 - e2), t2, e2

    def u(x, y):
        gx, _, _ = xfactor(np.asarray(x, dtype=float))
        wy, _, _ = yfactor(np.asarray(y, dtype=float))
        return gx * wy

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx, t1, e1 = xfactor(x)
        wy, t2, e2 = yfactor(y)
        sx, cx = np.sin(x), np.cos(x)
        s2y, c2y = np.sin(2.0 * y), np.cos(2.0 * y)
        xpart = (eps * sx * (1.0 - e1) + 4.0 * cx * e1
                 - 2.0 * t1 * e1 * sx + (3.0 - x) * cx * (1.0 - e1))
        ypart = (4.0 * eps * s2y * (1.0 - e2) + 12.0 * c2y * e2
                 - 3.0 * t2 * e2 * s2y + 2.0 * (4.0 - y) * c2y * (1.0 - e2))
        return wy * xpart + gx * ypart + gx * wy

    return ProblemData(
        eps=eps,
        b1=lambda x, y: 3.0 - np.asarray(x, dtype=float),
        b2=lambda x, y: 4.0 - np.asarray(y, dtype=float),
        div_b=lambda x, y: np.full(np.shape(x), -2.0),
        c=lambda x, y: np.ones(np.shape(x)),
        f=f,
        exact=u,
    )
