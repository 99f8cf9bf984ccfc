"""Exact non-round solution of the curved problem for n = 2, k = 2.

For n = 2 the eta spectrum of a surface is (kappa2, kappa1), so
sigma_2(eta) is its Gauss curvature K. On the ellipsoid
x^2/a^2 + y^2/b^2 + z^2/c^2 = 1, K is a function of the position X alone:
K(X) = 1 / (a^2 b^2 c^2 q^2) with q = x^2/a^4 + y^2/b^4 + z^2/c^4. With
f = K the ellipsoid solves the equation.
"""

import numpy as np


def ellipsoid_gauss(a, b, c):
    """f(X, nu) = K(X), the ellipsoid's Gauss curvature at X."""
    inv4 = np.array([a, b, c], dtype=float) ** -4

    def f(x, nu):
        q = x**2 @ inv4
        return 1.0 / ((a * b * c) ** 2 * q**2)
    return f


def ellipsoid_rho(a, b, c, x):
    """The ellipsoid's radial function at the unit directions x."""
    return 1.0 / np.sqrt(x**2 @ (np.array([a, b, c], dtype=float) ** -2))
