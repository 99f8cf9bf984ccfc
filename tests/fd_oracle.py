"""Dense finite-difference Jacobian: the oracle the analytic Jacobians of
both pipelines are tested against."""

import numpy as np


def fd_jacobian(residual_fn, x, step=1e-6):
    """Column-by-column central-difference Jacobian (correctness oracle).

    Column j steps x_j by step * (1 + |x_j|) both ways.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    jac = np.empty((n, n))
    for j in range(n):
        d = step * (1.0 + abs(x[j]))
        up = x.copy()
        up[j] += d
        dn = x.copy()
        dn[j] -= d
        jac[:, j] = (residual_fn(up) - residual_fn(dn)) / (2.0 * d)
    return jac
