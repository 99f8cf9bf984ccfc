"""Finite-difference oracles: the dense Jacobian the analytic Jacobians of
both pipelines are tested against, and the component-wise gradients of the
data the directional differences of ``newton.fd_data_derivs`` are tested
against."""

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


def component_derivs(f, args, slots):
    """Central-difference partials of f(*args), one component at a time.

    ``slots`` holds (index, relative) pairs. A relative slot steps by
    1e-6 (1 + |a|) per node, |a| the row norm of a 2-d argument; the
    others step by 1e-6. A slot of shape (N,) gives an (N,) derivative and
    one of shape (N, d) gives (N, d), one column per component, each from
    its own calls of f on the up and the down arguments.
    """
    out = []
    for slot, relative in slots:
        a = args[slot]
        h = 1e-6
        if relative:
            size = np.abs(a) if a.ndim == 1 else np.linalg.norm(a, axis=1)
            h = 1e-6 * (1.0 + size)

        def diff(step):
            up, dn = list(args), list(args)
            up[slot] = a + step
            dn[slot] = a - step
            return (f(*up) - f(*dn)) / (2.0 * h)

        if a.ndim == 1:
            out.append(diff(h))
        else:
            hcol = h[:, None] if relative else h
            out.append(np.stack([diff(hcol * e) for e in np.eye(a.shape[1])],
                                axis=1))
    return out


def f_term_oracle(jet, f, dV, dW):
    """The curved Jacobian's data term from the full gradients of f.

    f_X (relative steps) and f_nu (absolute steps) are differenced
    component by component and dotted, per slot s, with dX_s (x for slot
    0, nothing otherwise) and dnu_s = (dV[s] - nu dW[s]) / w.
    """
    x, nu, w = jet.raw["x"], jet.nu, jet.raw["w"]
    fx, fn = component_derivs(f, (jet.X, jet.nu), ((0, True), (1, False)))
    coefs = []
    for s, dv in enumerate(dV):
        dnu = (dv - nu * dW[s][:, None]) / w[:, None]
        coef = np.einsum("nc,nc->n", fn, dnu)
        if s == 0:
            coef += np.einsum("nc,nc->n", fx, x)
        coefs.append(coef)
    return jet.grid.slots.accumulate(coefs)
