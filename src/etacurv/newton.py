"""Damped Newton iteration and finite-difference oracles shared by the
curved and flat pipelines.

Globalization is backtracking on the max-norm residual with step fractions
1, 1/2, 1/4, ..., 1/64; every candidate is pre-checked for admissibility
(cone membership, positivity, range) before its residual is accepted.
``fd_jacobian`` is the column-by-column Jacobian oracle behind the "fd"
Jacobian option, and ``fd_data_derivs`` gives the first derivatives of the
prescribed data that the analytic Jacobians need.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import ConeViolationError, DomainError, NewtonDiverged, ConeExit

__all__ = ["NewtonConfig", "NewtonReport", "damped_newton", "fd_jacobian",
           "fd_data_derivs"]


@dataclass
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 40
    max_backtracks: int = 6        # smallest fraction tried is 2**-6 = 1/64
    jacobian: str = "analytic"     # "analytic" | "fd"
    form: str = "raw"              # "raw" (sigma_k - f) | "root" (G - f^(1/k))


@dataclass
class NewtonReport:
    converged: bool = False
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    step_fractions: list = field(default_factory=list)

    @property
    def final_residual(self):
        return self.residual_history[-1] if self.residual_history else np.inf


def _solve_linear(jac, rhs):
    if sp.issparse(jac):
        return spsolve(jac.tocsc(), rhs)
    return np.linalg.solve(jac, rhs)


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


def fd_data_derivs(f, args, slots):
    """Central-difference partials of f(*args) in the listed argument slots.

    ``slots`` holds (index, relative) pairs. A relative slot steps by
    1e-6 (1 + |a|) per node, |a| the row norm of a 2-d argument; the
    others step by 1e-6. A slot of shape (N,) gives an (N,) derivative and
    one of shape (N, d) gives (N, d), one column per component. Returns
    the derivatives in slot order.
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


def damped_newton(x0, residual_fn, jacobian_fn, cfg, candidate_check=None):
    """Drive x to max|residual(x)| <= cfg.tol.

    ``candidate_check(x)`` returns None if x is admissible, else a short
    reason string; cone and domain violations raised by ``residual_fn``
    count as admissibility failures too. A candidate is accepted only if
    its max-norm residual does not exceed the current one.
    """
    x = np.asarray(x0, dtype=float).copy()
    res = residual_fn(x)
    rnorm = float(np.max(np.abs(res)))
    report = NewtonReport(residual_history=[rnorm])

    for _ in range(cfg.max_iter):
        if rnorm <= cfg.tol:
            report.converged = True
            return x, report

        jac = jacobian_fn(x)
        delta = _solve_linear(jac, -res)

        accepted = False
        inadmissible_only = True
        for m in range(cfg.max_backtracks + 1):
            frac = 0.5**m
            cand = x + frac * delta
            if candidate_check is not None and candidate_check(cand):
                continue
            try:
                cres = residual_fn(cand)
            except (ConeViolationError, DomainError):
                continue
            cnorm = float(np.max(np.abs(cres)))
            if not np.isfinite(cnorm):
                continue
            inadmissible_only = False
            if cnorm <= rnorm:
                x, res, rnorm = cand, cres, cnorm
                report.iterations += 1
                report.residual_history.append(rnorm)
                report.step_fractions.append(frac)
                accepted = True
                break

        if not accepted:
            report.residual_history.append(rnorm)
            if inadmissible_only:
                raise ConeExit(
                    "no step fraction kept the iterate admissible",
                    last_iterate=x, report=report,
                )
            raise NewtonDiverged(
                f"residual {rnorm:.3e} could not be decreased after "
                f"{cfg.max_backtracks} damping cuts",
                last_iterate=x, report=report,
            )

    if rnorm <= cfg.tol:
        report.converged = True
        return x, report
    raise NewtonDiverged(
        f"no convergence in {cfg.max_iter} iterations "
        f"(residual {rnorm:.3e}, tol {cfg.tol:.1e})",
        last_iterate=x, report=report,
    )
