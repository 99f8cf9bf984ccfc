"""Damped Newton iteration and finite-difference oracles shared by the
curved and flat pipelines.

Globalization is backtracking on the max-norm residual with step fractions
1, 1/2, 1/4, ..., 1/64; every candidate is pre-checked for admissibility
(cone membership, positivity, range) before its residual is accepted. An
admissible candidate equal to the iterate bit for bit ends the iteration:
the correction has fallen below roundoff, and every later iteration would
repeat the same step.
``fd_jacobian`` is the column-by-column Jacobian oracle behind the "fd"
Jacobian option, and ``fd_data_derivs`` gives the first derivatives of the
prescribed data that the analytic Jacobians need. ``SlotTable`` is the
sparsity pattern every analytic Jacobian is assembled on.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import (ConeViolationError, ConfigError, DomainError,
                     NewtonDiverged, ConeExit)

__all__ = ["NewtonConfig", "NewtonReport", "SlotTable", "damped_newton",
           "fd_jacobian", "fd_data_derivs"]

MAX_BACKTRACKS = 6      # smallest step fraction tried is 2**-6 = 1/64
# Largest sphere grid (ntheta * nphi) or flat lattice box a builder allocates.
MAX_NODES = 2**22


@dataclass
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 40
    jacobian: str = "analytic"     # "analytic" | "fd"
    form: str = "raw"              # "raw" (sigma_k - f) | "root" (G - f^(1/k))

    def __post_init__(self):
        if not (self.tol > 0.0 and self.max_iter >= 1):
            raise ConfigError(
                "newton.tol must be positive and newton.max_iter at least 1, "
                f"got tol={self.tol}, max_iter={self.max_iter}")
        if (self.jacobian not in ("analytic", "fd")
                or self.form not in ("raw", "root")):
            raise ConfigError(
                "newton.jacobian must be 'analytic' or 'fd' and newton.form "
                f"'raw' or 'root', got {self.jacobian!r}, {self.form!r}")


@dataclass
class NewtonReport:
    converged: bool = False
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    step_fractions: list = field(default_factory=list)

    @property
    def final_residual(self):
        return self.residual_history[-1] if self.residual_history else np.inf


class SlotTable:
    """Union sparsity pattern of a fixed list of operators, the "slots".

    An analytic Jacobian is a per-row weighted sum sum_s diag(c_s) @ M_s of
    a grid's operators, so its pattern is known when the grid is built.
    ``accumulate`` gives the data array of such a sum on that pattern from
    array products, ``row_scale`` the per-entry form of a row factor, and
    ``matrix`` the CSR matrix. Entry (i, j) is the left-to-right sum of
    c_s[i] M_s[i, j] over the slots holding (i, j), and exact zeros are
    dropped, as in scipy's sparse products and sums: the result equals
    that sparse sum bit for bit.

    The operators are never modified: a slot whose rows hold unsorted
    columns (a product such as t @ p) is sorted in a copy, because sorting
    a live operator changes how its products with vectors round.
    """

    def __init__(self, mats):
        self.shape = nrow, ncol = mats[0].shape
        kdt = np.int32 if nrow * ncol < 2**31 else np.int64
        rowkey = np.arange(nrow, dtype=kdt) * ncol
        keys, parts = [], []
        for m in map(sp.csr_matrix, mats):
            count = np.diff(m.indptr)
            key = np.repeat(rowkey, count) + m.indices
            if np.any(np.diff(key) <= 0):
                m = m.copy()
                m.sort_indices()
                key = np.repeat(rowkey, count) + m.indices
                if np.any(np.diff(key) == 0):
                    raise ValueError("slot operators must not repeat an entry")
            keys.append(key)
            parts.append((count, m.data))
        union = np.sort(np.concatenate(keys))
        union = union[np.concatenate(([True], np.diff(union) != 0))]
        rows, cols = np.divmod(union, ncol)
        idx = np.int32 if max(union.size, nrow, ncol) < 2**31 else np.int64
        self.indices = cols.astype(idx)
        self.indptr = np.searchsorted(rows, np.arange(nrow + 1)).astype(idx)
        self.counts = np.diff(self.indptr)
        # Per slot: pattern position of each entry, entries per row, weights.
        self.slots = [(np.searchsorted(union, key).astype(idx), count, w)
                      for key, (count, w) in zip(keys, parts)]

    def accumulate(self, coefs, slots=None):
        """Data of sum_s diag(coefs[s]) @ M_s, summed in list order.

        ``slots`` names the slot of each coefficient (default 0, 1, ...).
        """
        data = np.zeros(self.indices.size)
        for s, c in zip(range(len(coefs)) if slots is None else slots, coefs):
            pos, counts, w = self.slots[s]
            data[pos] += np.repeat(c, counts) * w
        return data

    def row_scale(self, a):
        """The row factor a (one value per row) at every pattern entry."""
        return np.repeat(a, self.counts)

    def matrix(self, data):
        """CSR matrix with this pattern and data, exact zeros dropped."""
        out = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                            shape=self.shape)
        out.eliminate_zeros()
        return out


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


def fd_data_derivs(f, args, slots, cols=None):
    """Central-difference partials of f(*args) in the listed argument slots.

    ``slots`` holds (index, relative) pairs. A relative slot steps by
    1e-6 (1 + |a|) per node, |a| the row norm of a 2-d argument; the
    others step by 1e-6. A slot of shape (N,) gives an (N,) derivative and
    one of shape (N, d) gives (N, d), one column per component; with
    ``cols`` (component indices) it gives only those columns, (N, len(cols)),
    each equal to the matching column of the full derivative. Returns the
    derivatives in slot order.
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
            units = np.eye(a.shape[1])
            if cols is not None:
                units = units[cols]
            out.append(np.stack([diff(hcol * e) for e in units], axis=1))
    return out


def damped_newton(x0, residual_fn, jacobian_fn, cfg, candidate_check=None):
    """Drive x to max|residual(x)| <= cfg.tol.

    ``candidate_check(x)`` returns None if x is admissible, else a short
    reason string; cone and domain violations raised by ``residual_fn``
    count as admissibility failures too. A candidate is accepted only if
    its max-norm residual does not exceed the current one. An admissible
    candidate equal to x bit for bit raises NewtonDiverged at once: with
    deterministic callbacks, accepting it would repeat the same iteration
    until ``max_iter``.
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
        for m in range(MAX_BACKTRACKS + 1):
            frac = 0.5**m
            cand = x + frac * delta
            if candidate_check is not None and candidate_check(cand):
                continue
            # Equal to x, the candidate has x's residual, which the step
            # test below accepts (and every later iteration repeats) only
            # when it is finite.
            if (np.isfinite(rnorm)
                    and np.array_equal(cand.view(np.int64), x.view(np.int64))):
                report.residual_history.append(rnorm)
                raise NewtonDiverged(
                    f"step no longer changes the iterate (residual "
                    f"{rnorm:.3e}, tol {cfg.tol:.1e})",
                    last_iterate=x, report=report,
                )
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
                f"{MAX_BACKTRACKS} damping cuts",
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
