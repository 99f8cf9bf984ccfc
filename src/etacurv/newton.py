"""Damped Newton iteration and finite-difference oracles shared by the
curved and flat pipelines.

Convergence is relative to the size of the data: the iteration stops at
max|F| <= tol * max(1, max|f|), with f the prescribed data of the first
residual, at the solve's start (f^(1/k) in root form). The residual's
roundoff floor grows with f, so an absolute test can sit below what
large data can attain (Deuflhard, Newton Methods for Nonlinear Problems,
2004, sec. 2.1).

Globalization is backtracking on the max-norm residual with step
fractions 1, 1/2, 1/4, ..., 1/64; every candidate is pre-checked for
admissibility (cone membership, positivity, range) before its residual
is accepted. An admissible candidate equal to the iterate bit for bit
ends the iteration: the correction has fallen below roundoff, and every
later iteration would repeat the same step.
``fd_jacobian`` is the column-by-column Jacobian oracle behind the "fd"
Jacobian option, and ``fd_data_derivs`` gives the first derivatives of the
prescribed data that the analytic Jacobians need. ``SlotTable`` is the
sparsity pattern every analytic Jacobian is assembled on, and ``factor``
the one sparse LU every Newton step solves with, in the fill-reducing
order each grid stores when it is built.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu, spsolve

from .errors import (ConeViolationError, ConfigError, DomainError,
                     NewtonDiverged, ConeExit)

__all__ = ["NewtonConfig", "NewtonReport", "SlotTable", "damped_newton",
           "factor", "fd_jacobian", "fd_data_derivs", "solve_config"]

MAX_BACKTRACKS = 6      # smallest step fraction tried is 2**-6 = 1/64
# Largest sphere grid (ntheta * nphi) or flat lattice box a builder allocates.
MAX_NODES = 2**22


@dataclass
class NewtonConfig:
    """Newton settings. ``tol`` is relative to the data's scale: the stop
    test is max|F| <= tol * max(1, scale()), with ``scale`` a zero-argument
    callable evaluated once, after the first residual. The pipelines set
    it to max|f| of that residual (max f^(1/k) in root form) with
    ``solve_config``; without one the test is absolute.
    """

    tol: float = 1e-10
    max_iter: int = 40
    jacobian: str = "analytic"     # "analytic" | "fd"
    form: str = "raw"              # "raw" (sigma_k - f) | "root" (G - f^(1/k))
    # Fill-reducing order of the unknowns for the sparse LU (see factor);
    # the pipelines set it to their grid's, no config key reads it.
    perm: np.ndarray = field(default=None, repr=False, compare=False)
    # Size of the data the tolerance is relative to, a zero-argument
    # callable; the pipelines set it with solve_config, no config key does.
    scale: object = field(default=None, repr=False, compare=False)

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
    tol: float = None           # the tolerance applied, tol * max(1, scale)
    residual_history: list = field(default_factory=list)    # per iterate
    step_fractions: list = field(default_factory=list)      # per step

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

    def min_degree_order(self):
        """SuperLU's multiple-minimum-degree order of this pattern, as a
        permutation (new -> old) for ``factor``.

        SuperLU orders a matrix by its pattern alone, before any
        arithmetic, so the order is read from a factorization of a
        diagonally dominant symmetric matrix on the pattern of P + P^T in
        SuperLU's symmetric mode; an incomplete one, which drops all fill,
        costs less than half as much and gives the same order.
        """
        pat = sp.csr_matrix((np.ones(self.indices.size), self.indices,
                             self.indptr), shape=self.shape)
        sym = pat + pat.T
        dominant = sym + sp.diags(np.asarray(sym.sum(axis=0)).ravel() + 1.0)
        ilu = spilu(dominant.tocsc(), drop_tol=1.0, fill_factor=1,
                    permc_spec="MMD_AT_PLUS_A",
                    options={"SymmetricMode": True})
        return np.argsort(ilu.perm_c)

    def matrix(self, data):
        """CSR matrix with this pattern and data, exact zeros dropped."""
        out = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                            shape=self.shape)
        out.eliminate_zeros()
        return out


def factor(jac, perm=None):
    """The solver of jac x = b, factored once: a function of b.

    A dense jac (the "fd" oracle) is solved by ``np.linalg.solve``. A
    sparse jac with a permutation ``perm`` (new -> old, as stored on the
    grid) gets SuperLU's LU of jac[perm][:, perm] with no further column
    reordering; without one, ``spsolve`` with SuperLU's default COLAMD
    order. SuperLU raises RuntimeError on an exactly singular matrix.
    """
    if not sp.issparse(jac):
        return lambda b: np.linalg.solve(jac, b)
    if perm is None:
        return lambda b: spsolve(jac.tocsc(), b)
    lu = splu(jac.tocsc()[perm][:, perm], permc_spec="NATURAL")

    def solve(b):
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        return x
    return solve


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


def solve_config(config, perm, k, f_field):
    """The settings of one pipeline solve: ``config`` (default
    NewtonConfig()) with the grid's LU order ``perm`` and, as the scale,
    max f or, in root form, max f^(1/k), for the f field that
    ``f_field()`` returns once the first residual has filled it.
    """
    cfg = config or NewtonConfig()
    root = cfg.form == "root"

    def scale():
        top = float(np.max(f_field()))
        if root:
            return top ** (1.0 / k) if top > 0.0 else 0.0
        return top

    # scale must not refer to cfg: that cycle would keep the solve's last
    # fields alive after it returns, until the next garbage collection.
    return replace(cfg, perm=perm, scale=scale)


def _applied_tol(cfg):
    """tol * max(1, scale()), or tol itself if that is not finite."""
    scale = 1.0 if cfg.scale is None else float(cfg.scale())
    tol = cfg.tol * scale
    return tol if scale > 1.0 and math.isfinite(tol) else cfg.tol


def damped_newton(x0, residual_fn, jacobian_fn, cfg, candidate_check=None):
    """Drive x to max|residual(x)| <= cfg.tol * max(1, cfg.scale()).

    The scale is read once, after the first residual; the tolerance it
    gives is kept in the report and named in every failure message.
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
    tol = _applied_tol(cfg)
    report = NewtonReport(tol=tol, residual_history=[rnorm])

    def diverged(why, cls=NewtonDiverged):
        return cls(f"{why} (residual {rnorm:.3e}, tol {tol:.3e})",
                   last_iterate=x, report=report)

    for _ in range(cfg.max_iter):
        if rnorm <= tol:
            report.converged = True
            return x, report

        jac = jacobian_fn(x)
        # The factors are dropped at once: kept, they would live on through
        # the next factorization and double the peak memory.
        try:
            delta = factor(jac, cfg.perm)(-res)
        except RuntimeError as exc:     # SuperLU: exactly singular
            raise diverged(f"Jacobian not factored: {exc}") from exc

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
                raise diverged("step no longer changes the iterate")
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
            if inadmissible_only:
                raise diverged("no step fraction kept the iterate admissible",
                               ConeExit)
            raise diverged(f"no step fraction down to "
                           f"1/{2**MAX_BACKTRACKS} decreased the residual")

    if rnorm <= tol:
        report.converged = True
        return x, report
    raise NewtonDiverged(
        f"no convergence in {cfg.max_iter} iterations "
        f"(residual {rnorm:.3e}, tol {tol:.3e})",
        last_iterate=x, report=report,
    )
