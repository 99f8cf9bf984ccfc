"""Damped Newton iteration and the residual forms shared by the curved
and flat pipelines.

The residual callback returns (F, state), the state being what the
caller built at x on the way to F; the Jacobian callback and the scale
take a state. The iteration holds the state of its iterate, so it
evaluates no residual twice at one x, and returns the converged state.

Convergence is relative to the size of the data: the iteration stops at
max|F| <= tol * max(1, max f^(1/k)), with f the prescribed data of the
first residual, at the solve's start. The residual's
roundoff floor grows with f, so an absolute test can sit below what
large data can attain (Deuflhard, Newton Methods for Nonlinear Problems,
2004, sec. 2.1).

Globalization is backtracking on the max-norm residual with step
fractions 1, 1/2, 1/4, ..., 1/64; every candidate is pre-checked for
admissibility (cone membership, positivity, range) before its residual
is accepted, and a candidate where the residual is not defined (a cone
exit, or data that is not positive there) is inadmissible too. An
admissible candidate equal to the iterate bit for bit ends the
iteration: the correction has fallen below roundoff, and every later
iteration would repeat the same step. So do STALL_STEPS accepted steps in
a row that do not decrease the residual: the step test accepts an equal
residual, and below its roundoff floor the iteration can move among
iterates of the same residual until ``max_iter``.

The LU of a Jacobian is kept across iterations (simplified Newton with
Shamanskii's refresh rule; Kelley, Solving Nonlinear Equations with
Newton's Method, 2003, sec. 2.3). After a step that cut the residual by at
least REFACTOR_RATIO, the next full step is taken on the kept factors; it
is accepted only if it is admissible, changes the iterate and decreases
the residual. Otherwise, and after any step that contracted less, the
Jacobian at the iterate is built and factored afresh, and the step is
backtracked as above. When the stop test is first met after a step on
kept factors, one more step on them is taken and kept if it lowers the
residual: kept factors converge linearly, and that step restores the
margin below tol that exact Newton's last step leaves. A closing step
that leaves the residual as it is, at its roundoff floor, is dropped, so
the iteration count does not turn on the residual's last bit.
Factors are freed as soon as no step will use them, so that two LUs are
never alive at once.

Both pipelines solve sigma_k = f in the root form G - f^(1/k), with
G = sigma_k^(1/k) concave on Gamma_k; ``form_residual`` and
``SlotTable.form_matrix`` give its residual and Jacobian from the sigma_k
and f fields and the Jacobian data of each. ``fd_data_derivs`` gives the
derivatives of f along the moves a Jacobian makes in f's arguments, one
central difference and one call of f per move.
``SlotTable`` is the one sparsity pattern every Jacobian of a grid has,
whatever its values. Each grid stores an LU plan when it is built, and
every Newton step factors its Jacobian with the plan's ``factor``: a
``SuperLUPlan`` on a full-2d sphere grid, a ``TridiagonalPlan`` on an
axisym one and a ``FrontalPlan`` (``_multifrontal``) on a flat one.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import spilu, splu

from .errors import (ConeViolationError, ConfigError, DomainError,
                     LUOutOfMemory, NewtonDiverged, ConeExit,
                     PreconditionError)

__all__ = ["NewtonConfig", "NewtonReport", "SlotTable", "SuperLUPlan",
           "TridiagonalPlan", "damped_newton", "fd_data_derivs",
           "form_residual", "on_pattern", "solve_config"]

MAX_BACKTRACKS = 6      # smallest step fraction tried is 2**-6 = 1/64
STALL_STEPS = 3         # accepted steps in a row without a decrease: stop
# Refactor after a step that leaves more than this share of the residual.
REFACTOR_RATIO = 0.1
# Largest sphere grid (ntheta * nphi) or flat lattice box a builder allocates.
MAX_NODES = 2**22
# Largest LU, in bytes of its factors, a flat grid's plan may call for.
MAX_LU_BYTES = 2**30


class SuperLUPlan:
    """SuperLU's LU of any sparse matrix or dense array, in ``order`` (a
    permutation, new -> old) or, without one, in SuperLU's COLAMD order.

    ``factor`` takes a copy of jac with its exact zeros dropped and never
    modifies jac. With an order, the copy is the transpose of
    A = jac[order][:, order], factored with no further column reordering,
    and each b is solved with ``trans="T"``: the transpose of A in CSR is
    A's CSC form with no copy, and SuperLU, which factors column by
    column, runs faster on the columns of Jᵀ than on those of J when the
    pattern is not symmetric, for the same fill. Without one, the copy is
    jac's CSC form, factored as ``spsolve`` of jac's nonzeros would factor
    it for every b. SuperLU raises RuntimeError on an exactly singular
    matrix.
    """

    def __init__(self, order=None):
        self.order = order

    def factor(self, jac):
        """The solver of jac x = b, factored once: a function of b."""
        order = self.order
        if order is None:
            jac = sp.csc_matrix(jac, copy=True)
            jac.eliminate_zeros()
            return splu(jac).solve
        # Unnamed CSR copies: only the permuted one is alive during splu.
        a = sp.csr_matrix(jac)[order][:, order]
        a.eliminate_zeros()
        lu = splu(a.T, permc_spec="NATURAL")

        def solve(b):
            x = np.empty_like(b)
            x[order] = lu.solve(b[order], trans="T")
            return x
        return solve


@dataclass
class NewtonConfig:
    """Newton settings. ``tol`` is relative to the data's scale: the stop
    test is max|F| <= tol * max(1, scale(state)), with ``scale`` evaluated
    once, on the state of the first residual. The pipelines set it to
    max f^(1/k) of that residual with ``solve_config``; without one the
    test is absolute.
    """

    tol: float = 1e-10
    max_iter: int = 40
    # The LU plan that factors each Jacobian; the pipelines set it to their
    # grid's, no config key reads it.
    plan: object = field(default_factory=SuperLUPlan, repr=False,
                         compare=False)
    # Size of the data the tolerance is relative to, a callable of the
    # first state; the pipelines set it with solve_config, no config key does.
    scale: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (self.tol > 0.0 and self.max_iter >= 1):
            raise ConfigError(
                "newton.tol must be positive and newton.max_iter at least 1, "
                f"got tol={self.tol}, max_iter={self.max_iter}")


@dataclass
class NewtonReport:
    converged: bool = False
    iterations: int = 0
    factorizations: int = 0     # Jacobians built and factored
    tol: float = None           # the tolerance applied, tol * max(1, scale)
    residual_history: list = field(default_factory=list)    # per iterate
    step_fractions: list = field(default_factory=list)      # per step

    @property
    def final_residual(self):
        return self.residual_history[-1] if self.residual_history else np.inf


def form_residual(sig, fv, k):
    """sig^(1/k) - fv^(1/k), for the sigma_k field sig and the f field fv;
    raises PreconditionError where fv is not positive, NaN included."""
    if not np.all(fv > 0.0):
        raise PreconditionError(f"prescribed f must be positive; min sampled "
                                f"value {float(fv.min()):.6g}")
    return sig ** (1.0 / k) - fv ** (1.0 / k)


class SlotTable:
    """Union sparsity pattern of a fixed list of operators, the "slots".

    An analytic Jacobian is a per-row weighted sum sum_s diag(c_s) @ M_s of
    a grid's operators, so its pattern is known when the grid is built.
    ``accumulate`` gives the data array of such a sum on that pattern from
    array products, ``row_scale`` the per-entry form of a row factor, and
    ``matrix`` the CSR matrix on the whole pattern. Entry (i, j) is the
    left-to-right sum of c_s[i] M_s[i, j] over the slots holding (i, j):
    the values of that sparse sum bit for bit, with an explicit zero where
    scipy's products and sums drop one. Every Jacobian of a grid thus has
    the grid's pattern, whatever its values.

    A slot is used as it is, also one whose rows hold unsorted columns
    (a product such as t @ p): each entry finds its pattern position by
    its own key, and the operators are never modified, because sorting a
    live operator changes how its products with vectors round. A slot
    that repeats an entry is refused (ValueError).
    """

    def __init__(self, mats):
        self.shape = nrow, ncol = mats[0].shape
        kdt = np.int32 if nrow * ncol < 2**31 else np.int64
        rowkey = np.arange(nrow, dtype=kdt) * ncol
        keys, parts = [], []
        for m in map(sp.csr_matrix, mats):
            count = np.diff(m.indptr)
            key = np.repeat(rowkey, count) + m.indices
            if (np.any(np.diff(key) <= 0)
                    and np.any(np.diff(np.sort(key)) == 0)):
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
        permutation (new -> old) for a ``SuperLUPlan``.

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
        """CSR matrix with this pattern and data, exact zeros kept."""
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=self.shape)

    def form_matrix(self, j_sig, j_f, sig, fv, k):
        """Jacobian matrix of ``form_residual`` from the data j_sig and j_f
        of the Jacobians of sigma_k and f, at the fields sig and fv."""
        p = 1.0 / k
        j_sig = self.row_scale(p * sig ** (p - 1.0)) * j_sig
        j_f = self.row_scale(p * fv ** (p - 1.0)) * j_f
        return self.matrix(j_sig - j_f)


def on_pattern(jac, pattern):
    """jac in CSR form, which must have exactly the (indptr, indices)
    ``pattern``, explicit zeros included; raises ValueError if not."""
    jac = sp.csr_matrix(jac)
    if not all(map(np.array_equal, (jac.indptr, jac.indices), pattern)):
        raise ValueError("matrix pattern differs from the plan's")
    return jac


class TridiagonalPlan:
    """LAPACK's tridiagonal LU of matrices on one full band pattern, with
    partial pivoting (Anderson et al., LAPACK Users' Guide, 3rd ed., 1999):
    on 128 nodes, a seventh of SuperLU's time, which is per-call set-up.

    The pattern is a ``SlotTable``'s, and it must hold every entry (i, j)
    with |i - j| <= 1 and no other: 3 n - 2 entries (ValueError if not).
    ``factor`` reads the three diagonals by position on it.
    """

    def __init__(self, slots):
        n = slots.shape[0]
        rows = np.repeat(np.arange(n), slots.counts)
        off = slots.indices - rows
        if slots.indices.size != 3 * n - 2 or np.any(np.abs(off) > 1):
            raise ValueError(f"pattern is not the full tridiagonal band of "
                             f"{3 * n - 2} entries")
        self.pattern = slots.indptr, slots.indices
        # Pattern positions of the sub-, main and super-diagonal, in order.
        self.diagonals = [np.flatnonzero(off == d) for d in (-1, 0, 1)]

    def factor(self, jac):
        """The solver of jac x = b, factored once: a function of b.

        jac is a sparse matrix with exactly the plan's pattern: in CSR
        form, the plan's indptr and indices, explicit zeros included.
        Raises ValueError on any other pattern, and RuntimeError on an
        exactly singular matrix.
        """
        jac = on_pattern(jac, self.pattern)
        # Indexing copies: dgttrf overwrites the copies, never jac.
        dl, d, du = (jac.data[pos] for pos in self.diagonals)
        *lu, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1,
                           overwrite_du=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

        def solve(b):
            return dgttrs(*lu, b)[0]
        return solve


def fd_data_derivs(f, args, steps):
    """Central differences of f(*args) along the given directions.

    Each step is a (perts, h) pair: ``perts`` holds one perturbation per
    argument, None for an argument that stays, and h the step size, a
    scalar or one per node. The step's derivative is
    (f(args + p) - f(args - p)) / (2h), with the up and down arguments
    stacked into one call of f on 2N rows. Returns the derivatives, (N,)
    each, in step order.
    """
    out = []
    for perts, h in steps:
        stacked = [np.concatenate((a, a)) if p is None
                   else np.concatenate((a + p, a - p))
                   for a, p in zip(args, perts)]
        fv = f(*stacked)
        half = fv.size // 2
        out.append((fv[:half] - fv[half:]) / (2.0 * h))
    return out


def solve_config(config, plan, k):
    """The settings of one pipeline solve: ``config`` (default
    NewtonConfig()) with the grid's LU plan ``plan`` and, as the
    scale, max f^(1/k) over the f > 0 of the first state, a (jet or
    FlatState, fields) pair with the f field in fields["f"].
    """
    def scale(state):
        return float(np.max(state[1]["f"])) ** (1.0 / k)

    return replace(config or NewtonConfig(), plan=plan, scale=scale)


def damped_newton(x0, residual_fn, jacobian_fn, cfg, candidate_check=None):
    """Drive x to max|F(x)| <= cfg.tol * max(1, cfg.scale(state)).

    ``residual_fn(x)`` returns (F, state), and ``jacobian_fn(state)`` the
    Jacobian at that state's x, a matrix ``cfg.plan.factor`` takes; one it
    finds exactly singular (RuntimeError) raises NewtonDiverged. The scale
    is read once, on the first state; the tolerance it gives is kept in
    the report and named in every failure message. A residual not finite
    at x0 raises NewtonDiverged. ``candidate_check(x)`` is true if
    x is inadmissible and false if not, its value unread; cone, domain and
    data-positivity violations (ConeViolationError, DomainError,
    PreconditionError) raised by ``residual_fn`` at a candidate count as
    admissibility failures too, while at x0 they propagate. A candidate is
    accepted only if its max-norm residual does not exceed the current
    one. An admissible candidate equal to x bit for bit raises
    NewtonDiverged at once: with deterministic callbacks, accepting it
    would repeat the same iteration until ``max_iter``. So does an iterate
    not yet converged after STALL_STEPS accepted steps in a row that did
    not decrease the residual. An LU that runs out of memory raises
    LUOutOfMemory. The factors of a Jacobian are kept, and
    refreshed, as the module docstring describes; the closing step on kept
    factors, taken once the stop test holds, is accepted only if it lowers
    the residual, and otherwise the converged iterate is returned as it
    was. Returns the state of the converged iterate and the NewtonReport.
    """
    x = np.asarray(x0, dtype=float).copy()
    res, state = residual_fn(x)
    rnorm = float(np.max(np.abs(res)))
    scale = 1.0 if cfg.scale is None else float(cfg.scale(state))
    tol = cfg.tol * scale       # tol * max(1, scale) where that is finite
    tol = tol if scale > 1.0 and math.isfinite(tol) else cfg.tol
    report = NewtonReport(tol=tol, residual_history=[rnorm])
    solve = None        # the kept factors, a function of the right-hand side
    reuse = False       # the last step contracted enough to step on them
    kept = False        # the last step was taken on them
    stalled = 0         # accepted steps in a row that left rnorm as it was

    def diverged(why, cls=NewtonDiverged):
        return cls(f"{why} (residual {rnorm:.3e}, tol {tol:.3e})",
                   last_iterate=x, report=report)

    def same(cand):
        return np.array_equal(cand.view(np.int64), x.view(np.int64))

    def admissible(cand):
        return candidate_check is None or not candidate_check(cand)

    def evaluate(cand):
        """(cand, F, state, max|F|), or None if F is undefined or not
        finite at cand."""
        try:
            cres, cstate = residual_fn(cand)
        except (ConeViolationError, DomainError, PreconditionError):
            return None
        cnorm = float(np.max(np.abs(cres)))
        return (cand, cres, cstate, cnorm) if np.isfinite(cnorm) else None

    def accept(step, frac):
        nonlocal x, res, state, rnorm, reuse, stalled
        reuse = step[3] <= REFACTOR_RATIO * rnorm
        stalled = stalled + 1 if step[3] >= rnorm else 0
        x, res, state, rnorm = step
        report.iterations += 1
        report.residual_history.append(rnorm)
        report.step_fractions.append(frac)

    def full_step():
        """The evaluated full step on the kept factors, or None if its
        candidate is inadmissible or x itself."""
        cand = x + solve(-res)
        if not admissible(cand) or same(cand):
            return None
        return evaluate(cand)

    if not np.isfinite(rnorm):
        raise diverged("residual not finite at the first iterate")
    while rnorm > tol:
        if report.iterations == cfg.max_iter:
            raise diverged(f"no convergence in {cfg.max_iter} iterations")
        if stalled == STALL_STEPS:
            raise diverged(f"residual not decreased in {STALL_STEPS} steps")
        kept = False
        if reuse:
            step = full_step()
            if step is not None and step[3] < rnorm:
                accept(step, 1.0)
                kept = True
                continue

        solve = None    # two LUs are never alive at once
        jac = jacobian_fn(state)
        try:
            solve = cfg.plan.factor(jac)
        except RuntimeError as exc:     # exactly singular
            raise diverged(f"Jacobian not factored: {exc}") from exc
        except MemoryError as exc:      # a smaller t step would not help
            raise LUOutOfMemory(f"LU of {x.size} unknowns ran out of memory",
                                x.size, report) from exc
        del jac         # the steps need only its factors
        delta = solve(-res)
        report.factorizations += 1

        inadmissible_only = True
        for m in range(MAX_BACKTRACKS + 1):
            frac = 0.5**m
            cand = x + frac * delta
            if not admissible(cand):
                continue
            if same(cand):
                raise diverged("step no longer changes the iterate")
            step = evaluate(cand)
            if step is None:
                continue
            inadmissible_only = False
            if step[3] <= rnorm:
                accept(step, frac)
                break
        else:
            if inadmissible_only:
                raise diverged("no step fraction kept the iterate admissible",
                               ConeExit)
            raise diverged(f"no step fraction down to "
                           f"1/{2**MAX_BACKTRACKS} decreased the residual")
        if not reuse:   # the next step refactors: free the LU at once
            solve = None

    if kept:
        step = full_step()
        if step is not None and step[3] < rnorm:
            accept(step, 1.0)
    report.converged = True
    return state, report
