"""Elementary symmetric functions, cone tests and operator coefficients.

Everything the solver needs from the algebra of the k-th elementary
symmetric function sigma_k and of the concave operator G = sigma_k^(1/k):
values, first and second derivatives in the eigenvalue arguments, the
summed coefficients F^ii = sum_{j != i} G^jj, and membership tests for the
admissible cone (sigma_1 > 0, ..., sigma_k > 0).

All public entry points are pure functions. The *_batch kernels operate on
arrays of eigenvalue vectors (shape (N, n)) and are used by the field-level
solvers; the scalar entry points (elem_sym_all, sigma, sigma_excl,
gamma_k_contains, operator_coefficients) are one-row calls into them, and
elem_sym_all_batch and sigma_excl_batch share the one recurrence step.
newton_tensor_batch gives sigma_j of stacked matrices.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConeViolationError

__all__ = [
    "SpectrumVector",
    "OperatorCoefficients",
    "EtaSpectrum",
    "sigma",
    "sigma_excl",
    "sigma_brute",
    "gamma_k_contains",
    "operator_coefficients",
    "eta_spectrum_from_kappa",
]

# Relative tie tolerance for the divided-difference pair coefficient.
PAIR_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class SpectrumVector:
    """An ordered list of n real eigenvalues plus the equation order k."""

    values: np.ndarray
    k: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1-d eigenvalue vector with n >= 2")
        if not 1 <= self.k <= vals.size:
            raise ValueError(f"order k={self.k} outside [1, {vals.size}]")

    @property
    def n(self):
        return self.values.size


def _push(e, x, top):
    """Fold one entry column x into the running table: e_m += x e_(m-1).

    m runs from ``top`` down to 1 so each update reads the lower entry
    before it changes; this is the only sigma recurrence in the package.
    """
    for m in range(top, 0, -1):
        e[:, m] += x * e[:, m - 1]


def elem_sym_all_batch(lam, top=None):
    """sigma_0..sigma_top (default n) along the last axis of an (N, n)
    array, adding one entry at a time in O(n top) with no subset sum; exact
    in exact arithmetic, and sigma_j is the same for any top >= j."""
    lam = np.asarray(lam, dtype=float)
    npts, n = lam.shape
    top = n if top is None else top
    e = np.zeros((npts, top + 1))
    e[:, 0] = 1.0
    for j in range(n):
        _push(e, lam[:, j], min(j + 1, top))
    return e


def newton_tensor_batch(m, k):
    """The (N, k + 1) sigma table and the Newton tensor T_(k-1) of stacked
    symmetric matrices M, (N, d, d), without an eigensolver: T_0 = I,
    sigma_j = tr(M T_(j-1)) / j, T_j = sigma_j I - M T_(j-1), and
    d sigma_k(M) = tr(T_(k-1) dM) (Reilly, Michigan Math. J. 20, 1973).
    """
    eye = np.eye(m.shape[-1])
    e = np.ones((len(m), k + 1))
    t, mt = np.broadcast_to(eye, m.shape), m       # T_0 and M T_0
    for j in range(1, k + 1):
        e[:, j] = np.einsum("naa->n", mt) / j
        if j < k:
            t = e[:, j, None, None] * eye - mt
            mt = m @ t
    return e, t


def elem_sym_all(values):
    """All sigma_0..sigma_n of one vector (a one-row batch call)."""
    return elem_sym_all_batch(np.asarray(values, dtype=float)[None, :])[0]


def sigma_brute(values, m):
    """sigma_m by explicit subset enumeration. Test oracle only."""
    values = [float(v) for v in values]
    if not 0 <= m <= len(values):
        raise ValueError(f"m={m} outside [0, {len(values)}]")
    if m == 0:
        return 1.0
    return float(sum(math.prod(c) for c in combinations(values, m)))


def sigma(lam, m):
    """sigma_m of a spectrum vector (production recurrence path)."""
    if not 0 <= m <= lam.n:
        raise ValueError(f"m={m} outside [0, {lam.n}]")
    return float(elem_sym_all(lam.values)[m])


def sigma_excl_batch(lam, m):
    """sigma_m(lam | i) per row and per excluded index; shape (N, n).

    One prefix table over the entries before i is carried forward; for
    each i a copy of it absorbs the entries after i. Only sigma_0..sigma_m
    are kept, and sigma_j reads only lower orders, so each kept entry sees
    the same updates in the same order as elem_sym_all_batch run on the
    reduced vector and matches it bit for bit.
    """
    lam = np.asarray(lam, dtype=float)
    npts, n = lam.shape
    out = np.empty((npts, n))
    prefix = np.zeros((npts, m + 1))
    prefix[:, 0] = 1.0
    for i in range(n):
        e = prefix.copy()
        for j in range(i + 1, n):
            # Entry j sits at position j - 1 of the reduced vector.
            _push(e, lam[:, j], min(j, m))
        out[:, i] = e[:, m]
        _push(prefix, lam[:, i], min(i + 1, m))
    return out


def sigma_excl(lam, m, i):
    """sigma_m of the vector with entry i removed (a one-row batch call)."""
    if not 0 <= i < lam.n:
        raise ValueError(f"index i={i} outside [0, {lam.n})")
    if not 0 <= m <= lam.n - 1:
        raise ValueError(f"m={m} outside [0, {lam.n - 1}]")
    return float(sigma_excl_batch(lam.values[None, :], m)[0, i])


def _cone_mask(e, k, margin):
    """(ok, first_fail) for the rows of a sigma table e."""
    bad = e[:, 1 : k + 1] <= margin
    ok = ~bad.any(axis=1)
    first_fail = np.where(ok, 0, bad.argmax(axis=1) + 1)
    return ok, first_fail


def gamma_k_contains_batch(lam, k, margin=0.0):
    """Vectorized cone membership: (ok, first_fail), ``first_fail[p]`` the
    smallest j with sigma_j <= margin at row p (0 where ok)."""
    return _cone_mask(elem_sym_all_batch(lam, k), k, margin)


def gamma_k_contains(lam, margin=0.0):
    """True iff sigma_j(lam) > margin for all j = 1..k (one-row batch call).

    The cone is open, so membership uses strict positivity with zero
    tolerance by default; callers needing a safety band pass ``margin``.
    """
    ok, _ = gamma_k_contains_batch(lam.values[None, :], lam.k, margin)
    return bool(ok[0])


def require_cone_batch(e, k, node_ids=None):
    """The sigma table e (sigma_0..sigma_k or more per row) once it is
    inside the cone; else ConeViolationError names the first bad row and
    its lowest bad order."""
    ok, first_fail = _cone_mask(e, k, 0.0)
    if ok.all():
        return e
    p = int(np.argmin(ok))
    j = int(first_fail[p])
    node = p if node_ids is None else node_ids[p]
    raise ConeViolationError(j, float(e[p, j]), node=node)


EtaSpectrum = namedtuple("EtaSpectrum", ["values", "permutation"])


def eta_spectrum_from_kappa(kappa):
    """Spectrum of the first Newton transformation from curvatures.

    lambda_i = (sum_j kappa_j) - kappa_i, returned sorted ascending along
    with the permutation (sorted position -> original index) so geometric
    quantities can be mapped back to principal directions.
    """
    kappa = np.asarray(kappa, dtype=float)
    lam = kappa.sum() - kappa
    perm = np.argsort(lam, kind="stable")
    return EtaSpectrum(values=lam[perm], permutation=perm)


def g_gradient_batch(sig_k, s_excl, k):
    """Gradient G^ii = (1/k) sigma_k^(1/k - 1) sigma_{k-1}(lam | i) per row.

    Takes sigma_k per row, shape (N,), and sigma_{k-1}(lam | i) from
    sigma_excl_batch, shape (N, n); returns shape (N, n).
    """
    p = 1.0 / k
    return p * sig_k[:, None] ** (p - 1.0) * s_excl


@dataclass(frozen=True)
class OperatorCoefficients:
    """Value and derivatives of G = sigma_k^(1/k) at one eigenvalue vector.

    ``hessian`` is the matrix of second partials of G in the eigenvalue
    arguments; ``pair_second(i, j)`` gives the off-diagonal matrix second
    derivative G^{ij,ji} via the divided-difference formula with the
    analytic limit at ties.
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    f_coeffs: np.ndarray
    lam: np.ndarray = field(repr=False)

    def pair_second(self, i, j):
        if i == j:
            raise ValueError("pair coefficient needs i != j")
        li, lj = self.lam[i], self.lam[j]
        if abs(li - lj) < PAIR_TIE_RTOL * (1.0 + abs(li) + abs(lj)):
            # Removable singularity: the limit of the divided difference.
            return self.hessian[i, i] - self.hessian[i, j]
        return (self.gradient[i] - self.gradient[j]) / (li - lj)


def operator_coefficients(lam):
    """G, G^ii, the eigenvalue Hessian of G, and F^ii at lam in the cone.

    G^ii = (1/k) sigma_k^(1/k - 1) sigma_{k-1}(lam | i); the Hessian uses
    sigma_{k-2}(lam | ij) for the off-diagonal second partials of sigma_k.
    Raises ConeViolationError outside the open cone.
    """
    vals, k, n = lam.values, lam.k, lam.n
    # One vector, so the error names no node.
    e = require_cone_batch(elem_sym_all_batch(vals[None, :], k), k,
                           node_ids=[None])[0]
    sk = e[k]
    p = 1.0 / k
    value = sk**p

    s1 = sigma_excl_batch(vals[None, :], k - 1)[0]
    gradient = g_gradient_batch(e[k : k + 1], s1[None, :], k)[0]

    # Second partials of sigma_k: 0 on the diagonal, sigma_{k-2}(lam|ij) off.
    # Row i of ``others`` is lam without entry i, so sigma_excl_batch on it
    # gives sigma_{k-2}(lam | ij) for j != i in ascending j.
    sk_hess = np.zeros((n, n))
    if k >= 2:
        off = ~np.eye(n, dtype=bool)
        others = vals[np.nonzero(off)[1]].reshape(n, n - 1)
        sk_hess[off] = sigma_excl_batch(others, k - 2).ravel()
    hessian = (
        p * (p - 1.0) * sk ** (p - 2.0) * np.outer(s1, s1)
        + p * sk ** (p - 1.0) * sk_hess
    )

    f_coeffs = gradient.sum() - gradient
    return OperatorCoefficients(
        value=float(value),
        gradient=gradient,
        hessian=hessian,
        f_coeffs=f_coeffs,
        lam=vals.copy(),
    )
