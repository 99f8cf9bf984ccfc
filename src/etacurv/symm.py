"""Elementary symmetric functions, cone tests and operator coefficients.

Everything the solvers need from the algebra of the k-th elementary
symmetric function sigma_k and of the concave operator G = sigma_k^(1/k):
values, first and second derivatives in the eigenvalue arguments, the
summed coefficients F^ii = sum_{j != i} G^jj, and the admissible-cone
check (sigma_1 > 0, ..., sigma_k > 0).

All public entry points are pure functions. The *_batch kernels operate on
arrays of eigenvalue vectors (shape (N, n)) and are used by the field-level
solvers; elem_sym_all_batch and sigma_excl_batch share the one recurrence
step. newton_tensor_batch gives sigma_j and the Newton tensor of stacked
matrices, the derivative rule of both matrix Jacobians. The one-vector
entry points elem_sym_all and operator_coefficients are calls into the
batch kernels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConeViolationError

__all__ = [
    "SpectrumVector",
    "OperatorCoefficients",
    "elem_sym_all",
    "elem_sym_all_batch",
    "operator_coefficients",
]


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


def require_cone_batch(e, k, node_ids=None):
    """The sigma table e (sigma_0..sigma_k or more per row) once it is
    inside the cone; else ConeViolationError names the first bad row and
    its lowest bad order."""
    bad = e[:, 1 : k + 1] <= 0.0
    if not bad.any():
        return e
    p = int(np.argmax(bad.any(axis=1)))
    j = int(np.argmax(bad[p])) + 1
    node = p if node_ids is None else node_ids[p]
    raise ConeViolationError(j, float(e[p, j]), node=node)


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
    arguments.
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    f_coeffs: np.ndarray


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
    )
