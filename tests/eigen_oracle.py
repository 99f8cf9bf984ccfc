"""Eigenvalue-path oracles: the eta spectrum from the curvatures, and the
eigen-path coefficient matrix of the flat Jacobian that the
trace-recursion coefficients tr(T) I - T are tested against."""

from collections import namedtuple

import numpy as np

from etacurv import symm

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


def eigen_coefficients(hess, k):
    """d sigma_k(lambda((tr H) I - H)) / dH as V diag(ctilde) V^T.

    With H = V diag(kappa) V^T, ctilde_i is the derivative of sigma_k of
    the spectrum (sum kappa) - kappa_j in kappa_i.
    """
    kappa, vecs = np.linalg.eigh(hess)
    s = symm.sigma_excl_batch(kappa.sum(axis=1, keepdims=True) - kappa,
                              k - 1)
    ctil = s.sum(axis=1, keepdims=True) - s
    return np.einsum("nij,nj,nkj->nik", vecs, ctil, vecs)
