"""The eigen-path coefficient matrix of the flat Jacobian: the oracle the
trace-recursion coefficients tr(T) I - T are tested against."""

import numpy as np

from etacurv import symm


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
