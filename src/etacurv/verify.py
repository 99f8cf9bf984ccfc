"""Estimate monitors evaluated on solved states.

Pure, read-only reductions over a surface jet: the curvature and gradient
bounds, the maximum-principle test quantities Q and w, and the algebraic
identity sum_i F^ii h_ii = f^(1/k) that must hold at converged states.
The proof constants A and alpha are explicit parameters with concrete
defaults (A = 2, alpha = 2 max|X|^2); acceptance relies on refinement
stability, not on their values.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry, symm

__all__ = [
    "MonitorResult", "curvature_bound", "gradient_bound",
    "q_monitor", "w_monitor", "identity_check", "estimate_report",
]


@dataclass(frozen=True)
class MonitorResult:
    value: float
    node: int
    vacuous: bool = False


def curvature_bound(jet):
    """max over nodes and directions of |kappa_i|."""
    return float(np.max(np.abs(jet.kappa)))


def gradient_bound(jet):
    """(max |grad rho|, min u); the gradient bound hinges on min u > 0."""
    return float(jet.grad_norm.max()), float(jet.u.min())


# Nodes whose value is this close to the maximum, relative to max(1, |max|),
# count as ties.
TIE_RTOL = 1e-8


def _max_result(values):
    """The maximum, at the lowest node within the tie tolerance of it.

    On round data these fields are constant up to roundoff, so a plain
    argmax would move with the answer's last bits.
    """
    top = float(values.max())
    node = int(np.argmax(values >= top - TIE_RTOL * max(1.0, abs(top))))
    return MonitorResult(value=top, node=node)


def q_monitor(jet, A=2.0):
    """Max of log kappa_max - log(u - a) + (A/2)|X|^2 over {kappa_max > 0}.

    a is recomputed per state as half the minimum of the support function.
    Its node is the lowest within TIE_RTOL * max(1, |max|) of the maximum.
    Returns a vacuous result when no node has a positive largest curvature.
    """
    kmax = jet.kappa[:, 0]
    mask = kmax > 0.0
    if not mask.any():
        return MonitorResult(value=float("-inf"), node=-1, vacuous=True)
    a = 0.5 * float(jet.u.min())
    r2 = np.einsum("ij,ij->i", jet.X, jet.X)
    q = np.full(kmax.shape, -np.inf)
    q[mask] = (np.log(kmax[mask]) - np.log(jet.u[mask] - a)
               + 0.5 * A * r2[mask])
    return _max_result(q)


def w_monitor(jet, alpha=None):
    """Max of -log u + alpha / |X|^2 and its node, located as in
    ``q_monitor``; needs u > 0."""
    r2 = np.einsum("ij,ij->i", jet.X, jet.X)
    if alpha is None:
        alpha = 2.0 * float(r2.max())
    w = -np.log(jet.u) + alpha / r2
    return _max_result(w)


def identity_check(jet, data, k):
    """Max relative defect of sum_i F^ii h_ii = f^(1/k) over nodes.

    Computed from the sorted eta spectrum: with lambda ascending the paired
    curvature is h_ii = H - lambda_i, and the coefficient sum telescopes to
    G(lambda) by degree-1 homogeneity, so the defect tracks the residual.
    """
    lam = jet.eta
    sig_k = geometry.sigma_k_of_eta(jet, k)
    s_excl = symm.sigma_excl_batch(lam, k - 1)
    grad = symm.g_gradient_batch(sig_k, s_excl, k)
    f_coeffs = grad.sum(axis=1, keepdims=True) - grad
    h_diag = jet.H[:, None] - lam
    lhs = np.einsum("ni,ni->n", f_coeffs, h_diag)
    rhs = data.f(jet.X, jet.nu) ** (1.0 / k)
    return float(np.max(np.abs(lhs - rhs) / rhs))


def estimate_report(jet, data, k, A=2.0, alpha=None):
    """JSON-ready report with the fixed field names."""
    max_grad, min_u = gradient_bound(jet)
    q = q_monitor(jet, A=A)
    w = w_monitor(jet, alpha=alpha)
    return {
        "max_abs_kappa": curvature_bound(jet),
        "max_grad_rho": max_grad,
        "min_u": min_u,
        "rho_min": float(jet.rho.min()),
        "rho_max": float(jet.rho.max()),
        "q_value": q.value,
        "q_node": q.node,
        "w_value": w.value,
        "w_node": w.node,
        "identity_defect": identity_check(jet, data, k),
    }
