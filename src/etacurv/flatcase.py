"""Euclidean Dirichlet problem sigma_k(lambda((lap phi) I - D^2 phi)) = f.

The domain (unit ball or axis-aligned rectangle) is embedded in a uniform
Cartesian lattice; only interior nodes are unknowns and the homogeneous
boundary value is folded into the difference operators. Axis second and
first derivatives use unequal-arm 3-point stencils with the boundary arm
snapped to the domain boundary; mixed second derivatives come from the
rotated-diagonal identity phi_ab = (phi_dd - phi_ee)/2, with outside
diagonal neighbors closed by first-order linear extrapolation through the
snapped zero crossing.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np
import scipy.sparse as sp

from . import symm
from .errors import DomainError, PreconditionError
from .newton import NewtonConfig, damped_newton, fd_data_derivs, fd_jacobian

__all__ = [
    "DomainGrid", "FlatState", "build_flat_grid", "build_flat_state",
    "flat_residual", "flat_jacobian", "dirichlet_solve",
    "pogorelov_monitor", "flat_csv_text",
]


@dataclass
class DomainGrid:
    dim: int
    shape: str                 # "ball" | "rect"
    h: float
    radius: float              # ball radius; circumradius for rect
    center: np.ndarray         # domain center
    pts: np.ndarray            # interior node coordinates, (Ni, dim)
    d1: list = field(repr=False)        # first-derivative operators per axis
    d2: list = field(repr=False)        # second-derivative operators per axis
    dmix: dict = field(repr=False)      # mixed operators keyed by (a, b), a < b
    lap: object = field(repr=False)     # sum of the axis second derivatives

    @property
    def ninterior(self):
        return self.pts.shape[0]


def _ball_exit(p, u, radius):
    """Distance from p to the sphere |x| = radius along unit direction u."""
    b = float(np.dot(p, u))
    disc = b * b + radius**2 - float(np.dot(p, p))
    return -b + math.sqrt(disc)


def _rect_exit(p, u, lo, hi):
    """Distance from p to the rectangle boundary along unit direction u."""
    s = math.inf
    for a in range(p.size):
        if u[a] > 1e-15:
            s = min(s, (hi[a] - p[a]) / u[a])
        elif u[a] < -1e-15:
            s = min(s, (lo[a] - p[a]) / u[a])
    return s


def build_flat_grid(dim, shape="ball", h=1.0 / 16, radius=1.0, bounds=None):
    """Lattice discretization of the domain with all difference operators."""
    if dim < 2:
        raise DomainError("flat domains need dimension >= 2")
    if h <= 0:
        raise ValueError("grid spacing h must be positive")

    if shape == "ball":
        half = int(math.floor(radius / h + 1e-12))
        axes = [np.arange(-half, half + 1) for _ in range(dim)]

        def inside(x):
            return float(np.dot(x, x)) < radius**2 - 1e-12

        def exit_dist(p, u):
            return _ball_exit(p, u, radius)

    elif shape == "rect":
        if bounds is None:
            bounds = [(-1.0, 1.0)] * dim
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        axes = []
        for a in range(dim):
            kmin = int(math.ceil(lo[a] / h - 1e-12))
            kmax = int(math.floor(hi[a] / h + 1e-12))
            axes.append(np.arange(kmin, kmax + 1))

        def inside(x):
            return bool(np.all(x > lo + 1e-12) and np.all(x < hi - 1e-12))

        def exit_dist(p, u):
            return _rect_exit(p, u, lo, hi)

    else:
        raise ValueError(f"unknown domain shape {shape!r}")

    index = {}
    pts = []
    for key in product(*axes):
        x = h * np.asarray(key, dtype=float)
        if inside(x):
            index[key] = len(pts)
            pts.append(x)
    pts = np.asarray(pts)
    ni = len(pts)
    if ni == 0:
        raise ValueError("grid resolution too coarse: no interior nodes")

    def build_line_ops(direction_key, step):
        """Unequal-arm 1-d stencils along a lattice direction.

        Returns (second derivative, first derivative) with arms snapped to
        the boundary; boundary values are zero so snapped arms contribute
        no column.
        """
        u = np.asarray(direction_key, dtype=float)
        u /= np.linalg.norm(u)
        rows2, cols2, dat2 = [], [], []
        rows1, cols1, dat1 = [], [], []
        for key, r in index.items():
            p = h * np.asarray(key, dtype=float)
            arms = []
            for sgn in (-1, 1):
                nb = tuple(key[a] + sgn * direction_key[a]
                           for a in range(dim))
                if nb in index:
                    arms.append((step, index[nb]))
                else:
                    arms.append((exit_dist(p, sgn * u), None))
            (h_l, col_l), (h_r, col_r) = arms
            entries2 = [(col_l, 2.0 / (h_l * (h_l + h_r))),
                        (r, -2.0 / (h_l * h_r)),
                        (col_r, 2.0 / (h_r * (h_l + h_r)))]
            entries1 = [(col_l, -h_r / (h_l * (h_l + h_r))),
                        (r, (h_r - h_l) / (h_l * h_r)),
                        (col_r, h_l / (h_r * (h_l + h_r)))]
            for col, val in entries2:
                if col is not None:
                    rows2.append(r)
                    cols2.append(col)
                    dat2.append(val)
            for col, val in entries1:
                if col is not None:
                    rows1.append(r)
                    cols1.append(col)
                    dat1.append(val)

        def mk(rows, cols, dat):
            return sp.csr_matrix((dat, (rows, cols)), shape=(ni, ni))

        return mk(rows2, cols2, dat2), mk(rows1, cols1, dat1)

    def build_diag_op(direction_key):
        """Uniform 3-point second derivative along a plane diagonal.

        An outside neighbor at distance ell is closed by the first-order
        linear extrapolation through the node value and the zero boundary
        crossing, which folds onto the diagonal entry.
        """
        u = np.asarray(direction_key, dtype=float)
        norm = np.linalg.norm(u)
        u /= norm
        ell = h * norm
        rows, cols, dat = [], [], []
        for key, r in index.items():
            p = h * np.asarray(key, dtype=float)
            rows.append(r)
            cols.append(r)
            dat.append(-2.0 / ell**2)
            for sgn in (-1, 1):
                nb = tuple(key[a] + sgn * direction_key[a]
                           for a in range(dim))
                if nb in index:
                    rows.append(r)
                    cols.append(index[nb])
                    dat.append(1.0 / ell**2)
                else:
                    d = exit_dist(p, sgn * u)
                    rows.append(r)
                    cols.append(r)
                    dat.append((1.0 - ell / d) / ell**2)
        m = sp.csr_matrix((dat, (rows, cols)), shape=(ni, ni))
        m.sum_duplicates()
        return m

    d1, d2 = [], []
    for a in range(dim):
        key = tuple(1 if b == a else 0 for b in range(dim))
        m2, m1 = build_line_ops(key, h)
        d1.append(m1)
        d2.append(m2)

    dmix = {}
    for a, b in combinations(range(dim), 2):
        plus = tuple(1 if c in (a, b) else 0 for c in range(dim))
        minus = tuple(1 if c == a else (-1 if c == b else 0)
                      for c in range(dim))
        dpp = build_diag_op(plus)
        dpm = build_diag_op(minus)
        dmix[(a, b)] = ((dpp - dpm) * 0.5).tocsr()

    lap = sum(d2).tocsr()
    if shape == "ball":
        center = np.zeros(dim)
        rad = radius
    else:
        center = 0.5 * (lo + hi)
        rad = float(np.linalg.norm(hi - center))
    return DomainGrid(dim=dim, shape=shape, h=h, radius=rad, center=center,
                      pts=pts, d1=d1, d2=d2, dmix=dmix, lap=lap)


@dataclass
class FlatState:
    """Scalar field on the domain grid with its difference jet."""

    grid: DomainGrid
    phi: np.ndarray
    grad: np.ndarray           # (Ni, dim)
    hess: np.ndarray           # (Ni, dim, dim)
    lap_phi: np.ndarray
    eta_spectrum: np.ndarray   # ascending eigenvalues of (lap) I - D^2 phi
    pogorelov_beta: float = 4.0


def build_flat_state(grid, phi, beta=4.0):
    """Differentiate phi and assemble the eta-spectrum field."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (grid.ninterior,):
        raise ValueError(f"phi must have shape ({grid.ninterior},)")
    ni, dim = grid.ninterior, grid.dim
    grad = np.stack([grid.d1[a] @ phi for a in range(dim)], axis=1)
    hess = np.empty((ni, dim, dim))
    for a in range(dim):
        hess[:, a, a] = grid.d2[a] @ phi
    for (a, b), op in grid.dmix.items():
        hess[:, a, b] = hess[:, b, a] = op @ phi
    lap_phi = np.einsum("naa->n", hess)
    eigs = np.linalg.eigvalsh(hess)
    eta = np.sort(lap_phi[:, None] - eigs, axis=1)
    return FlatState(grid=grid, phi=phi, grad=grad, hess=hess,
                     lap_phi=lap_phi, eta_spectrum=eta,
                     pogorelov_beta=beta)


def flat_residual(state, f, k, form="raw"):
    """Per-interior-node sigma_k(eta spectrum) - f(x, phi, grad phi).

    With form "root" the defect is sigma_k^(1/k) - f^(1/k) instead.
    """
    if not 1 <= k <= state.grid.dim:
        raise ValueError(f"order k={k} outside [1, {state.grid.dim}]")
    sig = symm.require_cone_batch(state.eta_spectrum, k)[:, k]
    fv = f(state.grid.pts, state.phi, state.grad)
    if form == "root":
        return sig ** (1.0 / k) - fv ** (1.0 / k)
    return sig - fv


def flat_jacobian(state, f, k, form="raw"):
    """Analytic Jacobian of the flat residual map.

    The sigma_k sensitivity to the Hessian entries is the spectral
    coefficient matrix V diag(ctilde) V^T with ctilde_i the derivative of
    sigma_k of the eta spectrum in the i-th Hessian eigenvalue; the f
    dependence on phi and grad phi enters by finite differencing in those
    slots. With form "root" the two parts carry the chain factors of
    sigma_k^(1/k) and f^(1/k) respectively.
    """
    grid = state.grid
    dim = grid.dim
    eigs, vecs = np.linalg.eigh(state.hess)
    mu = state.lap_phi[:, None] - eigs
    ctil = symm.sigma_k_grad_kappa_batch(mu, k)
    coef = np.einsum("nij,nj,nkj->nik", vecs, ctil, vecs)

    j_sig = sum(sp.diags(coef[:, a, a]) @ grid.d2[a] for a in range(dim))
    for (a, b), op in grid.dmix.items():
        j_sig = j_sig + sp.diags(2.0 * coef[:, a, b]) @ op

    fphi, fgrad = fd_data_derivs(f, (grid.pts, state.phi, state.grad),
                                 ((1, True), (2, False)))
    j_f = sp.diags(fphi) + sum(
        sp.diags(fgrad[:, a]) @ grid.d1[a] for a in range(dim))

    if form == "root":
        sig = symm.elem_sym_all_batch(state.eta_spectrum)[:, k]
        fv = f(grid.pts, state.phi, state.grad)
        p = 1.0 / k
        j_sig = sp.diags(p * sig ** (p - 1.0)) @ j_sig
        j_f = sp.diags(p * fv ** (p - 1.0)) @ j_f
    elif form != "raw":
        raise ValueError(f"unknown residual form {form!r}")
    return (j_sig - j_f).tocsr()


def _initial_guess(grid, f, k):
    """Quadratic bowl scaled so its constant eta spectrum matches mean f.

    The bowl vanishes on the sphere through the domain boundary, which
    keeps the snapped zero-boundary stencils consistent with it.
    """
    dim = grid.dim
    r2 = np.einsum("ni,ni->n", grid.pts - grid.center,
                   grid.pts - grid.center)
    fbar = float(np.mean(f(grid.pts, np.zeros(grid.ninterior),
                           np.zeros((grid.ninterior, dim)))))
    fbar = max(fbar, 1e-8)
    c = (fbar / math.comb(dim, k)) ** (1.0 / k) / (dim - 1)
    return 0.5 * c * (r2 - grid.radius**2)


def dirichlet_solve(grid, f, k, config=None, phi0=None, beta=4.0):
    """Damped Newton with cone safeguarding under homogeneous Dirichlet data."""
    cfg = config or NewtonConfig()
    if phi0 is None:
        phi0 = _initial_guess(grid, f, k)

    fv0 = f(grid.pts, np.asarray(phi0, dtype=float),
            np.zeros((grid.ninterior, grid.dim)))
    if np.any(fv0 <= 0.0):
        raise PreconditionError(
            f"f must be positive; min sampled value {float(fv0.min()):.6g}")

    def res_fn(phi):
        state = build_flat_state(grid, phi, beta=beta)
        return flat_residual(state, f, k, form=cfg.form)

    def jac_fn(phi):
        if cfg.jacobian == "fd":
            return fd_jacobian(res_fn, phi)
        state = build_flat_state(grid, phi, beta=beta)
        return flat_jacobian(state, f, k, form=cfg.form)

    phi, report = damped_newton(phi0, res_fn, jac_fn, cfg)
    state = build_flat_state(grid, phi, beta=beta)
    return state, report


def pogorelov_monitor(state):
    """Max over interior nodes of (-phi)^beta * (lap phi).

    Nodes where phi > 0 (a maximum-principle violation on converged
    states) contribute zero; callers treat positivity as a diagnostic.
    """
    neg = np.maximum(-state.phi, 0.0)
    return float(np.max(neg**state.pogorelov_beta * state.lap_phi))


def flat_csv_text(state, residual_field):
    """Flat dump: coordinates, phi, laplacian, eta spectrum, residual, monitor."""
    grid = state.grid
    dim = grid.dim
    cols = [f"x{a}" for a in range(dim)]
    cols += ["phi", "lap_phi"]
    cols += [f"eta_lambda{i + 1}" for i in range(dim)]
    cols += ["residual", "pogorelov"]
    lines = [",".join(cols)]
    fmt = "{:.17g}".format
    neg = np.maximum(-state.phi, 0.0)
    pog = neg**state.pogorelov_beta * state.lap_phi
    for p in range(grid.ninterior):
        row = [fmt(v) for v in grid.pts[p]]
        row += [fmt(state.phi[p]), fmt(state.lap_phi[p])]
        row += [fmt(v) for v in state.eta_spectrum[p]]
        row += [fmt(residual_field[p]), fmt(pog[p])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
