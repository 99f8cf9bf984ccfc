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
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from . import symm
from .errors import DomainError, PreconditionError
from .newton import (MAX_NODES, NewtonConfig, SlotTable, damped_newton,
                     fd_data_derivs, fd_jacobian)

__all__ = [
    "DomainGrid", "FlatState", "build_flat_grid", "lattice_dissection",
    "build_flat_state", "flat_residual", "flat_jacobian", "dirichlet_solve",
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
    slots: SlotTable = field(repr=False)    # pattern of the Jacobian
    perm: np.ndarray = field(repr=False)    # its LU order (new -> old)

    @property
    def ninterior(self):
        return self.pts.shape[0]


def _rowdot(p, q):
    """Row-wise dot product of p (N, dim) with q (N, dim) or (dim,).

    The stacked matmul sums each row in the order of np.dot on that row,
    so distances and the inside test round exactly like a per-node dot.
    """
    return (p[:, None, :] @ q[..., None])[:, 0, 0]


def lattice_dissection(node, cuts=None):
    """Nested-dissection order of lattice points, as a permutation (new ->
    old) of the rows of ``node``, their integer lattice coordinates.

    Each cut splits a set of points at the median lattice plane across the
    longest axis of their bounding box, orders the points below the plane,
    then those above, then the plane itself, and recurses on both halves
    down to sets of at most 64 points, kept in their given order (George,
    Nested dissection of a regular finite element mesh, SIAM J. Numer.
    Anal. 10, 1973). A plane separates the halves of any stencil that
    reaches one lattice step along each axis. ``cuts``, a list, receives
    the index arrays (below, above) of every cut.
    """
    order = []

    def dissect(idx):
        if idx.size <= 64:
            order.append(idx)
            return
        c = node[idx]
        col = c[:, np.argmax(c.max(axis=0) - c.min(axis=0))]
        mid = np.partition(col, col.size // 2)[col.size // 2]
        below, above = idx[col < mid], idx[col > mid]
        if cuts is not None:
            cuts.append((below, above))
        dissect(below)
        dissect(above)
        order.append(idx[col == mid])

    dissect(np.arange(len(node)))
    return np.concatenate(order)


def _check_scale(far, h):
    """Refuse a domain reaching ``far`` from the origin at spacing h before
    any arithmetic overflows: coordinates are squared (distances, the
    circumradius) and divided by h into lattice indices, which must be
    exact in a float."""
    if not (far < 1e150 and far / 2**53 < h):
        raise ValueError(f"domain reaching {far:.4g} at h = {h:.4g} is out "
                         f"of range: need reach < 1e150 and reach / h < 2**53")


def build_flat_grid(dim, shape="ball", h=1.0 / 16, radius=1.0, bounds=None):
    """Lattice discretization of the domain with all difference operators."""
    if dim < 2:
        raise DomainError("flat domains need dimension >= 2")
    if h <= 0:
        raise ValueError("grid spacing h must be positive")

    if shape == "ball":
        if not 0 < radius < math.inf:
            raise ValueError("ball radius must be positive and finite")
        _check_scale(radius, h)
        half = np.floor(radius / h + 1e-12)
        kmin, kmax = np.full(dim, -half), np.full(dim, half)
        center, rad = np.zeros(dim), radius

        def inside(x):
            return _rowdot(x, x) < radius**2 - 1e-12

        def exit_dist(p, u):
            """Distances from the rows of p to |x| = radius along unit u."""
            b = _rowdot(p, u)
            return -b + np.sqrt(b * b + radius**2 - _rowdot(p, p))

    elif shape == "rect":
        if bounds is None:
            bounds = [(-1.0, 1.0)] * dim
        try:
            box = np.array(bounds, dtype=float)
        except (TypeError, ValueError):
            box = np.empty(0)
        if (box.shape != (dim, 2) or not np.all(np.isfinite(box))
                or not np.all(box[:, 0] < box[:, 1])):
            raise ValueError(f"bounds must be {dim} finite (lo, hi) pairs "
                             f"with lo < hi, got {bounds!r}")
        _check_scale(float(np.abs(box).max()), h)
        lo, hi = box[:, 0], box[:, 1]
        center = 0.5 * (lo + hi)
        rad = float(np.linalg.norm(hi - center))
        kmin = np.ceil(lo / h - 1e-12)
        kmax = np.floor(hi / h + 1e-12)

        def inside(x):
            return np.all(x > lo + 1e-12, axis=1) & np.all(x < hi - 1e-12,
                                                           axis=1)

        def exit_dist(p, u):
            """Distances from the rows of p to the rectangle along unit u."""
            move = np.abs(u) > 1e-15
            wall = np.where(u > 0, hi, lo)[move]
            return ((wall - p[:, move]) / u[move]).min(axis=1)

    else:
        raise ValueError(f"unknown domain shape {shape!r}")

    extent = kmax - kmin + 1
    box = math.prod(extent.tolist())    # in floats: a tiny h cannot overflow
    if not box <= MAX_NODES:
        raise ValueError(f"lattice box of {box:.4g} nodes exceeds {MAX_NODES}")
    kmin, extent = kmin.astype(int), extent.astype(int)
    # Lattice keys in lexicographic order; the unknowns are numbered in it.
    keys = np.indices(extent).reshape(dim, -1).T + kmin
    x = h * keys.astype(float)
    keep = inside(x)
    pts = x[keep]
    ni = len(pts)
    if ni == 0:
        raise ValueError("grid resolution too coarse: no interior nodes")
    # Dense index of the unknowns, padded by one layer of -1 so that every
    # lookup at a lattice step with entries in {-1, 0, 1} stays in bounds.
    node = keys[keep] - kmin + 1
    rows = np.arange(ni)
    lattice = np.full(extent + 2, -1)
    lattice[tuple(node.T)] = rows

    def arms(step):
        """Both arms of every node along the lattice direction ``step``.

        Returns the spacing ell = h|step| and, for the -step and +step side
        in turn, the neighbor's column (-1 outside the domain) and the arm
        length: ell, or the distance to the boundary where the neighbor is
        outside.
        """
        norm = np.linalg.norm(step)
        ell = h * norm
        out = []
        for sgn in (-1, 1):
            col = lattice[tuple((node + sgn * step).T)]
            out.append((col, np.where(col >= 0, ell,
                                      exit_dist(pts, sgn * step / norm))))
        return ell, out

    def mk(cols, dat):
        """CSR matrix from per-row columns and values; columns < 0 dropped."""
        on = cols >= 0
        return sp.csr_matrix(
            (dat[on], (np.broadcast_to(rows[:, None], cols.shape)[on],
                       cols[on])), shape=(ni, ni))

    def diag_op(step):
        """Uniform 3-point second derivative along a plane diagonal.

        An outside neighbor at distance d is closed by the first-order
        linear extrapolation through the node value and the zero boundary
        crossing, which folds onto the diagonal entry. Each row lists the
        diagonal, then the -step arm, then the +step arm, and scipy sums
        the repeated diagonal column in that order.
        """
        ell, sides = arms(step)
        cols, dat = [rows], [np.full(ni, -2.0 / ell**2)]
        for col, d in sides:
            cols.append(np.where(col >= 0, col, rows))
            dat.append(np.where(col >= 0, 1.0 / ell**2,
                                (1.0 - ell / d) / ell**2))
        return mk(np.stack(cols, axis=1), np.stack(dat, axis=1))

    axis = np.eye(dim, dtype=int)
    d1, d2 = [], []
    for a in range(dim):
        # Unequal-arm 3-point stencils along the axis with arms snapped to
        # the boundary; boundary values are zero so snapped arms contribute
        # no column.
        _, ((col_l, h_l), (col_r, h_r)) = arms(axis[a])
        cols = np.stack([col_l, rows, col_r], axis=1)
        d2.append(mk(cols, np.stack([2.0 / (h_l * (h_l + h_r)),
                                     -2.0 / (h_l * h_r),
                                     2.0 / (h_r * (h_l + h_r))], axis=1)))
        d1.append(mk(cols, np.stack([-h_r / (h_l * (h_l + h_r)),
                                     (h_r - h_l) / (h_l * h_r),
                                     h_l / (h_r * (h_l + h_r))], axis=1)))

    dmix = {}
    for a, b in combinations(range(dim), 2):
        dpp = diag_op(axis[a] + axis[b])
        dpm = diag_op(axis[a] - axis[b])
        dmix[(a, b)] = ((dpp - dpm) * 0.5).tocsr()

    lap = sum(d2).tocsr()
    # Jacobian slots: the Hessian operators, then those of grad phi and phi.
    slots = SlotTable(d2 + list(dmix.values()) + d1
                      + [sp.identity(ni, format="csr")])
    return DomainGrid(dim=dim, shape=shape, h=h, radius=rad, center=center,
                      pts=pts, d1=d1, d2=d2, dmix=dmix, lap=lap, slots=slots,
                      perm=lattice_dissection(node))


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


def flat_residual(state, f, k, form="raw", *, fields=None):
    """Per-interior-node sigma_k(eta spectrum) - f(x, phi, grad phi).

    With form "root" the defect is sigma_k^(1/k) - f^(1/k) instead.
    ``fields``, a dict, receives the sigma_k and f fields under "sigma"
    and "f", which the root-form Jacobian of the same state reuses.
    """
    if not 1 <= k <= state.grid.dim:
        raise ValueError(f"order k={k} outside [1, {state.grid.dim}]")
    if form not in ("raw", "root"):
        raise ValueError(f"unknown residual form {form!r}")
    sig = symm.require_cone_batch(state.eta_spectrum, k)[:, k]
    fv = f(state.grid.pts, state.phi, state.grad)
    if fields is not None:
        fields.update(sigma=sig, f=fv)
    if form == "root":
        return sig ** (1.0 / k) - fv ** (1.0 / k)
    return sig - fv


def flat_jacobian(state, f, k, form="raw", *, fields=None):
    """Analytic Jacobian of the flat residual map.

    The sigma_k sensitivity to the Hessian entries is the spectral
    coefficient matrix V diag(ctilde) V^T with ctilde_i the derivative of
    sigma_k of the eta spectrum in the i-th Hessian eigenvalue; the f
    dependence on phi and grad phi enters by finite differencing in those
    slots. With form "root" the two parts carry the chain factors of
    sigma_k^(1/k) and f^(1/k) respectively, taken from ``fields`` (filled
    by ``flat_residual`` for this state) when given.
    """
    grid = state.grid
    dim = grid.dim
    eigs, vecs = np.linalg.eigh(state.hess)
    mu = state.lap_phi[:, None] - eigs
    ctil = symm.sigma_k_grad_kappa_batch(mu, k)
    coef = np.einsum("nij,nj,nkj->nik", vecs, ctil, vecs)

    slots = grid.slots
    nhess = dim + len(grid.dmix)
    j_sig = slots.accumulate([coef[:, a, a] for a in range(dim)]
                             + [2.0 * coef[:, a, b] for a, b in grid.dmix])

    fphi, fgrad = fd_data_derivs(f, (grid.pts, state.phi, state.grad),
                                 ((1, True), (2, False)))
    # f_phi + sum_a f_(grad_a) d1[a]: the gradient terms are summed first.
    j_f = slots.accumulate([*fgrad.T, fphi],
                           slots=range(nhess, nhess + dim + 1))

    if form == "root":
        if fields:
            sig, fv = fields["sigma"], fields["f"]
        else:
            sig = symm.elem_sym_all_batch(state.eta_spectrum)[:, k]
            fv = f(grid.pts, state.phi, state.grad)
        p = 1.0 / k
        j_sig = slots.row_scale(p * sig ** (p - 1.0)) * j_sig
        j_f = slots.row_scale(p * fv ** (p - 1.0)) * j_f
    elif form != "raw":
        raise ValueError(f"unknown residual form {form!r}")
    return slots.matrix(j_sig - j_f)


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


def dirichlet_solve(grid, f, k, config=None, beta=4.0, *, fields=None):
    """Damped Newton with cone safeguarding under homogeneous Dirichlet data.

    The linear solves use the grid's LU order. ``fields``, a dict,
    receives the sigma_k and f fields of the returned state under "sigma"
    and "f", from its last residual evaluation.
    """
    cfg = replace(config or NewtonConfig(), perm=grid.perm)
    phi0 = _initial_guess(grid, f, k)

    fv0 = f(grid.pts, phi0, np.zeros((grid.ninterior, grid.dim)))
    if np.any(fv0 <= 0.0):
        raise PreconditionError(
            f"f must be positive; min sampled value {float(fv0.min()):.6g}")

    # damped_newton asks for the Jacobian only at the iterate whose
    # residual it computed last, and returns that iterate, so the state
    # and fields built there are reused.
    last = [None, None, None]

    def state_of(phi):
        if phi is last[0]:
            return last[1:]
        return build_flat_state(grid, phi, beta=beta), None

    def res_fn(phi):
        last[:] = phi, build_flat_state(grid, phi, beta=beta), {}
        return flat_residual(last[1], f, k, form=cfg.form, fields=last[2])

    def jac_fn(phi):
        if cfg.jacobian == "fd":
            return fd_jacobian(res_fn, phi)
        state, fields = state_of(phi)
        return flat_jacobian(state, f, k, form=cfg.form, fields=fields)

    phi, report = damped_newton(phi0, res_fn, jac_fn, cfg)
    state, last_fields = state_of(phi)
    if fields is not None:
        fields.update(last_fields)
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
    fmt = "{:.17g}".format
    neg = np.maximum(-state.phi, 0.0)
    pog = neg**state.pogorelov_beta * state.lap_phi
    fields = [*grid.pts.T, state.phi, state.lap_phi, *state.eta_spectrum.T,
              np.asarray(residual_field), pog]
    rows = zip(*(map(fmt, f.tolist()) for f in fields))
    return "\n".join([",".join(cols), *map(",".join, rows)]) + "\n"
