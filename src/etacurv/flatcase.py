"""Euclidean Dirichlet problem sigma_k(lambda((lap phi) I - D^2 phi)) = f.

The domain (unit ball or axis-aligned rectangle) is embedded in a uniform
Cartesian lattice; only interior nodes are unknowns and the homogeneous
boundary value is folded into the difference operators. Axis second and
first derivatives use unequal-arm 3-point stencils with the boundary arm
snapped to the domain boundary; mixed second derivatives come from the
rotated-diagonal identity phi_ab = (phi_dd - phi_ee)/2, with outside
diagonal neighbors closed by first-order linear extrapolation through the
snapped zero crossing. Newton needs no eigensolver: sigma_k of
M = (lap phi) I - D^2 phi and its derivative come from the trace recursion.

Every stencil reaches one lattice step along an axis or a plane diagonal,
so a lattice plane separates its two sides. The grid orders its unknowns
by nested dissection of the lattice, and the Jacobian is factored by a
multifrontal LU over that dissection's tree (``FrontalPlan``): a leaf of
at most 64 points or a separator plane is a front, factored by LAPACK's
dense kernels. The plan is built with the grid and knows the bytes of
its factors before any operator is assembled; a grid whose LU would take
more than MAX_LU_BYTES is refused. At h = 1/12 on the 3-d ball the dense
fronts hold 3.13 M doubles and take 9.6e8 flops, against SuperLU's
2.53 M L+U entries and 7.8e8 flops in the same order, but one-thread
``dgetrf`` reaches 26 GF/s at n = 450 and ``dgemm`` 63 GF/s at n = 600
where SuperLU runs at about 5 GF/s: the LU takes 90 ms against
SuperLU's 160 ms.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from . import symm
from .errors import DomainError
from .geometry import _csv_column
from .newton import (MAX_LU_BYTES, MAX_NODES, SlotTable, damped_newton,
                     fd_data_derivs, form_residual, solve_config)

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
    slots: SlotTable = field(repr=False)    # pattern of the Jacobian
    plan: object = field(repr=False)    # its multifrontal LU, a FrontalPlan

    @property
    def ninterior(self):
        return self.pts.shape[0]


def _rowdot(p, q):
    """Row-wise dot product of p (N, dim) with q (N, dim) or (dim,).

    The stacked matmul sums each row in the order of np.dot on that row,
    so distances and the inside test round exactly like a per-node dot.
    """
    return (p[:, None, :] @ q[..., None])[:, 0, 0]


def lattice_dissection(node):
    """Nested-dissection order of lattice points and its tree.

    ``node`` holds the points' integer lattice coordinates. Each cut
    splits a set of points at the median lattice plane across the longest
    axis of their bounding box, orders the points below the plane, then
    those above, then the plane itself, and recurses on both halves down
    to sets of at most 64 points, kept in their given order (George,
    Nested dissection of a regular finite element mesh, SIAM J. Numer.
    Anal. 10, 1973). A plane separates the halves of any stencil that
    reaches one lattice step along each axis.

    Returns the order, a permutation (new -> old) of the rows of
    ``node``, and the tree: the number of points of each leaf set or
    plane, in the order's postorder, and the index of the plane each one
    was split off by (-1 at the root).
    """
    order, sizes, parent = [], [], []

    def dissect(idx):
        """Orders idx; returns the index of its tree node."""
        if idx.size <= 64:
            order.append(idx)
        else:
            c = node[idx]
            col = c[:, np.argmax(c.max(axis=0) - c.min(axis=0))]
            mid = np.partition(col, col.size // 2)[col.size // 2]
            halves = (dissect(idx[col < mid]), dissect(idx[col > mid]))
            order.append(idx[col == mid])
            for h in halves:
                parent[h] = len(sizes)
        sizes.append(order[-1].size)
        parent.append(-1)
        return len(sizes) - 1

    dissect(np.arange(len(node)))
    return np.concatenate(order), np.array(sizes), np.array(parent)


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
    lattice = np.full(extent + 2, -1, dtype=np.int32)
    lattice[tuple(node.T)] = rows

    # Each front's own block is dense: refuse an LU whose own blocks alone
    # outgrow the limit before any more is built, and then one whose
    # factors do.
    def refuse_lu(doubles, least=""):
        if doubles * 8 > MAX_LU_BYTES:
            raise ValueError(f"LU of {ni} unknowns needs {least}"
                             f"{doubles * 8:.4g} bytes of factors, past the "
                             f"limit of {MAX_LU_BYTES}")

    # Only flat grids use the plan's module: the curved pipeline never
    # loads it.
    from ._multifrontal import FrontalPlan

    tree = lattice_dissection(node)
    refuse_lu(float(np.sum(tree[1].astype(float) ** 2)), "at least ")
    # The stencils couple each node to itself and to the nodes one lattice
    # step away along an axis or a plane diagonal: the Jacobian's pattern,
    # known before any operator is assembled. In lexicographic order of
    # the steps, a row's columns increase, and steps t and -1 - t mirror.
    axis = np.eye(dim, dtype=int)
    steps = np.array(sorted({(0,) * dim} | {
        tuple(sa * axis[a] + sb * axis[b])
        for a in range(dim) for b in range(dim)
        for sa in (-1, 1) for sb in ((0,) if a == b else (-1, 1))}))
    strides = np.array(lattice.strides) // lattice.itemsize
    table = lattice.ravel()[(node @ strides)[:, None] + steps @ strides]
    plan = FrontalPlan(*tree, table)
    refuse_lu(plan.storage)

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
            # The table's column of the step.
            col = table[:, np.flatnonzero((steps == sgn * step).all(1))[0]]
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

    # Jacobian slots: the Hessian operators, then those of grad phi and phi.
    slots = SlotTable(d2 + list(dmix.values()) + d1
                      + [sp.identity(ni, format="csr")])
    return DomainGrid(dim=dim, shape=shape, h=h, radius=rad, center=center,
                      pts=pts, d1=d1, d2=d2, dmix=dmix, slots=slots,
                      plan=plan)


@dataclass
class FlatState:
    """Scalar field on the domain grid with its difference jet."""

    grid: DomainGrid
    phi: np.ndarray
    grad: np.ndarray           # (Ni, dim)
    hess: np.ndarray           # (Ni, dim, dim)
    lap_phi: np.ndarray
    pogorelov_beta: float = 4.0

    @cached_property
    def eta_spectrum(self):
        """Ascending eigenvalues of (lap phi) I - D^2 phi, on first read."""
        eigs = np.linalg.eigvalsh(self.hess)
        return np.sort(self.lap_phi[:, None] - eigs, axis=1)


def build_flat_state(grid, phi, beta=4.0):
    """Differentiate phi to its gradient, Hessian and Laplacian fields."""
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
    return FlatState(grid=grid, phi=phi, grad=grad, hess=hess,
                     lap_phi=lap_phi, pogorelov_beta=beta)


def flat_residual(state, f, k, *, fields=None):
    """Per-interior-node defect sigma_k(M)^(1/k) - f^(1/k), with
    M = (lap phi) I - D^2 phi and f = f(x, phi, grad phi).

    Raises ConeViolationError at the first node and order where M leaves
    the cone, PreconditionError where f is not positive (NaN included).
    ``fields``, a dict, receives the sigma_k, f and Newton tensor T_(k-1)
    fields under "sigma", "f" and "tensor" for the Jacobian of the state.
    """
    if not 1 <= k <= state.grid.dim:
        raise ValueError(f"order k={k} outside [1, {state.grid.dim}]")
    m = state.lap_phi[:, None, None] * np.eye(state.grid.dim) - state.hess
    e, tensor = symm.newton_tensor_batch(m, k)
    sig = symm.require_cone_batch(e, k)[:, k]
    fv = f(state.grid.pts, state.phi, state.grad)
    if fields is not None:
        fields.update(sigma=sig, f=fv, tensor=tensor)
    return form_residual(sig, fv, k)


def flat_jacobian(state, f, k, *, fields=None):
    """Analytic Jacobian of the flat residual map.

    With T = T_(k-1)(M) the Newton tensor of M = (lap phi) I - D^2 phi,
    d sigma_k = tr(T dM) = tr(C dD^2 phi) for C = tr(T) I - T, whose
    entries weight the Hessian operators (a mixed one by C_ab + C_ba, as
    D^2 phi is symmetric); f enters by central differences, by
    1e-6 (1 + |phi|) in phi and 1e-6 along each gradient component. The two
    parts carry the chain factors of sigma_k^(1/k) and f^(1/k), at the
    fields of ``fields``, the dict ``flat_residual`` filled for this state;
    without it, ``flat_residual`` is called to fill one.
    """
    if not fields:
        fields = {}
        flat_residual(state, f, k, fields=fields)
    grid = state.grid
    dim = grid.dim
    t = fields["tensor"]
    trace = np.einsum("naa->n", t)

    slots = grid.slots
    nhess = dim + len(grid.dmix)
    j_sig = slots.accumulate([trace - t[:, a, a] for a in range(dim)] + [
        -t[:, a, b] - t[:, b, a] for a, b in grid.dmix])

    hphi = 1e-6 * (1.0 + np.abs(state.phi))
    steps = [((None, None, e), 1e-6) for e in 1e-6 * np.eye(dim)]
    steps.append(((None, hphi, None), hphi))
    derivs = fd_data_derivs(f, (grid.pts, state.phi, state.grad), steps)
    # sum_a f_(grad_a) d1[a] + f_phi: the gradient terms are summed first.
    j_f = slots.accumulate(derivs, slots=range(nhess, nhess + dim + 1))
    return slots.form_matrix(j_sig, j_f, fields["sigma"], fields["f"], k)


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

    The residual's state is the (FlatState, fields) pair it builds, from
    which the Jacobian of the same phi is assembled. The linear solves use
    the grid's LU order, and the tolerance is relative to max f^(1/k) at
    the initial guess, where f not positive raises PreconditionError.
    Returns the converged FlatState and the NewtonReport; ``fields``, a
    dict, receives its sigma_k and f fields under "sigma" and "f".
    """
    cfg = solve_config(config, grid.plan, k)

    def res_fn(phi):
        state = build_flat_state(grid, phi, beta=beta), {}
        return flat_residual(state[0], f, k, fields=state[1]), state

    def jac_fn(state):
        return flat_jacobian(state[0], f, k, fields=state[1])

    (state, state_fields), report = damped_newton(
        _initial_guess(grid, f, k), res_fn, jac_fn, cfg)
    if fields is not None:
        fields.update(state_fields)
    return state, report


def _pogorelov_field(state):
    """(-phi)^beta * (lap phi) per interior node; inf where it overflows."""
    neg = np.maximum(-state.phi, 0.0)
    with np.errstate(over="ignore"):
        return neg**state.pogorelov_beta * state.lap_phi


def pogorelov_monitor(state):
    """Max over interior nodes of (-phi)^beta * (lap phi), inf beyond the
    float range.

    Nodes where phi > 0 (a maximum-principle violation on converged
    states) contribute zero; callers treat positivity as a diagnostic.
    """
    return float(np.max(_pogorelov_field(state)))


def flat_csv_text(state, residual_field):
    """Flat dump: coordinates, phi, laplacian, eta spectrum, residual,
    monitor; floats as "{:.17g}", so the bytes depend on the values only."""
    grid = state.grid
    dim = grid.dim
    cols = [f"x{a}" for a in range(dim)]
    cols += ["phi", "lap_phi"]
    cols += [f"eta_lambda{i + 1}" for i in range(dim)]
    cols += ["residual", "pogorelov"]
    fields = [*grid.pts.T, state.phi, state.lap_phi, *state.eta_spectrum.T,
              residual_field, _pogorelov_field(state)]
    rows = zip(*map(_csv_column, fields))
    return "\n".join([",".join(cols), *map(",".join, rows)]) + "\n"
