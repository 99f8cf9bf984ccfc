"""Sphere discretization and radial-graph geometry.

Maps a positive radial field rho on a discretized unit sphere to the
per-node geometric data of the hypersurface X = rho(x) x: metric, second
fundamental form, outward normal, support function, principal curvatures
and the spectrum of the first Newton transformation.

Two grid modes:

* ``full-2d``  -- latitude-longitude grid on S^2 (n = 2 only), nodes offset
  half a cell from the poles, longitude periodic, across-pole reflection
  for the latitude stencils.
* ``axisym-1d`` -- rho depends on the polar angle only; valid for any
  n >= 2. The meridian curvature comes from the 1-d profile expressions
  and the (n-1) parallel curvatures from the profile slope.
"""

from dataclasses import dataclass, field
from math import pi

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .newton import MAX_NODES, SlotTable
from . import symm

__all__ = ["SphereGrid", "SurfaceJet", "build_grid", "surface_jet",
           "sigma_k_of_eta", "surface_csv_text"]

MODES = ("full-2d", "axisym-1d")


@dataclass
class SphereGrid:
    """Discretized S^n with its differentiation stencils."""

    n: int
    mode: str
    ntheta: int
    nphi: int
    theta: np.ndarray          # per-node polar angle
    phi: np.ndarray            # per-node longitude (zeros in axisym mode)
    ops: dict = field(repr=False)   # sparse differentiation matrices
    slots: SlotTable = field(repr=False)    # pattern of the Jacobians
    perm: np.ndarray = field(repr=False)    # their LU order, None in axisym

    @property
    def nnodes(self):
        return self.theta.size

    @property
    def spacing(self):
        """Largest angular grid spacing (the h of the error bounds)."""
        h = pi / self.ntheta
        if self.mode == "full-2d":
            h = max(h, 2.0 * pi / self.nphi)
        return h


def build_grid(n, mode, resolution):
    """Build a sphere grid of the given mode and resolution.

    ``resolution`` is (ntheta, nphi) for full-2d and an integer ntheta (or a
    one-element sequence) for axisym-1d. Nodes sit half a cell off the
    poles so no coordinate singularity is ever evaluated.
    """
    if n < 2:
        raise DomainError(
            "unsupported dimension n < 2: the Newton-transformation "
            "spectrum degenerates for curves"
        )
    if mode not in MODES:
        raise ValueError(f"unknown grid mode {mode!r}; expected one of {MODES}")
    full = mode == "full-2d"
    if full and n != 2:
        raise DomainError("full-2d grids are only defined for n = 2")
    sizes = np.atleast_1d(resolution)
    if sizes.shape != ((2,) if full else (1,)) or sizes.dtype.kind != "i":
        raise ValueError(f"{mode} needs {2 if full else 1} integer node "
                         f"count(s), got {resolution!r}")
    if min(sizes) < 8:
        raise ValueError("need at least 8 nodes per direction")
    ntheta, nphi = int(sizes[0]), (int(sizes[1]) if full else 1)
    if full and nphi % 2 != 0:
        raise ValueError("nphi must be even for the across-pole stencil")
    if ntheta * nphi > MAX_NODES:
        raise ValueError(f"{ntheta * nphi} grid nodes exceed {MAX_NODES}")

    dth = pi / ntheta
    dph = 2.0 * pi / nphi
    theta = np.repeat((np.arange(ntheta) + 0.5) * dth, nphi)
    phi = np.tile(np.arange(nphi) * dph, ntheta)
    ops = _build_ops(ntheta, nphi, dth, dph)
    # Jacobian slots: the value of rho, then t, p, tt, tp, pp as present.
    slots = SlotTable([sp.identity(theta.size, format="csr")]
                      + [ops[d] for d in ("t", "p", "tt", "tp", "pp")
                         if d in ops])
    # The axisym Jacobians are tridiagonal and need no fill-reducing order.
    perm = slots.min_degree_order() if full else None
    return SphereGrid(n=n, mode=mode, ntheta=ntheta, nphi=nphi,
                      theta=theta, phi=phi, ops=ops, slots=slots, perm=perm)


def _build_ops(ntheta, nphi, dth, dph):
    """Central second-order stencils on the lat-lon grid, node r = j*nphi + i.

    The ghost row past either pole is the same latitude row with the
    longitude shifted by half a period (the meridian continued through the
    pole), so the stencils stay second order without a pole node. With
    nphi = 1 (axisym-1d) the shift is zero and the ghost row is the even
    reflection of the profile; only the latitude stencils are built then.
    """
    nn = ntheta * nphi
    r = np.arange(nn)
    j, i = divmod(r, nphi)

    def nb(dj, di):
        jj = j + dj
        past = (jj < 0) | (jj >= ntheta)
        return (np.where(past, j, jj) * nphi
                + (i + di + past * (nphi // 2)) % nphi)

    def mk(cols, dat):
        # Row r holds its entries in the order given. In axisym-1d a pole
        # row's ghost column is the node itself; scipy sums the duplicates.
        return sp.csr_matrix(
            (np.tile(dat, nn), (np.repeat(r, len(cols)),
                                np.stack(cols, axis=1).ravel())),
            shape=(nn, nn))

    up, dn = nb(-1, 0), nb(1, 0)
    ops = {"t": mk([dn, up], [0.5 / dth, -0.5 / dth]),
           "tt": mk([dn, r, up], [1.0 / dth**2, -2.0 / dth**2, 1.0 / dth**2])}
    if nphi > 1:
        le, ri = nb(0, -1), nb(0, 1)
        ops["p"] = mk([ri, le], [0.5 / dph, -0.5 / dph])
        ops["pp"] = mk([ri, r, le],
                       [1.0 / dph**2, -2.0 / dph**2, 1.0 / dph**2])
        ops["tp"] = (ops["t"] @ ops["p"]).tocsr()
    return ops


@dataclass
class SurfaceJet:
    """Per-node geometric state of the radial graph X = rho x."""

    grid: SphereGrid
    rho: np.ndarray
    X: np.ndarray              # positions in R^(n+1)
    nu: np.ndarray             # unit outward normal
    u: np.ndarray              # support function <X, nu>
    u_closed: np.ndarray       # rho^2 / sqrt(rho^2 + |grad rho|^2)
    grad_norm: np.ndarray      # |grad rho| on S^n
    kappa: np.ndarray          # principal curvatures, sorted descending
    eta: np.ndarray            # Newton-transformation spectrum, ascending
    H: np.ndarray              # sum of principal curvatures
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def n(self):
        return self.grid.n


def surface_jet(grid, rho):
    """Evaluate the full geometric jet of the radial field on the grid."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.nnodes,):
        raise ValueError(f"rho must have shape ({grid.nnodes},)")
    ok = (rho > 0.0) & (rho < np.inf)
    if not ok.all():
        node = int(np.argmin(ok))
        raise DomainError(f"rho must be positive and finite; node {node} "
                          f"has rho = {rho[node]:.6g}")
    if grid.mode == "full-2d":
        return _jet_full(grid, rho)
    return _jet_axisym(grid, rho)


def _jet_full(grid, rho):
    th, ph = grid.theta, grid.phi
    st, ct = np.sin(th), np.cos(th)
    ops = grid.ops
    rt = ops["t"] @ rho
    rp = ops["p"] @ rho
    rtt = ops["tt"] @ rho
    rtp = ops["tp"] @ rho
    rpp = ops["pp"] @ rho

    # Covariant Hessian of rho on S^2 in (theta, phi) coordinates.
    s_tt = rtt
    s_tp = rtp - (ct / st) * rp
    s_pp = rpp + st * ct * rt

    gn2 = rt**2 + (rp / st) ** 2
    w = np.sqrt(rho**2 + gn2)

    nn = rho.size
    g, h = _fundamental_forms(rho, rt, rp, s_tt, s_tp, s_pp, st, w)

    cp, spn = np.cos(ph), np.sin(ph)
    x = np.stack([st * cp, st * spn, ct], axis=1)
    e_t = np.stack([ct * cp, ct * spn, -st], axis=1)
    e_p = np.stack([-st * spn, st * cp, np.zeros(nn)], axis=1)

    gradvec = rt[:, None] * e_t + (rp / st**2)[:, None] * e_p
    pos = rho[:, None] * x
    nu = (rho[:, None] * x - gradvec) / w[:, None]

    kappa = _principal_curvatures(g, h)
    raw = {"rt": rt, "rp": rp, "rtt": rtt, "rtp": rtp, "rpp": rpp,
           "s_tt": s_tt, "s_tp": s_tp, "s_pp": s_pp, "w": w,
           "st": st, "ct": ct, "x": x, "e_t": e_t, "e_p": e_p,
           "g": g, "h": h}
    return _finish_jet(grid, rho, pos, nu, np.sqrt(gn2), w, kappa, raw)


def _fundamental_forms(rho, rt, rp, s_tt, s_tp, s_pp, st, w):
    """Metric g and second fundamental form h per node, (N, 2, 2) each."""
    g = np.empty((rho.size, 2, 2))
    g[:, 0, 0] = rho**2 + rt**2
    g[:, 0, 1] = g[:, 1, 0] = rt * rp
    g[:, 1, 1] = rho**2 * st**2 + rp**2
    h = np.empty_like(g)
    h[:, 0, 0] = (rho**2 + 2 * rt**2 - rho * s_tt) / w
    h[:, 0, 1] = h[:, 1, 0] = (2 * rt * rp - rho * s_tp) / w
    h[:, 1, 1] = (rho**2 * st**2 + 2 * rp**2 - rho * s_pp) / w
    return g, h


def _jet_axisym(grid, rho):
    th = grid.theta
    st, ct = np.sin(th), np.cos(th)
    rt = grid.ops["t"] @ rho
    rtt = grid.ops["tt"] @ rho
    w = np.sqrt(rho**2 + rt**2)

    kap_m = (rho**2 + 2 * rt**2 - rho * rtt) / w**3
    kap_p = (rho - rt * ct / st) / (rho * w)

    n = grid.n
    nn = rho.size
    kappa = np.empty((nn, n))
    kappa[:, 0] = kap_m
    kappa[:, 1:] = kap_p[:, None]

    x = np.zeros((nn, n + 1))
    x[:, 0] = st
    x[:, n] = ct
    e_t = np.zeros((nn, n + 1))
    e_t[:, 0] = ct
    e_t[:, n] = -st
    pos = rho[:, None] * x
    nu = (rho[:, None] * x - rt[:, None] * e_t) / w[:, None]

    raw = {"rt": rt, "rtt": rtt, "w": w, "st": st, "ct": ct,
           "x": x, "e_t": e_t, "kap_m": kap_m, "kap_p": kap_p}
    return _finish_jet(grid, rho, pos, nu, np.abs(rt), w, kappa, raw)


def _principal_curvatures(g, h):
    """Eigenvalues of h relative to g per node, in closed form: g's LDL^T
    factor reduces h to [[a, b], [b, c]], whose eigenvalues (a+c)/2 +-
    hypot((a-c)/2, b) do not cancel at umbilics. g is positive definite
    wherever rho is positive and finite."""
    m = g[:, 0, 1] / g[:, 0, 0]
    d = g[:, 1, 1] - m * g[:, 0, 1]
    a = h[:, 0, 0] / g[:, 0, 0]
    b = (h[:, 0, 1] - m * h[:, 0, 0]) / np.sqrt(g[:, 0, 0] * d)
    c = (h[:, 1, 1] - m * (2 * h[:, 0, 1] - m * h[:, 0, 0])) / d
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    return np.stack([mid + rad, mid - rad], axis=1)


def _finish_jet(grid, rho, pos, nu, grad_norm, w, kappa, raw):
    kappa = np.sort(kappa, axis=1)[:, ::-1]      # descending
    hsum = kappa.sum(axis=1)
    eta = hsum[:, None] - kappa                  # ascending, paired with kappa
    u = np.einsum("ij,ij->i", pos, nu)
    u_closed = rho**2 / w
    return SurfaceJet(grid=grid, rho=rho, X=pos, nu=nu, u=u,
                      u_closed=u_closed, grad_norm=grad_norm,
                      kappa=kappa, eta=eta, H=hsum, raw=raw)


def sigma_k_of_eta(jet, k):
    """Per-node sigma_k of the Newton-transformation spectrum.

    Raises ConeViolationError naming the first offending node when the
    spectrum leaves the admissible cone anywhere.
    """
    if not 1 <= k <= jet.n:
        raise ValueError(f"order k={k} outside [1, {jet.n}]")
    return symm.require_cone_batch(jet.eta, k)[:, k]


def surface_csv_text(jet, k):
    """Surface dump: one CSV row per node, fixed column order."""
    sig = sigma_k_of_eta(jet, k)
    n = jet.n
    cols = ["node"]
    if jet.grid.mode == "full-2d":
        cols += ["theta", "phi"]
    else:
        cols += ["theta"]
    cols += ["rho"]
    cols += [f"X{c}" for c in range(n + 1)]
    cols += ["u"]
    cols += [f"kappa{i + 1}" for i in range(n)]
    cols += [f"eta_lambda{i + 1}" for i in range(n)]
    cols += ["sigma_k"]

    grid = jet.grid
    fields = [grid.theta, grid.phi] if grid.mode == "full-2d" else [grid.theta]
    fields += [jet.rho, *jet.X.T, jet.u, *jet.kappa.T, *jet.eta.T, sig]
    fmt = "{:.17g}".format
    rows = zip(map(str, range(grid.nnodes)),
               *(map(fmt, f.tolist()) for f in fields))
    return "\n".join([",".join(cols), *map(",".join, rows)]) + "\n"
