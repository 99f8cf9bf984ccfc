"""Continuity-method solver for sigma_k(lambda(eta)) = f(X, nu).

The radial field rho is advanced by damped Newton steps inside a homotopy
that deforms a round-sphere problem (t = 0, exact solution rho = 1) into
the target data at t = 1:

    f^t(X, nu) = t f(X, nu)
                 + (1 - t) C(n,k) (n-1)^k [ |X|^-k + eps (|X|^-k - 1) ].

Admissibility of the data is checked first: the inner/outer barrier
inequalities on |X| = r1, r2 and the radial monotonicity of rho^k f.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, symm, verify
from .errors import (ConfigError, ContinuationStuck, NewtonDiverged,
                     PreconditionError)
from .newton import (NewtonConfig, damped_newton, fd_data_derivs, fd_jacobian,
                     solve_config)

__all__ = [
    "PrescribedData", "HomotopyRun", "ConditionsReport",
    "validate_conditions", "homotopy_f", "residual", "assemble_jacobian",
    "newton_solve", "continue_to_target",
]


@dataclass
class PrescribedData:
    """Right-hand side f(X, nu) with the barrier annulus [r1, r2].

    ``f`` maps position arrays (N, n+1) and unit directions (N, n+1) to
    positive scalars (N,); first derivatives are taken by finite
    differencing, so f must tolerate near-unit directions.
    """

    f: object
    r1: float
    r2: float

    def __post_init__(self):
        if not 0.0 < self.r1 < 1.0 < self.r2:
            raise ConfigError(
                f"barrier radii must satisfy 0 < r1 < 1 < r2, "
                f"got r1={self.r1}, r2={self.r2}"
            )


RHO_MARGIN = 0.1        # Newton iterates may leave [r1, r2] by this fraction
EASY_ITERS = 3          # grow dt after a Newton solve this cheap


@dataclass
class HomotopyRun:
    """Configuration and trace of one continuity-method solve."""

    epsilon: float = 0.01
    dt0: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.5
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    monitor_A: float = 2.0
    monitor_alpha: float = None    # default 2 * max|X|^2, set per state
    trace: list = field(default_factory=list)
    conditions: object = None      # ConditionsReport of the last solve

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ConfigError("homotopy epsilon must be positive")
        # With dt_min <= 0 the step halving never underflows, and with
        # dt0 <= 0 the homotopy never advances: both would loop forever.
        if not (self.dt_min > 0.0 and 0.0 < self.dt0 <= self.dt_max):
            raise ConfigError(
                "t_schedule must satisfy dt_min > 0 and 0 < dt0 <= dt_max, "
                f"got dt_min={self.dt_min}, dt0={self.dt0}, "
                f"dt_max={self.dt_max}")


@dataclass
class ConditionsReport:
    """Sampled margins for the barrier and monotonicity conditions."""

    passed: bool
    inner_margin: float        # min over |X| = r1 of f - threshold (want >= 0)
    outer_margin: float        # min over |X| = r2 of threshold - f (want >= 0)
    monotonicity_margin: float  # max of d/drho(rho^k f)     (want <= 0)
    zero_margin: bool          # monotonicity holds only with equality
    samples: int

    def as_dict(self):
        return {
            "passed": self.passed,
            "inner_margin": self.inner_margin,
            "outer_margin": self.outer_margin,
            "monotonicity_margin": self.monotonicity_margin,
            "zero_margin": self.zero_margin,
            "samples": self.samples,
        }


def _sample_directions(n, samples):
    """Deterministic direction sample on S^n in R^(n+1), axes included."""
    rng = np.random.default_rng(20240817)
    dirs = rng.standard_normal((samples, n + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    axes = np.vstack([np.eye(n + 1), -np.eye(n + 1)])
    return np.vstack([axes, dirs])


def validate_conditions(data, n, k, samples=64):
    """Report-only check of the barrier and monotonicity inequalities."""
    const = math.comb(n, k) * (n - 1) ** k
    dirs = _sample_directions(n, samples)

    inner = data.f(data.r1 * dirs, dirs) - const / data.r1**k
    outer = const / data.r2**k - data.f(data.r2 * dirs, dirs)

    # d/drho (rho^k f(rho w, nu)) over sample rays, central differences.
    nus = np.roll(dirs, 1, axis=0)           # decoupled direction sample
    rhos = np.linspace(data.r1, data.r2, 24)
    worst = -np.inf
    scale = 0.0
    for pair_nu in (dirs, nus):
        for r in rhos:
            dr = 1e-6 * r
            up = (r + dr) ** k * data.f((r + dr) * dirs, pair_nu)
            dn = (r - dr) ** k * data.f((r - dr) * dirs, pair_nu)
            deriv = (up - dn) / (2.0 * dr)
            worst = max(worst, float(deriv.max()))
            scale = max(scale, float(np.max(np.abs(up))))

    ztol = 1e-8 * (1.0 + scale)
    mono_ok = worst <= ztol
    inner_m = float(inner.min())
    outer_m = float(outer.min())
    passed = mono_ok and inner_m >= -1e-12 and outer_m >= -1e-12
    return ConditionsReport(
        passed=passed,
        inner_margin=inner_m,
        outer_margin=outer_m,
        monotonicity_margin=worst,
        zero_margin=bool(mono_ok and abs(worst) <= ztol),
        samples=dirs.shape[0],
    )


def homotopy_f(data, n, k, epsilon, t):
    """Blend the target data with the solvable round-sphere problem."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter t={t} outside [0, 1]")
    # The bracketed factor is decreasing in rho; positivity on [r1, r2]
    # is decided at r2.
    floor = (1.0 + epsilon) / data.r2**k - epsilon
    if floor <= 0.0:
        raise ConfigError(
            f"epsilon={epsilon} too large: homotopy factor reaches "
            f"{floor:.3g} at rho={data.r2}"
        )
    const = math.comb(n, k) * (n - 1) ** k
    target = data.f

    def blended(x, nu):
        r = np.linalg.norm(x, axis=-1)
        base = const * ((1.0 + epsilon) / r**k - epsilon)
        return t * target(x, nu) + (1.0 - t) * base

    return replace(data, f=blended)


def _eval_state(grid, rho, data, k, jet=None):
    """(jet, sigma_k field, f field); raises on cone exit or f <= 0."""
    if jet is None:
        jet = geometry.surface_jet(grid, rho)
    sig = geometry.sigma_k_of_eta(jet, k)
    fv = data.f(jet.X, jet.nu)
    if np.any(fv <= 0.0):
        raise PreconditionError(
            f"prescribed f must be positive; min sampled value "
            f"{float(fv.min()):.6g}"
        )
    return jet, sig, fv


def residual(grid, rho, data, k, form="raw", *, jet=None, fields=None):
    """Per-node defect sigma_k(lambda(eta)) - f(X, nu) (or its k-th-root form).

    ``jet`` is the SurfaceJet of rho when the caller has already built it.
    ``fields``, a dict, receives the sigma_k and f fields of rho under
    "sigma" and "f", which the root-form Jacobian at rho reuses.
    """
    if form not in ("raw", "root"):
        raise ValueError(f"unknown residual form {form!r}")
    _, sig, fv = _eval_state(grid, rho, data, k, jet)
    if fields is not None:
        fields.update(sigma=sig, f=fv)
    if form == "root":
        return sig ** (1.0 / k) - fv ** (1.0 / k)
    return sig - fv


def _jac_f_term(jet, data, dV, dW):
    """Jacobian data of f(X, nu): df = d_X f . dX + d_nu f . dnu, per slot.

    Slot s perturbs the normal numerator by dV[s] and its length w by
    dW[s]; slot 0 (the value of rho) also moves X along x. The data
    derivatives come from finite differences, taken only along the
    components where x, nu or some dV[s] is nonzero anywhere: the others
    enter every dot product as exact zeros (components 1..n-1 of an
    axisymmetric grid). With every component live the arrays are used
    as they are, since a column-indexed copy can make the dot products
    round differently.
    """
    x, nu, w = jet.raw["x"], jet.nu, jet.raw["w"]
    live = np.any(x != 0, axis=0) | np.any(nu != 0, axis=0)
    for dv in dV:
        live |= np.any(dv != 0, axis=0)
    cols = None
    if not live.all():
        cols = np.flatnonzero(live)
        x, nu, dV = x[:, cols], nu[:, cols], [dv[:, cols] for dv in dV]
    fx, fn = fd_data_derivs(data.f, (jet.X, jet.nu),
                            ((0, True), (1, False)), cols)
    coefs = []
    for s, dv in enumerate(dV):
        dnu = (dv - nu * dW[s][:, None]) / w[:, None]
        coef = np.einsum("nc,nc->n", fn, dnu)
        if s == 0:
            coef += np.einsum("nc,nc->n", fx, x)
        coefs.append(coef)
    return jet.grid.slots.accumulate(coefs)


def _inv2(a):
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    inv = np.empty_like(a)
    inv[:, 0, 0] = a[:, 1, 1]
    inv[:, 1, 1] = a[:, 0, 0]
    inv[:, 0, 1] = -a[:, 0, 1]
    inv[:, 1, 0] = -a[:, 1, 0]
    return inv / det[:, None, None], det


def _jac_full(grid, jet, data, k):
    """Jacobian data of the sigma_k and f parts on the lat-lon grid
    (n = 2, k in {1, 2})."""
    raw = jet.raw
    rho = jet.rho
    rt, rp = raw["rt"], raw["rp"]
    st, ct = raw["st"], raw["ct"]
    w = raw["w"]
    g, h = raw["g"], raw["h"]
    s_tt, s_tp, s_pp = raw["s_tt"], raw["s_tp"], raw["s_pp"]
    npts = rho.size

    ginv, detg = _inv2(g)
    if k == 1:
        # sigma_1 = tr(g^-1 h)
        m_h = ginv
        m_g = -np.einsum("nab,nbc,ncd->nad", ginv, h, ginv)
    else:
        # sigma_2 = det h / det g
        adjh = np.empty_like(h)
        adjh[:, 0, 0] = h[:, 1, 1]
        adjh[:, 1, 1] = h[:, 0, 0]
        adjh[:, 0, 1] = -h[:, 0, 1]
        adjh[:, 1, 0] = -h[:, 1, 0]
        deth = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        m_h = adjh / detg[:, None, None]
        m_g = -(deth / detg)[:, None, None] * ginv

    zeros = np.zeros(npts)

    def mat(a11, a12, a22):
        out = np.empty((npts, 2, 2))
        out[:, 0, 0] = a11
        out[:, 0, 1] = out[:, 1, 0] = a12
        out[:, 1, 1] = a22
        return out

    dg = {
        0: mat(2 * rho, zeros, 2 * rho * st**2),
        1: mat(2 * rt, rp, zeros),
        2: mat(zeros, rt, 2 * rp),
    }
    dT = {
        0: mat(2 * rho - s_tt, -s_tp, 2 * rho * st**2 - s_pp),
        1: mat(4 * rt, 2 * rp, -rho * st * ct),
        2: mat(zeros, 2 * rt + rho * ct / st, 4 * rp),
        3: mat(-rho, zeros, zeros),
        4: mat(zeros, -rho, zeros),
        5: mat(zeros, zeros, -rho),
    }
    dW = {0: rho / w, 1: rt / w, 2: rp / (st**2 * w)}

    coef_sig = {}
    for s in range(6):
        dh = dT[s].copy()
        if s in dW:
            dh -= h * dW[s][:, None, None]
        dh /= w[:, None, None]
        coef = np.einsum("nab,nab->n", m_h, dh)
        if s in dg:
            coef += np.einsum("nab,nab->n", m_g, dg[s])
        coef_sig[s] = coef

    j_sig = grid.slots.accumulate([coef_sig[s] for s in range(6)])
    dV = [raw["x"], -raw["e_t"], -raw["e_p"] / st[:, None] ** 2]
    return j_sig, _jac_f_term(jet, data, dV, dW)


def _jac_axisym(grid, jet, data, k):
    """Jacobian data of the sigma_k and f parts for the axisymmetric
    profile, any n >= 2."""
    raw = jet.raw
    n = grid.n
    rho = jet.rho
    rt, rtt = raw["rt"], raw["rtt"]
    st, ct = raw["st"], raw["ct"]
    w = raw["w"]
    kap_m, kap_p = raw["kap_m"], raw["kap_p"]
    npts = rho.size

    # Sensitivities of sigma_k(eta spectrum) to the unsorted curvatures.
    kap = np.empty((npts, n))
    kap[:, 0] = kap_m
    kap[:, 1:] = kap_p[:, None]
    mu = kap.sum(axis=1, keepdims=True) - kap
    ctil = symm.sigma_k_grad_kappa_batch(mu, k)
    cm, cp = ctil[:, 0], ctil[:, 1]

    num_m = rho**2 + 2 * rt**2 - rho * rtt
    cot = ct / st
    num_p = rho - rt * cot

    dkm = {
        0: (2 * rho - rtt) / w**3 - 3 * rho * num_m / w**5,
        1: 4 * rt / w**3 - 3 * rt * num_m / w**5,
        2: -rho / w**3,
    }
    d_rw_drho = w + rho**2 / w
    d_rw_drt = rho * rt / w
    dkp = {
        0: 1.0 / (rho * w) - num_p * d_rw_drho / (rho * w) ** 2,
        1: -cot / (rho * w) - num_p * d_rw_drt / (rho * w) ** 2,
    }

    coef_sig = {
        0: cm * dkm[0] + (n - 1) * cp * dkp[0],
        1: cm * dkm[1] + (n - 1) * cp * dkp[1],
        2: cm * dkm[2],
    }

    j_sig = grid.slots.accumulate([coef_sig[s] for s in range(3)])
    return j_sig, _jac_f_term(jet, data, [raw["x"], -raw["e_t"]],
                              [rho / w, rt / w])


def _combine_forms(j_sig, j_f, jet, data, k, form, fields):
    """Jacobian matrix from the data of its sigma_k and f parts."""
    slots = jet.grid.slots
    if form == "raw":
        return slots.matrix(j_sig - j_f)
    if form != "root":
        raise ValueError(f"unknown residual form {form!r}")
    if fields:
        sig, fv = fields["sigma"], fields["f"]
    else:
        sig = symm.elem_sym_all_batch(jet.eta)[:, k]
        fv = data.f(jet.X, jet.nu)
    p = 1.0 / k
    return slots.matrix(slots.row_scale(p * sig ** (p - 1.0)) * j_sig
                        - slots.row_scale(p * fv ** (p - 1.0)) * j_f)


def assemble_jacobian(grid, rho, data, k, form="raw", method="analytic", *,
                      jet=None, fields=None):
    """Jacobian of the residual map at rho.

    ``jet`` is the SurfaceJet of rho and ``fields`` the dict ``residual``
    filled at rho, when the caller has them already.
    """
    if method == "fd":
        return fd_jacobian(
            lambda r: residual(grid, r, data, k, form=form), rho, step=1e-7)
    if method != "analytic":
        raise ValueError(f"unknown Jacobian method {method!r}")
    if jet is None:
        jet = geometry.surface_jet(grid, rho)
    build = _jac_full if grid.mode == "full-2d" else _jac_axisym
    j_sig, j_f = build(grid, jet, data, k)
    return _combine_forms(j_sig, j_f, jet, data, k, form, fields)


def newton_solve(grid, rho0, data, k, config=None, *, last=None):
    """Damped Newton on the radial field with cone and range safeguards.

    ``last``, a list, ends up holding [rho, jet, fields] of the last
    residual evaluated; after a converged solve that rho is the returned
    array itself. The linear solves use the grid's LU order, and the
    tolerance is relative to max f at rho0 (max f^(1/k) in root form).
    """
    cfg = solve_config(config, grid.perm, k, lambda: last[2]["f"])
    lo = data.r1 * (1.0 - RHO_MARGIN)
    hi = data.r2 * (1.0 + RHO_MARGIN)

    # damped_newton asks for the Jacobian only at the iterate whose
    # residual it computed last, so the jet and fields built there are
    # reused.
    last = [] if last is None else last
    last[:] = None, None, None      # drops the previous solve's jet

    def res_fn(rho):
        last[:] = rho, geometry.surface_jet(grid, rho), {}
        return residual(grid, rho, data, k, form=cfg.form, jet=last[1],
                        fields=last[2])

    def jac_fn(rho):
        jet, fields = last[1:] if rho is last[0] else (None, None)
        return assemble_jacobian(grid, rho, data, k, form=cfg.form,
                                 method=cfg.jacobian, jet=jet, fields=fields)

    def check(rho):
        if np.any(rho <= 0.0):
            return "rho not positive"
        if rho.min() < lo or rho.max() > hi:
            return "rho outside barrier range"
        return None

    rho, report = damped_newton(rho0, res_fn, jac_fn, cfg,
                                candidate_check=check)
    return rho, report


def continue_to_target(grid, data, run, k):
    """March the homotopy from the round sphere at t = 0 to t = 1.

    Steps are halved on Newton failure and grown by 1.5x after cheap
    successes; monitors are recorded at every accepted t. The
    barrier/monotonicity report is kept in ``run.conditions``. Raises
    ContinuationStuck (with the partial trace and the NewtonReport of the
    last attempt) on step underflow and PreconditionError when that
    report fails.
    """
    n = grid.n
    conditions = validate_conditions(data, n, k)
    run.conditions = conditions
    if not conditions.passed:
        raise PreconditionError(
            "prescribed data fails the barrier/monotonicity conditions: "
            f"{conditions.as_dict()}"
        )
    run.trace.clear()

    rho = np.ones(grid.nnodes)
    t = 0.0
    dt = run.dt0
    last = []       # [rho, jet, fields] of newton_solve's last residual

    def accept(t_val, rho_val, data_t, report):
        jet = (last[1] if rho_val is last[0]
               else geometry.surface_jet(grid, rho_val))
        monitors = verify.estimate_report(
            jet, data_t, k, A=run.monitor_A, alpha=run.monitor_alpha
        )
        run.trace.append({
            "t": t_val,
            "newton_iterations": report.iterations,
            "max_residual": report.final_residual,
            "tol": report.tol,
            "monitors": monitors,
        })

    data0 = homotopy_f(data, n, k, run.epsilon, 0.0)
    rho, rep = newton_solve(grid, rho, data0, k, config=run.newton, last=last)
    accept(0.0, rho, data0, rep)

    while t < 1.0:
        t_try = min(1.0, t + dt)
        data_t = homotopy_f(data, n, k, run.epsilon, t_try)
        try:
            rho_new, rep = newton_solve(grid, rho, data_t, k,
                                        config=run.newton, last=last)
        except NewtonDiverged as exc:
            dt *= 0.5
            if dt < run.dt_min:
                raise ContinuationStuck(
                    f"homotopy step underflow below {run.dt_min} at t={t:.6g}",
                    trace=run.trace, last_rho=rho, report=exc.report,
                ) from exc
            continue
        rho = rho_new
        t = t_try
        accept(t, rho, data_t, rep)
        if rep.iterations <= EASY_ITERS:
            dt = min(dt * 1.5, run.dt_max)

    return rho, run
