"""Continuity-method solver for sigma_k(lambda(eta)) = f(X, nu).

The radial field rho is advanced by damped Newton steps inside a homotopy
that deforms a round-sphere problem (t = 0, exact solution rho = 1) into
the target data at t = 1:

    f^t(X, nu) = t f(X, nu)
                 + (1 - t) C(n,k) (n-1)^k [ |X|^-k + eps (|X|^-k - 1) ].

Admissibility of the data is checked first: the inner/outer barrier
inequalities on |X| = r1, r2 and the radial monotonicity of rho^k f.
"""

import functools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import geometry, symm, verify
from .errors import (ConfigError, ContinuationStuck, NewtonDiverged,
                     PreconditionError)
from .newton import (NewtonConfig, damped_newton, fd_data_derivs,
                     form_residual, solve_config)

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
    differencing, so f must tolerate near-unit directions. f is called on
    stacked row arrays of any length and must act row by row.
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
# Grow dt after a Newton solve with at most this many LUs (for exact
# Newton, one per iteration).
EASY_FACTORIZATIONS = 3
# Random directions validate_conditions samples, besides the 2(n + 1) axes.
CONDITION_SAMPLES = 64


@dataclass
class HomotopyRun:
    """Continuity-method settings and trace; by default the first attempt
    after t = 0 is the target t = 1, and a failed attempt halves dt."""

    epsilon: float = 0.01
    dt0: float = None              # first step, default dt_max
    dt_min: float = 1e-4
    dt_max: float = 1.0
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    trace: list = field(default_factory=list)
    conditions: object = None      # ConditionsReport of the last solve
    # The monitors' proof constants: verify.estimate_report's defaults,
    # fixed rather than settings.
    monitor_A = 2.0
    monitor_alpha = None           # 2 * max|X|^2, set per state

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ConfigError("homotopy epsilon must be positive")
        self.dt0 = self.dt_max if self.dt0 is None else self.dt0
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
        return asdict(self)


@functools.cache
def _sample_directions(n, samples):
    """Deterministic direction sample on S^n in R^(n+1), axes included;
    made once per (n, samples) and read-only."""
    rng = np.random.default_rng(20240817)
    dirs = rng.standard_normal((samples, n + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    axes = np.vstack([np.eye(n + 1), -np.eye(n + 1)])
    out = np.vstack([axes, dirs])
    out.setflags(write=False)
    return out


def _sphere_sigma_k(data, n, k):
    """sigma_k of the unit sphere's eta spectrum, C(n,k) (n-1)^k, a float.

    ConfigError if it, or its value C(n,k) (n-1)^k / r^k on the sphere of
    radius r = r1 or r2, leaves the float range; the powers r^k that the
    barrier and homotopy terms form are then finite and nonzero.
    """
    try:
        const = float(math.comb(n, k) * (n - 1) ** k)
    except OverflowError:
        raise ConfigError(f"n={n}, k={k}: C(n,k) (n-1)^k exceeds the float "
                          f"range") from None
    for key in ("r1", "r2"):
        r = getattr(data, key)
        with np.errstate(all="ignore"):
            scaled = const / np.float64(r) ** k
        if not 0.0 < scaled < math.inf:
            raise ConfigError(f"key '{key}' = {r:g}: C(n,k) (n-1)^k / "
                              f"{key}^k leaves the float range at n={n}, "
                              f"k={k}")
    return const


def validate_conditions(data, n, k):
    """Report-only check of the barrier and monotonicity inequalities.

    Fails where a sampled value of f, a difference quotient or the scale
    is not finite (f overflowed or is NaN): the inequality was not checked
    there, and its margin may be NaN or infinite.
    """
    const = _sphere_sigma_k(data, n, k)
    dirs = _sample_directions(n, CONDITION_SAMPLES)

    # d/drho (rho^k f(rho w, nu)) over sample rays, central differences with
    # one call of f per side for all radii: both sides at once use 2x memory.
    def rho_k_f(radii, nu):
        x = (radii[:, None, None] * dirs).reshape(-1, n + 1)
        powers = np.array([r**k for r in radii])[:, None]
        return powers * data.f(x, nu).reshape(radii.size, -1)

    nus = np.roll(dirs, 1, axis=0)           # decoupled direction sample
    rhos = np.linspace(data.r1, data.r2, 24)
    dr = 1e-6 * rhos
    ups, derivs = [], []
    # Overflow to inf and inf - inf = NaN are caught below, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        inner = data.f(data.r1 * dirs, dirs) - const / data.r1**k
        outer = const / data.r2**k - data.f(data.r2 * dirs, dirs)
        for pair_nu in (dirs, nus):
            nu = np.tile(pair_nu, (rhos.size, 1))
            up, dn = rho_k_f(rhos + dr, nu), rho_k_f(rhos - dr, nu)
            ups.append(up)
            derivs.append((up - dn) / (2.0 * dr[:, None]))
        worst = float(np.max(derivs))
        scale = float(np.max(np.abs(ups)))

    checked = all(np.isfinite(a).all() for a in (inner, outer, derivs, scale))
    ztol = 1e-8 * (1.0 + scale)
    mono_ok = checked and worst <= ztol
    inner_m, outer_m = float(inner.min()), float(outer.min())
    return ConditionsReport(
        passed=mono_ok and inner_m >= -1e-12 and outer_m >= -1e-12,
        inner_margin=inner_m, outer_margin=outer_m,
        monotonicity_margin=worst,
        zero_margin=bool(mono_ok and abs(worst) <= ztol),
        samples=dirs.shape[0])


def homotopy_f(data, n, k, epsilon, t):
    """Blend the target data with the solvable round-sphere problem; at
    t = 1 that is ``data`` itself, once t and epsilon are checked."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter t={t} outside [0, 1]")
    const = _sphere_sigma_k(data, n, k)
    # The bracketed factor is decreasing in rho; positivity on [r1, r2]
    # is decided at r2. Newton iterates may go past r2 by RHO_MARGIN, where
    # the factor can be negative: a trial iterate whose blended data is not
    # positive there is inadmissible (see damped_newton).
    floor = (1.0 + epsilon) / data.r2**k - epsilon
    if floor <= 0.0:
        raise ConfigError(
            f"epsilon={epsilon} too large: homotopy factor reaches "
            f"{floor:.3g} at rho={data.r2}"
        )
    if t == 1.0:
        return data
    target = data.f

    def blended(x, nu):
        r = np.linalg.norm(x, axis=-1)
        base = const * ((1.0 + epsilon) / r**k - epsilon)
        return t * target(x, nu) + (1.0 - t) * base

    return replace(data, f=blended)


def residual(grid, rho, data, k, *, jet=None, fields=None):
    """Per-node defect sigma_k(lambda(eta))^(1/k) - f(X, nu)^(1/k); raises
    on a cone exit and where f is not positive (NaN included).

    ``jet`` is the SurfaceJet of rho when the caller has already built it.
    ``fields``, a dict, receives the sigma_k and f fields of rho under
    "sigma" and "f", which the Jacobian at rho reuses.
    """
    if jet is None:
        jet = geometry.surface_jet(grid, rho)
    sig = geometry.sigma_k_of_eta(jet, k)
    fv = data.f(jet.X, jet.nu)
    if fields is not None:
        fields.update(sigma=sig, f=fv)
    return form_residual(sig, fv, k)


def _jac_f_term(jet, data, dV, dW):
    """Jacobian data of f(X, nu): df = d_X f . dX + d_nu f . dnu, per slot.

    Slot s perturbs the normal numerator by dV[s] and its length w by
    dW[s], so nu by dnu_s = (dV[s] - nu dW[s]) / w; slot 0 (the value of
    rho) also moves X by dX_0 = x. Each slot's coefficient is one central
    difference of f along (dX_s, dnu_s), with the per-node step
    eps_s = 1e-6 / max(|dnu_s|, |dX_s| / (1 + |X|)): X moves by at most
    1e-6 (1 + |X|) and nu by at most 1e-6.
    """
    x, nu, w = jet.raw["x"], jet.nu, jet.raw["w"]
    xsize = 1.0 / (1.0 + jet.rho)       # |x| = 1 and |X| = rho
    steps = []
    for s, dv in enumerate(dV):
        dnu = (dv - nu * dW[s][:, None]) / w[:, None]
        size = np.linalg.norm(dnu, axis=1)
        eps = 1e-6 / (np.maximum(size, xsize) if s == 0 else size)
        dx = x * eps[:, None] if s == 0 else None
        steps.append(((dx, dnu * eps[:, None]), eps))
    return jet.grid.slots.accumulate(
        fd_data_derivs(data.f, (jet.X, jet.nu), steps))


def _inv2(a):
    """Inverses of stacked 2x2 matrices: the adjugate over the determinant."""
    adj = np.empty_like(a)
    adj[:, 0, 0] = a[:, 1, 1]
    adj[:, 1, 1] = a[:, 0, 0]
    adj[:, 0, 1] = -a[:, 0, 1]
    adj[:, 1, 0] = -a[:, 1, 0]
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    return adj / det[:, None, None]


def _jac_full(grid, jet, data, k):
    """Jacobian data of the sigma_k and f parts on the lat-lon grid (n = 2).

    The eta spectrum is that of H I - A, with A = g^-1 h the shape
    operator, so d sigma_k = tr(C dA) for C = tr(T) I - T and T the Newton
    tensor T_(k-1)(H I - A), as in flatcase.flat_jacobian. With
    dA = g^-1 dh - g^-1 dg A, the coefficients of dh and dg are
    m_h = C g^-1 and m_g = -A m_h. Slot s (rho, then its t, p, tt, tp
    and pp differences) moves g by dg_s and h = N / w by
    dh_s = (dN_s - h dW_s) / w, N being h's numerator in
    geometry._fundamental_forms. dg_s and dN_s are symmetric, so each
    slot's coefficient is m00 d00 + (m01 + m10) d01 + m11 d11 written out,
    and q = <m_h, h> carries the dW terms.
    """
    raw = jet.raw
    rho = jet.rho
    rt, rp = raw["rt"], raw["rp"]
    st, ct = raw["st"], raw["ct"]
    w = raw["w"]
    g, h = raw["g"], raw["h"]
    s_tt, s_tp, s_pp = raw["s_tt"], raw["s_tp"], raw["s_pp"]

    eye = np.eye(2)
    ginv = _inv2(g)
    a = ginv @ h
    _, t = symm.newton_tensor_batch(
        np.einsum("naa->n", a)[:, None, None] * eye - a, k)
    m_h = (np.einsum("naa->n", t)[:, None, None] * eye - t) @ ginv
    m_g = -a @ m_h

    h00, h11, h01 = m_h[:, 0, 0], m_h[:, 1, 1], m_h[:, 0, 1] + m_h[:, 1, 0]
    g00, g11, g01 = m_g[:, 0, 0], m_g[:, 1, 1], m_g[:, 0, 1] + m_g[:, 1, 0]
    q = np.einsum("nab,nab->n", m_h, h)
    st2 = st**2
    dW = [rho / w, rt / w, rp / (st2 * w)]
    coefs = [
        (h00 * (2 * rho - s_tt) - h01 * s_tp + h11 * (2 * rho * st2 - s_pp)
         - q * dW[0]) / w + 2 * rho * (g00 + g11 * st2),
        (4 * rt * h00 + 2 * rp * h01 - rho * st * ct * h11 - q * dW[1]) / w
        + 2 * rt * g00 + rp * g01,
        ((2 * rt + rho * ct / st) * h01 + 4 * rp * h11 - q * dW[2]) / w
        + rt * g01 + 2 * rp * g11,
        -rho * h00 / w, -rho * h01 / w, -rho * h11 / w,
    ]
    dV = [raw["x"], -raw["e_t"], -raw["e_p"] / st2[:, None]]
    return grid.slots.accumulate(coefs), _jac_f_term(jet, data, dV, dW)


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

    # Sensitivities of sigma_k(eta spectrum) to the unsorted curvatures,
    # sum_(j != i) sigma_(k-1)(mu | j) with mu = H - kappa.
    kap = np.empty((npts, n))
    kap[:, 0] = kap_m
    kap[:, 1:] = kap_p[:, None]
    s = symm.sigma_excl_batch(kap.sum(axis=1, keepdims=True) - kap, k - 1)
    cm, cp = (s.sum(axis=1, keepdims=True) - s)[:, :2].T

    # Slots rho, rt, rtt: kap_m = num_m / w^3 and kap_p = num_p / (rho w)
    # move with all three and with the first two.
    num_m = rho**2 + 2 * rt**2 - rho * rtt
    cot = ct / st
    num_p = rho - rt * cot
    d_rw_drho = w + rho**2 / w
    d_rw_drt = rho * rt / w
    coefs = [
        cm * ((2 * rho - rtt) / w**3 - 3 * rho * num_m / w**5)
        + (n - 1) * cp * (1.0 / (rho * w)
                          - num_p * d_rw_drho / (rho * w) ** 2),
        cm * (4 * rt / w**3 - 3 * rt * num_m / w**5)
        + (n - 1) * cp * (-cot / (rho * w)
                          - num_p * d_rw_drt / (rho * w) ** 2),
        cm * (-rho / w**3),
    ]
    return grid.slots.accumulate(coefs), _jac_f_term(
        jet, data, [raw["x"], -raw["e_t"]], [rho / w, rt / w])


def assemble_jacobian(grid, rho, data, k, *, jet=None, fields=None):
    """Jacobian of the residual map at rho.

    ``jet`` is the SurfaceJet of rho and ``fields`` the dict ``residual``
    filled at rho, when the caller has them already; without fields,
    ``residual`` is called to fill them.
    """
    if jet is None:
        jet = geometry.surface_jet(grid, rho)
    if not fields:
        fields = {}
        residual(grid, rho, data, k, jet=jet, fields=fields)
    build = _jac_full if grid.mode == "full-2d" else _jac_axisym
    j_sig, j_f = build(grid, jet, data, k)
    return grid.slots.form_matrix(j_sig, j_f, fields["sigma"], fields["f"], k)


def newton_solve(grid, rho0, data, k, config=None):
    """Damped Newton on the radial field with cone and range safeguards.

    Returns the SurfaceJet of the converged rho and the NewtonReport. The
    residual's state is the (jet, fields) pair it builds, from which the
    Jacobian at the same rho is assembled. The linear solves use the
    grid's LU plan, and the tolerance is relative to max f^(1/k) at rho0.
    Raises PreconditionError if f is not positive at rho0; a trial iterate
    where it is not positive is inadmissible.
    """
    cfg = solve_config(config, grid.plan, k)
    lo = data.r1 * (1.0 - RHO_MARGIN)
    hi = data.r2 * (1.0 + RHO_MARGIN)

    def res_fn(rho):
        jet, fields = geometry.surface_jet(grid, rho), {}
        return (residual(grid, rho, data, k, jet=jet, fields=fields),
                (jet, fields))

    def jac_fn(state):
        jet, fields = state
        return assemble_jacobian(grid, jet.rho, data, k, jet=jet,
                                 fields=fields)

    def check(rho):     # lo > 0: a rho not positive is below it
        return rho.min() < lo or rho.max() > hi

    (jet, _), report = damped_newton(rho0, res_fn, jac_fn, cfg,
                                     candidate_check=check)
    return jet, report


def continue_to_target(grid, data, run, k):
    """March the homotopy from the round sphere at t = 0 to t = 1.

    The first attempt is t = dt0 (default 1); steps are halved on Newton
    failure and grown by 1.5x after cheap successes; monitors are
    recorded at every accepted t. The barrier/monotonicity report is kept
    in ``run.conditions``. Raises ContinuationStuck (with the partial
    trace, and the NewtonReport and message of the last attempt) on step
    underflow and PreconditionError when that report fails.
    """
    n = grid.n
    run.conditions = conditions = validate_conditions(data, n, k)
    if not conditions.passed:
        raise PreconditionError(
            "prescribed data fails the barrier/monotonicity conditions: "
            f"{conditions.as_dict()}"
        )
    run.trace.clear()

    t, dt = 0.0, run.dt0

    def solve_at(t_val, rho0):
        """Newton at t_val from rho0; records the solve with the monitors
        of its jet, and returns its rho and NewtonReport."""
        data_t = homotopy_f(data, n, k, run.epsilon, t_val)
        jet, report = newton_solve(grid, rho0, data_t, k, config=run.newton)
        monitors = verify.estimate_report(jet, data_t, k)
        run.trace.append({
            "t": t_val,
            "newton_iterations": report.iterations,
            "newton_factorizations": report.factorizations,
            "max_residual": report.final_residual,
            "tol": report.tol,
            "monitors": monitors,
        })
        return jet.rho, report

    rho, _ = solve_at(0.0, np.ones(grid.nnodes))
    while t < 1.0:
        t_try = min(1.0, t + dt)
        try:
            rho, rep = solve_at(t_try, rho)
        except NewtonDiverged as exc:
            dt *= 0.5
            if dt < run.dt_min:
                raise ContinuationStuck(
                    f"homotopy step underflow below {run.dt_min} at "
                    f"t={t:.6g}: {exc}",
                    trace=run.trace, last_rho=rho, report=exc.report,
                ) from exc
            continue
        t = t_try
        if rep.factorizations <= EASY_FACTORIZATIONS:
            dt = min(dt * 1.5, run.dt_max)

    return rho, run
