"""Tests for the continuity-method solver and the damped Newton core."""

import hashlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from etacurv import geometry, newton, solver
from etacurv.errors import (ConeExit, ConfigError, ContinuationStuck,
                            NewtonDiverged, PreconditionError)
from etacurv.newton import (NewtonConfig, SuperLUPlan, damped_newton,
                            fd_data_derivs)
from fd_oracle import component_derivs, f_term_oracle, fd_jacobian


def power_decay(c, p):
    return lambda x, nu: c * np.linalg.norm(x, axis=-1) ** (-p)


def aniso(c, p, delta, axis=-1):
    return lambda x, nu: (c * (1.0 + delta * nu[..., axis])
                          * np.linalg.norm(x, axis=-1) ** (-p))


@pytest.fixture
def round_data():
    return solver.PrescribedData(f=power_decay(1.25, 3), r1=0.5, r2=2.0)


class TestPrescribedData:
    def test_bad_radii(self):
        with pytest.raises(ConfigError):
            solver.PrescribedData(f=power_decay(1, 3), r1=1.5, r2=2.0)
        with pytest.raises(ConfigError):
            solver.PrescribedData(f=power_decay(1, 3), r1=0.5, r2=0.9)


class TestValidateConditions:
    def test_power_decay_passes(self, round_data):
        rep = solver.validate_conditions(round_data, 2, 2)
        assert rep.passed
        assert rep.monotonicity_margin < 0
        assert not rep.zero_margin
        assert rep.inner_margin >= 0 and rep.outer_margin >= 0

    def test_constant_fails_monotonicity(self):
        const = math.comb(2, 2) * 1.0
        data = solver.PrescribedData(
            f=lambda x, nu: np.full(x.shape[:-1], const), r1=0.5, r2=2.0)
        rep = solver.validate_conditions(data, 2, 2)
        assert not rep.passed
        assert rep.monotonicity_margin > 0

    def test_critical_decay_zero_margin(self):
        # rho^k * f constant in rho: boundary case passes with zero margin
        n, k = 3, 2
        const = math.comb(n, k) * (n - 1) ** k
        data = solver.PrescribedData(f=power_decay(const, k),
                                     r1=0.5, r2=2.0)
        rep = solver.validate_conditions(data, n, k)
        assert rep.passed
        assert rep.zero_margin

    def test_anisotropic_passes(self):
        data = solver.PrescribedData(f=aniso(1.25, 3, 0.2), r1=0.5, r2=2.0)
        rep = solver.validate_conditions(data, 2, 2)
        assert rep.passed

    def test_infinite_data_fails(self):
        # inf at |X| = r1: the barrier margin is inf and the difference
        # quotients there inf - inf = NaN, so nothing was checked. The
        # suite turns a RuntimeWarning into an error: this must be silent.
        f = power_decay(1.25, 3)
        data = solver.PrescribedData(
            f=lambda x, nu: np.where(np.linalg.norm(x, axis=-1) < 0.6,
                                     np.inf, f(x, nu)), r1=0.5, r2=2.0)
        rep = solver.validate_conditions(data, 2, 2)
        assert not rep.passed and not rep.zero_margin
        assert rep.inner_margin == np.inf
        assert math.isnan(rep.monotonicity_margin)

    def test_infinite_quotient_alone_fails(self):
        # inf only just inside r1: the one difference quotient reaching
        # there is -inf, while the margins, the scale and the largest
        # quotient are finite.
        f = power_decay(1.25, 3)
        data = solver.PrescribedData(
            f=lambda x, nu: np.where(np.linalg.norm(x, axis=-1) < 0.5 - 5e-8,
                                     np.inf, f(x, nu)), r1=0.5, r2=2.0)
        rep = solver.validate_conditions(data, 2, 2)
        assert not rep.passed and not rep.zero_margin
        assert math.isfinite(rep.inner_margin)
        assert -np.inf < rep.monotonicity_margin < 0

    def test_nan_inside_the_annulus_fails(self):
        # NaN on 0.9 < |X| < 1.1 only: both barrier margins are finite.
        f = power_decay(1.25, 3)
        data = solver.PrescribedData(
            f=lambda x, nu: np.where(
                abs(np.linalg.norm(x, axis=-1) - 1.0) < 0.1, np.nan,
                f(x, nu)), r1=0.5, r2=2.0)
        rep = solver.validate_conditions(data, 2, 2)
        assert not rep.passed and not rep.zero_margin
        assert rep.inner_margin >= 0 and rep.outer_margin >= 0
        assert math.isnan(rep.monotonicity_margin)


def _conditions_by_loop(data, n, k, samples=64):
    """validate_conditions with one call of f per radius and side, as it
    was written before the radii were stacked: the oracle of the stacked
    version."""
    const = math.comb(n, k) * (n - 1) ** k
    dirs = solver._sample_directions(n, samples)
    inner = data.f(data.r1 * dirs, dirs) - const / data.r1**k
    outer = const / data.r2**k - data.f(data.r2 * dirs, dirs)
    worst, scale = -np.inf, 0.0
    checked = bool(np.isfinite(inner).all() and np.isfinite(outer).all())
    for pair_nu in (dirs, np.roll(dirs, 1, axis=0)):
        for r in np.linspace(data.r1, data.r2, 24):
            dr = 1e-6 * r
            up = (r + dr) ** k * data.f((r + dr) * dirs, pair_nu)
            dn = (r - dr) ** k * data.f((r - dr) * dirs, pair_nu)
            deriv = (up - dn) / (2.0 * dr)
            # np.maximum keeps a NaN, which the builtin max would drop.
            worst = float(np.maximum(worst, deriv.max()))
            scale = float(np.maximum(scale, np.max(np.abs(up))))
            checked = checked and bool(np.isfinite(deriv).all())
    ztol = 1e-8 * (1.0 + scale)
    mono_ok = checked and math.isfinite(scale) and worst <= ztol
    inner_m, outer_m = float(inner.min()), float(outer.min())
    return solver.ConditionsReport(
        passed=mono_ok and inner_m >= -1e-12 and outer_m >= -1e-12,
        inner_margin=inner_m, outer_margin=outer_m,
        monotonicity_margin=worst,
        zero_margin=bool(mono_ok and abs(worst) <= ztol),
        samples=dirs.shape[0])


def _nan_past(f, radius):
    return lambda x, nu: np.where(np.linalg.norm(x, axis=-1) > radius,
                                  np.nan, f(x, nu))


# The benchmark sweep's 20 round data sets, its anisotropic surface data,
# a constant and data that is NaN on the outer radii.
CONDITION_CASES = (
    [(power_decay(math.comb(n, k) * (n - 1) ** k * 1.2, k + 1), n, k)
     for n in range(2, 7) for k in range(1, n + 1)]
    + [(aniso(1.25, 3.0, 0.2, axis=2), 2, 2),
       (lambda x, nu: np.full(x.shape[:-1], 1.0), 2, 2),
       (_nan_past(power_decay(1.25, 3), 1.5), 2, 2)])


@pytest.mark.parametrize("case", range(len(CONDITION_CASES)))
def test_stacked_conditions_equal_the_loop(case):
    f, n, k = CONDITION_CASES[case]
    calls = []

    def counted(x, nu):
        calls.append(len(x))
        return f(x, nu)

    data = solver.PrescribedData(f=counted, r1=0.5, r2=2.0)
    got = solver.validate_conditions(data, n, k)
    # Two calls for the barrier margins and one per side of the central
    # differences and direction pairing, each for all 24 radii.
    assert len(calls) == 6
    # Field for field, NaN included, as repr prints every float exactly.
    assert repr(got) == repr(_conditions_by_loop(data, n, k))


def test_condition_sample_is_made_once_and_read_only():
    dirs = solver._sample_directions(3, 64)
    assert dirs is solver._sample_directions(3, 64)
    assert dirs.shape == (2 * 4 + 64, 4) and not dirs.flags.writeable
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


class TestHomotopy:
    def test_t0_round_is_exact(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        data0 = solver.homotopy_f(round_data, 2, 2, 0.01, 0.0)
        res = solver.residual(g, np.ones(g.nnodes), data0, 2)
        assert np.abs(res).max() < 1e-12

    def test_t1_is_target(self, round_data):
        # The round-sphere term's weight is 0 at t = 1: no blend is made.
        assert solver.homotopy_f(round_data, 2, 2, 0.01, 1.0) is round_data

    def test_t1_still_checks_epsilon(self):
        data = solver.PrescribedData(f=power_decay(1.25, 3),
                                     r1=0.5, r2=4.0)
        with pytest.raises(ConfigError):
            solver.homotopy_f(data, 2, 2, 0.2, 1.0)

    def test_midpoint_blend_value(self, round_data):
        # at |X| = 1 the epsilon term vanishes; C(2,2)*1^2 = 1
        data_h = solver.homotopy_f(round_data, 2, 2, 0.01, 0.5)
        x = np.array([[0.0, 0.0, 1.0]])
        nu = np.array([[0.0, 0.0, 1.0]])
        assert float(data_h.f(x, nu)[0]) == pytest.approx(1.125, rel=1e-14)

    def test_t_out_of_range(self, round_data):
        with pytest.raises(ValueError):
            solver.homotopy_f(round_data, 2, 2, 0.01, 1.5)

    def test_epsilon_too_large(self):
        data = solver.PrescribedData(f=power_decay(1.25, 3),
                                     r1=0.5, r2=4.0)
        with pytest.raises(ConfigError):
            solver.homotopy_f(data, 2, 2, 0.2, 0.5)


class TestResidual:
    def test_round_solution_zero(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        res = solver.residual(g, np.full(g.nnodes, 1.25), round_data, 2)
        assert np.abs(res).max() < 1e-12

    def test_constant_shift(self):
        n, k = 2, 2
        const = math.comb(n, k) * (n - 1) ** k
        data = solver.PrescribedData(
            f=lambda x, nu: np.full(x.shape[:-1], 2.0 * const),
            r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (16, 16))
        res = solver.residual(g, np.ones(g.nnodes), data, 2)
        # sigma_2 = const at rho = 1, so F = const^(1/2) - (2 const)^(1/2).
        want = (1.0 - math.sqrt(2.0)) * math.sqrt(const)
        assert np.abs(res - want).max() < 1e-12

    def test_f_nonpositive_rejected(self):
        data = solver.PrescribedData(
            f=lambda x, nu: np.full(x.shape[:-1], -1.0), r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (16, 16))
        with pytest.raises(PreconditionError):
            solver.residual(g, np.ones(g.nnodes), data, 2)


def _fd_jacobian(g, rho, data, k):
    return fd_jacobian(lambda r: solver.residual(g, r, data, k), rho,
                       step=1e-7)


class TestJacobian:
    @pytest.mark.parametrize("k", [1, 2])
    def test_full_2d_matches_fd(self, round_data, k):
        g = geometry.build_grid(2, "full-2d", (16, 8))
        rho = (1.2 + 0.05 * np.sin(g.theta) * np.cos(g.phi)
               + 0.03 * np.cos(g.theta))
        ja = solver.assemble_jacobian(g, rho, round_data, k)
        ja = np.asarray(ja.todense())
        jf = _fd_jacobian(g, rho, round_data, k)
        assert np.abs(ja - jf).max() / (1 + np.abs(jf).max()) < 1e-7

    @pytest.mark.parametrize("k", [1, 2])
    def test_full_2d_matches_fd_off_umbilics(self, round_data, k):
        # Degree-2 terms make the covariant Hessian's s_tp nonzero and
        # C g^-1 unsymmetric, which a sphere moved by degree-1 terms, nearly
        # umbilic, leaves unchecked.
        g = geometry.build_grid(2, "full-2d", (16, 8))
        st, ct = np.sin(g.theta), np.cos(g.theta)
        rho = (1.2 + 0.05 * st**2 * np.sin(2 * g.phi)
               + 0.04 * st * ct * np.cos(g.phi) + 0.03 * ct**2)
        ja = solver.assemble_jacobian(g, rho, round_data, k)
        ja = np.asarray(ja.todense())
        jf = _fd_jacobian(g, rho, round_data, k)
        assert np.abs(ja - jf).max() / (1 + np.abs(jf).max()) < 1e-7

    @pytest.mark.parametrize("n", [2, 3])
    def test_axisym_matches_fd(self, round_data, n):
        g = geometry.build_grid(n, "axisym-1d", (48,))
        rho = 1.2 + 0.05 * np.cos(g.theta)
        ja = solver.assemble_jacobian(g, rho, round_data, 2)
        ja = np.asarray(ja.todense())
        jf = _fd_jacobian(g, rho, round_data, 2)
        assert np.abs(ja - jf).max() / (1 + np.abs(jf).max()) < 1e-7

    def test_anisotropic_f_derivatives(self):
        data = solver.PrescribedData(f=aniso(1.25, 3, 0.2), r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (16, 8))
        rho = 1.2 + 0.04 * np.sin(g.theta) * np.sin(g.phi)
        ja = np.asarray(
            solver.assemble_jacobian(g, rho, data, 2).todense())
        jf = _fd_jacobian(g, rho, data, 2)
        assert np.abs(ja - jf).max() / (1 + np.abs(jf).max()) < 1e-7

    @pytest.mark.parametrize("n,mode,sizes",
                             [(n, "axisym-1d", 33) for n in range(2, 7)]
                             + [(2, "full-2d", (40, 10))])
    def test_f_term_differences_live_components_only(self, n, mode, sizes):
        # One call of f per slot (the value of rho, then rho_theta and, on
        # the sphere grid, rho_phi), on the up and down rows stacked.
        rows = []
        f = aniso(1.25, 3, 0.2)

        def counted(x, nu):
            rows.append((x.shape[0], nu.shape[0]))
            return f(x, nu)

        data = solver.PrescribedData(f=counted, r1=0.5, r2=2.0)
        g = geometry.build_grid(n, mode, sizes)
        rho = 1.1 + 0.05 * np.cos(g.theta) ** 2
        jet = geometry.surface_jet(g, rho)
        solver._jac_f_term(jet, data, *_f_term_slots(jet))
        nslots = 3 if mode == "full-2d" else 2
        assert rows == [(2 * g.nnodes, 2 * g.nnodes)] * nslots

    def test_unit_steps_equal_the_component_differences(self):
        # Unit-vector steps, the flat Jacobian's, give the component-wise
        # central differences bit for bit: stacking the up and down rows
        # into one call of f does not change how f rounds on a row.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 4))
        phi = rng.normal(size=20)
        grad = rng.normal(size=(20, 3))

        def f(x, phi, grad):
            return (np.linalg.norm(x, axis=-1) ** -2.0 * np.exp(0.3 * phi)
                    * (1.0 + 0.3 * grad[:, 1] + 0.1 * grad[:, 2] ** 2))

        hphi = 1e-6 * (1.0 + np.abs(phi))
        steps = [((None, None, e), 1e-6) for e in 1e-6 * np.eye(3)]
        steps.append(((None, hphi, None), hphi))
        *fgrad, fphi = fd_data_derivs(f, (x, phi, grad), steps)
        want_phi, want_grad = component_derivs(
            f, (x, phi, grad), ((1, True), (2, False)))
        assert fphi.tobytes() == want_phi.tobytes()
        assert np.stack(fgrad, axis=1).tobytes() == want_grad.tobytes()


def _f_term_slots(jet):
    """The dV and dW of _jac_f_term's slots, as the Jacobians pass them."""
    raw, rho = jet.raw, jet.rho
    dV = [raw["x"], -raw["e_t"]]
    dW = [rho / raw["w"], raw["rt"] / raw["w"]]
    if jet.grid.mode == "full-2d":
        st2 = raw["st"] ** 2
        dV.append(-raw["e_p"] / st2[:, None])
        dW.append(raw["rp"] / (st2 * raw["w"]))
    return dV, dW


@st.composite
def f_term_cases(draw):
    n = draw(st.integers(2, 6))
    if n == 2 and draw(st.booleans()):
        g = geometry.build_grid(2, "full-2d", (draw(st.integers(8, 24)),
                                               2 * draw(st.integers(4, 12))))
    else:
        g = geometry.build_grid(n, "axisym-1d", draw(st.integers(8, 64)))
    coefs = draw(st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=4))
    rho = (draw(st.floats(0.6, 1.8)) + coefs[0] * np.cos(g.theta)
           + coefs[1] * np.sin(g.theta) ** 2)
    if g.mode == "full-2d":
        rho = rho + np.sin(g.theta) * (coefs[2] * np.cos(g.phi)
                                       + coefs[3] * np.sin(2 * g.phi))
    return g, rho, (draw(st.floats(0.5, 2.0)), draw(st.floats(1.0, 5.0)),
                    draw(st.floats(-0.3, 0.3)), draw(st.sampled_from([0, -1])))


@settings(max_examples=40, deadline=None)
@given(case=f_term_cases())
def test_f_term_matches_the_gradient_oracle(case):
    # One difference along each slot's direction gives the gradients of
    # f dotted with that direction, to finite-difference truncation.
    g, rho, (c, p, delta, axis) = case
    data = solver.PrescribedData(f=aniso(c, p, delta, axis), r1=0.5, r2=2.0)
    jet = geometry.surface_jet(g, rho)
    dV, dW = _f_term_slots(jet)
    got = solver._jac_f_term(jet, data, dV, dW)
    want = f_term_oracle(jet, data.f, dV, dW)
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


class TestNewtonSolve:
    def test_round_from_offset_start(self, round_data):
        g = geometry.build_grid(2, "full-2d", (32, 16))
        rho0 = np.full(g.nnodes, 1.2)
        jet, rep = solver.newton_solve(g, rho0, round_data, 2)
        assert rep.converged
        assert np.abs(jet.rho - 1.25).max() < 1e-6

    def test_fixed_point_zero_iterations(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        _, rep = solver.newton_solve(
            g, np.full(g.nnodes, 1.25), round_data, 2)
        assert rep.converged
        assert rep.iterations == 0

    def test_nan_data_at_the_start_raises(self, round_data):
        # NaN at one node is data that is not positive (NaN <= 0 is
        # false), and its NaN residual must not pass the stop test.
        def f(x, nu):
            out = round_data.f(x, nu)
            out[0] = np.nan
            return out

        data = solver.PrescribedData(f=f, r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (16, 16))
        with pytest.raises(PreconditionError, match="must be positive"):
            solver.newton_solve(g, np.full(g.nnodes, 1.2), data, 2)

    def test_residual_never_increases(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        _, rep = solver.newton_solve(
            g, np.full(g.nnodes, 1.1), round_data, 2)
        hist = rep.residual_history
        assert all(b <= a * (1 + 1e-14) for a, b in zip(hist, hist[1:]))

    def test_root_jacobian_reuses_residual_fields(self):
        calls = []

        def f(x, nu):
            calls.append(1)
            return 1.25 * np.linalg.norm(x, axis=-1) ** -3.0

        data = solver.PrescribedData(f=f, r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "axisym-1d", 32)
        jet, rep = solver.newton_solve(g, np.full(g.nnodes, 1.1), data, 2)
        assert rep.converged and rep.iterations == 9
        # One f call per residual and 2 per Jacobian (one central
        # difference per slot, rho and rho_theta); none to rebuild f.
        residuals = len(rep.residual_history)
        assert len(calls) == residuals + 2 * rep.factorizations == 14
        assert hashlib.sha256(jet.rho.tobytes()).hexdigest() == (
            "6c282da3dc2815da9dc0254858a758ff125daeb259718eba73845afbc55a58c8")

    @pytest.mark.parametrize("mode,sizes", [("full-2d", (16, 16)),
                                            ("axisym-1d", 32)])
    def test_jacobian_reuses_residual_jet(self, round_data, monkeypatch,
                                          mode, sizes):
        g = geometry.build_grid(2, mode, sizes)
        calls = {"jet": 0, "residual": 0, "jac": 0, "reused": 0}
        jet_fn, res_fn = geometry.surface_jet, solver.residual
        jac_fn = solver.assemble_jacobian

        def jet(*args, **kw):
            calls["jet"] += 1
            return jet_fn(*args, **kw)

        def res(*args, **kw):
            calls["residual"] += 1
            return res_fn(*args, **kw)

        def jac(grid, rho, *args, jet=None, **kw):
            calls["jac"] += 1
            if jet is not None:
                calls["reused"] += 1
                assert jet.rho is rho
                want = jac_fn(grid, rho, *args, **kw)
                got = jac_fn(grid, rho, *args, jet=jet, **kw)
                assert (got != want).nnz == 0
                return got
            return jac_fn(grid, rho, *args, **kw)

        monkeypatch.setattr(geometry, "surface_jet", jet)
        monkeypatch.setattr(solver, "residual", res)
        monkeypatch.setattr(solver, "assemble_jacobian", jac)
        _, rep = solver.newton_solve(g, np.full(g.nnodes, 1.1), round_data, 2)
        assert rep.converged and rep.iterations > 0
        assert calls["reused"] == calls["jac"] == rep.factorizations
        # One jet per residual plus the two each checked Jacobian built.
        assert calls["jet"] == calls["residual"] + calls["jac"]

    def test_nonpositive_f_at_the_start_raises(self):
        data = solver.PrescribedData(
            f=lambda x, nu: np.full(x.shape[:-1], -1.0), r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "axisym-1d", 32)
        with pytest.raises(PreconditionError, match="must be positive"):
            solver.newton_solve(g, np.ones(g.nnodes), data, 2)


def with_x(res):
    """``res`` as a damped_newton residual callback whose state is x."""
    return lambda x: (res(x), x)


class TestDampedNewtonCore:
    def test_scalar_quadratic(self):
        def res(x):
            return np.array([x[0] ** 2 - 4.0]), x

        def jac(x):
            return np.array([[2.0 * x[0]]])

        x, rep = damped_newton(np.array([3.0]), res, jac,
                               NewtonConfig(tol=1e-12))
        assert rep.converged
        assert x[0] == pytest.approx(2.0, abs=1e-10)

    def test_divergence_reported(self):
        # residual cannot decrease: constant nonzero map with fake jacobian
        def res(x):
            return np.array([1.0]), x

        def jac(x):
            return np.array([[1.0]])

        with pytest.raises(NewtonDiverged):
            damped_newton(np.array([0.0]), res, jac,
                          NewtonConfig(max_iter=5))

    def test_nan_residual_at_the_start_does_not_converge(self):
        # NaN > tol is false: the stop test must not read a NaN residual
        # as converged, nor a step from it as a cone exit.
        jacobians = []

        def jac(x):
            jacobians.append(x)
            return np.array([[1.0]])

        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(np.array([1.0]), lambda x: (np.array([np.nan]), x),
                          jac, NewtonConfig())
        assert not isinstance(exc.value, ConeExit)
        assert "residual not finite at the first iterate" in str(exc.value)
        assert jacobians == []
        assert exc.value.report.factorizations == 0

    def test_candidate_check_blocks(self):
        calls = []

        def res(x):
            return x - 10.0, x

        def jac(x):
            return np.eye(1)

        def check(x):
            calls.append(x.copy())
            return "blocked" if x[0] > 1.0 else None

        with pytest.raises(NewtonDiverged):
            damped_newton(np.array([0.0]), res, jac,
                          NewtonConfig(max_iter=3), candidate_check=check)
        assert calls

    def test_stall_at_exact_fixed_point(self):
        # The correction -1e-33 is lost in 1 + frac * delta for every frac:
        # each iteration would repeat the first, so Newton stops there.
        jacobians = []

        def res(x):
            return np.array([1e-3]), x

        def jac(x):
            jacobians.append(x.copy())
            return np.array([[1e30]])

        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(np.array([1.0]), res, jac, NewtonConfig())
        assert not isinstance(exc.value, ConeExit)
        assert len(jacobians) == 1
        assert "no longer changes the iterate" in str(exc.value)
        assert exc.value.report.iterations == 0
        assert exc.value.last_iterate[0] == 1.0

    @staticmethod
    def _positive_below_3(x):
        # x^2 - 4 whose "data" is defined only for x <= 3, as a residual
        # with f <= 0 past some radius raises.
        if x[0] > 3.0:
            raise PreconditionError("f must be positive")
        return np.array([x[0] ** 2 - 4.0]), x

    def test_nonpositive_data_at_a_candidate_is_inadmissible(self):
        # From 0.5 the full step lands at 4.25; the half step is taken.
        x, rep = damped_newton(np.array([0.5]), self._positive_below_3,
                               lambda x: np.array([[2.0 * x[0]]]),
                               NewtonConfig(tol=1e-12))
        assert rep.converged
        assert rep.step_fractions[0] == 0.5
        assert x[0] == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_data_at_the_start_propagates(self):
        with pytest.raises(PreconditionError):
            damped_newton(np.array([4.0]), self._positive_below_3,
                          lambda x: np.array([[2.0 * x[0]]]), NewtonConfig())

    def test_singular_dense_jacobian_diverges(self):
        # The default SuperLUPlan converts a dense Jacobian for SuperLU,
        # which raises on it.
        with pytest.raises(NewtonDiverged, match="Jacobian not factored"):
            damped_newton(np.zeros(2), lambda x: (x - 1, x),
                          lambda x: np.zeros((2, 2)), NewtonConfig())

    def test_stall_at_a_residual_floor(self):
        # x^2 - 4 cut off at a floor of 1e-3: below it every step moves x
        # and leaves the residual equal, so Newton would run on to max_iter.
        jacobians = []

        def res(x):
            return np.array([max(x[0] ** 2 - 4.0, 1e-3)]), x

        def jac(x):
            jacobians.append(x.copy())
            return np.array([[2.0 * x[0]]])

        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(np.array([3.0]), res, jac, NewtonConfig())
        assert not isinstance(exc.value, ConeExit)
        assert "residual not decreased in 3 steps" in str(exc.value)
        rep = exc.value.report
        assert rep.residual_history[-4:] == [1e-3] * 4
        assert rep.residual_history[-5] > 1e-3
        assert rep.iterations < 10
        # The stalled steps moved x: the bit-for-bit stop did not fire.
        assert len({x.tobytes() for x in jacobians[-3:]}) == 3


def _failing_newton(kind):
    """A scalar Newton problem that fails in the given way after one
    accepted step; returns (x0, residual, jacobian, candidate check)."""
    jacobians = []

    def count(value):
        jacobians.append(value)
        return np.array([[value]])

    if kind == "not factored":      # singular sparse Jacobian
        return (np.array([0.0]), lambda x: x - 1.0,
                lambda x: sp.csr_matrix(count(0.5 if not jacobians else 0.0)),
                None)
    if kind == "singular dense":
        return (np.array([0.0]), lambda x: x - 1.0,
                lambda x: count(0.5 if not jacobians else 0.0), None)
    if kind == "stalled":           # the correction is lost in x + delta
        return (np.array([1.0]), lambda x: np.array([1e-3]),
                lambda x: count(1.0 if not jacobians else 1e30), None)
    if kind == "inadmissible":      # ConeExit
        return (np.array([0.0]), lambda x: x - 10.0, lambda x: count(2.0),
                lambda x: "blocked" if len(jacobians) > 1 else None)
    if kind == "no decrease":       # a wrong slope overshoots
        return (np.array([1.0]), lambda x: 1.0 + x**2, lambda x: count(1.0),
                None)
    # "max_iter": a constant residual is accepted but never decreases
    return (np.array([0.0]), lambda x: np.array([1.0]), lambda x: count(1.0),
            None)


@pytest.mark.parametrize("kind", ["not factored", "singular dense", "stalled",
                                  "inadmissible", "no decrease", "max_iter"])
def test_failed_report_holds_one_residual_per_iterate(kind):
    x0, res, jac, check = _failing_newton(kind)
    cfg = NewtonConfig(max_iter=3, plan=SuperLUPlan(np.array([0])))
    with pytest.raises(NewtonDiverged) as exc:
        damped_newton(x0, with_x(res), jac, cfg, candidate_check=check)
    rep = exc.value.report
    assert isinstance(exc.value, ConeExit) == (kind == "inadmissible")
    assert rep.iterations == (3 if kind == "max_iter" else 1)
    assert len(rep.residual_history) == rep.iterations + 1
    assert len(rep.step_fractions) == rep.iterations
    last = float(np.max(np.abs(res(exc.value.last_iterate))))
    assert rep.residual_history[-1] == rep.final_residual == last
    assert f"residual {last:.3e}" in str(exc.value)


def _cubic(x):
    return x**3 - np.array([2.0, 3.0, 5.0]) + 0.1 * np.roll(x, 1)


def _cubic_jac(x):
    return np.diag(3.0 * x**2) + 0.1 * np.roll(np.eye(3), 1, axis=1)


def _logged_newton(x0):
    """damped_newton on _cubic with its calls logged in order: ("residual",
    x, max|F|), ("jacobian", x) and ("solve", i), a solve on the factors
    of the i-th Jacobian, which a logging plan makes. The residual's state
    is a copy of x, which the Jacobian logs; no x has its residual
    evaluated twice."""
    events = []

    def factor(jac):
        solve, i = SuperLUPlan().factor(jac), len(events)

        def logged(b):
            events.append(("solve", i))
            return solve(b)
        return logged

    def res(x):
        r = _cubic(x)
        events.append(("residual", x.copy(), float(np.max(np.abs(r)))))
        return r, x.copy()

    def jac(x):
        events.append(("jacobian", x))
        return _cubic_jac(x)

    x, rep = damped_newton(np.array(x0), res, jac, NewtonConfig(
        plan=SimpleNamespace(factor=factor)))
    evaluated = [e[1].tobytes() for e in events if e[0] == "residual"]
    assert len(set(evaluated)) == len(evaluated)
    return x, rep, events


class TestKeptFactors:
    """The LU of a Jacobian is kept while the residual contracts."""

    def test_fewer_factorizations_than_iterations(self):
        _, rep, events = _logged_newton([3.0, -2.0, 0.5])
        assert rep.converged
        jacobians = sum(e[0] == "jacobian" for e in events)
        assert jacobians == rep.factorizations < rep.iterations

    def test_residual_never_increases(self):
        _, rep, _ = _logged_newton([3.0, -2.0, 0.5])
        hist = rep.residual_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_rising_kept_step_refactors_at_the_same_x(self):
        # From this start, one full step on kept factors raises the
        # residual; the iterate stays, and gets its own Jacobian from its
        # own state, without a second residual at x.
        _, rep, events = _logged_newton([-1.5, 1.5, 0.5])
        assert rep.converged
        solved, rising = set(), 0
        for i, event in enumerate(events):
            if event[0] != "solve":
                continue
            if event[1] in solved:      # a step on kept factors
                (_, x, rnorm), (kind, _, cnorm) = events[i - 1], events[i + 1]
                assert kind == "residual"
                if cnorm > rnorm:
                    rising += 1
                    assert cnorm not in rep.residual_history
                    # Next, the Jacobian at x.
                    jac = events[i + 2]
                    assert jac[0] == "jacobian"
                    assert jac[1].tobytes() == x.tobytes()
            solved.add(event[1])
        assert rising > 0

    @pytest.mark.parametrize("closing", [1e-4, 1e-5])
    def test_closing_step_counts_only_if_it_lowers_the_residual(self,
                                                                closing):
        # Scripted max|F| along the iterates: a fresh step to 0.05 (below
        # REFACTOR_RATIO), a kept step to 1e-4 (below tol), then the
        # closing kept step to `closing`.
        norms = iter([1.0, 0.05, 1e-4, closing])

        def res(x):
            return np.array([next(norms)]), x.copy()

        x, rep = damped_newton(np.array([0.0]), res,
                               lambda x: np.array([[1.0]]),
                               NewtonConfig(tol=1e-3))
        assert rep.converged and rep.factorizations == 1
        if closing < 1e-4:
            assert rep.iterations == 3
            assert rep.residual_history == [1.0, 0.05, 1e-4, closing]
        else:       # an equal residual: the step is dropped
            assert rep.iterations == 2
            assert rep.residual_history == [1.0, 0.05, 1e-4]
            assert x.tobytes() == np.array([-1.05]).tobytes()
        assert rep.step_fractions == [1.0] * rep.iterations


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.floats(0.3, 4.0)] * 3))
def test_kept_factors_find_the_exact_newton_root(x0):
    # With REFACTOR_RATIO = 0 every step gets a fresh LU: exact Newton.
    x0 = np.array(x0)
    x, rep = damped_newton(x0, with_x(_cubic), _cubic_jac, NewtonConfig())
    with mock.patch.object(newton, "REFACTOR_RATIO", 0.0):
        root, exact = damped_newton(x0, with_x(_cubic), _cubic_jac,
                                    NewtonConfig())
    assert exact.factorizations == exact.iterations
    assert np.max(np.abs(_cubic(x))) <= rep.tol
    # |J v| >= min|J'| |v| in the max norm near the root, where J is
    # diagonally dominant: min|J'| = min 3 x^2 - 0.1; both answers have
    # a residual of at most tol.
    jmin = 3.0 * np.min(root**2) - 0.1
    assert np.max(np.abs(x - root)) <= 2.0 * rep.tol / jmin


class TestScaledStop:
    """The stop test max|F| <= tol * max(1, scale(state))."""

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, float("nan")])
    def test_scale_at_most_one_is_absolute(self, scale):
        x0 = np.array([3.0, -2.0, 0.5])
        want, want_rep = damped_newton(x0, with_x(_cubic), _cubic_jac,
                                       NewtonConfig())
        got, rep = damped_newton(x0, with_x(_cubic), _cubic_jac,
                                 NewtonConfig(scale=lambda state: scale))
        assert want_rep.iterations > 3
        assert got.tobytes() == want.tobytes()
        assert rep == want_rep
        assert rep.tol == want_rep.tol == 1e-10

    def test_roundoff_floor_needs_the_scale(self):
        # Near sqrt(1.3e7) the residual x^2 - 1.3e7 takes no value below
        # 1.86e-9, the spacing of doubles at 1.3e7.
        c = 1.3e7

        def res(x):
            return x**2 - c, x

        def jac(x):
            return np.diag(2.0 * x)

        x0 = np.array([3000.0])
        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(x0, res, jac, NewtonConfig())
        assert exc.value.report.final_residual == pytest.approx(1.86e-9,
                                                                rel=1e-2)
        x, rep = damped_newton(x0, res, jac,
                               NewtonConfig(scale=lambda state: 1e4))
        assert rep.converged and rep.tol == pytest.approx(1e-6)
        assert 1e-10 < rep.final_residual <= 1e-6
        assert x[0] == pytest.approx(math.sqrt(c), rel=1e-15)

    def test_scale_read_once_after_first_residual(self):
        seen, reads = [], []

        def res(x):
            seen.append(x.copy())
            return _cubic(x), x

        def scale(state):
            reads.append((len(seen), state.tobytes()))
            return 50.0

        x0 = np.array([3.0, -2.0, 0.5])
        _, rep = damped_newton(x0, res, _cubic_jac, NewtonConfig(scale=scale))
        assert reads == [(1, x0.tobytes())]
        assert rep.tol == 50.0 * 1e-10

    @pytest.mark.parametrize("scale", [float("inf"), 1e300])
    def test_unbounded_scale_falls_back(self, scale):
        # An infinite tolerance would accept any residual.
        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(np.array([0.0]), lambda x: (np.array([1e20]), x),
                          lambda x: np.array([[1.0]]),
                          NewtonConfig(tol=1e10, max_iter=2,
                                       scale=lambda state: scale))
        assert exc.value.report.tol == 1e10

    def test_failure_names_the_applied_tol(self):
        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(np.array([0.0]), lambda x: (np.array([1.0]), x),
                          lambda x: np.array([[1.0]]),
                          NewtonConfig(max_iter=5, scale=lambda state: 1e4))
        assert "tol 1.000e-06" in str(exc.value)
        assert "1e-10" not in str(exc.value)
        assert "1.0e-10" not in str(exc.value)
        assert exc.value.report.tol == pytest.approx(1e-6)

    def test_pipelines_scale_by_f(self, round_data):
        # f = 1.25 / |X|^3 at rho = 0.9: max f = 1.25 / 0.729.
        g = geometry.build_grid(2, "axisym-1d", 32)
        _, rep = solver.newton_solve(g, np.full(g.nnodes, 0.9), round_data, 2)
        assert rep.tol == pytest.approx(1e-10 * (1.25 / 0.729) ** 0.5,
                                        rel=1e-12)


class TestContinuation:
    def test_round_completes(self, round_data):
        g = geometry.build_grid(2, "full-2d", (32, 16))
        run = solver.HomotopyRun()
        rho, run = solver.continue_to_target(g, round_data, run, 2)
        assert np.abs(rho - 1.25).max() < 1e-6
        ts = [rec["t"] for rec in run.trace]
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert all(b >= a for a, b in zip(ts, ts[1:]))
        for rec in run.trace:
            assert rec["max_residual"] <= 1e-10
            assert rec["monitors"]["identity_defect"] <= 1e-6
            assert rec["monitors"]["min_u"] > 0

    def test_trivial_blend(self):
        # target equals the t = 0 right-hand side: every step is trivial
        n, k, eps = 2, 2, 0.01
        const = math.comb(n, k) * (n - 1) ** k

        def f(x, nu):
            r = np.linalg.norm(x, axis=-1)
            return const * ((1 + eps) / r**k - eps)

        data = solver.PrescribedData(f=f, r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (16, 16))
        run = solver.HomotopyRun(epsilon=eps)
        rho, run = solver.continue_to_target(g, data, run, k)
        assert np.abs(rho - 1.0).max() < 1e-8

    def test_precondition_failure_raises(self):
        data = solver.PrescribedData(
            f=lambda x, nu: np.full(x.shape[:-1], 5.0), r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (16, 16))
        with pytest.raises(PreconditionError):
            solver.continue_to_target(g, data, solver.HomotopyRun(), 2)

    def test_anisotropic_containment(self):
        data = solver.PrescribedData(f=aniso(1.25, 3, 0.2), r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (32, 16))
        run = solver.HomotopyRun()
        rho, run = solver.continue_to_target(g, data, run, 2)
        h = g.spacing
        assert rho.min() >= data.r1 - 2 * h
        assert rho.max() <= data.r2 + 2 * h
        # non-round final surface
        assert rho.max() - rho.min() > 1e-3

    def test_sweep_case_golden(self, monkeypatch):
        # axisym n = 5, k = 4 with the round data f = C(5,4) 4^4 R / |X|^5,
        # R = 1.2. f is about 1e3 here, and with an absolute tolerance of
        # 1e-10 three homotopy attempts stalled at the residual's roundoff
        # floor. Relative to max f, every attempt is accepted. The steps
        # and the answer were recorded from the scaled stop test, with LU
        # factors kept across Newton iterations, under the default root
        # form and the homotopy from t = 1 (dt0 = dt_max = 1), with the
        # data differenced once along each Jacobian slot and the Jacobians
        # factored by LAPACK's tridiagonal LU.
        n, k, radius = 5, 4, 1.2
        const = math.comb(n, k) * (n - 1) ** k * radius
        data = solver.PrescribedData(f=power_decay(const, k + 1),
                                     r1=0.5, r2=2.0)
        g = geometry.build_grid(n, "axisym-1d", 128)
        jacobians, failed = [], []
        real_jac, real_solve = solver.assemble_jacobian, solver.newton_solve

        def jac(*args, **kw):
            jacobians.append(1)
            return real_jac(*args, **kw)

        def solve(*args, **kw):
            before = len(jacobians)
            try:
                return real_solve(*args, **kw)
            except NewtonDiverged:
                failed.append(len(jacobians) - before)
                raise

        monkeypatch.setattr(solver, "assemble_jacobian", jac)
        monkeypatch.setattr(solver, "newton_solve", solve)
        rho, run = solver.continue_to_target(g, data, solver.HomotopyRun(), k)
        trace = [(rec["t"], rec["newton_iterations"],
                  rec["newton_factorizations"], rec["max_residual"])
                 for rec in run.trace]
        assert trace == [
            (0.0, 0, 0, 8.881784197001252e-16),
            (1.0, 6, 3, 5.924150059399835e-13),
        ]
        assert hashlib.sha256(rho.tobytes()).hexdigest() == (
            "a64b419864f6ed3759a7b60303db7796c40936f2297c409c2d546cf28a94c138")
        assert len(failed) == 0
        assert np.abs(rho - radius).max() < 1e-10

    @pytest.mark.parametrize("radius", [0.8, 1.2, 1.2 + 1e-13, 1.6])
    @pytest.mark.parametrize("n,k", [(5, 3), (6, 3), (6, 6)])
    def test_round_sweep_data_never_stalls(self, monkeypatch, n, k, radius):
        # f = C(n,k) (n-1)^k R / |X|^(k+1) reaches 1e3 to 1e5, where the
        # raw residual cannot reach an absolute 1e-10: R = 0.8 and 1.6
        # used to end in a homotopy step underflow on these cases.
        const = math.comb(n, k) * (n - 1) ** k * radius
        data = solver.PrescribedData(f=power_decay(const, k + 1),
                                     r1=0.5, r2=2.0)
        g = geometry.build_grid(n, "axisym-1d", 128)
        real_solve, failed = solver.newton_solve, []

        def solve(*args, **kw):
            try:
                return real_solve(*args, **kw)
            except NewtonDiverged as exc:
                failed.append(str(exc))
                raise

        monkeypatch.setattr(solver, "newton_solve", solve)
        rho, run = solver.continue_to_target(g, data, solver.HomotopyRun(), k)
        assert failed == []
        assert np.abs(rho - radius).max() < 1e-10
        for rec in run.trace:
            assert 1e-10 <= rec["tol"] and rec["max_residual"] <= rec["tol"]

    def test_defaults_are_root_form_from_dt_max(self):
        # The root form is the only one: no setting selects another. The
        # first attempt after t = 0 is the target t = 1.
        assert not hasattr(NewtonConfig(), "form")
        run = solver.HomotopyRun()
        assert run.dt0 == run.dt_max == 1.0

    @pytest.mark.parametrize("radius", [0.6, 0.7])
    def test_small_round_data_never_fails_an_attempt(self, monkeypatch,
                                                     radius):
        # The raw form sigma_k - f, from dt0 = 0.1, failed 26 (R = 0.6) and
        # 6 (R = 0.7) newton_solve attempts here, each a cone exit.
        real_solve, failed = solver.newton_solve, []

        def solve(*args, **kw):
            try:
                return real_solve(*args, **kw)
            except NewtonDiverged as exc:
                failed.append(str(exc))
                raise

        monkeypatch.setattr(solver, "newton_solve", solve)
        for n in range(2, 7):
            g = geometry.build_grid(n, "axisym-1d", 128)
            for k in range(1, n + 1):
                const = math.comb(n, k) * (n - 1) ** k * radius
                data = solver.PrescribedData(f=power_decay(const, k + 1),
                                             r1=0.5, r2=2.0)
                rho, _ = solver.continue_to_target(g, data,
                                                   solver.HomotopyRun(), k)
                assert failed == [], (n, k)
                assert np.abs(rho - radius).max() < 1e-10, (n, k)

    def test_dt0_defaults_to_dt_max(self):
        assert solver.HomotopyRun(dt_max=0.3).dt0 == 0.3
        with pytest.raises(ConfigError):
            solver.HomotopyRun(dt0=0.5, dt_max=0.3)

    def test_failed_target_attempt_halves_the_step(self, monkeypatch):
        # From the round sphere, the Newton steps toward t = 1 and t = 0.5
        # leave the cone at every step fraction: each attempt costs one LU
        # and no iteration, and the halved steps reach the target.
        data = solver.PrescribedData(f=aniso(0.8, 2.5, 0.1), r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (64, 32))
        attempts, tried = [], []
        real_f, real_solve = solver.homotopy_f, solver.newton_solve

        def blend(data, n, k, epsilon, t):
            tried.append(t)
            return real_f(data, n, k, epsilon, t)

        def solve(*args, **kw):
            try:
                jet, rep = real_solve(*args, **kw)
            except NewtonDiverged as exc:
                attempts.append((tried[-1], type(exc).__name__,
                                 exc.report.factorizations,
                                 exc.report.iterations))
                raise
            attempts.append((tried[-1], "accepted"))
            return jet, rep

        monkeypatch.setattr(solver, "homotopy_f", blend)
        monkeypatch.setattr(solver, "newton_solve", solve)
        _, run = solver.continue_to_target(g, data, solver.HomotopyRun(), 1)
        assert attempts == [
            (0.0, "accepted"),
            (1.0, "ConeExit", 1, 0),
            (0.5, "ConeExit", 1, 0),
            (0.25, "accepted"), (0.5, "accepted"), (0.875, "accepted"),
            (1.0, "accepted"),
        ]
        assert [rec["t"] for rec in run.trace] == [0.0, 0.25, 0.5, 0.875, 1.0]
        assert run.trace[-1]["max_residual"] <= run.trace[-1]["tol"]

    def test_stuck_carries_trace(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        run = solver.HomotopyRun(
            dt0=0.5, dt_min=0.4,
            newton=NewtonConfig(tol=1e-10, max_iter=1))
        with pytest.raises(ContinuationStuck) as exc:
            solver.continue_to_target(g, round_data, run, 2)
        assert exc.value.trace is not None
        assert exc.value.last_rho is not None


@st.composite
def round_cases(draw):
    n = draw(st.integers(2, 6))
    return n, draw(st.integers(1, n)), draw(st.floats(0.55, 1.95))


@settings(max_examples=30, deadline=None)
@given(case=round_cases())
# R = 0.6 is the smallest radius in the round sweeps; R = 1.925 ends the
# farthest from the sphere.
@example(case=(6, 6, 0.6))
@example(case=(6, 6, 1.925))
def test_round_data_converges_to_the_sphere(case):
    # f = C(n,k) (n-1)^k R / |X|^(k+1) is solved by the sphere rho = R,
    # exactly on the grid too.
    n, k, radius = case
    const = math.comb(n, k) * (n - 1) ** k
    data = solver.PrescribedData(f=power_decay(const * radius, k + 1),
                                 r1=0.5, r2=2.0)
    assume(solver.validate_conditions(data, n, k).passed)
    g = geometry.build_grid(n, "axisym-1d", 128)
    rho, run = solver.continue_to_target(g, data, solver.HomotopyRun(), k)
    final = run.trace[-1]
    assert final["t"] == 1.0 and final["max_residual"] <= final["tol"]
    # At the sphere the linearized residual is an elliptic operator plus
    # b times the identity, b > 0 the derivative along constant rho, so
    # max|rho - R| <= max|F| / b to first order (maximum principle). The
    # stop test max|F| <= tol bounds the error by tol / b, which exceeds
    # 1e-10 for k = 6 and R near 2 (1.4e-9).
    b = const ** (1.0 / k) / (k * radius**2)
    err = np.abs(rho - radius).max()
    assert err <= 1.05 * final["max_residual"] / b + 1e-13
