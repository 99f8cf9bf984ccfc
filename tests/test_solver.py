"""Tests for the continuity-method solver and the damped Newton core."""

import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp

from etacurv import geometry, solver
from etacurv.errors import (ConeExit, ConfigError, ContinuationStuck,
                            NewtonDiverged, PreconditionError)
from etacurv.newton import NewtonConfig, damped_newton, fd_data_derivs


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


class TestHomotopy:
    def test_t0_round_is_exact(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        data0 = solver.homotopy_f(round_data, 2, 2, 0.01, 0.0)
        res = solver.residual(g, np.ones(g.nnodes), data0, 2)
        assert np.abs(res).max() < 1e-12

    def test_t1_is_target(self, round_data):
        data1 = solver.homotopy_f(round_data, 2, 2, 0.01, 1.0)
        x = np.array([[1.3, 0.0, 0.0]])
        nu = np.array([[1.0, 0.0, 0.0]])
        assert data1.f(x, nu) == pytest.approx(round_data.f(x, nu),
                                               rel=1e-14)

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
        assert np.abs(res + const).max() < 1e-12

    def test_f_nonpositive_rejected(self):
        data = solver.PrescribedData(
            f=lambda x, nu: np.full(x.shape[:-1], -1.0), r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (16, 16))
        with pytest.raises(PreconditionError):
            solver.residual(g, np.ones(g.nnodes), data, 2)

    def test_root_form_same_zeros(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        res = solver.residual(g, np.full(g.nnodes, 1.25), round_data, 2,
                              form="root")
        assert np.abs(res).max() < 1e-12

    def test_unknown_form_rejected(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        with pytest.raises(ValueError, match="bogus"):
            solver.residual(g, np.ones(g.nnodes), round_data, 2,
                            form="bogus")


class TestJacobian:
    def test_unknown_form_rejected(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 8))
        jet = geometry.surface_jet(g, np.ones(g.nnodes))
        j_sig, j_f = solver._jac_full(g, jet, round_data, 2)
        with pytest.raises(ValueError, match="bogus"):
            solver._combine_forms(j_sig, j_f, jet, round_data, 2, "bogus",
                                  None)

    def test_unknown_method_rejected(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 8))
        with pytest.raises(ValueError, match="bogus"):
            solver.assemble_jacobian(g, np.ones(g.nnodes), round_data, 2,
                                     method="bogus")

    @pytest.mark.parametrize("form", ["raw", "root"])
    def test_full_2d_matches_fd(self, round_data, form):
        g = geometry.build_grid(2, "full-2d", (16, 8))
        rho = (1.2 + 0.05 * np.sin(g.theta) * np.cos(g.phi)
               + 0.03 * np.cos(g.theta))
        ja = solver.assemble_jacobian(g, rho, round_data, 2, form=form)
        ja = np.asarray(ja.todense())
        jf = solver.assemble_jacobian(g, rho, round_data, 2, form=form,
                                      method="fd")
        assert np.abs(ja - jf).max() / (1 + np.abs(jf).max()) < 1e-7

    @pytest.mark.parametrize("form", ["raw", "root"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_axisym_matches_fd(self, round_data, form, n):
        g = geometry.build_grid(n, "axisym-1d", (48,))
        rho = 1.2 + 0.05 * np.cos(g.theta)
        ja = solver.assemble_jacobian(g, rho, round_data, 2, form=form)
        ja = np.asarray(ja.todense())
        jf = solver.assemble_jacobian(g, rho, round_data, 2, form=form,
                                      method="fd")
        assert np.abs(ja - jf).max() / (1 + np.abs(jf).max()) < 1e-7

    def test_anisotropic_f_derivatives(self):
        data = solver.PrescribedData(f=aniso(1.25, 3, 0.2), r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "full-2d", (16, 8))
        rho = 1.2 + 0.04 * np.sin(g.theta) * np.sin(g.phi)
        ja = np.asarray(
            solver.assemble_jacobian(g, rho, data, 2).todense())
        jf = solver.assemble_jacobian(g, rho, data, 2, method="fd")
        assert np.abs(ja - jf).max() / (1 + np.abs(jf).max()) < 1e-7

    @pytest.mark.parametrize("n,mode,sizes",
                             [(n, "axisym-1d", 33) for n in range(2, 7)]
                             + [(2, "full-2d", (40, 10))])
    def test_f_term_differences_live_components_only(self, n, mode, sizes):
        calls = []
        f = aniso(1.25, 3, 0.2)

        def counted(x, nu):
            calls.append(1)
            return f(x, nu)

        data = solver.PrescribedData(f=counted, r1=0.5, r2=2.0)
        g = geometry.build_grid(n, mode, sizes)
        rho = 1.1 + 0.05 * np.cos(g.theta) ** 2
        jet = geometry.surface_jet(g, rho)
        raw = jet.raw
        dV = [raw["x"], -raw["e_t"]]
        dW = [rho / raw["w"], raw["rt"] / raw["w"]]
        if mode == "full-2d":
            st2 = raw["st"] ** 2
            dV.append(-raw["e_p"] / st2[:, None])
            dW.append(raw["rp"] / (st2 * raw["w"]))
        got = solver._jac_f_term(jet, data, dV, dW)
        # Axisymmetric grids difference only components 0 and n of X and
        # nu; on the sphere grid all three are live.
        assert len(calls) == 2 * 2 * (3 if mode == "full-2d" else 2)
        # The same sum with f differenced along every component; with all
        # components live it must not be formed on a column-indexed copy.
        fx, fn = fd_data_derivs(f, (jet.X, jet.nu), ((0, True), (1, False)))
        coefs = []
        for s, dv in enumerate(dV):
            dnu = (dv - jet.nu * dW[s][:, None]) / raw["w"][:, None]
            coef = np.einsum("nc,nc->n", fn, dnu)
            if s == 0:
                coef += np.einsum("nc,nc->n", fx, raw["x"])
            coefs.append(coef)
        assert got.tobytes() == g.slots.accumulate(coefs).tobytes()

    def test_fd_data_derivs_columns(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 4))
        nu = rng.normal(size=(20, 4))

        def f(x, nu):
            return (np.linalg.norm(x, axis=-1) ** -2.0
                    * (1.0 + 0.3 * nu[:, 1] + 0.1 * nu[:, 3] ** 2))

        slots = ((0, True), (1, False))
        full = fd_data_derivs(f, (x, nu), slots)
        for cols in ([0], [1, 3], [3, 0], [0, 1, 2, 3]):
            part = fd_data_derivs(f, (x, nu), slots, cols)
            for p, q in zip(part, full):
                assert p.shape == (20, len(cols))
                assert p.tobytes() == q[:, cols].tobytes()


class TestNewtonSolve:
    def test_round_from_offset_start(self, round_data):
        g = geometry.build_grid(2, "full-2d", (32, 16))
        rho0 = np.full(g.nnodes, 1.2)
        rho, rep = solver.newton_solve(g, rho0, round_data, 2)
        assert rep.converged
        assert np.abs(rho - 1.25).max() < 1e-6

    def test_fixed_point_zero_iterations(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        rho, rep = solver.newton_solve(
            g, np.full(g.nnodes, 1.25), round_data, 2)
        assert rep.converged
        assert rep.iterations == 0

    def test_residual_never_increases(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        _, rep = solver.newton_solve(
            g, np.full(g.nnodes, 1.1), round_data, 2)
        hist = rep.residual_history
        assert all(b <= a * (1 + 1e-14) for a, b in zip(hist, hist[1:]))

    def test_forms_agree(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        rho_raw, _ = solver.newton_solve(
            g, np.full(g.nnodes, 1.1), round_data, 2,
            config=NewtonConfig(form="raw"))
        rho_root, _ = solver.newton_solve(
            g, np.full(g.nnodes, 1.1), round_data, 2,
            config=NewtonConfig(form="root"))
        assert np.abs(rho_raw - rho_root).max() < 1e-8

    def test_root_jacobian_reuses_residual_fields(self):
        calls = []

        def f(x, nu):
            calls.append(1)
            return 1.25 * np.linalg.norm(x, axis=-1) ** -3.0

        data = solver.PrescribedData(f=f, r1=0.5, r2=2.0)
        g = geometry.build_grid(2, "axisym-1d", 32)
        rho, rep = solver.newton_solve(g, np.full(g.nnodes, 1.1), data, 2,
                                       config=NewtonConfig(form="root"))
        assert rep.converged and rep.iterations == 4
        # One f call per residual and 8 per Jacobian (central differences
        # along components 0 and n of X and nu); none to rebuild f.
        residuals = len(rep.residual_history)
        assert len(calls) == residuals + 8 * rep.iterations == 37
        assert hashlib.sha256(rho.tobytes()).hexdigest() == (
            "45855c111cea5938af0d7cf04bf11d06654168445bc8b529ecc4f094489c5c31")

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
        assert calls["reused"] == calls["jac"] == rep.iterations
        # One jet per residual plus the two each checked Jacobian built.
        assert calls["jet"] == calls["residual"] + calls["jac"]

    def test_fd_jacobian_switch(self, round_data):
        g = geometry.build_grid(2, "axisym-1d", (32,))
        rho, rep = solver.newton_solve(
            g, np.full(g.nnodes, 1.1), round_data, 2,
            config=NewtonConfig(jacobian="fd"))
        assert rep.converged
        assert np.abs(rho - 1.25).max() < 1e-6


class TestDampedNewtonCore:
    def test_scalar_quadratic(self):
        def res(x):
            return np.array([x[0] ** 2 - 4.0])

        def jac(x):
            return np.array([[2.0 * x[0]]])

        x, rep = damped_newton(np.array([3.0]), res, jac,
                               NewtonConfig(tol=1e-12))
        assert rep.converged
        assert x[0] == pytest.approx(2.0, abs=1e-10)

    def test_divergence_reported(self):
        # residual cannot decrease: constant nonzero map with fake jacobian
        def res(x):
            return np.array([1.0])

        def jac(x):
            return np.array([[1.0]])

        with pytest.raises(NewtonDiverged):
            damped_newton(np.array([0.0]), res, jac,
                          NewtonConfig(max_iter=5))

    def test_candidate_check_blocks(self):
        calls = []

        def res(x):
            return x - 10.0

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
            return np.array([1e-3])

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


@pytest.mark.parametrize("kind", ["not factored", "stalled", "inadmissible",
                                  "no decrease", "max_iter"])
def test_failed_report_holds_one_residual_per_iterate(kind):
    x0, res, jac, check = _failing_newton(kind)
    cfg = NewtonConfig(max_iter=3, perm=np.array([0]))
    with pytest.raises(NewtonDiverged) as exc:
        damped_newton(x0, res, jac, cfg, candidate_check=check)
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


class TestScaledStop:
    """The stop test max|F| <= tol * max(1, scale())."""

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, float("nan")])
    def test_scale_at_most_one_is_absolute(self, scale):
        x0 = np.array([3.0, -2.0, 0.5])
        want, want_rep = damped_newton(x0, _cubic, _cubic_jac, NewtonConfig())
        got, rep = damped_newton(x0, _cubic, _cubic_jac,
                                 NewtonConfig(scale=lambda: scale))
        assert want_rep.iterations > 3
        assert got.tobytes() == want.tobytes()
        assert rep == want_rep
        assert rep.tol == want_rep.tol == 1e-10

    def test_roundoff_floor_needs_the_scale(self):
        # Near sqrt(1.3e7) the residual x^2 - 1.3e7 takes no value below
        # 1.86e-9, the spacing of doubles at 1.3e7.
        c = 1.3e7

        def res(x):
            return x**2 - c

        def jac(x):
            return np.diag(2.0 * x)

        x0 = np.array([3000.0])
        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(x0, res, jac, NewtonConfig())
        assert exc.value.report.final_residual == pytest.approx(1.86e-9,
                                                                rel=1e-2)
        x, rep = damped_newton(x0, res, jac, NewtonConfig(scale=lambda: 1e4))
        assert rep.converged and rep.tol == pytest.approx(1e-6)
        assert 1e-10 < rep.final_residual <= 1e-6
        assert x[0] == pytest.approx(math.sqrt(c), rel=1e-15)

    def test_scale_read_once_after_first_residual(self):
        seen, reads = [], []

        def res(x):
            seen.append(x.copy())
            return _cubic(x)

        def scale():
            reads.append(len(seen))
            return 50.0

        _, rep = damped_newton(np.array([3.0, -2.0, 0.5]), res, _cubic_jac,
                               NewtonConfig(scale=scale))
        assert reads == [1]
        assert rep.tol == 50.0 * 1e-10

    @pytest.mark.parametrize("scale", [float("inf"), 1e300])
    def test_unbounded_scale_falls_back(self, scale):
        # An infinite tolerance would accept any residual.
        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(np.array([0.0]), lambda x: np.array([1e20]),
                          lambda x: np.array([[1.0]]),
                          NewtonConfig(tol=1e10, max_iter=2,
                                       scale=lambda: scale))
        assert exc.value.report.tol == 1e10

    def test_failure_names_the_applied_tol(self):
        with pytest.raises(NewtonDiverged) as exc:
            damped_newton(np.array([0.0]), lambda x: np.array([1.0]),
                          lambda x: np.array([[1.0]]),
                          NewtonConfig(max_iter=5, scale=lambda: 1e4))
        assert "tol 1.000e-06" in str(exc.value)
        assert "1e-10" not in str(exc.value)
        assert "1.0e-10" not in str(exc.value)
        assert exc.value.report.tol == pytest.approx(1e-6)

    def test_pipelines_scale_by_f(self, round_data):
        # f = 1.25 / |X|^3 at rho = 0.9: max f = 1.25 / 0.729.
        g = geometry.build_grid(2, "axisym-1d", 32)
        rho0 = np.full(g.nnodes, 0.9)
        _, raw = solver.newton_solve(g, rho0, round_data, 2)
        _, root = solver.newton_solve(g, rho0, round_data, 2,
                                      config=NewtonConfig(form="root"))
        assert raw.tol == pytest.approx(1e-10 * 1.25 / 0.729, rel=1e-12)
        assert root.tol == pytest.approx(1e-10 * (1.25 / 0.729) ** 0.5,
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
        # and the answer were recorded from the scaled stop test.
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
        trace = [(rec["t"], rec["newton_iterations"], rec["max_residual"])
                 for rec in run.trace]
        assert trace == [
            (0.0, 0, 4.547473508864641e-13),
            (0.1, 5, 5.09544406668283e-10),
            (0.2, 4, 2.205524651799351e-10),
            (0.30000000000000004, 3, 2.9899638320785016e-09),
            (0.45000000000000007, 3, 9.301857062382624e-10),
            (0.675, 3, 3.389004632481374e-10),
            (1.0, 3, 3.5788616514764726e-10),
        ]
        assert hashlib.sha256(rho.tobytes()).hexdigest() == (
            "1484b29fdcb336d5634ab0feaed8a3856702500699551648c9eb358852eb3207")
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

    def test_stuck_carries_trace(self, round_data):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        run = solver.HomotopyRun(
            dt0=0.5, dt_min=0.4,
            newton=NewtonConfig(tol=1e-10, max_iter=1))
        with pytest.raises(ContinuationStuck) as exc:
            solver.continue_to_target(g, round_data, run, 2)
        assert exc.value.trace is not None
        assert exc.value.last_rho is not None
