"""Tests for the Euclidean Dirichlet pipeline."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from etacurv import flatcase, symm
from etacurv.errors import (ConeViolationError, DomainError,
                            PreconditionError)
from etacurv.newton import NewtonConfig, fd_jacobian


def f_const(value):
    return lambda x, phi, grad: np.full(x.shape[0], float(value))


def f_grad_sq(x, phi, grad):
    return 1.0 + np.einsum("ni,ni->n", grad, grad)


def bowl(grid):
    """phi = (|x|^2 - 1)/2, the exact solution of f = 1 (n = 2, k = 2)."""
    return 0.5 * (np.einsum("ni,ni->n", grid.pts, grid.pts) - 1.0)


class TestBuildFlatGrid:
    def test_ball_nodes_inside(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 16)
        r = np.linalg.norm(g.pts, axis=1)
        assert r.max() < 1.0
        assert g.ninterior > 700

    def test_rect_nodes_inside(self):
        g = flatcase.build_flat_grid(2, "rect", h=1 / 8,
                                     bounds=[(0.0, 1.0), (0.0, 2.0)])
        assert np.all(g.pts[:, 0] > 0) and np.all(g.pts[:, 0] < 1)
        assert np.all(g.pts[:, 1] > 0) and np.all(g.pts[:, 1] < 2)
        assert g.ninterior == 7 * 15

    def test_dim_one_rejected(self):
        with pytest.raises(DomainError):
            flatcase.build_flat_grid(1, "ball", h=0.1)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            flatcase.build_flat_grid(2, "triangle", h=0.1)

    @pytest.mark.parametrize("dim,h", [(2, 1 / 16), (3, 1 / 6), (3, 1 / 12)],
                             ids=["ball2d_h16", "ball3d_h6", "ball3d_h12"])
    def test_operators_exact_on_zero_boundary_quadratic(self, dim, h):
        # the bowl vanishes on the sphere, so the snapped axis stencils
        # reproduce its derivatives exactly; only the diagonal ghost
        # closure contributes a bounded local error near the boundary
        g = flatcase.build_flat_grid(dim, "ball", h=h)
        phi = bowl(g)
        for a in range(dim):
            assert np.abs(g.d2[a] @ phi - 1.0).max() < 1e-10
            assert np.abs(g.d1[a] @ phi - g.pts[:, a]).max() < 1e-10
        assert np.abs(g.lap @ phi - dim).max() < 1e-10
        r = np.linalg.norm(g.pts, axis=1)
        interior = r < 1.0 - 2 * g.h
        for op in g.dmix.values():
            mix = op @ phi
            assert np.abs(mix[interior]).max() < 1e-10
            assert np.abs(mix).max() < 1.0  # bounded first-order closure

    @pytest.mark.parametrize("h,bounds", [
        (1 / 8, [(-1.0, 1.0), (-1.0, 1.0)]),
        (1 / 6, [(-1.0, 1.0), (0.0, 0.5), (-0.25, 1.3)]),
    ], ids=["rect2d", "rect3d"])
    def test_rect_operators_exact_quadratic(self, h, bounds):
        # per axis, a quadratic vanishing on both faces is reproduced
        # exactly, snapped arms included (the 3-d faces are off-lattice)
        g = flatcase.build_flat_grid(len(bounds), "rect", h=h, bounds=bounds)
        for a, (lo, hi) in enumerate(bounds):
            x = g.pts[:, a]
            phi = 0.5 * (x - lo) * (x - hi)
            assert np.abs(g.d2[a] @ phi - 1.0).max() < 1e-10
            assert np.abs(g.d1[a] @ phi - (x - 0.5 * (lo + hi))).max() \
                < 1e-10

    @pytest.mark.parametrize("bounds", [
        [1, 2], [[-1, 1]], [[-1, 1], [-1, 1, 3]], [[-1, 1], [-1, 1], [0, 1]],
        [["a", 1], [-1, 1]], [[1, -1], [-1, 1]],
        [[-math.inf, 1], [-1, 1]], [[None, 1], [-1, 1]],
    ])
    def test_malformed_bounds(self, bounds):
        with pytest.raises(ValueError):
            flatcase.build_flat_grid(2, "rect", h=1 / 8, bounds=bounds)

    @pytest.mark.parametrize("shape,h,size", [
        ("rect", 1e-5, [[1e300, 1.1e300], [0, 1]]),
        ("rect", 1e-10, [[1e300, 1.1e300], [0, 1]]),
        ("rect", 1e-300, [[-1, 1], [-1, 1]]),
        ("ball", 1e199, 1e200),
        ("ball", 1e-17, 1.0),
    ])
    def test_out_of_range_scale_refused_quietly(self, shape, h, size):
        # Refused before lattice indices or squared coordinates overflow.
        kw = {"bounds": size} if shape == "rect" else {"radius": size}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="out of range"):
                flatcase.build_flat_grid(2, shape, h=h, **kw)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
    def test_bad_ball_radius(self, radius):
        with pytest.raises(ValueError):
            flatcase.build_flat_grid(2, "ball", h=1 / 8, radius=radius)

    def test_3d_grid(self):
        g = flatcase.build_flat_grid(3, "ball", h=1 / 6)
        assert g.dim == 3
        assert set(g.dmix) == {(0, 1), (0, 2), (1, 2)}
        phi = 0.5 * (np.einsum("ni,ni->n", g.pts, g.pts) - 1.0)
        assert np.abs(g.lap @ phi - 3.0).max() < 1e-10


class TestFlatState:
    def test_eta_field_matches_symm(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        rng = np.random.default_rng(5)
        phi = bowl(g) * (1 + 0.1 * np.sin(g.pts[:, 0] * 3))
        state = flatcase.build_flat_state(g, phi)
        eigs = np.linalg.eigvalsh(state.hess)
        for p in range(0, g.ninterior, 37):
            es = symm.eta_spectrum_from_kappa(eigs[p])
            assert np.allclose(state.eta_spectrum[p], es.values,
                               atol=1e-10)

    def test_shape_validation(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        with pytest.raises(ValueError):
            flatcase.build_flat_state(g, np.zeros(3))


class TestFlatResidual:
    def test_constant_hessian_shift(self):
        # D^2 phi = I, eta = I*(n-1): residual = C(n,k)(n-1)^k - f
        g = flatcase.build_flat_grid(2, "ball", h=1 / 16)
        state = flatcase.build_flat_state(g, bowl(g))
        res = flatcase.flat_residual(state, f_const(0.25), 2)
        r = np.linalg.norm(g.pts, axis=1)
        interior = r < 1.0 - 2 * g.h
        assert np.abs(res[interior] - 0.75).max() < 1e-10

    def test_exact_quadratic_zero(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 16)
        state = flatcase.build_flat_state(g, bowl(g))
        res = flatcase.flat_residual(state, f_const(1.0), 2)
        r = np.linalg.norm(g.pts, axis=1)
        interior = r < 1.0 - 2 * g.h
        assert np.abs(res[interior]).max() < 1e-10

    def test_cone_violation(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        state = flatcase.build_flat_state(g, -bowl(g))  # concave dome
        with pytest.raises(ConeViolationError):
            flatcase.flat_residual(state, f_const(1.0), 2)

    def test_bad_k(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        state = flatcase.build_flat_state(g, bowl(g))
        with pytest.raises(ValueError):
            flatcase.flat_residual(state, f_const(1.0), 3)

    def test_unknown_form_rejected(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        state = flatcase.build_flat_state(g, bowl(g))
        with pytest.raises(ValueError, match="bogus"):
            flatcase.flat_residual(state, f_const(1.0), 2, form="bogus")


class TestFlatJacobian:
    @pytest.mark.parametrize("form", ["raw", "root"])
    def test_matches_fd(self, form):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        phi = bowl(g) * (1 + 0.05 * np.sin(3 * g.pts[:, 0])
                         * np.cos(2 * g.pts[:, 1]))
        state = flatcase.build_flat_state(g, phi)
        ja = flatcase.flat_jacobian(state, f_grad_sq, 2, form=form).toarray()

        def res_fn(p):
            s = flatcase.build_flat_state(g, p)
            r = flatcase.flat_residual(s, f_grad_sq, 2)
            if form == "root":
                fv = f_grad_sq(g.pts, s.phi, s.grad)
                return (r + fv) ** 0.5 - fv**0.5
            return r

        jf = fd_jacobian(res_fn, phi)
        assert np.abs(ja - jf).max() / (1 + np.abs(jf).max()) < 1e-6


class TestDirichletSolve:
    def test_quadratic_n2(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 16)
        state, rep = flatcase.dirichlet_solve(g, f_const(1.0), 2)
        assert rep.converged
        assert np.abs(state.phi - bowl(g)).max() < 1e-4

    def test_quadratic_n3_k2(self):
        g = flatcase.build_flat_grid(3, "ball", h=1 / 8)
        state, rep = flatcase.dirichlet_solve(g, f_const(12.0), 2)
        assert rep.converged
        exact = 0.5 * (np.einsum("ni,ni->n", g.pts, g.pts) - 1.0)
        assert np.abs(state.phi - exact).max() < 1e-4

    def test_gradient_dependent_radial_oracle(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 32)
        state, rep = flatcase.dirichlet_solve(g, f_grad_sq, 2)
        assert rep.converged
        # radial reduction with psi = phi': psi psi'/r = 1 + psi^2 and
        # psi(0) = 0 give psi = sqrt(exp(r^2) - 1)
        r = np.linalg.norm(g.pts, axis=1)
        exact = np.array([
            -quad(lambda s: math.sqrt(math.expm1(s * s)), ri, 1.0)[0]
            for ri in r
        ])
        assert np.abs(state.phi - exact).max() < 5e-4

    def test_maximum_principle_sign(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 16)
        state, _ = flatcase.dirichlet_solve(g, f_const(1.0), 2)
        assert state.phi.max() < 0.0

    def test_f_nonpositive_rejected(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        with pytest.raises(PreconditionError):
            flatcase.dirichlet_solve(g, f_const(-1.0), 2)

    def test_forms_agree(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        s_raw, _ = flatcase.dirichlet_solve(
            g, f_const(1.0), 2, config=NewtonConfig(form="raw"))
        s_root, _ = flatcase.dirichlet_solve(
            g, f_const(1.0), 2, config=NewtonConfig(form="root"))
        assert np.abs(s_raw.phi - s_root.phi).max() < 1e-8

    def test_root_residual_evaluates_f_once(self, monkeypatch):
        f_calls = []

        def f(x, phi, grad):
            f_calls.append(1)
            return np.ones(x.shape[0])

        per_residual = []
        real_newton = flatcase.damped_newton

        def spy(x0, residual_fn, jacobian_fn, cfg, candidate_check=None):
            def counted(x):
                before = len(f_calls)
                out = residual_fn(x)
                per_residual.append(len(f_calls) - before)
                return out
            return real_newton(x0, counted, jacobian_fn, cfg,
                               candidate_check=candidate_check)

        monkeypatch.setattr(flatcase, "damped_newton", spy)
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        _, rep = flatcase.dirichlet_solve(g, f, 2,
                                          config=NewtonConfig(form="root"))
        assert rep.converged
        assert per_residual and set(per_residual) == {1}

    @pytest.mark.parametrize("form", ["raw", "root"])
    def test_newton_reuses_residual_state(self, monkeypatch, form):
        calls = {"f": 0, "state": 0, "residual": 0, "jacobian": 0}
        real = {name: getattr(flatcase, name) for name in
                ("build_flat_state", "flat_residual", "flat_jacobian")}

        def counted(key, name):
            def wrapper(*args, **kw):
                calls[key] += 1
                return real[name](*args, **kw)
            return wrapper

        def f(x, phi, grad):
            calls["f"] += 1
            return f_grad_sq(x, phi, grad)

        monkeypatch.setattr(flatcase, "build_flat_state",
                            counted("state", "build_flat_state"))
        monkeypatch.setattr(flatcase, "flat_residual",
                            counted("residual", "flat_residual"))
        monkeypatch.setattr(flatcase, "flat_jacobian",
                            counted("jacobian", "flat_jacobian"))
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        state, rep = flatcase.dirichlet_solve(g, f, 2,
                                              config=NewtonConfig(form=form))
        assert rep.converged and calls["jacobian"] == rep.iterations > 0
        # One state per residual: the Jacobians and the returned state are
        # those the residual of the same phi built.
        assert calls["state"] == calls["residual"]
        # f: two calls before Newton (initial guess, positivity check), one
        # per residual, 2 + 2 dim per Jacobian (differences in phi and in
        # each gradient component) and none to rebuild f in root form.
        assert calls["f"] == 2 + calls["residual"] + 6 * calls["jacobian"]
        fresh = real["build_flat_state"](g, state.phi)
        for name in ("grad", "hess", "lap_phi", "eta_spectrum"):
            assert getattr(state, name).tobytes() == \
                getattr(fresh, name).tobytes()

    @pytest.mark.parametrize("form", ["raw", "root"])
    @pytest.mark.parametrize("dim,h,f", [(2, 1 / 8, f_const(1.0)),
                                         (3, 1 / 4, f_grad_sq)])
    def test_fields_of_the_returned_state(self, form, dim, h, f):
        g = flatcase.build_flat_grid(dim, "ball", h=h)
        fields = {}
        state, _ = flatcase.dirichlet_solve(g, f, 2, fields=fields,
                                            config=NewtonConfig(form=form))
        # The raw residual of the returned state, bit for bit.
        res = flatcase.flat_residual(state, f, 2)
        assert (fields["sigma"] - fields["f"]).tobytes() == res.tobytes()

    def test_fd_jacobian_switch(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 6)
        state, rep = flatcase.dirichlet_solve(
            g, f_const(1.0), 2, config=NewtonConfig(jacobian="fd"))
        assert rep.converged


class TestConvergenceOrder:
    def test_quadratic_order(self):
        errs = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            g = flatcase.build_flat_grid(2, "ball", h=h)
            state, _ = flatcase.dirichlet_solve(g, f_const(1.0), 2)
            errs.append(np.abs(state.phi - bowl(g)).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders), (errs, orders)

    def test_interior_hessian_stable_under_refinement(self):
        maxima = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            g = flatcase.build_flat_grid(2, "ball", h=h)
            state, _ = flatcase.dirichlet_solve(g, f_grad_sq, 2)
            r = np.linalg.norm(g.pts, axis=1)
            interior = r < 0.9
            maxima.append(float(np.abs(state.hess[interior]).max()))
        base = maxima[-1]
        assert all(abs(m - base) / base < 0.05 for m in maxima)


class TestPogorelovMonitor:
    def test_bowl_beta1(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 32)
        state = flatcase.build_flat_state(g, bowl(g), beta=1.0)
        # max over nodes of (1 - |x|^2)/2 * lap(phi); lap = 2 at interior
        # nodes, attained at the origin
        assert flatcase.pogorelov_monitor(state) == pytest.approx(
            1.0, abs=1e-2)

    def test_zero_field(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        state = flatcase.build_flat_state(g, np.zeros(g.ninterior))
        assert flatcase.pogorelov_monitor(state) == 0.0

    def test_refinement_stability(self):
        vals = []
        for h in (1 / 16, 1 / 32):
            g = flatcase.build_flat_grid(2, "ball", h=h)
            state, _ = flatcase.dirichlet_solve(g, f_const(1.0), 2,
                                                beta=4.0)
            vals.append(flatcase.pogorelov_monitor(state))
        assert abs(vals[0] - vals[1]) / vals[1] < 0.05


def flat_csv_rows(state, residual_field):
    """Row-by-row flat CSV, the oracle of the column formatter."""
    grid = state.grid
    cols = [f"x{a}" for a in range(grid.dim)] + ["phi", "lap_phi"]
    cols += [f"eta_lambda{i + 1}" for i in range(grid.dim)]
    cols += ["residual", "pogorelov"]
    lines = [",".join(cols)]
    fmt = "{:.17g}".format
    pog = np.maximum(-state.phi, 0.0)**state.pogorelov_beta * state.lap_phi
    for p in range(grid.ninterior):
        row = [fmt(v) for v in grid.pts[p]]
        row += [fmt(state.phi[p]), fmt(state.lap_phi[p])]
        row += [fmt(v) for v in state.eta_spectrum[p]]
        row += [fmt(residual_field[p]), fmt(pog[p])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestCsv:
    @pytest.mark.parametrize("dim,h", [(2, 1 / 16), (3, 1 / 6)])
    def test_matches_row_oracle(self, dim, h):
        g = flatcase.build_flat_grid(dim, "ball", h=h)
        phi = bowl(g) * (1.0 + 0.1 * g.pts[:, 0])
        state = flatcase.build_flat_state(g, phi)
        res = flatcase.flat_residual(state, f_grad_sq, 2)
        assert flatcase.flat_csv_text(state, res) == flat_csv_rows(state, res)

    def test_columns(self):
        g = flatcase.build_flat_grid(2, "ball", h=1 / 8)
        state = flatcase.build_flat_state(g, bowl(g))
        res = flatcase.flat_residual(state, f_const(1.0), 2)
        text = flatcase.flat_csv_text(state, res)
        lines = text.strip().split("\n")
        assert lines[0] == ("x0,x1,phi,lap_phi,eta_lambda1,eta_lambda2,"
                            "residual,pogorelov")
        assert len(lines) == 1 + g.ninterior
