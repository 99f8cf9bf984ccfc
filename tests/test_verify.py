"""Tests for the estimate monitors."""

import math

import numpy as np
import pytest

from etacurv import geometry, solver, verify


def round_jet(r=1.0, n=2, nt=32):
    g = geometry.build_grid(n, "axisym-1d", (nt,))
    return geometry.surface_jet(g, np.full(g.nnodes, r))


def round_data(c=1.25, p=3):
    return solver.PrescribedData(
        f=lambda x, nu: c * np.linalg.norm(x, axis=-1) ** (-p),
        r1=0.5, r2=2.0)


class TestCurvatureBound:
    def test_round(self):
        assert verify.curvature_bound(round_jet(2.0)) == pytest.approx(
            0.5, abs=1e-12)

    def test_refinement_stability(self):
        def rho_of(theta):
            return 1.1 + 0.08 * np.cos(2 * theta)

        vals = []
        for nt in (64, 128):
            g = geometry.build_grid(2, "axisym-1d", (nt,))
            jet = geometry.surface_jet(g, rho_of(g.theta))
            vals.append(verify.curvature_bound(jet))
        assert abs(vals[0] - vals[1]) / vals[1] < 0.05


class TestGradientBound:
    def test_round(self):
        mg, mu = verify.gradient_bound(round_jet(1.3))
        assert mg < 1e-12
        assert mu == pytest.approx(1.3, abs=1e-12)

    def test_cos_profile(self):
        # rho = 1 + 0.1 cos(theta): max |grad rho| = 0.1 to O(h^2)
        errs = []
        for nt in (32, 64, 128):
            g = geometry.build_grid(2, "axisym-1d", (nt,))
            jet = geometry.surface_jet(g, 1.0 + 0.1 * np.cos(g.theta))
            mg, _ = verify.gradient_bound(jet)
            errs.append(abs(mg - 0.1))
        assert errs[0] < 1e-3
        assert errs[-1] <= errs[0]


class TestQMonitor:
    def test_round_unit_closed_form(self):
        res = verify.q_monitor(round_jet(1.0), A=1.0)
        # kappa_max = u = 1, a = 1/2: log 1 - log(1/2) + 1/2
        assert res.value == pytest.approx(math.log(2.0) + 0.5, abs=1e-10)
        assert not res.vacuous

    def test_vacuous_set(self):
        jet = round_jet(1.0)
        flipped = verify.q_monitor(
            type(jet)(**{**jet.__dict__, "kappa": -jet.kappa}))
        assert flipped.vacuous
        assert flipped.node == -1

    def test_refinement_stability(self):
        def rho_of(theta):
            return 1.1 + 0.08 * np.cos(2 * theta)

        vals = []
        for nt in (64, 128):
            g = geometry.build_grid(2, "axisym-1d", (nt,))
            jet = geometry.surface_jet(g, rho_of(g.theta))
            vals.append(verify.q_monitor(jet).value)
        assert abs(vals[0] - vals[1]) / abs(vals[1]) < 0.05


class TestWMonitor:
    def test_round_constant_field(self):
        r = 1.3
        alpha = 0.7
        res = verify.w_monitor(round_jet(r), alpha=alpha)
        assert res.value == pytest.approx(-math.log(r) + alpha / r**2,
                                          abs=1e-10)

    def test_small_alpha_tracks_min_u(self):
        g = geometry.build_grid(2, "axisym-1d", (64,))
        jet = geometry.surface_jet(g, 1.1 + 0.08 * np.cos(2 * g.theta))
        res = verify.w_monitor(jet, alpha=1e-8)
        # u is least at the two nodes mirrored about the equator, equal up
        # to roundoff; the lower index is reported.
        ties = np.flatnonzero(jet.u <= jet.u.min() * (1.0 + 1e-12))
        assert ties.tolist() == [31, 32]
        assert res.node == 31

    def test_default_alpha(self):
        jet = round_jet(1.5)
        res = verify.w_monitor(jet)
        # default alpha = 2 max|X|^2 = 2 * 1.5^2
        assert res.value == pytest.approx(
            -math.log(1.5) + 2 * 1.5**2 / 1.5**2, abs=1e-10)


class TestMonitorNodes:
    """q_node and w_node: the lowest node within 1e-8 of the maximum."""

    def test_round_sphere_reports_node_0(self):
        g = geometry.build_grid(2, "full-2d", (32, 16))
        jet = geometry.surface_jet(g, np.full(g.nnodes, 1.25))
        q, w = verify.q_monitor(jet), verify.w_monitor(jet)
        assert (q.node, w.node) == (0, 0)
        # The value is still the largest one, not node 0's.
        r2 = np.einsum("ij,ij->i", jet.X, jet.X)
        field = -np.log(jet.u) + 2.0 * r2.max() / r2
        assert np.ptp(field) > 0.0
        assert w.value == field.max()

    @pytest.mark.parametrize("node", [5, 200, 511])
    def test_bumped_node_found(self, node):
        # An outward bump is the peak of Q, an inward one the peak of w.
        g = geometry.build_grid(2, "full-2d", (32, 16))
        for amp, monitor in ((1e-4, verify.q_monitor),
                             (-1e-4, verify.w_monitor)):
            rho = np.full(g.nnodes, 1.25)
            rho[node] += amp
            assert monitor(geometry.surface_jet(g, rho)).node == node


class TestIdentityCheck:
    def test_exact_round_solution(self):
        # 1/r^2 = 1.25/r^3 at r = 1.25: exact solution of the n=2 k=2 data
        jet = round_jet(1.25, n=2)
        defect = verify.identity_check(jet, round_data(), 2)
        assert defect < 1e-12

    def test_converged_state_defect(self):
        g = geometry.build_grid(2, "full-2d", (32, 16))
        data = round_data()
        jet, _ = solver.newton_solve(g, np.full(g.nnodes, 1.1), data, 2)
        assert verify.identity_check(jet, data, 2) <= 1e-6

    def test_unconverged_state_scales_with_residual(self):
        # residual of order 1 shows up as a defect of order ~ residual/k
        jet = round_jet(1.0, n=2)
        data = round_data()   # f(1) = 1.25 while sigma_2 = 1
        defect = verify.identity_check(jet, data, 2)
        assert 0.01 < defect < 1.0

    def test_unconverged_state_defect_by_hand(self):
        # On the sphere of radius 0.8 in R^4 (n = 3) the eta spectrum is
        # 2 / 0.8 three times, so sum_i F^ii h_ii = sigma_2^(1/2) =
        # sqrt(3) * 2.5, against f^(1/2) = (1.25 / 0.8^3)^(1/2) = 1.5625.
        jet = round_jet(0.8, n=3)
        lhs, rhs = math.sqrt(3.0) * 2.5, math.sqrt(1.25 / 0.8**3)
        assert verify.identity_check(jet, round_data(), 2) == pytest.approx(
            abs(lhs - rhs) / rhs, rel=1e-12)


class TestEstimateReport:
    def test_field_names_and_purity(self):
        jet = round_jet(1.25)
        data = round_data()
        rep1 = verify.estimate_report(jet, data, 2)
        rep2 = verify.estimate_report(jet, data, 2)
        assert set(rep1) == {
            "max_abs_kappa", "max_grad_rho", "min_u", "rho_min", "rho_max",
            "q_value", "q_node", "w_value", "w_node", "identity_defect",
        }
        assert rep1 == rep2    # bit-identical on identical inputs
        assert all(np.isfinite(v) for v in rep1.values())
