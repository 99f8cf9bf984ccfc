"""Tests for the sphere grids and the radial-graph jet."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigen_oracle import eta_spectrum_from_kappa
from etacurv import geometry
from etacurv.errors import ConeViolationError, DomainError


def spheroid_rho(theta, a, c):
    """Radial profile of the axisymmetric ellipsoid with semi-axes (a,a,c)."""
    return 1.0 / np.sqrt(np.sin(theta) ** 2 / a**2
                         + np.cos(theta) ** 2 / c**2)


def spheroid_kappa(theta, a, c):
    """Principal curvatures of the spheroid at polar angle theta.

    Closed form through the parametric latitude t of the meridian ellipse
    (x, z) = (a cos t, c sin t).
    """
    r = spheroid_rho(theta, a, c)
    cos_t = r * np.sin(theta) / a
    sin_t = r * np.cos(theta) / c
    q = np.sqrt(a**2 * sin_t**2 + c**2 * cos_t**2)
    k_meridian = a * c / q**3
    k_parallel = c / (a * q)
    return np.sort(np.stack([k_meridian, k_parallel], axis=1),
                   axis=1)[:, ::-1]


class TestBuildGrid:
    def test_full_2d_node_count(self):
        g = geometry.build_grid(2, "full-2d", (64, 32))
        assert g.nnodes == 2048

    def test_axisym_node_count(self):
        g = geometry.build_grid(3, "axisym-1d", (128,))
        assert g.nnodes == 128

    def test_n1_rejected(self):
        with pytest.raises(DomainError):
            geometry.build_grid(1, "axisym-1d", (64,))

    def test_full_2d_needs_n2(self):
        with pytest.raises(DomainError):
            geometry.build_grid(3, "full-2d", (32, 16))

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            geometry.build_grid(2, "full-2d", (4, 8))

    def test_no_pole_nodes(self):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        assert g.theta.min() > 0.0
        assert g.theta.max() < math.pi

    def test_stencils_kill_constants(self):
        for g in (geometry.build_grid(2, "full-2d", (16, 16)),
                  geometry.build_grid(3, "axisym-1d", (16,))):
            ones = np.ones(g.nnodes)
            expect = {"t", "tt"} | ({"p", "pp", "tp"}
                                    if g.mode == "full-2d" else set())
            assert set(g.ops) == expect
            for op in g.ops.values():
                assert np.abs(op @ ones).max() < 1e-12

    @pytest.mark.parametrize("ntheta", [8, 9, 32])
    def test_zonal_field_same_in_both_modes(self, ntheta):
        # a zonal field is even across the pole under the half-period
        # shift, so both modes' pole ghost rows must give the same values
        nphi = 8
        ga = geometry.build_grid(2, "axisym-1d", ntheta)
        gf = geometry.build_grid(2, "full-2d", (ntheta, nphi))
        profile = 1.1 + 0.2 * np.cos(ga.theta) + 0.05 * np.cos(3 * ga.theta)
        for name in ("t", "tt"):
            full = (gf.ops[name] @ np.repeat(profile, nphi)).reshape(
                ntheta, nphi)
            axi = ga.ops[name] @ profile
            assert np.abs(full - axi[:, None]).max() < 1e-12

    @pytest.mark.parametrize("mode,resolution", [
        ("full-2d", (16,)), ("full-2d", (16, 16, 4)), ("full-2d", 16),
        ("full-2d", ("a", 8)), ("full-2d", (16.0, 8)),
        ("axisym-1d", (32, 16)), ("axisym-1d", 32.5), ("axisym-1d", ()),
    ])
    def test_malformed_resolution(self, mode, resolution):
        with pytest.raises(ValueError):
            geometry.build_grid(2, mode, resolution)


class TestRoundSphere:
    @pytest.mark.parametrize("r", [0.7, 1.0, 1.25])
    def test_full_2d(self, r):
        g = geometry.build_grid(2, "full-2d", (32, 16))
        jet = geometry.surface_jet(g, np.full(g.nnodes, r))
        assert np.abs(jet.kappa - 1 / r).max() < 1e-12
        assert np.abs(jet.u - r).max() < 1e-12
        assert np.abs(jet.eta - 1 / r).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_axisym_any_n(self, n):
        r = 1.2
        g = geometry.build_grid(n, "axisym-1d", (48,))
        jet = geometry.surface_jet(g, np.full(g.nnodes, r))
        assert np.abs(jet.kappa - 1 / r).max() < 1e-12
        assert np.abs(jet.eta - (n - 1) / r).max() < 1e-12

    def test_sigma_k_round_n3(self):
        r = 1.5
        g = geometry.build_grid(3, "axisym-1d", (32,))
        jet = geometry.surface_jet(g, np.full(g.nnodes, r))
        sig = geometry.sigma_k_of_eta(jet, 2)
        assert np.abs(sig - 12.0 / r**2).max() < 1e-12

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2), (4, 3)])
    def test_sigma_k_unit_round_constant(self, n, k):
        g = geometry.build_grid(n, "axisym-1d", (32,))
        jet = geometry.surface_jet(g, np.ones(g.nnodes))
        sig = geometry.sigma_k_of_eta(jet, k)
        const = math.comb(n, k) * (n - 1) ** k
        assert np.abs(sig - const).max() < 1e-12

    def test_sigma_k_of_a_large_n_stops_at_k(self):
        # sigma_m of n = 400 entries of 399 passes the float range for large
        # m; only sigma_1..sigma_k are formed, so nothing overflows.
        g = geometry.build_grid(400, "axisym-1d", (16,))
        jet = geometry.surface_jet(g, np.ones(g.nnodes))
        with np.errstate(all="raise"):
            sig = geometry.sigma_k_of_eta(jet, 1)
        assert np.abs(sig / (400 * 399) - 1).max() < 1e-12


class TestJetInvariants:
    @pytest.fixture
    def jet(self):
        g = geometry.build_grid(2, "full-2d", (32, 32))
        rho = 1.2 + 0.1 * np.sin(g.theta) * np.cos(g.phi) \
            + 0.05 * np.cos(g.theta)
        return geometry.surface_jet(g, rho)

    def test_normal_is_unit(self, jet):
        norms = np.linalg.norm(jet.nu, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_support_closed_form(self, jet):
        # u = <X, nu> = rho^2 / sqrt(rho^2 + |grad rho|^2) = rho^2 / w
        assert np.abs(jet.u - jet.rho**2 / jet.raw["w"]).max() < 1e-12

    def test_eta_trace_rule(self, jet):
        n = jet.n
        lhs = jet.eta.sum(axis=1)
        rhs = (n - 1) * jet.H
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()

    def test_eta_matches_symm_path(self, jet):
        for p in range(0, jet.grid.nnodes, 97):
            es = eta_spectrum_from_kappa(jet.kappa[p])
            assert np.allclose(jet.eta[p], es.values, atol=1e-12)

    def test_gauss_product_n2_k2(self, jet):
        sig = geometry.sigma_k_of_eta(jet, 2)
        gauss = jet.kappa[:, 0] * jet.kappa[:, 1]
        assert np.abs(sig - gauss).max() < 1e-10 * np.abs(gauss).max()

    def test_rho_positive_required(self):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        rho = np.ones(g.nnodes)
        rho[3] = -0.1
        with pytest.raises(DomainError):
            geometry.surface_jet(g, rho)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode,sizes", [("full-2d", (16, 8)),
                                            ("axisym-1d", 16)])
    def test_rho_finite_required(self, bad, mode, sizes):
        g = geometry.build_grid(2, mode, sizes)
        rho = np.ones(g.nnodes)
        rho[[5, 11]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="node 5 has rho = "):
                geometry.surface_jet(g, rho)


def _oracle_kappa(g, h):
    """Descending eigenvalues of the Cholesky-reduced L^-1 h L^-T."""
    ell = np.linalg.cholesky(g)
    y = np.linalg.solve(ell, h)
    a = np.linalg.solve(ell, y.transpose(0, 2, 1))
    return np.linalg.eigvalsh(0.5 * (a + a.transpose(0, 2, 1)))[:, ::-1]


def _assert_matches_oracle(kappa, g, h):
    assert np.all(kappa[:, 0] >= kappa[:, 1])
    want = _oracle_kappa(g, h)
    size = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
    assert np.all(np.abs(kappa - want) <= 1e-12 * size)


# One node of a radial graph: rho, theta with sin(theta) >= sin(pi/256),
# and the first and covariant second derivatives of rho in units of rho
# and of the coordinate scale (1 along theta, sin(theta) along phi).
_sin_floor = math.pi / 256
radial_nodes = st.lists(
    st.tuples(st.floats(0.1, 10.0),
              st.floats(_sin_floor, math.pi - _sin_floor),
              *[st.floats(-2.0, 2.0)] * 2, *[st.floats(-5.0, 5.0)] * 3),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(radial_nodes)
def test_closed_form_curvatures_match_eigvalsh(nodes):
    rho, theta, q_t, q_p, u_tt, u_tp, u_pp = map(np.array, zip(*nodes))
    s = np.sin(theta)
    rt, rp = rho * q_t, rho * s * q_p
    w = np.sqrt(rho**2 + rt**2 + (rp / s) ** 2)
    g, h = geometry._fundamental_forms(rho, rt, rp, rho * u_tt,
                                       rho * s * u_tp, rho * s**2 * u_pp,
                                       s, w)
    _assert_matches_oracle(geometry._principal_curvatures(g, h), g, h)


ROUND_GRID = geometry.build_grid(2, "full-2d", (16, 8))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 10.0))
def test_closed_form_exact_at_umbilics(radius):
    jet = geometry.surface_jet(ROUND_GRID, np.full(ROUND_GRID.nnodes, radius))
    ulp = np.spacing(1.0 / radius)
    assert np.all(np.abs(jet.kappa - 1.0 / radius) <= 4 * ulp)
    assert np.all(jet.kappa[:, 0] - jet.kappa[:, 1] <= 4 * ulp)
    _assert_matches_oracle(jet.kappa, jet.raw["g"], jet.raw["h"])


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-9.0, -3.0),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_closed_form_near_umbilics(radius, log_eps, modes):
    th, ph = ROUND_GRID.theta, ROUND_GRID.phi
    shape = (modes[0] * np.cos(th) + modes[1] * np.sin(th) * np.cos(ph)
             + modes[2] * np.sin(th) ** 2 * np.sin(2 * ph))
    jet = geometry.surface_jet(ROUND_GRID,
                               radius * (1.0 + 10.0**log_eps * shape))
    _assert_matches_oracle(jet.kappa, jet.raw["g"], jet.raw["h"])


@pytest.mark.parametrize("c", [0.8, 1.3])         # oblate, prolate
@pytest.mark.parametrize("n,mode,sizes", [(2, "full-2d", (32, 16)),
                                          (2, "axisym-1d", 32),
                                          (4, "axisym-1d", 32)])
def test_kappa_descending(n, mode, sizes, c):
    g = geometry.build_grid(n, mode, sizes)
    jet = geometry.surface_jet(g, spheroid_rho(g.theta, 1.0, c))
    assert np.all(np.diff(jet.kappa, axis=1) <= 0.0)
    if mode == "full-2d":
        # The closed form returns kappa descending, so it is not re-sorted.
        want = geometry._principal_curvatures(jet.raw["g"], jet.raw["h"])
        assert jet.kappa.tobytes() == want.tobytes()
    else:
        kap_m, kap_p = jet.raw["kap_m"], jet.raw["kap_p"]
        assert np.array_equal(jet.kappa[:, 0], np.maximum(kap_m, kap_p))
        assert np.array_equal(jet.kappa[:, -1], np.minimum(kap_m, kap_p))
        # Only on the prolate spheroid does the parallel curvature lead
        # (away from the poles), so that the sort reorders kappa.
        assert np.any(kap_m < kap_p) == (c > 1.0)


class TestEllipsoidOracle:
    def test_axisym_convergence_order(self):
        a, c = 1.0, 1.3
        errs = []
        for nt in (32, 64, 128):
            g = geometry.build_grid(2, "axisym-1d", (nt,))
            jet = geometry.surface_jet(g, spheroid_rho(g.theta, a, c))
            oracle = spheroid_kappa(g.theta, a, c)
            errs.append(np.abs(jet.kappa - oracle).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders), (errs, orders)

    def test_full_2d_matches_oracle(self):
        a, c = 1.0, 1.3
        g = geometry.build_grid(2, "full-2d", (64, 32))
        jet = geometry.surface_jet(g, spheroid_rho(g.theta, a, c))
        oracle = spheroid_kappa(g.theta, a, c)
        assert np.abs(jet.kappa - oracle).max() < 5e-3


class TestConsistency:
    def test_frame_invariance_longitude_shift(self):
        g = geometry.build_grid(2, "full-2d", (24, 24))
        rho = (1.2 + 0.1 * np.sin(g.theta) * np.cos(g.phi)
               + 0.05 * np.cos(g.theta))
        sig = geometry.sigma_k_of_eta(geometry.surface_jet(g, rho), 2)
        shift = 5
        rho2 = np.roll(rho.reshape(24, 24), shift, axis=1).ravel()
        sig2 = geometry.sigma_k_of_eta(geometry.surface_jet(g, rho2), 2)
        expect = np.roll(sig.reshape(24, 24), shift, axis=1).ravel()
        assert np.abs(sig2 - expect).max() < 1e-10 * np.abs(sig).max()

    def test_axisym_vs_full_2d(self):
        def rho_of(theta):
            return 1.1 + 0.08 * np.cos(theta)

        ga = geometry.build_grid(2, "axisym-1d", (64,))
        jeta = geometry.surface_jet(ga, rho_of(ga.theta))
        gf = geometry.build_grid(2, "full-2d", (64, 16))
        jetf = geometry.surface_jet(gf, rho_of(gf.theta))
        # compare at matching theta nodes (same half-offset layout)
        kf = jetf.kappa.reshape(64, 16, 2)[:, 0, :]
        assert np.abs(kf - jeta.kappa).max() < 1e-8

    def test_round_sphere_exact_reproduction(self):
        # stencils are exact on constants, so the round sphere carries no
        # truncation error; convergence order is measured on the spheroid
        for nt in (16, 32):
            g = geometry.build_grid(2, "full-2d", (nt, nt))
            jet = geometry.surface_jet(g, np.full(g.nnodes, 1.3))
            assert np.abs(jet.kappa - 1 / 1.3).max() < 1e-12


class TestSigmaKErrors:
    def test_cone_violation_names_node(self):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        # strong oblate pancake: eta leaves Gamma_2 near the equator
        rho = spheroid_rho(g.theta, 1.0, 0.12)
        jet = geometry.surface_jet(g, rho)
        with pytest.raises(ConeViolationError) as exc:
            geometry.sigma_k_of_eta(jet, 2)
        assert exc.value.node is not None

    def test_bad_k(self):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        jet = geometry.surface_jet(g, np.ones(g.nnodes))
        with pytest.raises(ValueError):
            geometry.sigma_k_of_eta(jet, 3)


def surface_csv_rows(jet, k):
    """Row-by-row surface CSV, the oracle of the column formatter."""
    sig = geometry.sigma_k_of_eta(jet, k)
    n, grid = jet.n, jet.grid
    full = grid.mode == "full-2d"
    cols = ["node", "theta"] + (["phi"] if full else []) + ["rho"]
    cols += [f"X{c}" for c in range(n + 1)] + ["u"]
    cols += [f"kappa{i + 1}" for i in range(n)]
    cols += [f"eta_lambda{i + 1}" for i in range(n)] + ["sigma_k"]
    lines = [",".join(cols)]
    fmt = "{:.17g}".format
    for p in range(grid.nnodes):
        row = [str(p), fmt(grid.theta[p])]
        row += [fmt(grid.phi[p])] if full else []
        row += [fmt(jet.rho[p])] + [fmt(v) for v in jet.X[p]]
        row += [fmt(jet.u[p])] + [fmt(v) for v in jet.kappa[p]]
        row += [fmt(v) for v in jet.eta[p]] + [fmt(sig[p])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# Floats whose "{:.17g}" strings are easy to get wrong: both zeros, NaN
# with two payloads, both infinities, the smallest subnormal, the largest
# float, and ordinary values that a column repeats.
_NAN_PAYLOAD = np.array([0x7FF8000000000001]).view(np.float64)[0]
_CSV_POOL = [-0.0, 0.0, math.nan, _NAN_PAYLOAD, math.inf, -math.inf,
             5e-324, 1.7976931348623157e308, 1.2, 0.1, -3.5e-7, 1e16, 1e17]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_CSV_POOL), max_size=40))
def test_csv_column_formats_each_value(values):
    col = np.array(values, dtype=np.float64)
    want = ["{:.17g}".format(v) for v in values]
    assert geometry._csv_column(col) == want
    # A strided view, as the writers pass the columns of jet.X.
    pair = np.stack([col, col[::-1]], axis=1)
    assert geometry._csv_column(pair[:, 0]) == want


def _wavy_rho(g):
    return 1.0 + 0.05 * np.cos(g.theta) ** 2 + 0.02 * np.sin(
        g.theta) * np.cos(g.phi)


def _round_rho(g):
    return np.full(g.nnodes, 1.2)


class TestCsv:
    @pytest.mark.parametrize("n,mode,sizes,rho_of", [
        pytest.param(2, "full-2d", (16, 12), _wavy_rho, id="2-full-2d-sizes0"),
        pytest.param(4, "axisym-1d", 24, _wavy_rho, id="4-axisym-1d-24"),
        # Round data: most values of every column repeat.
        pytest.param(2, "full-2d", (16, 12), _round_rho, id="round-full-2d"),
        pytest.param(5, "axisym-1d", 24, _round_rho, id="round-axisym-n5"),
    ])
    def test_matches_row_oracle(self, n, mode, sizes, rho_of):
        g = geometry.build_grid(n, mode, sizes)
        jet = geometry.surface_jet(g, rho_of(g))
        assert geometry.surface_csv_text(jet, 2) == surface_csv_rows(jet, 2)

    def test_header_and_shape_full(self):
        g = geometry.build_grid(2, "full-2d", (16, 16))
        jet = geometry.surface_jet(g, np.full(g.nnodes, 1.25))
        text = geometry.surface_csv_text(jet, 2)
        lines = text.strip().split("\n")
        assert lines[0] == ("node,theta,phi,rho,X0,X1,X2,u,kappa1,kappa2,"
                            "eta_lambda1,eta_lambda2,sigma_k")
        assert len(lines) == 1 + g.nnodes
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == 1.25

    def test_header_axisym(self):
        g = geometry.build_grid(3, "axisym-1d", (16,))
        jet = geometry.surface_jet(g, np.ones(g.nnodes))
        text = geometry.surface_csv_text(jet, 2)
        header = text.split("\n", 1)[0]
        assert header == ("node,theta,rho,X0,X1,X2,X3,u,kappa1,kappa2,"
                          "kappa3,eta_lambda1,eta_lambda2,eta_lambda3,"
                          "sigma_k")
