"""Acceptance suite: one test per criterion, one pass/fail line each.

Tolerances are pinned in the assertions; each test prints
``ACCEPTANCE <n>: PASS <detail>`` on success (pytest reports the failure
otherwise).
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from etacurv import cli, flatcase, geometry, solver, symm
from etacurv.newton import NewtonConfig
from sigma_oracle import sigma_brute


def announce(num, detail):
    print(f"ACCEPTANCE {num}: PASS {detail}")


def power_decay(c, p):
    return lambda x, nu: c * np.linalg.norm(x, axis=-1) ** (-p)


def cone_points(n, k, count, rng, margin=0.01):
    """Gamma_k samples with a relative boundary margin (FD oracle validity)."""
    out = []
    while len(out) < count:
        lam = rng.standard_normal((8 * count, n)) * 2 + rng.uniform(0.5, 3)
        e = symm.elem_sym_all_batch(lam)
        scale = np.abs(lam).max(axis=1)
        ok = np.ones(len(lam), dtype=bool)
        for j in range(1, k + 1):
            ok &= e[:, j] > margin * scale**j
        out.extend(lam[ok][: count - len(out)])
    return np.asarray(out)


@pytest.fixture(scope="module")
def flat_quadratic_study():
    """Shared solves for criteria 7 and 8: f = 1 ball at three spacings."""
    f = lambda x, phi, grad: np.ones(x.shape[0])
    states = {}
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = flatcase.build_flat_grid(2, "ball", h=h)
        state, rep = flatcase.dirichlet_solve(grid, f, 2, beta=4.0)
        assert rep.converged
        states[h] = state
    return states


def test_criterion_1_sigma_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for n in range(2, 9):
        count = 10_000 // 7 + 1
        vals = rng.standard_normal((count, n)) * 3
        e = symm.elem_sym_all_batch(vals)
        for m in range(n + 1):
            brute = np.array([sigma_brute(v, m) for v in vals])
            scale = np.maximum(np.abs(brute), 1.0)
            assert np.all(np.abs(e[:, m] - brute) / scale < 1e-12)
        checked += count
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(1, f"({checked} vectors, n=2..8, all m, rel err < 1e-12, "
                f"{elapsed:.1f}s)")


def test_criterion_2_derivative_consistency():
    start = time.time()
    rng = np.random.default_rng(202)
    pairs = [(n, k) for n in range(2, 6) for k in range(1, n + 1)]
    per = math.ceil(1000 / len(pairs))
    total = 0
    worst_grad = worst_hess = worst_euler = 0.0
    worst_conc = 0.0
    for n, k in pairs:
        pts = cone_points(n, k, per, rng)
        total += len(pts)

        def gval(v):
            return symm.elem_sym_all(v)[k] ** (1.0 / k)

        for lam in pts:
            co = symm.operator_coefficients(symm.SpectrumVector(lam, k))
            hs = 1e-5 * (1 + np.abs(lam))
            fd_grad = np.empty(n)
            fd_hess = np.empty((n, n))
            for i in range(n):
                e = np.zeros(n)
                e[i] = hs[i]
                fd_grad[i] = (gval(lam + e) - gval(lam - e)) / (2 * hs[i])
                # Hessian against differences of the analytic gradient:
                # second differences of G values bottom out near 1e-5
                # relative from roundoff, above the 1e-6 gate
                cp = symm.operator_coefficients(
                    symm.SpectrumVector(lam + e, k))
                cm = symm.operator_coefficients(
                    symm.SpectrumVector(lam - e, k))
                fd_hess[i] = (cp.gradient - cm.gradient) / (2 * hs[i])
            worst_grad = max(worst_grad,
                             np.abs(fd_grad - co.gradient).max()
                             / np.abs(fd_grad).max())
            hscale = max(np.abs(fd_hess).max(), 1e-12)
            worst_hess = max(worst_hess,
                             np.abs(fd_hess - co.hessian).max() / hscale)
            worst_euler = max(worst_euler,
                              abs(np.dot(co.gradient, lam) - co.value)
                              / co.value)
        half = len(pts) // 2
        for a, b in zip(pts[:half], pts[half:2 * half]):
            slack = gval((a + b) / 2) - 0.5 * (gval(a) + gval(b))
            worst_conc = min(worst_conc, slack)
    elapsed = time.time() - start
    assert worst_grad < 1e-6
    assert worst_hess < 1e-6
    assert worst_euler < 1e-10
    assert worst_conc >= -1e-12
    assert elapsed < 30.0
    announce(2, f"({total} cone points, grad {worst_grad:.1e}, "
                f"hess {worst_hess:.1e}, euler {worst_euler:.1e}, "
                f"concavity slack {worst_conc:.1e}, {elapsed:.1f}s)")


def test_criterion_3_round_sphere_recovery():
    start = time.time()
    grid = geometry.build_grid(2, "full-2d", (64, 32))
    data = solver.PrescribedData(f=power_decay(1.25, 3), r1=0.5, r2=2.0)
    run = solver.HomotopyRun(epsilon=0.01)
    rho, run = solver.continue_to_target(grid, data, run, 2)
    dev = float(np.abs(rho - 1.25).max())
    mon = run.trace[-1]["monitors"]
    elapsed = time.time() - start
    assert dev < 1e-6
    assert mon["identity_defect"] <= 1e-6
    assert mon["min_u"] >= 1.25 - 1e-4
    assert elapsed < 120.0
    announce(3, f"(|rho-1.25| = {dev:.2e}, identity defect "
                f"{mon['identity_defect']:.2e}, min u {mon['min_u']:.6f}, "
                f"{elapsed:.1f}s)")


def test_criterion_4_axisym_n3_round_recovery():
    start = time.time()
    grid = geometry.build_grid(3, "axisym-1d", (128,))
    # sigma_2 of the round eta spectrum is 12/r^2; 12/r^2 = c/r^3 at r = 1.2
    data = solver.PrescribedData(f=power_decay(12 * 1.2, 3),
                                 r1=0.5, r2=2.0)
    run = solver.HomotopyRun(epsilon=0.01)
    rho, run = solver.continue_to_target(grid, data, run, 2)
    dev = float(np.abs(rho - 1.2).max())
    elapsed = time.time() - start
    assert dev < 1e-6
    assert elapsed < 60.0
    announce(4, f"(|rho-1.2| = {dev:.2e}, {elapsed:.1f}s)")


def test_criterion_5_anisotropic_containment():
    start = time.time()

    def f(x, nu):
        return (1.0 + 0.2 * nu[..., 2]) * 1.25 \
            * np.linalg.norm(x, axis=-1) ** (-3)

    data = solver.PrescribedData(f=f, r1=0.5, r2=2.0)
    conditions = solver.validate_conditions(data, 2, 2)
    assert conditions.passed
    results = {}
    for sizes in ((64, 32), (128, 64)):
        grid = geometry.build_grid(2, "full-2d", sizes)
        run = solver.HomotopyRun(epsilon=0.01)
        rho, run = solver.continue_to_target(grid, data, run, 2)
        h = grid.spacing
        for rec in run.trace:
            assert rec["monitors"]["rho_min"] >= data.r1 - 2 * h
            assert rec["monitors"]["rho_max"] <= data.r2 + 2 * h
        jet = geometry.surface_jet(grid, rho)
        results[sizes] = (float(np.abs(jet.kappa).max()),
                          float(jet.grad_norm.max()))
    (k1, g1), (k2, g2) = results[(64, 32)], results[(128, 64)]
    kappa_change = abs(k1 - k2) / k2
    grad_change = abs(g1 - g2) / g2
    elapsed = time.time() - start
    assert kappa_change < 0.05
    assert grad_change < 0.05
    assert elapsed < 600.0
    announce(5, f"(containment at every t; doubling changes: max|kappa| "
                f"{kappa_change:.2e}, max|grad rho| {grad_change:.2e}, "
                f"{elapsed:.1f}s)")


def test_criterion_6_barrier_rejection(tmp_path):
    start = time.time()
    cfg = {
        "n": 2, "k": 2,
        "grid": {"mode": "full-2d", "sizes": [16, 16]},
        "f": {"builtin": "constant", "value": 3.0},
        "r1": 0.5, "r2": 2.0,
        "epsilon": 0.01,
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli.main, ["solve-surface", "--config",
                                           str(cfgp), "--out", str(out)])
    elapsed = time.time() - start
    assert result.exit_code == 3
    err = json.loads((out / "error.json").read_text())
    margin = err["conditions"]["monotonicity_margin"]
    assert margin > 0
    assert elapsed < 1.0
    announce(6, f"(exit 3, monotonicity margin {margin:.3f}, "
                f"{elapsed:.1f}s)")


def test_criterion_7_flat_quadratic_order(flat_quadratic_study):
    start = time.time()
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        state = flat_quadratic_study[h]
        exact = 0.5 * (np.einsum("ni,ni->n", state.grid.pts,
                                 state.grid.pts) - 1.0)
        errs.append(float(np.abs(state.phi - exact).max()))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.time() - start
    assert all(1.8 <= o <= 2.2 for o in orders), (errs, orders)
    announce(7, f"(errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
                f"orders {orders[0]:.2f}, {orders[1]:.2f}, {elapsed:.1f}s)")


def test_criterion_8_pogorelov_stability(flat_quadratic_study):
    vals = [flatcase.pogorelov_monitor(flat_quadratic_study[h])
            for h in (1 / 32, 1 / 64)]
    change = abs(vals[0] - vals[1]) / vals[1]
    assert change < 0.05
    announce(8, f"(beta=4 monitor {vals[0]:.6f} vs {vals[1]:.6f}, "
                f"change {change:.2e})")


def test_criterion_9_jacobian_oracle():
    start = time.time()
    rng = np.random.default_rng(909)

    # curved pipeline
    grid = geometry.build_grid(2, "full-2d", (24, 16))
    data = solver.PrescribedData(f=power_decay(1.25, 3), r1=0.5, r2=2.0)
    rho = (1.2 + 0.05 * np.sin(grid.theta) * np.cos(grid.phi)
           + 0.03 * np.cos(grid.theta))
    jac = solver.assemble_jacobian(grid, rho, data, 2)
    v = rng.standard_normal(grid.nnodes)
    v /= np.abs(v).max()
    eps = 1e-6
    fd = (solver.residual(grid, rho + eps * v, data, 2)
          - solver.residual(grid, rho - eps * v, data, 2)) / (2 * eps)
    jv = jac @ v
    curved_err = float(np.abs(jv - fd).max() / np.abs(fd).max())
    assert curved_err < 1e-5

    # flat pipeline
    fgrid = flatcase.build_flat_grid(2, "ball", h=1 / 16)
    fflat = lambda x, phi, grad: 1.0 + np.einsum("ni,ni->n", grad, grad)
    phi = 0.5 * (np.einsum("ni,ni->n", fgrid.pts, fgrid.pts) - 1.0)
    phi = phi * (1.0 + 0.05 * np.sin(3 * fgrid.pts[:, 0]))
    state = flatcase.build_flat_state(fgrid, phi)
    fjac = flatcase.flat_jacobian(state, fflat, 2)
    w = rng.standard_normal(fgrid.ninterior)
    w /= np.abs(w).max()

    def fres(p):
        return flatcase.flat_residual(
            flatcase.build_flat_state(fgrid, p), fflat, 2)

    fd2 = (fres(phi + eps * w) - fres(phi - eps * w)) / (2 * eps)
    flat_err = float(np.abs(fjac @ w - fd2).max() / np.abs(fd2).max())
    elapsed = time.time() - start
    assert flat_err < 1e-5
    assert elapsed < 30.0
    announce(9, f"(J·v vs FD: curved {curved_err:.1e}, flat "
                f"{flat_err:.1e}, {elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "n": 2, "k": 2,
        "grid": {"mode": "full-2d", "sizes": [64, 32]},
        "f": {"builtin": "power_decay", "c": 1.25, "p": 3},
        "r1": 0.5, "r2": 2.0,
        "epsilon": 0.01,
        "newton": {"tol": 1e-10, "max_iter": 40},
        "t_schedule": {"dt0": 0.1, "dt_min": 1e-4, "dt_max": 0.5},
        "seed": 0,
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    runner = CliRunner()
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = runner.invoke(cli.main, ["solve-surface", "--config",
                                          str(cfgp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    assert abs(report["monitors"]["rho_max"] - 1.25) < 1e-6
    announce(10, f"(two runs, byte-identical report of "
                 f"{len(blobs[0])} bytes)")
