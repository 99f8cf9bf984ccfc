"""The three fixed workloads: input data from a seed, set-up, solve, check.

Each workload is a closed loop of one solve at a time through the public
``etacurv`` API. ``params(seed, sample)`` derives the input data of a
run's sample-th sample from the seed; ``setup`` builds the grids;
``inputs`` makes the prescribed data handed to the solver (``wrap`` lets
the tracer time the ``f`` callback); ``solve`` runs the pipeline to an
answer, its final monitors and the same artifacts the CLI writes; ``check`` compares the answer with the exact
solution or with the recorded reference in ``reference.json``.

What the seed changes, and why no more:

* ``flat_ball_3d_h12``: the data is one of ``NVARIANTS`` values of c1 in
  [0.5, 1.5] (variant 0 is c1 = 1); the j-th sample of a run with seed s
  solves variant (s + j) mod ``NVARIANTS``. Every variant takes the same
  three Newton iterations, but SuperLU's pivoting gives each its own LU
  fill, so a run spreads over variants instead of resting on one.
* ``axisym_round_sweep``: the seed shuffles the order of the 20 solves
  (seed 0 keeps the natural order). The solves share no state, so each
  does the same work in any order. R stays 1.2: the number of homotopy
  attempts that stagnate at the roundoff floor is chaotic in R. R in
  [1.19, 1.21] took 4.7 to 14.0 s, and R = 1.2 + 1e-13 ends in a
  homotopy step underflow.
* ``surface_aniso_128x64``: the seed changes nothing. Changing c by
  1e-7 relative, or mirroring the data (delta = -0.2), takes 8 accepted
  homotopy steps instead of 9; jittering c and delta by 1% takes 7 to 10
  steps and 3.5 to 6.2 s instead of 5.7 s. Jittered data would measure
  that lottery, not the code.

The etacurv modules arrive as the namespace ``ec`` because the worker
imports them from the checkout's ``src`` only after pinning BLAS threads.
"""

import hashlib
import math
import os
import random

import numpy as np

NVARIANTS = 16
REL_TOL = 1e-6


def _rel_close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref)


def _digest(x):
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16]


class SurfaceAniso:
    """Curved pipeline on criterion 5's finest grid, anisotropic data."""

    name = "surface_aniso_128x64"
    n, k, p, axis, r1, r2, epsilon = 2, 2, 3.0, 2, 0.5, 2.0, 0.01
    sizes = (128, 64)
    reference_seeds = (0,)

    def params(self, seed, sample=0):
        return {"variant": 0, "c": 1.25, "delta": 0.2}

    def setup(self, ec):
        return {self.n: ec.geometry.build_grid(self.n, "full-2d", self.sizes)}

    def inputs(self, ec, params, wrap):
        c, delta, p, axis = params["c"], params["delta"], self.p, self.axis

        def f(x, nu):
            return (c * (1.0 + delta * nu[..., axis])
                    * np.linalg.norm(x, axis=-1) ** (-p))

        data = ec.solver.PrescribedData(f=wrap(f), r1=self.r1, r2=self.r2)
        return [(data, self.n, self.k)]

    def precheck(self, ec, inputs):
        return _validate(ec, inputs)

    def solve(self, ec, grids, inputs, outdir, region):
        return [_surface_solve(ec, grids[n], data, k, self.epsilon, outdir,
                               region) for data, n, k in inputs]

    def check(self, solves, params, reference):
        out = solves[0]
        errors = []
        if out["final_t"] != 1.0:
            errors.append(f"homotopy stopped at t={out['final_t']}")
        if not out["final_max_residual"] <= out["tol"]:
            errors.append(f"final residual {out['final_max_residual']:.3e}"
                          f" above tol {out['tol']:.1e}")
        h = out["spacing"]
        for t, lo, hi in out["rho_range"]:
            if lo < self.r1 - 2 * h or hi > self.r2 + 2 * h:
                errors.append(f"rho range [{lo}, {hi}] leaves the barrier "
                              f"annulus at t={t}")
        mon = out["monitors"]
        if not mon["identity_defect"] <= 1e-6:
            errors.append(f"identity defect {mon['identity_defect']:.3e}")
        ref = reference[str(params["variant"])]
        for key in ("max_abs_kappa", "max_grad_rho"):
            if not _rel_close(mon[key], ref[key]):
                errors.append(f"{key} {mon[key]!r} differs from reference "
                              f"{ref[key]!r}")
        return errors

    def reference_values(self, solves):
        mon = solves[0]["monitors"]
        return {key: mon[key] for key in ("max_abs_kappa", "max_grad_rho")}


class AxisymRoundSweep:
    """20 axisym-1d solves, one per (n, k) with 2 <= n <= 6, 1 <= k <= n.

    Round data f = C(n,k) (n-1)^k R / |X|^(k+1): the exact solution is the
    sphere rho = R.
    """

    name = "axisym_round_sweep"
    ntheta, r1, r2, epsilon = 128, 0.5, 2.0, 0.01
    cases = [(n, k) for n in range(2, 7) for k in range(1, n + 1)]
    reference_seeds = ()        # checked against the exact answer

    def params(self, seed, sample=0):
        order = list(range(len(self.cases)))
        if seed:
            random.Random(seed).shuffle(order)
        return {"R": 1.2, "order": order}

    def setup(self, ec):
        return {n: ec.geometry.build_grid(n, "axisym-1d", self.ntheta)
                for n in sorted({n for n, _ in self.cases})}

    def inputs(self, ec, params, wrap):
        radius = params["R"]
        out = []
        for i in params["order"]:
            n, k = self.cases[i]
            const = math.comb(n, k) * (n - 1) ** k * radius

            def f(x, nu, const=const, k=k):
                return const * np.linalg.norm(x, axis=-1) ** (-(k + 1))

            data = ec.solver.PrescribedData(f=wrap(f), r1=self.r1, r2=self.r2)
            out.append((data, n, k))
        return out

    def precheck(self, ec, inputs):
        return _validate(ec, inputs)

    def solve(self, ec, grids, inputs, outdir, region):
        return [_surface_solve(ec, grids[n], data, k, self.epsilon,
                               os.path.join(outdir, f"n{n}_k{k}"), region)
                for data, n, k in inputs]

    def check(self, solves, params, reference):
        errors = []
        for out in solves:
            err = abs(out["rho_max"] - params["R"])
            err = max(err, abs(out["rho_min"] - params["R"]))
            if not err < 1e-6:
                errors.append(f"n={out['n']} k={out['k']}: max|rho - R| = "
                              f"{err:.3e}")
        return errors

    def reference_values(self, solves):
        return {}


class FlatBall3d:
    """Flat Dirichlet pipeline on the 3-d unit ball, h = 1/12, k = 2."""

    name = "flat_ball_3d_h12"
    dim, k, h, c0, beta = 3, 2, 1.0 / 12, 1.0, 4.0
    reference_seeds = range(NVARIANTS)

    def params(self, seed, sample=0):
        v = (seed + sample) % NVARIANTS
        if v == 0:
            return {"variant": 0, "c1": 1.0}
        return {"variant": v, "c1": random.Random(v).uniform(0.5, 1.5)}

    def setup(self, ec):
        return {self.dim: ec.flatcase.build_flat_grid(self.dim, "ball",
                                                      h=self.h)}

    def inputs(self, ec, params, wrap):
        c0, c1 = self.c0, params["c1"]

        def f(x, phi, grad):
            return c0 + c1 * np.einsum("ni,ni->n", grad, grad)

        return [(wrap(f), self.dim, self.k)]

    def precheck(self, ec, inputs):
        # The flat pipeline has no barrier conditions; dirichlet_solve
        # checks the positivity of f itself.
        return []

    def solve(self, ec, grids, inputs, outdir, region):
        fc, cli = ec.flatcase, ec.cli
        (f, dim, k), = inputs
        state, rep = fc.dirichlet_solve(grids[dim], f, k, beta=self.beta)
        res = fc.flat_residual(state, f, k)
        report = {
            "converged": rep.converged,
            "iterations": rep.iterations,
            "final_max_residual": rep.final_residual,
            "pogorelov": fc.pogorelov_monitor(state),
            "pogorelov_beta": self.beta,
            "phi_min": float(state.phi.min()),
            "phi_max": float(state.phi.max()),
            "interior_negative": bool(state.phi.max() < 0.0),
            "max_hessian_norm": float(np.abs(state.hess).max()),
        }
        with region("serialize"):
            nbytes = _write_all(cli, outdir, {
                "flat.csv": fc.flat_csv_text(state, res),
                "report.json": cli.json_text(report) + "\n",
            })
        report.update(newton_iterations=[rep.iterations], accepted_steps=1,
                      bytes=nbytes, digest=_digest(state.phi))
        return [report]

    def check(self, solves, params, reference):
        out = solves[0]
        errors = []
        if not out["converged"]:
            errors.append("Newton did not converge")
        if not out["interior_negative"]:
            errors.append(f"phi_max = {out['phi_max']!r} is not negative")
        ref = reference[str(params["variant"])]
        for key in ("phi_min", "pogorelov"):
            if not _rel_close(out[key], ref[key]):
                errors.append(f"{key} {out[key]!r} differs from reference "
                              f"{ref[key]!r}")
        return errors

    def reference_values(self, solves):
        return {key: solves[0][key] for key in ("phi_min", "pogorelov")}


def _validate(ec, inputs):
    errors = []
    for data, n, k in inputs:
        report = ec.solver.validate_conditions(data, n, k)
        if not report.passed:
            errors.append(f"n={n} k={k}: data fails validate_conditions: "
                          f"{report.as_dict()}")
    return errors


def _write_all(cli, outdir, texts):
    nbytes = 0
    for fname, text in texts.items():
        cli.atomic_write_text(os.path.join(outdir, fname), text)
        nbytes += len(text.encode())
    return nbytes


def _surface_solve(ec, grid, data, k, epsilon, outdir, region):
    """Continuity-method solve, final monitors and artifacts, as the CLI."""
    solver, geometry, verify, cli = ec.solver, ec.geometry, ec.verify, ec.cli
    n = grid.n
    run = solver.HomotopyRun(epsilon=epsilon)
    rho, run = solver.continue_to_target(grid, data, run, k)
    jet = geometry.surface_jet(grid, rho)
    data1 = solver.homotopy_f(data, n, k, run.epsilon, 1.0)
    monitors = verify.estimate_report(jet, data1, k, A=run.monitor_A,
                                      alpha=run.monitor_alpha)
    report = {
        "n": n, "k": k,
        "accepted_steps": len(run.trace),
        "final_t": run.trace[-1]["t"],
        "final_max_residual": run.trace[-1]["max_residual"],
        "monitors": monitors,
    }
    with region("serialize"):
        nbytes = _write_all(cli, outdir, {
            "trace.jsonl": "".join(cli.json_text(rec) + "\n"
                                   for rec in run.trace),
            "surface.csv": geometry.surface_csv_text(jet, k),
            "report.json": cli.json_text(report) + "\n",
        })
    report.update(
        tol=run.newton.tol,
        spacing=grid.spacing,
        rho_min=float(rho.min()),
        rho_max=float(rho.max()),
        rho_range=[(rec["t"], rec["monitors"]["rho_min"],
                    rec["monitors"]["rho_max"]) for rec in run.trace],
        newton_iterations=[rec["newton_iterations"] for rec in run.trace],
        bytes=nbytes,
        digest=_digest(rho),
    )
    return report


WORKLOADS = {w.name: w for w in (SurfaceAniso(), AxisymRoundSweep(),
                                 FlatBall3d())}
