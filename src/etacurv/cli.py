"""Command-line entry point.

One subcommand per pipeline: ``solve-surface`` runs the continuity-method
solve on a radial graph, ``solve-flat`` runs the Euclidean Dirichlet
problem, and the ``oracle`` group exposes the brute-force symmetric
function utilities for debugging. Reports are deterministic JSON (sorted
keys, floats at 17 significant digits) and every artifact is written
atomically (temp file + rename).

Exit codes: 0 converged, 2 configuration error, 3 precondition failed,
4 Newton or continuation failure.
"""

import json
import math
import os
import sys
import tempfile

import click
import numpy as np

from . import flatcase, geometry, solver, symm
from .errors import (ConfigError, ContinuationStuck, DomainError,
                     NewtonDiverged, PreconditionError)
from .newton import NewtonConfig

__all__ = ["main", "json_text", "atomic_write_text", "load_config"]


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x):
    if not math.isfinite(x):
        return "null"
    return "{:.17g}".format(x)


def _json_parts(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _json_parts(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _json_parts(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj):
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    out = []
    _json_parts(obj, out)
    return "".join(out)


def atomic_write_text(path, text):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# configuration


def _apply_override(cfg, spec):
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} is not of the form key=value")
    path, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = path.split(".")
    cur = cfg
    for part in parts[:-1]:
        cur = cur.setdefault(part, {})
        if not isinstance(cur, dict):
            raise ConfigError(f"override path '{path}' crosses a non-object")
    cur[parts[-1]] = value


def load_config(path, overrides=()):
    """Parse the JSON run configuration and apply dot-path overrides."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for spec in overrides:
        _apply_override(cfg, spec)
    return cfg


_REQUIRED = object()


def _get(cfg, path, typ, default=_REQUIRED):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{path}'")
            return default
        cur = cur[part]
    if (isinstance(cur, bool)
            or not isinstance(cur, (int, float) if typ is float else typ)):
        raise ConfigError(f"key '{path}' must be of type {typ.__name__}")
    if typ is float:
        # JSON admits NaN and Infinity, and integers too large for a float.
        if isinstance(cur, int) and abs(cur) > sys.float_info.max:
            cur = math.inf
        if not math.isfinite(cur):
            raise ConfigError(f"key '{path}' must be a finite number")
    return typ(cur) if typ in (float, int) else cur


def _given(cfg, **keys):
    """Keyword arguments from the (path, type) keys present in the config;
    the function or dataclass taking them holds the defaults."""
    values = {name: _get(cfg, *key, None) for name, key in keys.items()}
    return {name: v for name, v in values.items() if v is not None}


# ---------------------------------------------------------------------------
# builtin right-hand sides


def _power_decay(cfg):
    c = _get(cfg, "f.c", float)
    p = _get(cfg, "f.p", float)
    if c <= 0:
        raise ConfigError("key 'f.c' must be positive")
    return lambda x, nu: c * np.linalg.norm(x, axis=-1) ** (-p)


def _aniso_power(cfg, n):
    c = _get(cfg, "f.c", float)
    p = _get(cfg, "f.p", float)
    delta = _get(cfg, "f.delta", float)
    axis = _get(cfg, "f.axis", int, -1)
    if not abs(delta) < 1.0:
        raise ConfigError("key 'f.delta' must satisfy |delta| < 1")
    if not -(n + 1) <= axis <= n:
        raise ConfigError(f"key 'f.axis' must index one of the n + 1 = "
                          f"{n + 1} coordinates, got {axis}")
    return lambda x, nu: (c * (1.0 + delta * nu[..., axis])
                          * np.linalg.norm(x, axis=-1) ** (-p))


def _grad_sq(cfg):
    c0 = _get(cfg, "f.c0", float, 1.0)
    c1 = _get(cfg, "f.c1", float, 1.0)
    if c0 <= 0 or c1 < 0:
        raise ConfigError("key 'f.c0' must be positive and 'f.c1' "
                          "nonnegative")
    return lambda x, phi, grad: (
        c0 + c1 * np.einsum("ni,ni->n", grad, grad))


def _constant(cfg):
    value = _get(cfg, "f.value", float)
    if value <= 0:
        raise ConfigError("key 'f.value' must be positive")
    return lambda x: np.full(x.shape[:-1], value)


def _tabulated(cfg):
    radii = np.asarray(_get(cfg, "f.r", list), dtype=float)
    values = np.asarray(_get(cfg, "f.values", list), dtype=float)
    if radii.size != values.size or radii.size < 2:
        raise ConfigError("key 'f.r' and 'f.values' must be equal-length "
                          "tables with at least two entries")
    if np.any(np.diff(radii) <= 0):
        raise ConfigError("key 'f.r' must be strictly increasing")
    if np.any(values <= 0):
        raise ConfigError("key 'f.values' must be positive")
    return lambda x: np.interp(np.linalg.norm(x, axis=-1), radii, values)


# Builtins that depend on the position only serve both pipelines; each
# pipeline lifts them to its own argument list.
_POSITION_BUILTINS = {"constant": _constant, "tabulated": _tabulated}
_FLAT_BUILTINS = {"grad_sq": _grad_sq}


def _build_f(spec, own, kind, lift):
    cfg = {"f": spec}       # so that errors name the keys' full paths
    name = _get(cfg, "f.builtin", str)
    if name in _POSITION_BUILTINS:
        return lift(_POSITION_BUILTINS[name](cfg))
    if name in own:
        return own[name](cfg)
    raise ConfigError(f"key 'f.builtin': unknown {kind} builtin {name!r}")


def build_surface_f(spec, n):
    """Callable f(X, nu) on S^n from the config's builtin catalog entry."""
    own = {"power_decay": _power_decay,
           "aniso_power": lambda cfg: _aniso_power(cfg, n)}
    return _build_f(spec, own, "surface", lambda g: lambda x, nu: g(x))


def build_flat_f(spec):
    """Callable f(x, phi, grad phi) from the flat builtin catalog."""
    return _build_f(spec, _FLAT_BUILTINS, "flat",
                    lambda g: lambda x, phi, grad: g(x))


# ---------------------------------------------------------------------------
# command plumbing


# Bad input as the config stage sees it; the grid builders reject
# malformed sizes with ValueError and unsupported dimensions with DomainError.
_CONFIG_ERRORS = (ConfigError, DomainError, ValueError)


def _jsonl(records):
    return "".join(json_text(rec) + "\n" for rec in records)


def _run_command(config_path, outdir, overrides, setup):
    """Config stage, solve and artifacts of one command; every exit code
    is set at this one boundary.

    ``setup(cfg, n, k, newton)`` reads the command's own keys, builds its
    grid and returns the HomotopyRun whose conditions an exit-3 error.json
    carries (None if the command has none) and a callable that solves and
    returns the artifact texts by file name with a one-line summary.
    """
    run = solve = None
    try:
        cfg = load_config(config_path, overrides)
        n = _get(cfg, "n", int)
        k = _get(cfg, "k", int)
        if n < 2:
            raise ConfigError("key 'n' must be at least 2")
        if not 1 <= k <= n:
            raise ConfigError(f"key 'k' must lie in [1, n] = [1, {n}]")
        newton = NewtonConfig(**_given(
            cfg, tol=("newton.tol", float), max_iter=("newton.max_iter", int),
            jacobian=("newton.jacobian", str), form=("newton.form", str)))
        run, solve = setup(cfg, n, k, newton)
        texts, summary = solve()
        code, message = 0, f"{summary}; report in {outdir}/report.json"
    except _CONFIG_ERRORS as exc:
        # Once the solve runs, only a ConfigError is bad input.
        if solve is not None and not isinstance(exc, ConfigError):
            raise
        code, texts, message = 2, {}, f"config error: {exc}"
    # ConeExit is a NewtonDiverged; a ContinuationStuck carries the trace.
    except (PreconditionError, ContinuationStuck, NewtonDiverged) as exc:
        code = 3 if isinstance(exc, PreconditionError) else 4
        payload = {"error": type(exc).__name__, "message": str(exc),
                   "exit_code": code}
        if code == 3 and getattr(run, "conditions", None) is not None:
            payload["conditions"] = run.conditions.as_dict()
        rep = getattr(exc, "report", None)      # the failed Newton solve's
        if rep is not None:
            payload.update(residual_history=rep.residual_history,
                           step_fractions=rep.step_fractions, tol=rep.tol)
        trace = getattr(exc, "trace", None)
        texts = {} if trace is None else {"trace.jsonl": _jsonl(trace)}
        texts["error.json"] = json_text(payload) + "\n"
        message = f"error: {exc}"
    for name, text in texts.items():
        atomic_write_text(os.path.join(outdir, name), text)
    click.echo(message, err=code != 0)
    sys.exit(code)


def _surface_setup(cfg, n, k, newton):
    fcall = build_surface_f(_get(cfg, "f", dict), n)
    data = solver.PrescribedData(
        f=fcall, r1=_get(cfg, "r1", float), r2=_get(cfg, "r2", float))
    run = solver.HomotopyRun(newton=newton, **_given(
        cfg, epsilon=("epsilon", float), dt0=("t_schedule.dt0", float),
        dt_min=("t_schedule.dt_min", float),
        dt_max=("t_schedule.dt_max", float)))
    grid = geometry.build_grid(n, _get(cfg, "grid.mode", str),
                               _get(cfg, "grid.sizes", list))

    def solve():
        rho, _ = solver.continue_to_target(grid, data, run, k)
        final = run.trace[-1]      # holds the monitors of rho at t = 1
        report = {
            "config": cfg,
            "converged": True,
            "conditions": run.conditions.as_dict(),
            "nonunique": run.conditions.zero_margin,
            "accepted_steps": len(run.trace),
            "final_t": final["t"],
            "final_max_residual": final["max_residual"],
            "tol": final["tol"],
            "monitors": final["monitors"],
        }
        jet = geometry.surface_jet(grid, rho)
        return ({"trace.jsonl": _jsonl(run.trace),
                 "surface.csv": geometry.surface_csv_text(jet, k),
                 "report.json": json_text(report) + "\n"},
                f"converged in {len(run.trace)} accepted steps")

    return run, solve


def _flat_setup(cfg, n, k, newton):
    fcall = build_flat_f(_get(cfg, "f", dict))
    grid = flatcase.build_flat_grid(n, h=_get(cfg, "grid.h", float), **_given(
        cfg, shape=("grid.shape", str), radius=("grid.radius", float),
        bounds=("grid.bounds", list)))
    beta_kw = _given(cfg, beta=("beta", float))

    def solve():
        fields = {}     # of the last residual, at the returned state
        state, rep = flatcase.dirichlet_solve(grid, fcall, k, config=newton,
                                              fields=fields, **beta_kw)
        report = {
            "config": cfg,
            "converged": rep.converged,
            "iterations": rep.iterations,
            "final_max_residual": rep.final_residual,
            "tol": rep.tol,
            "pogorelov": flatcase.pogorelov_monitor(state),
            "pogorelov_beta": state.pogorelov_beta,
            "phi_min": float(state.phi.min()),
            "phi_max": float(state.phi.max()),
            "interior_negative": bool(state.phi.max() < 0.0),
            "max_hessian_norm": float(np.abs(state.hess).max()),
        }
        # flat.csv holds the raw residual, whatever form the solve used.
        res = fields["sigma"] - fields["f"]
        return ({"flat.csv": flatcase.flat_csv_text(state, res),
                 "report.json": json_text(report) + "\n"},
                f"converged in {rep.iterations} iterations")

    return None, solve


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(), help="JSON run configuration")(fn)
    fn = click.option("--out", "outdir", default="out", show_default=True,
                      type=click.Path(), help="artifact directory")(fn)
    fn = click.option("--override", "overrides", multiple=True,
                      metavar="KEY=VALUE",
                      help="dot-path config override, repeatable")(fn)
    return fn


@click.group()
def main():
    """Numerical laboratory for the equation sigma_k(lambda(eta)) = f."""


@main.command("solve-surface")
@_common_options
def cmd_solve_surface(config_path, outdir, overrides):
    """Continuity-method solve of the curved problem; writes trace,
    surface CSV, and report JSON."""
    _run_command(config_path, outdir, overrides, _surface_setup)


@main.command("solve-flat")
@_common_options
def cmd_solve_flat(config_path, outdir, overrides):
    """Dirichlet solve of the flat problem; writes flat CSV and report."""
    _run_command(config_path, outdir, overrides, _flat_setup)


# ---------------------------------------------------------------------------
# oracle utilities


@main.group()
def oracle():
    """Brute-force symmetric function utilities for debugging."""


def _parse_values(tokens):
    try:
        vals = [float(t) for t in tokens]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if len(vals) < 2:
        raise click.UsageError("need at least two eigenvalues")
    if len(vals) > 12:
        raise click.UsageError("enumeration oracle limited to n <= 12")
    return np.asarray(vals)


@oracle.command("sigma",
                context_settings={"ignore_unknown_options": True})
@click.argument("values", nargs=-1, required=True)
@click.option("--m", type=int, required=True, help="order of sigma_m")
def oracle_sigma(values, m):
    """sigma_m by explicit subset enumeration."""
    lam = _parse_values(values)
    if not 0 <= m <= lam.size:
        raise click.UsageError(f"--m must lie in [0, {lam.size}]")
    click.echo(_fmt_float(symm.sigma_brute(lam, m)))


@oracle.command("cone",
                context_settings={"ignore_unknown_options": True})
@click.argument("values", nargs=-1, required=True)
@click.option("--k", type=int, required=True, help="cone order")
def oracle_cone(values, k):
    """Gamma_k membership verdict by enumeration."""
    lam = _parse_values(values)
    if not 1 <= k <= lam.size:
        raise click.UsageError(f"--k must lie in [1, {lam.size}]")
    inside = all(symm.sigma_brute(lam, j) > 0.0 for j in range(1, k + 1))
    click.echo("inside" if inside else "outside")


@oracle.command("coeffs",
                context_settings={"ignore_unknown_options": True})
@click.argument("values", nargs=-1, required=True)
@click.option("--k", type=int, required=True, help="operator order")
@click.option("--step", type=float, default=1e-5, show_default=True,
              help="finite difference step scale")
def oracle_coeffs(values, k, step):
    """G = sigma_k^(1/k) with gradient and Hessian by central differences."""
    lam = _parse_values(values)
    n = lam.size
    if not 1 <= k <= n:
        raise click.UsageError(f"--k must lie in [1, {n}]")
    inside = all(symm.sigma_brute(lam, j) > 0.0 for j in range(1, k + 1))
    if not inside:
        raise click.UsageError("point is outside Gamma_k")

    def g(v):
        return symm.sigma_brute(v, k) ** (1.0 / k)

    hs = step * (1.0 + np.abs(lam))
    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hs[i]
        grad[i] = (g(lam + ei) - g(lam - ei)) / (2.0 * hs[i])
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = hs[j]
            hess[i, j] = (g(lam + ei + ej) - g(lam + ei - ej)
                          - g(lam - ei + ej) + g(lam - ei - ej)) \
                / (4.0 * hs[i] * hs[j])

    click.echo(f"G = {_fmt_float(g(lam))}")
    click.echo("grad = " + " ".join(_fmt_float(v) for v in grad))
    for i in range(n):
        click.echo("hess = " + " ".join(_fmt_float(v) for v in hess[i]))


if __name__ == "__main__":
    main()
