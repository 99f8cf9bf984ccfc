"""Tests for the command-line interface and its serialization helpers."""

import json
import math
import os
import signal
import tempfile
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from etacurv import cli, flatcase, solver
from etacurv.errors import ConfigError
from etacurv.newton import NewtonConfig


SURFACE_CFG = {
    "n": 2, "k": 2,
    "grid": {"mode": "full-2d", "sizes": [32, 16]},
    "f": {"builtin": "power_decay", "c": 1.25, "p": 3},
    "r1": 0.5, "r2": 2.0,
    "epsilon": 0.01,
    "newton": {"tol": 1e-10, "max_iter": 40},
    "t_schedule": {"dt0": 0.1, "dt_min": 1e-4, "dt_max": 0.5},
    "seed": 0,
}

FLAT_CFG = {
    "n": 2, "k": 2,
    "grid": {"shape": "ball", "h": 0.125},
    "f": {"builtin": "constant", "value": 1.0},
    "newton": {"tol": 1e-10, "max_iter": 40},
}


def write_cfg(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)


RECT_GRID = 'grid={"shape": "rect", "h": 0.125, "bounds": %s}'
ANISO_F = ('f={"builtin": "aniso_power", "c": 1.25, "p": 3, "delta": 0.1, '
           '"axis": %d}')

# Malformed grids and data that only the library can reject; each must end
# in the config-error exit, not in a traceback. A third entry is text the
# message must hold.
CONFIG_PROBES = {
    "odd_nphi": ("solve-surface", ["grid.sizes=[16,15]"]),
    "one_size": ("solve-surface", ["grid.sizes=[16]"]),
    "string_size": ("solve-surface", ['grid.sizes=["a",8]']),
    "axisym_too_coarse": ("solve-surface", [
        'grid={"mode": "axisym-1d", "sizes": [4]}']),
    "full_2d_n3": ("solve-surface", ["n=3"]),
    "epsilon_too_large": ("solve-surface", [
        "epsilon=1.0", 'f={"builtin": "power_decay", "c": 2, "p": 3}']),
    "flat_bounds_not_pairs": ("solve-flat", [RECT_GRID % "[1, 2]"]),
    "flat_bounds_too_few": ("solve-flat", [RECT_GRID % "[[-1, 1]]"]),
    "flat_bounds_ragged": ("solve-flat", [
        RECT_GRID % "[[-1, 1], [-1, 1, 3]]"]),
    "f_c_nan": ("solve-surface", ["f.c=NaN"],
                "key 'f.c' must be a finite number"),
    "r2_infinite": ("solve-surface", ["r2=Infinity"]),
    "newton_tol_nan": ("solve-surface", ["newton.tol=NaN"]),
    "r2_huge_int": ("solve-surface", ["r2=1" + "0" * 400]),
    "flat_h_nan": ("solve-flat", ["grid.h=NaN"]),
    # A schedule that never advances t, or whose step halving never
    # underflows, would loop forever.
    "dt0_zero": ("solve-surface", ["t_schedule.dt0=0"]),
    "dt_max_zero": ("solve-surface", ["t_schedule.dt_max=0"]),
    "dt0_negative": ("solve-surface", ["t_schedule.dt0=-1"]),
    "dt_min_zero": ("solve-surface", ["t_schedule.dt_min=0"]),
    "max_iter_zero": ("solve-surface", ["newton.max_iter=0"]),
    "tol_negative": ("solve-surface", ["newton.tol=-1"]),
    "surface_form_bogus": ("solve-surface", ["newton.form=bogus"]),
    "flat_form_bogus": ("solve-flat", ["newton.form=bogus"]),
    "surface_jacobian_bogus": ("solve-surface", ["newton.jacobian=bogus"]),
    "flat_jacobian_bogus": ("solve-flat", ["newton.jacobian=bogus"]),
    # Far past the node cap: refused before any allocation.
    "surface_grid_huge": ("solve-surface", ["grid.sizes=[100000,100000]"]),
    "flat_h_tiny": ("solve-flat", ["grid.h=1e-5"]),
    "aniso_axis_7": ("solve-surface", [ANISO_F % 7]),
    "aniso_axis_minus_4": ("solve-surface", [ANISO_F % -4]),
}


class TestJsonText:
    def test_sorted_keys_and_float_format(self):
        text = cli.json_text({"b": 0.5, "a": [1, True, None, "x"]})
        assert text == '{"a":[1,true,null,"x"],"b":0.5}'

    def test_seventeen_digits(self):
        text = cli.json_text({"v": 1.0 / 3.0})
        assert text == '{"v":0.33333333333333331}'
        assert json.loads(text)["v"] == 1.0 / 3.0

    def test_nonfinite_becomes_null(self):
        assert cli.json_text([float("inf"), float("nan")]) == "[null,null]"

    def test_numpy_scalars(self):
        text = cli.json_text({"i": np.int64(3), "x": np.float64(0.25)})
        assert text == '{"i":3,"x":0.25}'

    def test_deterministic(self):
        payload = {"z": [0.1, 0.2], "a": {"nested": 1e-300}}
        assert cli.json_text(payload) == cli.json_text(payload)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "a" / "out.json"
        cli.atomic_write_text(str(target), "one")
        cli.atomic_write_text(str(target), "two")
        assert target.read_text() == "two"
        leftovers = [p for p in (tmp_path / "a").iterdir()
                     if p.suffix == ".tmp"]
        assert not leftovers


class TestConfigLoading:
    def test_override_dot_path(self, tmp_path):
        p = tmp_path / "c.json"
        write_cfg(p, {"a": {"b": 1}})
        cfg = cli.load_config(str(p), ["a.b=2", "c=hello"])
        assert cfg["a"]["b"] == 2
        assert cfg["c"] == "hello"

    def test_bad_override(self, tmp_path):
        p = tmp_path / "c.json"
        write_cfg(p, {})
        with pytest.raises(ConfigError):
            cli.load_config(str(p), ["novalue"])

    def test_missing_key_path_in_message(self):
        with pytest.raises(ConfigError) as exc:
            cli._get({"grid": {}}, "grid.sizes", list)
        assert "grid.sizes" in str(exc.value)


class TestBuiltinCatalog:
    def test_power_decay(self):
        f = cli.build_surface_f({"builtin": "power_decay", "c": 2.0,
                                 "p": 3.0}, 2)
        x = np.array([[2.0, 0.0, 0.0]])
        nu = x / 2.0
        assert f(x, nu)[0] == pytest.approx(2.0 / 8.0)

    def test_aniso_power(self):
        f = cli.build_surface_f({"builtin": "aniso_power", "c": 1.0,
                                 "p": 0.0, "delta": 0.5}, 2)
        x = np.array([[1.0, 0.0, 0.0]])
        nu = np.array([[0.0, 0.0, 1.0]])
        assert f(x, nu)[0] == pytest.approx(1.5)

    def test_tabulated_interpolates(self):
        f = cli.build_surface_f({"builtin": "tabulated",
                                 "r": [0.5, 1.5], "values": [2.0, 4.0]}, 2)
        x = np.array([[1.0, 0.0, 0.0]])
        assert f(x, x)[0] == pytest.approx(3.0)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            cli.build_surface_f({"builtin": "nope"}, 2)

    @pytest.mark.parametrize("build,spec,key", [
        (cli.build_surface_f, {"builtin": "power_decay", "c": 1.0}, "f.p"),
        (cli.build_surface_f, {"builtin": "power_decay", "c": 1.0,
                               "p": "x"}, "f.p"),
        (cli.build_surface_f, {"builtin": "aniso_power", "c": 1.0, "p": 3,
                               "delta": math.nan}, "f.delta"),
        (cli.build_surface_f, {"builtin": "aniso_power", "c": 1.0, "p": 3,
                               "delta": 0.1, "axis": 0.5}, "f.axis"),
        (cli.build_surface_f, {"builtin": "tabulated", "r": [1, 2]},
         "f.values"),
        (cli.build_flat_f, {"builtin": "grad_sq", "c0": math.inf}, "f.c0"),
        (cli.build_flat_f, {"builtin": "grad_sq", "c1": "x"}, "f.c1"),
        (cli.build_flat_f, {"builtin": "constant"}, "f.value"),
        (cli.build_flat_f, {}, "f.builtin"),
    ])
    def test_errors_name_the_full_key(self, build, spec, key):
        args = (spec, 2) if build is cli.build_surface_f else (spec,)
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            build(*args)

    def test_flat_grad_sq(self):
        f = cli.build_flat_f({"builtin": "grad_sq", "c0": 1.0, "c1": 2.0})
        x = np.zeros((1, 2))
        grad = np.array([[3.0, 4.0]])
        assert f(x, np.zeros(1), grad)[0] == pytest.approx(51.0)


class TestOracleCommands:
    def test_sigma(self):
        r = CliRunner().invoke(cli.main, ["oracle", "sigma", "1", "2", "3",
                                          "--m", "2"])
        assert r.exit_code == 0
        assert r.output.strip() == "11"

    def test_cone_inside(self):
        r = CliRunner().invoke(cli.main, ["oracle", "cone", "3", "3", "-1",
                                          "--k", "2"])
        assert r.exit_code == 0
        assert r.output.strip() == "inside"

    def test_cone_outside(self):
        r = CliRunner().invoke(cli.main, ["oracle", "cone", "-1", "1", "1",
                                          "--k", "2"])
        assert r.exit_code == 0
        assert r.output.strip() == "outside"

    def test_coeffs_matches_analytic(self):
        r = CliRunner().invoke(cli.main, ["oracle", "coeffs", "1", "2", "3",
                                          "--k", "2"])
        assert r.exit_code == 0
        lines = r.output.strip().split("\n")
        assert lines[0].startswith("G = ")
        g = float(lines[0].split("=")[1])
        assert g == pytest.approx(11.0**0.5, rel=1e-12)
        grad = [float(v) for v in lines[1].split("=")[1].split()]
        from etacurv import symm
        co = symm.operator_coefficients(
            symm.SpectrumVector((1.0, 2.0, 3.0), k=2))
        assert np.allclose(grad, co.gradient, rtol=1e-6)

    def test_coeffs_outside_cone(self):
        r = CliRunner().invoke(cli.main, ["oracle", "coeffs", "-5", "1",
                                          "1", "--k", "2"])
        assert r.exit_code != 0


@pytest.mark.parametrize("probe", sorted(CONFIG_PROBES))
def test_config_error_exits_2(tmp_path, probe):
    command, overrides, *message = CONFIG_PROBES[probe]
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, SURFACE_CFG if command == "solve-surface" else FLAT_CFG)
    args = [command, "--config", str(cfgp), "--out", str(tmp_path / "o")]
    for spec in overrides:
        args += ["--override", spec]
    r = CliRunner().invoke(cli.main, args)
    assert r.exit_code == 2, (r.output, r.exception)
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "config error" in r.output
    for text in message:
        assert text in r.output


# Mutated configs for the exit-code property. Valid values keep each run
# small: tiny grids or grids at least 100x past the node cap, never in
# between, and schedule steps of at least 0.02, so that no draw takes more
# than a few hundred homotopy attempts.
INVALID = st.sampled_from([0, -1, "bogus", [], {}, None])
SCHEDULE = st.floats(0.02, 1.0) | INVALID
COMMON_KEYS = {
    "k": st.integers(-1, 4) | INVALID,
    "newton.tol": st.floats(1e-12, 1e-6) | INVALID,
    "newton.max_iter": st.integers(-2, 40) | INVALID,
    "newton.form": st.sampled_from(["raw", "root", "bogus"]),
    "newton.jacobian": st.sampled_from(["analytic", "fd", "bogus"]),
}
MUTATIONS = {
    "solve-surface": {
        **COMMON_KEYS,
        "n": st.integers(0, 4) | INVALID,
        "grid": st.sampled_from([
            {"mode": "axisym-1d", "sizes": [16]},
            {"mode": "full-2d", "sizes": [8, 8]},
            {"mode": "full-2d", "sizes": [100000, 100000]},
            {"mode": "axisym-1d", "sizes": [10**9]},
            {"mode": "full-2d", "sizes": [8, 7]},
            {"mode": "bogus", "sizes": [16]}]) | INVALID,
        "f": st.fixed_dictionaries({
            "builtin": st.sampled_from(["power_decay", "aniso_power",
                                        "constant", "bogus"]),
            "c": st.floats(0.5, 2.0), "p": st.floats(0.0, 4.0),
            "delta": st.floats(-0.9, 0.9), "axis": st.integers(-6, 6),
            "value": st.floats(0.5, 2.0)}) | INVALID,
        "r1": st.floats(0.1, 1.5) | INVALID,
        "r2": st.floats(0.5, 3.0) | INVALID,
        "epsilon": st.floats(1e-3, 1.0) | INVALID,
        "t_schedule.dt0": SCHEDULE,
        "t_schedule.dt_min": SCHEDULE,
        "t_schedule.dt_max": SCHEDULE,
    },
    "solve-flat": {
        **COMMON_KEYS,
        "n": st.sampled_from([1, 2]) | INVALID,
        "grid": st.sampled_from([
            {"shape": "rect", "h": 0.125},
            {"shape": "ball", "h": 0.25, "radius": 0.5},
            {"shape": "ball", "h": 1e-5},
            {"shape": "rect", "h": 1e-300},
            {"shape": "bogus", "h": 0.125}]) | INVALID,
        "grid.h": st.floats(0.125, 4.0) | INVALID,
        "f": st.fixed_dictionaries({
            "builtin": st.sampled_from(["grad_sq", "constant", "bogus"]),
            "c0": st.floats(0.5, 2.0), "c1": st.floats(0.0, 4.0),
            "value": st.floats(-1.0, 2.0)}) | INVALID,
        "beta": st.floats(0.0, 8.0) | INVALID,
    },
}
PROPERTY_BASE = {
    "solve-surface": dict(SURFACE_CFG, grid={"mode": "axisym-1d",
                                             "sizes": [16]},
                          t_schedule={"dt0": 0.1, "dt_min": 0.02,
                                      "dt_max": 0.5}),
    "solve-flat": FLAT_CFG,
}
WALL_S = 20.0   # per example; the slowest valid draws take about 1 s


@st.composite
def mutated_runs(draw):
    command = draw(st.sampled_from(sorted(MUTATIONS)))
    keys = draw(st.lists(st.sampled_from(sorted(MUTATIONS[command])),
                         min_size=1, max_size=2, unique=True))
    return command, [(key, draw(MUTATIONS[command][key])) for key in keys]


def _past_wall_bound(signum, frame):
    raise TimeoutError(f"example ran past {WALL_S} s")


@settings(max_examples=60, deadline=None)
@given(mutated_runs())
def test_mutated_config_exit_codes(run):
    command, mutations = run
    args = [command]
    for key, value in mutations:
        args += ["--override", f"{key}={json.dumps(value)}"]
    previous = signal.signal(signal.SIGALRM, _past_wall_bound)
    signal.setitimer(signal.ITIMER_REAL, WALL_S)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cfgp = os.path.join(tmp, "cfg.json")
            write_cfg(cfgp, PROPERTY_BASE[command])
            out = os.path.join(tmp, "o")
            start = time.perf_counter()
            r = CliRunner().invoke(cli.main, args + ["--config", cfgp,
                                                     "--out", out])
            elapsed = time.perf_counter() - start
            error_json = os.path.exists(os.path.join(out, "error.json"))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert r.exit_code in (0, 2, 3, 4), (r.output, r.exception)
    assert r.exit_code == 0 or isinstance(r.exception, SystemExit), \
        r.exception
    assert "Traceback" not in r.output
    assert error_json == (r.exit_code in (3, 4))
    assert elapsed < WALL_S


@pytest.mark.parametrize("command,jac_name", [
    ("solve-surface", "assemble_jacobian"), ("solve-flat", "flat_jacobian")])
def test_newton_stall_exits_4(tmp_path, monkeypatch, command, jac_name):
    # tol = 1e-16 lies below the roundoff floor of both residuals: Newton
    # must stop once its step no longer changes the iterate, well before
    # max_iter = 40 Jacobians.
    owner = solver if command == "solve-surface" else flatcase
    real, jacobians = getattr(owner, jac_name), []

    def counted(*args, **kw):
        jacobians.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(owner, jac_name, counted)
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, SURFACE_CFG if command == "solve-surface" else FLAT_CFG)
    out = tmp_path / "o"
    r = CliRunner().invoke(cli.main, [command, "--config", str(cfgp),
                                      "--out", str(out),
                                      "--override", "newton.tol=1e-16"])
    assert r.exit_code == 4, (r.output, r.exception)
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 4
    assert err["error"] == "NewtonDiverged"
    assert "step no longer changes the iterate" in err["message"]
    assert 0 < len(jacobians) < 10


# Round data with f = C(6,6) 5^6 R / |X|^7, R = 0.8: the exact solution is
# the sphere of radius 0.8, and f is about 1.6e4 at the start.
ROUND_66_CFG = {
    "n": 6, "k": 6,
    "grid": {"mode": "axisym-1d", "sizes": [128]},
    "f": {"builtin": "power_decay", "c": 15625 * 0.8, "p": 7},
    "r1": 0.5, "r2": 2.0,
}


def test_large_round_data_converges(tmp_path):
    # An absolute tolerance of 1e-10 lies below this residual's roundoff
    # floor, which ended the homotopy in a step underflow (exit 4).
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, ROUND_66_CFG)
    out = tmp_path / "o"
    r = CliRunner().invoke(cli.main, ["solve-surface", "--config", str(cfgp),
                                      "--out", str(out)])
    assert r.exit_code == 0, (r.output, r.exception)
    report = json.loads((out / "report.json").read_text())
    assert abs(report["monitors"]["rho_min"] - 0.8) < 1e-10
    assert abs(report["monitors"]["rho_max"] - 0.8) < 1e-10
    assert 1e-10 < report["final_max_residual"] <= report["tol"]
    records = [json.loads(line)
               for line in (out / "trace.jsonl").read_text().splitlines()]
    assert records[-1]["tol"] == report["tol"]
    assert all(rec["max_residual"] <= rec["tol"] for rec in records)


def test_stall_error_names_the_applied_tol(tmp_path):
    # newton.tol = 1e-16 times max f = 15625 at the round start.
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, ROUND_66_CFG)
    out = tmp_path / "o"
    r = CliRunner().invoke(cli.main, ["solve-surface", "--config", str(cfgp),
                                      "--out", str(out),
                                      "--override", "newton.tol=1e-16"])
    assert r.exit_code == 4, (r.output, r.exception)
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NewtonDiverged"
    assert err["tol"] == pytest.approx(1e-16 * 15625, rel=1e-12)
    assert "tol 1.563e-12" in err["message"]
    history = err["residual_history"]
    assert len(history) == len(err["step_fractions"]) + 1
    assert min(history) > err["tol"]


def test_step_underflow_error_carries_the_newton_report(tmp_path):
    # At 1e-14 * max f every homotopy attempt past t = 0.2125 stalls.
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, ROUND_66_CFG)
    out = tmp_path / "o"
    r = CliRunner().invoke(cli.main, ["solve-surface", "--config", str(cfgp),
                                      "--out", str(out),
                                      "--override", "newton.tol=1e-14"])
    assert r.exit_code == 4, (r.output, r.exception)
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ContinuationStuck"
    assert "homotopy step underflow" in err["message"]
    assert "at t=0.2125" in err["message"]
    history = err["residual_history"]
    assert len(history) == len(err["step_fractions"]) + 1
    assert min(history) > err["tol"] > 0
    assert (out / "trace.jsonl").exists()


class TestSolveFlatCommand:
    def test_quadratic_run(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, FLAT_CFG)
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        assert report["converged"]
        assert report["interior_negative"]
        assert report["pogorelov"] > 0
        csv_lines = (out / "flat.csv").read_text().strip().split("\n")
        assert csv_lines[0].startswith("x0,x1,phi")

    def test_report_states_the_applied_tol(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, {**FLAT_CFG, "f": {"builtin": "constant",
                                           "value": 4.0}})
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        assert report["tol"] == 4e-10
        assert report["final_max_residual"] <= report["tol"]

    @pytest.mark.parametrize("cfg", [
        FLAT_CFG,
        {**FLAT_CFG, "newton": {"form": "root"}},
        {**FLAT_CFG, "n": 3, "grid": {"shape": "ball", "h": 0.25},
         "f": {"builtin": "grad_sq", "c0": 1.0, "c1": 0.5}},
    ], ids=["flat_cfg", "root_form", "grad_sq_3d"])
    def test_csv_holds_the_raw_residual(self, tmp_path, cfg):
        # flat.csv takes the solve's last residual fields; it must equal
        # the file written from the raw residual recomputed at the answer.
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, cfg)
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code == 0, r.output
        fcall = cli.build_flat_f(cfg["f"])
        grid = flatcase.build_flat_grid(cfg["n"], h=cfg["grid"]["h"])
        state, _ = flatcase.dirichlet_solve(
            grid, fcall, cfg["k"], config=NewtonConfig(**cfg["newton"]))
        res = flatcase.flat_residual(state, fcall, cfg["k"])
        assert ((out / "flat.csv").read_text()
                == flatcase.flat_csv_text(state, res))

    def test_k_greater_than_n(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, {**FLAT_CFG, "k": 3})
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config",
                                          str(cfgp), "--out",
                                          str(tmp_path / "o")])
        assert r.exit_code == 2
        assert "k" in r.output

    def test_missing_key(self, tmp_path):
        cfg = {k: v for k, v in FLAT_CFG.items() if k != "grid"}
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, cfg)
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config",
                                          str(cfgp), "--out",
                                          str(tmp_path / "o")])
        assert r.exit_code == 2
        assert "grid.h" in r.output


class TestSolveSurfaceCommand:
    def test_round_run(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, SURFACE_CFG)
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-surface", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        assert report["converged"]
        assert abs(report["monitors"]["rho_max"] - 1.25) < 1e-6
        assert abs(report["monitors"]["rho_min"] - 1.25) < 1e-6
        trace = [json.loads(line) for line in
                 (out / "trace.jsonl").read_text().strip().split("\n")]
        assert trace[0]["t"] == 0.0
        assert trace[-1]["t"] == 1.0
        surface = (out / "surface.csv").read_text()
        assert surface.startswith("node,theta,phi,rho")

    def test_constant_f_exits_3(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, SURFACE_CFG)
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, [
            "solve-surface", "--config", str(cfgp), "--out", str(out),
            "--override", 'f={"builtin": "constant", "value": 3.0}',
        ])
        assert r.exit_code == 3
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 3
        assert err["conditions"]["monotonicity_margin"] > 0

    def test_conditions_validated_once(self, tmp_path, monkeypatch):
        calls = []
        real = solver.validate_conditions

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "validate_conditions", counted)
        cfg = dict(SURFACE_CFG, grid={"mode": "axisym-1d", "sizes": [32]})
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, cfg)
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-surface", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["conditions"]["passed"]
        assert "seed" not in report
        assert report["config"]["seed"] == 0

    def test_missing_config_file(self, tmp_path):
        r = CliRunner().invoke(cli.main, ["solve-surface", "--config",
                                          str(tmp_path / "nope.json"),
                                          "--out", str(tmp_path / "o")])
        assert r.exit_code == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, SURFACE_CFG)
        runner = CliRunner()
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = runner.invoke(cli.main, ["solve-surface", "--config",
                                         str(cfgp), "--out", str(out)])
            assert r.exit_code == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]
