"""Tests for the command-line interface and its serialization helpers."""

import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etacurv import _multifrontal, cli, flatcase, geometry, newton, solver
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

ONE = {"builtin": "constant", "value": 1.0}

FLAT_CFG = {
    "n": 2, "k": 2,
    "grid": {"shape": "ball", "h": 0.125},
    "f": ONE,
    "newton": {"tol": 1e-10, "max_iter": 40},
}


def write_cfg(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)


RECT_GRID = 'grid={"shape": "rect", "h": 0.125, "bounds": %s}'
ANISO_F = ('f={"builtin": "aniso_power", "c": 1.25, "p": 3, "delta": 0.1, '
           '"axis": %d}')
TABLE_F = 'f={"builtin": "tabulated", "r": %s, "values": %s}'

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
    # As for f.r, a JSON string or boolean is not a number: both used to
    # solve on the converted box.
    "flat_bounds_string": ("solve-flat", [
        RECT_GRID % '[["-1", "1"], [-1, 1]]'],
        "key 'grid.bounds' must be a list of lists of finite numbers"),
    "flat_bounds_bool": ("solve-flat", [
        RECT_GRID % "[[false, true], [-1, 1]]"],
        "key 'grid.bounds' must be a list of lists of finite numbers"),
    "f_c_nan": ("solve-surface", ["f.c=NaN"],
                "key 'f.c' must be a finite number"),
    "r2_infinite": ("solve-surface", ["r2=Infinity"]),
    "newton_tol_nan": ("solve-surface", ["newton.tol=NaN"]),
    "r2_huge_int": ("solve-surface", ["r2=1" + "0" * 400]),
    # r2^k and r1^k past the float range used to end in OverflowError and
    # ZeroDivisionError tracebacks.
    "r2_1e200": ("solve-surface", ["r2=1e200"], "key 'r2'"),
    "r1_1e-200": ("solve-surface", ["r1=1e-200"], "key 'r1'"),
    "flat_h_nan": ("solve-flat", ["grid.h=NaN"]),
    # A schedule that never advances t, or whose step halving never
    # underflows, would loop forever.
    "dt0_zero": ("solve-surface", ["t_schedule.dt0=0"]),
    "dt_max_zero": ("solve-surface", ["t_schedule.dt_max=0"]),
    "dt0_negative": ("solve-surface", ["t_schedule.dt0=-1"]),
    "dt_min_zero": ("solve-surface", ["t_schedule.dt_min=0"]),
    # dt0 defaults to dt_max only when it is not given.
    "dt0_above_dt_max": ("solve-surface", ["t_schedule.dt0=0.7"],
                         "0 < dt0 <= dt_max"),
    "max_iter_zero": ("solve-surface", ["newton.max_iter=0"]),
    "tol_negative": ("solve-surface", ["newton.tol=-1"]),
    # A removed option is refused whatever its value, so that a request for
    # a finite-difference Jacobian or the raw form sigma_k - f does not get
    # the analytic Jacobian or the root form.
    **{f"{prefix}_{key}_{value}": (
        command, [f"newton.{key}={value}"], f"key 'newton.{key}' was removed")
       for prefix, command in (("surface", "solve-surface"),
                               ("flat", "solve-flat"))
       for key, values in (("jacobian", ("analytic", "fd", "bogus")),
                           ("form", ("raw", "root", "bogus")))
       for value in values},
    # Far past the node cap: refused before any allocation.
    "surface_grid_huge": ("solve-surface", ["grid.sizes=[100000,100000]"]),
    "flat_h_tiny": ("solve-flat", ["grid.h=1e-5"]),
    # Under the node cap, but its LU would take 1.7 GB of factors: refused
    # before any difference operator is assembled.
    "flat_lu_too_large": ("solve-flat", [
        "n=3", 'grid={"shape": "ball", "h": 0.03}'],
        "LU of 155331 unknowns needs 1.703e+09 bytes of factors, past the "
        "limit of 1073741824"),
    "aniso_axis_7": ("solve-surface", [ANISO_F % 7]),
    "aniso_axis_minus_4": ("solve-surface", [ANISO_F % -4]),
    "tabulated_r_nested": ("solve-flat", [TABLE_F % ("[[0.1], [5.0]]",
                                                     "[1.0, 2.0]")],
                           "key 'f.r' must be a list of finite numbers"),
    "tabulated_values_nan": ("solve-flat", [TABLE_F % ("[0.1, 5.0]",
                                                       "[NaN, 1.0]")],
                             "key 'f.values' must be a list of finite"),
    "tabulated_r_infinite": ("solve-flat", [TABLE_F % ("[0.1, Infinity]",
                                                       "[1.0, 2.0]")],
                             "key 'f.r' must be a list of finite numbers"),
    # As for the scalar float keys, a JSON boolean or string is not a
    # number: r = [true, 5.0] used to converge with r = [1, 5].
    "tabulated_r_bool": ("solve-flat", ["k=1", TABLE_F % ("[true, 5.0]",
                                                          "[1.0, 2.0]")],
                         "key 'f.r' must be a list of finite numbers"),
    "tabulated_values_string": ("solve-flat", [TABLE_F % ("[0.1, 5.0]",
                                                          '["1.0", 2.0]')],
                                "key 'f.values' must be a list of finite"),
    # C(400, 200) 399^200 is an int past the float range.
    "n_400_k_200": ("solve-surface", [
        "n=400", "k=200", 'grid={"mode": "axisym-1d", "sizes": [16]}'],
        "exceeds the float range"),
    # A non-object where an object of keys belongs is not read as absent.
    "t_schedule_list": ("solve-surface", ["t_schedule=[]"],
                        "key 't_schedule' must be of type dict"),
    "newton_list": ("solve-surface", ["newton=[]"],
                    "key 'newton' must be of type dict"),
    "flat_newton_list": ("solve-flat", ["newton=[]"],
                         "key 'newton' must be of type dict"),
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
    assert not (tmp_path / "o" / "report.json").exists()


# Mutated configs for the exit-code property. Valid values keep each run
# small: tiny grids, grids at least 100x past the node cap or, in three
# dimensions, past the LU-size cap, never in between, and schedule steps of
# at least 0.02, so that no draw takes more than a few hundred homotopy
# attempts.
INVALID = st.sampled_from([0, -1, "bogus", [], {}, None])
SCHEDULE = st.floats(0.02, 1.0) | INVALID
COMMON_KEYS = {
    "k": st.integers(-1, 4) | INVALID,
    "newton.tol": st.floats(1e-12, 1e-6) | INVALID,
    "newton.max_iter": st.integers(-2, 40) | INVALID,
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
        "n": st.sampled_from([1, 2, 3]) | INVALID,
        "grid": st.sampled_from([
            {"shape": "rect", "h": 0.125},
            {"shape": "rect", "h": 0.0625},
            {"shape": "ball", "h": 0.25, "radius": 0.5},
            {"shape": "ball", "h": 1e-5},
            {"shape": "ball", "h": 0.03},
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
@example(("solve-flat", [("n", 3), ("grid", {"shape": "ball", "h": 0.03})]))
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


def test_flat_newton_stall_exits_4_in_root_form(tmp_path, monkeypatch):
    # tol = 1e-16 lies below the residual's roundoff floor: Newton must
    # stop once no step fraction lowers the residual, well before
    # max_iter = 40 Jacobians. The surface stalls on its round data instead
    # (test_root_form_stagnation_exits_4).
    real, jacobians = flatcase.flat_jacobian, []

    def counted(*args, **kw):
        jacobians.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(flatcase, "flat_jacobian", counted)
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, FLAT_CFG)
    out = tmp_path / "o"
    r = CliRunner().invoke(cli.main, ["solve-flat", "--config", str(cfgp),
                                      "--out", str(out),
                                      "--override", "newton.tol=1e-16"])
    assert r.exit_code == 4, (r.output, r.exception)
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 4
    assert err["error"] == "NewtonDiverged"
    assert "no step fraction down to 1/64 decreased" in err["message"]
    assert 0 < len(jacobians) < 10


# Round data with f = C(6,6) 5^6 R / |X|^7, R = 0.8: the exact solution is
# the sphere of radius 0.8, f is about 1.6e4 and f^(1/6) about 5 at the
# start. The tests below pin where the residual meets its roundoff floor.
ROUND_66_CFG = {
    "n": 6, "k": 6,
    "grid": {"mode": "axisym-1d", "sizes": [128]},
    "f": {"builtin": "power_decay", "c": 15625 * 0.8, "p": 7},
    "r1": 0.5, "r2": 2.0,
}


def _solve_surface(tmp_path, cfg, *overrides):
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, cfg)
    out = tmp_path / "o"
    args = ["solve-surface", "--config", str(cfgp), "--out", str(out)]
    for spec in overrides:
        args += ["--override", spec]
    return CliRunner().invoke(cli.main, args), out


def test_large_round_data_converges(tmp_path):
    # The stop test is relative to max f^(1/6) = 5 at the start, so the
    # applied tolerance lies above 1e-10.
    r, out = _solve_surface(tmp_path, ROUND_66_CFG)
    assert r.exit_code == 0, (r.output, r.exception)
    report = json.loads((out / "report.json").read_text())
    assert abs(report["monitors"]["rho_min"] - 0.8) < 1e-10
    assert abs(report["monitors"]["rho_max"] - 0.8) < 1e-10
    assert 1e-10 < report["tol"]
    assert report["final_max_residual"] <= report["tol"]
    records = [json.loads(line)
               for line in (out / "trace.jsonl").read_text().splitlines()]
    assert records[-1]["tol"] == report["tol"]
    assert all(rec["max_residual"] <= rec["tol"] for rec in records)


@pytest.mark.parametrize("overrides,accepted_t", [
    ((), [0.0, 1.0]),
    (("t_schedule.dt_max=0.5",), [0.0, 0.5, 1.0]),
], ids=["defaults", "dt_max_alone"])
def test_first_step_defaults_to_dt_max(tmp_path, overrides, accepted_t):
    # Without t_schedule.dt0 the first attempt after t = 0 is t = dt_max:
    # the target itself by default, and dt_max = 0.5 given alone restores
    # the schedule 0, 0.5, 1 instead of exiting 2 on dt0 > dt_max.
    cfg = {key: v for key, v in SURFACE_CFG.items() if key != "t_schedule"}
    r, out = _solve_surface(tmp_path, cfg, *overrides)
    assert r.exit_code == 0, (r.output, r.exception)
    records = [json.loads(line)
               for line in (out / "trace.jsonl").read_text().splitlines()]
    assert [rec["t"] for rec in records] == accepted_t
    report = json.loads((out / "report.json").read_text())
    assert report["accepted_steps"] == len(accepted_t)


def test_stall_error_names_the_applied_tol(tmp_path):
    # newton.tol = 1e-16 times max f^(1/6) = 15625^(1/6) = 5 at the start.
    r, out = _solve_surface(tmp_path, ROUND_66_CFG, "newton.tol=1e-16")
    assert r.exit_code == 4, (r.output, r.exception)
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NewtonDiverged"
    assert err["tol"] == pytest.approx(1e-16 * 15625 ** (1 / 6), rel=1e-12)
    assert "tol 5.000e-16" in err["message"]
    history = err["residual_history"]
    assert len(history) == len(err["step_fractions"]) + 1
    assert min(history) > err["tol"]


def test_root_form_stagnation_exits_4(tmp_path):
    # The start already sits at the root residual's roundoff floor,
    # 8.882e-16: no step fraction lowers it, and Newton must stop there,
    # not use up max_iter = 40 Jacobians.
    r, out = _solve_surface(tmp_path, ROUND_66_CFG, "newton.tol=1e-16")
    assert r.exit_code == 4, (r.output, r.exception)
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NewtonDiverged"
    assert "no step fraction down to 1/64 decreased" in err["message"]
    assert err["factorizations"] <= 3


def test_step_underflow_error_carries_the_newton_report(tmp_path):
    # At tol = 1e-16 every attempt past the round start stalls.
    r, out = _solve_surface(tmp_path, SURFACE_CFG, "newton.tol=1e-16")
    assert r.exit_code == 4, (r.output, r.exception)
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ContinuationStuck"
    assert "homotopy step underflow" in err["message"]
    assert "at t=0" in err["message"]
    history = err["residual_history"]
    assert len(history) == len(err["step_fractions"]) + 1
    assert min(history) > err["tol"] > 0
    assert err["factorizations"] >= 1
    assert (out / "trace.jsonl").exists()


def test_nonpositive_data_at_a_solve_start_exits_3(tmp_path, monkeypatch):
    # Data that is not positive where a homotopy step's solve starts is
    # a failed precondition, not an inadmissible trial.
    real = solver.homotopy_f

    def negative_past_t0(data, n, k, epsilon, t):
        blended = real(data, n, k, epsilon, t)
        if t == 0.0:
            return blended
        return solver.PrescribedData(f=lambda x, nu: -blended.f(x, nu),
                                     r1=data.r1, r2=data.r2)

    monkeypatch.setattr(solver, "homotopy_f", negative_past_t0)
    r, out = _solve_surface(tmp_path, SURFACE_CFG)
    assert r.exit_code == 3, (r.output, r.exception)
    assert "Traceback" not in r.output
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "PreconditionError"
    assert "must be positive" in err["message"]
    assert err["conditions"]["passed"]


def test_singular_jacobian_exits_4(tmp_path, monkeypatch):
    # The LU raises RuntimeError on an exactly singular Jacobian; it must
    # end in exit 4, not a traceback.
    monkeypatch.setattr(flatcase, "flat_jacobian",
                        lambda state, f, k, **kw: state.grid.slots.matrix(
                            np.zeros(state.grid.slots.indices.size)))
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, FLAT_CFG)
    out = tmp_path / "o"
    r = CliRunner().invoke(cli.main, ["solve-flat", "--config", str(cfgp),
                                      "--out", str(out)])
    assert r.exit_code == 4, (r.output, r.exception)
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NewtonDiverged"
    assert "Jacobian not factored" in err["message"]
    assert err["factorizations"] == 0
    assert len(err["residual_history"]) == 1


AXISYM_CFG = dict(SURFACE_CFG, grid={"mode": "axisym-1d", "sizes": [32]})


def test_singular_axisym_jacobian_exits_4(tmp_path, monkeypatch):
    # The tridiagonal LU raises RuntimeError on an exactly singular
    # Jacobian; it must end in exit 4, not a traceback. At k = 1 the round
    # start's residual is 4.4e-16, not 0: a tolerance below it makes the
    # t = 0 solve factor a Jacobian, where no smaller t step can retry.
    monkeypatch.setattr(solver, "assemble_jacobian",
                        lambda grid, rho, data, k, **kw: grid.slots.matrix(
                            np.zeros(grid.slots.indices.size)))
    cfg = dict(AXISYM_CFG, k=1, newton={"tol": 1e-300, "max_iter": 40})
    r, out = _solve_surface(tmp_path, cfg)
    assert r.exit_code == 4, (r.output, r.exception)
    assert "Traceback" not in r.output
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NewtonDiverged"
    assert "Jacobian not factored" in err["message"]
    assert err["factorizations"] == 0
    assert len(err["residual_history"]) == 1


def test_step_underflow_names_the_newton_failure(tmp_path, monkeypatch):
    # An exactly singular Jacobian fails the attempt at t = 1 and every
    # halved one after it: the underflow message names that failure.
    monkeypatch.setattr(solver, "assemble_jacobian",
                        lambda grid, rho, data, k, **kw: grid.slots.matrix(
                            np.zeros(grid.slots.indices.size)))
    cfg = {key: v for key, v in AXISYM_CFG.items() if key != "t_schedule"}
    cfg["f"] = {"builtin": "aniso_power", "c": 1.25, "p": 3, "delta": 0.2}
    r, out = _solve_surface(tmp_path, cfg)
    assert r.exit_code == 4, (r.output, r.exception)
    assert "Traceback" not in r.output
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ContinuationStuck"
    assert "homotopy step underflow below 0.0001 at t=0" in err["message"]
    assert "Jacobian not factored" in err["message"]


@pytest.mark.parametrize("command,cfg,unknowns,kernel", [
    ("solve-flat", FLAT_CFG,
     flatcase.build_flat_grid(2, "ball", h=0.125).ninterior,
     (_multifrontal.FrontalPlan, "factor")),
    ("solve-surface", SURFACE_CFG, 32 * 16, (newton, "splu")),
    ("solve-surface", AXISYM_CFG, 32, (newton, "dgttrf")),
], ids=["flat", "surface", "axisym"])
def test_lu_out_of_memory_exits_4(tmp_path, monkeypatch, command, cfg,
                                  unknowns, kernel):
    # An LU too large for memory ends in exit 4 at its first factorization:
    # a smaller homotopy step would factor a matrix of the same size. The
    # flat factors by the multifrontal plan, the full-2d grid by SuperLU
    # and the axisym grid by LAPACK's tridiagonal LU.
    calls = []

    def fail(*args, **kw):
        calls.append(1)
        raise MemoryError

    monkeypatch.setattr(*kernel, fail)
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, cfg)
    out = tmp_path / "o"
    r = CliRunner().invoke(cli.main, [command, "--config", str(cfgp),
                                      "--out", str(out)])
    assert r.exit_code == 4, (r.output, r.exception)
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert len(calls) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "LUOutOfMemory" and err["exit_code"] == 4
    assert err["unknowns"] == unknowns
    assert f"LU of {unknowns} unknowns ran out of memory" in err["message"]
    assert err["factorizations"] == 0
    assert len(err["residual_history"]) == 1


class _ArrayMemoryError(MemoryError):
    """Stands in for the private MemoryError subclass numpy raises."""


@pytest.mark.parametrize("command,cfg,module,name,exc,message", [
    ("solve-surface", SURFACE_CFG, solver, "validate_conditions",
     _ArrayMemoryError("Unable to allocate 74.5 GiB"),
     "Unable to allocate 74.5 GiB"),
    ("solve-surface", SURFACE_CFG, geometry, "surface_jet", MemoryError(),
     "out of memory"),
    ("solve-flat", FLAT_CFG, flatcase, "build_flat_state",
     _ArrayMemoryError("Unable to allocate 1.49 GiB"),
     "Unable to allocate 1.49 GiB"),
], ids=["surface_conditions", "surface_jet", "flat_state"])
def test_memory_error_outside_the_lu_exits_4(tmp_path, monkeypatch, command,
                                             cfg, module, name, exc,
                                             message):
    # Memory can run out in any array of a solve; that ends in exit 4
    # with an error.json, not in a traceback.
    def fail(*args, **kw):
        raise exc

    monkeypatch.setattr(module, name, fail)
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, cfg)
    out = tmp_path / "o"
    r = CliRunner().invoke(cli.main, [command, "--config", str(cfgp),
                                      "--out", str(out)])
    assert r.exit_code == 4, (r.output, r.exception)
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert f"error: {message}" in r.output
    err = json.loads((out / "error.json").read_text())
    assert err == {"error": "MemoryError", "message": message,
                   "exit_code": 4}


def test_cli_as_a_process(tmp_path):
    # pytest's pythonpath setting does not reach a child process, so the
    # child is given the package's source directory.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, FLAT_CFG)
    solve = ["solve-flat", "--config", str(cfgp), "--out", str(tmp_path)]

    def run(*args):
        return subprocess.run([sys.executable, "-m", "etacurv.cli", *args],
                              capture_output=True, text=True, env=env,
                              timeout=300)

    ok = run(*solve)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("converged in ") and ok.stderr == ""
    bad = run(*solve, "--override", "newton.tol=-1")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("config error:")
    gone = run("oracle", "sigma", "1", "2", "3", "--m", "2")
    assert gone.returncode == 2 and gone.stdout == ""
    assert "No such command" in gone.stderr


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
        assert 1 <= report["factorizations"] <= report["iterations"]
        assert report["interior_negative"]
        assert report["pogorelov"] > 0
        csv_lines = (out / "flat.csv").read_text().strip().split("\n")
        assert csv_lines[0].startswith("x0,x1,phi")

    def test_report_states_the_applied_tol(self, tmp_path):
        # 1e-10 times f^(1/2) = 2.
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, {**FLAT_CFG,
                         "f": {"builtin": "constant", "value": 4.0}})
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        assert report["tol"] == 2e-10
        assert report["final_max_residual"] <= report["tol"]

    @pytest.mark.parametrize("cfg", [
        FLAT_CFG,
        {**FLAT_CFG, "n": 3, "grid": {"shape": "ball", "h": 0.25},
         "f": {"builtin": "grad_sq", "c0": 1.0, "c1": 0.5}},
    ], ids=["flat_cfg", "grad_sq_3d"])
    def test_csv_holds_the_raw_residual(self, tmp_path, cfg):
        # flat.csv takes the solve's last residual fields; it must equal
        # the file written from the raw residual sigma_k - f recomputed at
        # the answer.
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
        fields = {}
        flatcase.flat_residual(state, fcall, cfg["k"], fields=fields)
        res = fields["sigma"] - fields["f"]
        assert ((out / "flat.csv").read_text()
                == flatcase.flat_csv_text(state, res))

    @pytest.mark.parametrize("overrides", [
        ['f={"builtin": "tabulated", "r": [0, 2], '
         '"values": [1e300, 1e300]}'],
        ["beta=-1000"],
    ], ids=["huge_data", "negative_beta"])
    def test_monitor_beyond_the_float_range(self, tmp_path, overrides):
        # The suite turns a RuntimeWarning into an error: the monitor's
        # overflow must be silent, null in report.json and inf in flat.csv.
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, FLAT_CFG)
        out = tmp_path / "out"
        args = ["solve-flat", "--config", str(cfgp), "--out", str(out)]
        for spec in overrides:
            args += ["--override", spec]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 0, (r.output, r.exception)
        report = json.loads((out / "report.json").read_text())
        assert report["pogorelov"] is None
        rows = [line.split(",")
                for line in (out / "flat.csv").read_text().splitlines()]
        assert rows[0][-1] == "pogorelov"
        assert "inf" in [row[-1] for row in rows[1:]]

    @pytest.mark.parametrize("n,grid,f", [
        (2, {"shape": "rect", "h": 0.0625}, ONE),
        (2, {"shape": "rect", "h": 0.125, "bounds": [[-2, 1], [-2, 1]]}, ONE),
        (2, {"shape": "rect", "h": 0.0625, "bounds": [[-2, 1], [-2, 1]]},
         ONE),
        (2, {"shape": "rect", "h": 0.125, "bounds": [[0, 3], [0, 1]]}, ONE),
        (2, {"shape": "rect", "h": 0.0625, "bounds": [[0, 3], [0, 1]]}, ONE),
        (2, {"shape": "rect", "h": 0.0625},
         {"builtin": "tabulated", "r": [0, 2], "values": [1, 2]}),
        (3, {"shape": "rect", "h": 0.0625,
             "bounds": [[0, 3], [0, 1], [0, 1]]}, ONE),
    ], ids=["square", "offset_square_h8", "offset_square_h16", "strip_h8",
            "strip_h16", "tabulated", "box_3d"])
    def test_rectangles_with_k_equal_n_exit_cleanly(self, tmp_path, n, grid,
                                                    f):
        # The bowl start is negative on a rectangle's edges and can leave
        # the cone near a corner for k = n. The start is the program's, so
        # a cone violation there is a Newton failure: exit 4, with
        # error.json naming the node and the order.
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, {"n": n, "k": n, "grid": grid, "f": f})
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code in (0, 2, 3, 4), (r.output, r.exception)
        assert r.exit_code == 0 or isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output
        assert (out / "error.json").exists() == (r.exit_code in (3, 4))
        if r.exit_code == 4:
            err = json.loads((out / "error.json").read_text())
            if err["error"] == "ConeViolationError":
                assert f"at node {err['node']}: " in err["message"]
                assert f"sigma_{err['order']} = " in err["message"]
                assert 1 <= err["order"] <= n

    def test_start_outside_the_cone_exits_4(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, {"n": 2, "k": 2, "grid": {"shape": "rect",
                                                  "h": 0.0625}, "f": ONE})
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code == 4, (r.output, r.exception)
        assert "Traceback" not in r.output
        err = json.loads((out / "error.json").read_text())
        assert err == {"error": "ConeViolationError", "exit_code": 4,
                       "message": "cone violation at node 1: "
                                  "sigma_2 = -18 <= 0",
                       "node": 1, "order": 2}
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

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
        assert all(0 <= rec["newton_factorizations"]
                   <= rec["newton_iterations"] for rec in trace)
        surface = (out / "surface.csv").read_text()
        assert surface.startswith("node,theta,phi,rho")

    def test_readme_example_runs(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block, = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(block)
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, ["solve-surface", "--config",
                                          str(cfgp), "--out", str(out)])
        assert r.exit_code == 0, (r.output, r.exception)
        assert json.loads((out / "report.json").read_text())["converged"]

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

    def test_overflowing_data_exits_3(self, tmp_path):
        # f = 1.25 |X|^-3 overflows to inf at |X| = r1 = 1e-150, where the
        # difference quotient is inf - inf = NaN: the conditions were not
        # checked there. The suite turns a RuntimeWarning into an error.
        cfgp = tmp_path / "cfg.json"
        write_cfg(cfgp, SURFACE_CFG)
        out = tmp_path / "out"
        r = CliRunner().invoke(cli.main, [
            "solve-surface", "--config", str(cfgp), "--out", str(out),
            "--override", "r1=1e-150"])
        assert r.exit_code == 3, (r.output, r.exception)
        conditions = json.loads((out / "error.json").read_text())["conditions"]
        assert not conditions["passed"] and not conditions["zero_margin"]
        assert conditions["inner_margin"] is None
        assert conditions["monotonicity_margin"] is None

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
        _assert_runs_byte_identical(tmp_path, "solve-surface", SURFACE_CFG,
                                    ("surface.csv", "trace.jsonl",
                                     "report.json"))


def _assert_runs_byte_identical(tmp_path, command, cfg, files):
    """Two runs of ``command`` on ``cfg`` write the same bytes to every
    artifact in ``files``."""
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = CliRunner().invoke(cli.main, [command, "--config", str(cfgp),
                                          "--out", str(out)])
        assert r.exit_code == 0, (r.output, r.exception)
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        outs.append([(out / fname).read_bytes() for fname in files])
    assert outs[0] == outs[1]


def test_flat_determinism_byte_identical(tmp_path):
    _assert_runs_byte_identical(tmp_path, "solve-flat", FLAT_CFG,
                                ("flat.csv", "report.json"))


def test_deep_nesting_exits_2(tmp_path):
    # A config nested past what the JSON decoder, or the report's echo of
    # the config, can recurse through ends in the config-error exit before
    # the solve: in the config file, in an override's value, and in an
    # override's dot path.
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(FLAT_CFG)[:-1] + ', "note": '
                    + "[" * 5000 + "]" * 5000 + "}")
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, FLAT_CFG)
    out = tmp_path / "o"
    for path, spec in ((deep, None),
                       (cfgp, "note=" + "[" * 983 + "]" * 983),
                       (cfgp, ".".join(["note"] * 2000) + "=1")):
        args = ["solve-flat", "--config", str(path), "--out", str(out)]
        r = CliRunner().invoke(cli.main,
                               args + (["--override", spec] if spec else []))
        assert r.exit_code == 2, (r.output, r.exception)
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output
        assert "config error" in r.output and "nests too deeply" in r.output
        assert not out.exists()


def test_unusable_out_exits_2_before_the_solve(tmp_path, monkeypatch):
    def solve(*args, **kw):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(flatcase, "dirichlet_solve", solve)
    cfgp = tmp_path / "cfg.json"
    write_cfg(cfgp, FLAT_CFG)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    for out in (taken, taken / "o"):
        r = CliRunner().invoke(cli.main, ["solve-flat", "--config", str(cfgp),
                                          "--out", str(out)])
        assert r.exit_code == 2, (r.output, r.exception)
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output
        assert (f"config error: cannot create the output directory '{out}'"
                in r.output)
        assert taken.read_text() == "a file"
