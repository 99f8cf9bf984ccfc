"""The interface that the benchmark's tracer (benchmarks/tracer.py) wraps.

The tracer replaces the public functions of the etacurv modules and the
``damped_newton`` that ``solver`` and ``flatcase`` import by name, and
wraps the callbacks handed to it. Tracing must leave every answer as it
is and count one ``jacobian_fn`` call per factorization the reports hold.
"""

import ast
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import etacurv
from etacurv import cli, flatcase, geometry, newton, solver  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flat_solve():
    """A small flat solve: its answer arrays and the factorizations of its
    one Newton solve."""
    grid = flatcase.build_flat_grid(2, "ball", h=1 / 8)

    def f(x, phi, grad):
        return 1.0 + 0.7 * np.einsum("ni,ni->n", grad, grad)

    fields = {}
    state, rep = flatcase.dirichlet_solve(grid, f, 2, fields=fields)
    return [state.phi, fields["sigma"], fields["f"]], [rep.factorizations]


def axisym_solve():
    """A small homotopy on round data: rho and the factorizations of each
    accepted Newton solve."""
    n, k = 3, 2
    const = math.comb(n, k) * (n - 1) ** k * 1.2

    def f(x, nu):
        return const * np.linalg.norm(x, axis=-1) ** (-(k + 1))

    data = solver.PrescribedData(f=f, r1=0.5, r2=2.0)
    grid = geometry.build_grid(n, "axisym-1d", 32)
    rho, run = solver.continue_to_target(grid, data, solver.HomotopyRun(), k)
    return [rho], [rec["newton_factorizations"] for rec in run.trace]


@pytest.mark.parametrize("solve", [flat_solve, axisym_solve])
def test_traced_solve_is_bit_for_bit(solve):
    want, want_lus = solve()
    tracer = load_tracer().Tracer()
    tracer.install(etacurv)
    try:
        tracer.active = True
        got, lus = solve()
    finally:
        tracer.active = False
        tracer.restore()
    assert flatcase.damped_newton is solver.damped_newton \
        is newton.damped_newton
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert lus == want_lus
    # Every Newton solve converged, so the reports hold every Jacobian.
    calls = [tracer.counts[f"{user}.newton_{what}"]
             for what in ("calls", "converged")
             for user in ("solver", "flatcase")]
    assert calls[:2] == calls[2:] and sum(calls[:2]) == len(lus)
    assert tracer.calls["newton.jacobian_fn"] == sum(lus) > 0


class ReadKeys(dict):
    """A counter that records every key read from it; missing keys read 0."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def __getitem__(self, key):
        self.log.append(key)
        return 0


def test_layer_metrics_read_only_spans_that_exist():
    """A span the tracer reads by name, such as ``symm.sigma_excl_batch``,
    reads as 0 once its function is deleted or renamed; every one it reads
    must be a public function of its module, which is what ``install``
    wraps."""
    bench = load_tracer()
    tracer, read = bench.Tracer(), []
    for attr in ("calls", "self_s", "total_s", "by_parent_calls",
                 "by_parent_s"):
        setattr(tracer, attr, ReadKeys(read))
    tracer.last_jacobian = sp.identity(2, format="csr")
    bench.layer_metrics(tracer, {"bytes_written": 0})
    names = {name for key in read
             for name in (key if isinstance(key, tuple) else (key,))
             if name and name.split(".")[0] in bench.LAYERS}
    assert "symm.sigma_excl_batch" in names
    for name in sorted(names):
        layer, attr = name.split(".")
        fn = getattr(getattr(etacurv, layer), attr, None)
        assert (inspect.isfunction(fn) and not attr.startswith("_")
                and fn.__module__ == f"etacurv.{layer}"), name


def test_every_exported_name_resolves():
    modules = [getattr(etacurv, name) for name in
               ("cli", "errors", "flatcase", "geometry", "newton", "solver",
                "symm", "verify")]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    init = Path(etacurv.__file__)
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = getattr(etacurv, node.module)
            for alias in node.names:
                assert getattr(source, alias.name) \
                    is getattr(etacurv, alias.name), alias.name
