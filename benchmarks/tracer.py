"""Per-layer timing from outside the program.

``Tracer.install`` replaces the public functions of each etacurv module
with wrappers that record a span per call, and ``restore`` puts every
original back. A span stack gives each span's self time: its duration
minus the durations of the spans it directly encloses. Layers are the
modules; ``damped_newton`` is imported by name into ``solver`` and
``flatcase``, so it is wrapped there, and its wrapper also wraps the
residual, Jacobian and admissibility callbacks handed to it, which makes
the Newton self time the linear solve plus the iteration's bookkeeping.
The ``f`` callback of the prescribed data is wrapped by ``wrap_data`` and
its calls are attributed to the span that made them.

Wrappers only time while ``active`` is set, so set-up work the benchmark
does between the timed phases is not counted.
"""

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("symm", "geometry", "solver", "verify", "flatcase", "cli")
NEWTON_USERS = ("solver", "flatcase")


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        # (span, parent span) -> calls / inclusive seconds
        self.by_parent_calls = Counter()
        self.by_parent_s = defaultdict(float)
        self.counts = Counter()
        self.last_jacobian = None
        self.unknowns = 0
        self._stack = []
        self._originals = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        frame = [name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        name, child_s, start = frame
        dt = time.perf_counter() - start
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += dt
        self.calls[name] += 1
        self.total_s[name] += dt
        self.self_s[name] += dt - child_s
        self.by_parent_calls[name, parent] += 1
        self.by_parent_s[name, parent] += dt

    def span(self, name, fn):
        """``fn`` wrapped so that each active call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return wrapper

    @contextmanager
    def region(self, name):
        """A span opened by the benchmark itself around a block."""
        if not self.active:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap_data(self, f):
        return self.span("data.f", f)

    # -- installation -------------------------------------------------------

    def _replace(self, module, attr, wrapper):
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, package):
        """Wrap the public functions of every layer of ``package``."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._replace(module, attr, self.span(f"{layer}.{attr}", obj))
        for layer in NEWTON_USERS:
            module = getattr(package, layer)
            self._replace(module, "damped_newton",
                          self._newton(layer, module.damped_newton,
                                       package.errors.NewtonDiverged))

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _newton(self, layer, fn, failure):
        timed = self.span("newton.damped_newton", fn)

        def keep_jacobian(jac):
            self.last_jacobian = jac
            return jac

        @functools.wraps(fn)
        def wrapper(x0, residual_fn, jacobian_fn, cfg, candidate_check=None):
            if not self.active:
                return fn(x0, residual_fn, jacobian_fn, cfg,
                          candidate_check=candidate_check)
            jac = self.span("newton.jacobian_fn",
                            lambda x: keep_jacobian(jacobian_fn(x)))
            res = self.span("newton.residual_fn", residual_fn)
            check = (None if candidate_check is None
                     else self.span("newton.candidate_check", candidate_check))
            self.unknowns = len(x0)
            self.counts[f"{layer}.newton_calls"] += 1
            try:
                x, report = timed(x0, res, jac, cfg, candidate_check=check)
            except failure as exc:
                if exc.report is not None:
                    self.counts["newton.iterations"] += exc.report.iterations
                raise
            self.counts[f"{layer}.newton_converged"] += 1
            self.counts["newton.iterations"] += report.iterations
            return x, report
        return wrapper


def _layer_self_s(tracer, layer):
    return sum((s for name, s in tracer.self_s.items()
                if name.startswith(layer + ".")), 0.0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, answer):
    """The per-layer metrics of one traced sample, by name."""
    from scipy.sparse.linalg import splu

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    newton_calls = sum(counts[f"{u}.newton_calls"] for u in NEWTON_USERS)
    candidates = calls["newton.residual_fn"] - newton_calls
    attempts = counts["solver.newton_calls"]
    accepted = counts["solver.newton_converged"]
    jac = tracer.last_jacobian
    lu = splu(jac.tocsc(), permc_spec="COLAMD")   # spsolve's default ordering

    def f_under(parent):
        return (tracer.by_parent_calls["data.f", parent],
                tracer.by_parent_s["data.f", parent])

    fd_calls, fd_s = f_under("solver.assemble_jacobian")
    flat_fd_calls, flat_fd_s = f_under("flatcase.flat_jacobian")
    out = {
        "newton.self_s": self_s["newton.damped_newton"],
        "newton.iterations": counts["newton.iterations"],
        "newton.jacobian_evals": calls["newton.jacobian_fn"],
        "newton.residual_evals": calls["newton.residual_fn"],
        "newton.step_accept_ratio": _ratio(counts["newton.iterations"],
                                           candidates),
        "newton.unknowns": tracer.unknowns,
        "newton.jac_nnz": jac.nnz,
        "newton.lu_fill_nnz": lu.L.nnz + lu.U.nnz,
        "solver.homotopy_attempts": attempts,
        "solver.homotopy_accepted": accepted,
        "solver.homotopy_accept_ratio": _ratio(accepted, attempts),
        "solver.fd_data.f_calls": fd_calls,
        "solver.fd_data.s": fd_s,
        "flatcase.fd_data.f_calls": flat_fd_calls,
        "flatcase.fd_data.s": flat_fd_s,
        "data.f.calls": calls["data.f"],
        "data.f.s": tracer.total_s["data.f"],
        # All verify work runs under estimate_report: its monitors are
        # spans of their own, so the layer's self time is the sum.
        "verify.estimate_report.s": _layer_self_s(tracer, "verify"),
        "verify.estimate_report.calls": calls["verify.estimate_report"],
        "cli.serialize_s": tracer.total_s["serialize"],
        "cli.bytes_written": answer["bytes_written"],
    }
    for name in ("solver.assemble_jacobian", "solver.residual",
                 "geometry.surface_jet", "symm.elem_sym_all_batch",
                 "symm.sigma_excl_batch", "flatcase.build_flat_state",
                 "flatcase.flat_jacobian"):
        out[f"{name}.s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    for name in ("solver.validate_conditions", "geometry.sigma_k_of_eta",
                 "geometry.build_grid", "symm.require_cone_batch",
                 "flatcase.build_flat_grid", "flatcase.flat_residual",
                 "flatcase.pogorelov_monitor"):
        out[f"{name}.s"] = self_s[name]
    for layer in ("symm", "geometry", "solver", "flatcase"):
        out[f"{layer}.self_s"] = _layer_self_s(tracer, layer)
    return out
