"""One benchmark sample in a fresh process.

    python3 benchmarks/worker.py --workload NAME --seed N [--sample J] --trace 0|1 --out DIR

Imports ``etacurv`` from the checkout's ``src`` (never from an installed
copy), builds the workload's grids, checks its data, solves, checks the
answer and prints one JSON line with the timings, counts and errors.
``run.py`` starts one worker per sample with BLAS threads pinned to 1.

Timed phases, each as wall-clock seconds (``*_wall_s``) and as the
worker's CPU seconds, user plus system (``*_cpu_s``):

* ``setup``: worker start to a built grid, i.e. ``import etacurv`` plus
  the grid build (the data check that follows is not timed);
* ``solve``: built grid to a verified answer with artifacts written: the
  solve, the final monitors and the serialization.

``phases`` gives each phase's start and end on ``time.perf_counter``'s
clock (CLOCK_MONOTONIC, shared by every process), so that ``run.py`` can
match them with its host-speed probes.
"""

import time

_T0 = time.perf_counter()
_CPU0 = time.process_time()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

# numpy loads only now, after the BLAS thread variables are set.
import numpy  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_etacurv():
    """Import etacurv from ``ROOT/src`` and return its modules."""
    src = ROOT / "src"
    if not (src / "etacurv" / "__init__.py").is_file():
        raise SystemExit(f"no etacurv sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("etacurv")
    if Path(package.__file__).resolve().parent != (src / "etacurv").resolve():
        raise SystemExit(f"etacurv was imported from {package.__file__}, "
                         f"not from {src}")
    importlib.import_module("etacurv.cli")
    return types.SimpleNamespace(
        package=package, cli=package.cli, flatcase=package.flatcase,
        geometry=package.geometry, solver=package.solver,
        verify=package.verify)


def identity():
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def run_sample(workload, seed, traced, outdir, reference, t0, sample=0):
    """Set up, solve and check one workload; returns the sample record.

    ``reference`` None skips the answer check (used to record it).
    """
    ec = load_etacurv()
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if traced:
        tracer.install(ec.package)
    try:
        return _sample(ec, workload, seed, sample, tracer, traced, outdir,
                       reference, t0, import_s)
    finally:
        tracer.restore()


def _sample(ec, workload, seed, sample, tracer, traced, outdir, reference,
            t0, import_s):
    wrap = tracer.wrap_data if traced else (lambda f: f)

    tracer.active = traced
    t_build = time.perf_counter()
    grids = workload.setup(ec)
    t_built, cpu_built = time.perf_counter(), time.process_time()

    tracer.active = False
    params = workload.params(seed, sample)
    inputs = workload.inputs(ec, params, wrap)
    errors = workload.precheck(ec, inputs)
    if errors:
        raise SystemExit("data check failed: " + "; ".join(errors))
    tracer.active = traced

    t_solve, cpu_solve = time.perf_counter(), time.process_time()
    solves = workload.solve(ec, grids, inputs, outdir, tracer.region)
    t_solved, cpu_solved = time.perf_counter(), time.process_time()

    tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if reference is not None:
        errors = workload.check(solves, params, reference)
    record = {
        "workload": workload.name,
        "seed": seed,
        "sample": sample,
        "params": params,
        "traced": traced,
        "setup_wall_s": t_built - t0,
        "setup_cpu_s": cpu_built - _CPU0,
        "import_s": import_s,
        "build_s": t_built - t_build,
        "solve_wall_s": t_solved - t_solve,
        "solve_cpu_s": cpu_solved - cpu_solve,
        "phases": {"setup": [t0, t_built], "solve": [t_solve, t_solved]},
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "answer": {
            "digests": [s["digest"] for s in solves],
            "accepted_steps": [s["accepted_steps"] for s in solves],
            "newton_iterations": [s["newton_iterations"] for s in solves],
            "bytes_written": sum(s["bytes"] for s in solves),
        },
        "reference": workload.reference_values(solves),
        "identity": identity(),
    }
    if traced:
        record["layers"] = layer_metrics(tracer, record["answer"])
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sample", type=int, default=0,
                    help="index of the sample within its run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh).get(args.workload, {})
    record = run_sample(WORKLOADS[args.workload], args.seed,
                        bool(args.trace), args.out, reference, _T0,
                        args.sample)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
