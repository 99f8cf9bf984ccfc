"""Benchmark of the etacurv solve pipelines.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs the named workload (see ``workloads.py``) in fresh worker processes,
one after another on one CPU, for about ``--seconds`` seconds, and checks
every answer. Each worker is one sample: a new interpreter with BLAS
threads pinned to 1 that imports etacurv from ``src``, builds the grid and
solves once.

``--trace 0`` reports the end-to-end metrics, medians over the samples:
``solve_s``, ``setup_s`` and ``peak_rss_mb``. The two times are the
worker's CPU times scaled to a reference host speed, which ``run.py``
probes on the worker's CPU while the worker runs (see ``normalize``); the
wall times are in the table and the results file. ``--trace 1`` runs
pairs of an untraced and a traced worker and reports the per-layer
metrics of the traced ones (see ``tracer.py``), with ``trace.overhead_s``,
the traced minus the untraced median ``solve_s``; it fails if tracing
changed any count or answer. Samples that fail their check count as
failed attempts (``fail_frac`` = failed / attempted).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table. Every run also writes its samples and the machine
identity to ``.bench_out/results/``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from worker import BLAS_ENV, HERE, ROOT
from workloads import WORKLOADS

END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
WALL = (("solve_wall_s", "s"), ("setup_wall_s", "s"))
WORKER_TIMEOUT_S = 150
OUT = ROOT / ".bench_out"

# Host-speed probe. A CPU of a shared VM runs the same code 20-40% faster
# or slower for seconds to minutes at a time, and the two CPUs drift
# independently, so a time alone cannot resolve a 25% change. run.py
# pins itself and each worker to one CPU and, while the worker runs,
# wakes every PROBE_INTERVAL_S to time one pass of a fixed pure-Python
# loop over PROBE_ITEMS floats there (about 0.15 ms). The probe touches
# only its own list, so the program under test hardly moves it. The
# worker's phases are timed in CPU seconds, which leave out the probe's
# turns and anything else that ran on the CPU meanwhile.
PROBE_INTERVAL_S = 0.02
PROBE_ITEMS = 4000
PROBE_DATA = [float(i) for i in range(PROBE_ITEMS)]
# The probe's duration at the reference speed (about its median on the
# 2-core x86-64 VM the benchmark was written on): phase times are
# reported as the CPU time the phase would take at this probe speed.
PROBE_REF_S = 150e-6
# Each worker runs without address-space randomization: with it, the
# sweep's solve time varied by 4.3% (cv) from one process to the next,
# without it by 2.9%.
ADDR_NO_RANDOMIZE = 0x0040000
MIN_PROBES = 5


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """SHA-256 over the package sources, which names the code measured."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def probe():
    """Start and duration of one turn of the fixed probe loop."""
    start = time.perf_counter()
    acc = 0.0
    for x in PROBE_DATA:
        acc += x * x
    return start, time.perf_counter() - start


def normalize(sample, probes):
    """Add ``setup_s`` and ``solve_s``: CPU times at the reference speed.

    A phase's host speed is PROBE_REF_S over the mean duration of the
    probes that started during the phase, with the fastest and slowest
    tenth dropped. The worker's ``phases`` are on the same monotonic
    clock as the probes.
    """
    speed = {}
    for phase, (start, end) in sample["phases"].items():
        took = sorted(dt for t, dt in probes if start <= t < end)
        if len(took) < MIN_PROBES:
            raise SystemExit(f"only {len(took)} host-speed probes ran during "
                             f"the {phase} phase of a sample")
        cut = len(took) // 10
        kept = took[cut:len(took) - cut]
        speed[phase] = PROBE_REF_S / (sum(kept) / len(kept))
        sample[f"{phase}_s"] = sample[f"{phase}_cpu_s"] * speed[phase]
    sample["host_speed"] = speed
    sample["probes"] = len(probes)


def fixed_layout():
    """Turn off address-space randomization for the process to be exec'd."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona == -1 or libc.personality(persona | ADDR_NO_RANDOMIZE) == -1:
        raise OSError(ctypes.get_errno(), "personality() failed")


def run_worker(name, seed, sample, traced):
    """One sample in a fresh process; a crash is a failed sample.

    The worker inherits run.py's CPU, and run.py probes the host's speed
    on it until the worker exits.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--sample", str(sample),
           "--trace", str(int(traced)),
           "--out", str(OUT / "work" / name)]
    probes = []
    with tempfile.TemporaryFile("w+", dir=OUT) as out, \
            tempfile.TemporaryFile("w+", dir=OUT) as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=err, text=True,
                                preexec_fn=fixed_layout)
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        timed_out = False
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    timed_out = True
                    break
                time.sleep(PROBE_INTERVAL_S)
                probes.append(probe())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if timed_out:
            return {"traced": traced,
                    "errors": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            tail = err.read().strip().splitlines()[-3:]
            return {"traced": traced,
                    "errors": [f"worker exited with {proc.returncode}: "
                               + " | ".join(tail)]}
        sample = json.loads(out.read().strip().splitlines()[-1])
    normalize(sample, probes)
    return sample


def collect(name, seed, seconds, traced):
    """Samples until the next would end after ``seconds``; at least one.

    A worker that crashed gives no timing, so collection stops there.
    """
    start = time.monotonic()
    rounds = []
    while True:
        # A traced round runs one worker of each kind, alternating which
        # goes first so that order effects cancel in trace.overhead_s.
        # Untraced rounds step through the workload's data variants; a
        # traced run keeps to one, so that its counts must all agree.
        kinds = [False, True] if traced else [False]
        if len(rounds) % 2:
            kinds.reverse()
        sample = 0 if traced else len(rounds)
        batch = [run_worker(name, seed, sample, kind) for kind in kinds]
        rounds.append(batch)
        elapsed = time.monotonic() - start
        crashed = any("solve_s" not in s for s in batch)
        if crashed or elapsed + elapsed / len(rounds) > seconds:
            return rounds, elapsed


def mark_inconsistent(samples):
    """Fail samples whose answer differs from that of the first passing
    sample of the same data; the solve is deterministic.
    """
    first = {}
    for s in samples:
        if s["errors"]:
            continue
        key = json.dumps(s["params"], sort_keys=True)
        if s["answer"] != first.setdefault(key, s)["answer"]:
            s["errors"].append("answer differs from the first sample's "
                               "of the same data")


def summarize(values, unit):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit}


# Layer times spent building the grid, scaled by the set-up phase's host
# speed; every other layer time is scaled by the solve phase's.
SETUP_LAYERS = ("geometry.build_grid.s", "flatcase.build_flat_grid.s")


def layer_summary(traced, untraced):
    """Per-layer metrics: medians of times, counts that must all agree.

    Times are scaled to the reference host speed like ``solve_s``.
    """
    metrics = {}
    for key, first in traced[0]["layers"].items():
        values = [s["layers"][key] for s in traced]
        if isinstance(first, int):
            if len(set(values)) != 1:
                raise SystemExit(f"count {key} differs between traced "
                                 f"samples: {values}")
            metrics[key] = first
        elif _layer_unit(key) == "s":
            phase = "setup" if key in SETUP_LAYERS else "solve"
            metrics[key] = statistics.median(
                s["layers"][key] * s["host_speed"][phase] for s in traced)
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(s["solve_s"] for s in traced)
        - statistics.median(s["solve_s"] for s in untraced))
    return metrics


def check_trace_agrees(rounds):
    """Tracing must not change a single count or digit of the answer."""
    for batch in rounds:
        untraced, traced = sorted(batch, key=lambda s: s["traced"])
        if untraced["errors"] or traced["errors"]:
            continue
        if untraced["answer"] != traced["answer"]:
            raise SystemExit(
                "traced run differs from the untraced run:\n"
                f"  untraced {json.dumps(untraced['answer'])}\n"
                f"  traced   {json.dumps(traced['answer'])}")


def bench(name, seed, seconds, trace):
    rounds, elapsed = collect(name, seed, seconds, trace)
    if trace:
        check_trace_agrees(rounds)
    samples = [s for batch in rounds for s in batch]
    mark_inconsistent(samples)
    failed = sum(1 for s in samples if s["errors"])
    # A sample that failed its check still timed the work; a crash did not.
    timed = [s for s in samples if "solve_s" in s]
    if not timed:
        raise SystemExit(f"{name}: every worker crashed: "
                         f"{samples[0]['errors']}")
    untraced = [s for s in timed if not s["traced"]]
    if trace:
        traced = [s for s in timed if s["traced"]]
        if not traced or not untraced:
            raise SystemExit(f"{name}: no traced/untraced pair finished")
        layers = layer_summary(traced, untraced)
        table = {key: {"median": value, "n": len(traced),
                       "unit": _layer_unit(key)}
                 for key, value in layers.items()}
        reported = list(table)
    else:
        table = {key: summarize([s[key] for s in untraced], unit)
                 for key, unit in END_TO_END + WALL}
        table["host_speed.solve"] = summarize(
            [s["host_speed"]["solve"] for s in untraced], "ratio")
        table["cpu_share.solve"] = summarize(
            [s["solve_cpu_s"] / s["solve_wall_s"] for s in untraced], "ratio")
        reported = [key for key, _ in END_TO_END]
    metrics = {key: {"value": table[key]["median"],
                     "unit": table[key]["unit"]} for key in reported}
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "elapsed_s": elapsed,
        "params": [json.loads(p) for p in sorted(
            {json.dumps(s["params"], sort_keys=True) for s in timed})],
        "fail_frac": failed / len(samples),
        "identity": dict(timed[0]["identity"], git_commit=git_commit(),
                         src_sha256=src_digest()),
        "table": table, "result": result, "samples": samples,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_table(record)
    for s in samples:
        for err in s["errors"]:
            print(f"  FAILED sample: {err}")
    return result


def _layer_unit(key):
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("ratio"):
        return "ratio"
    return "count"


def print_table(record):
    ident = record["identity"]
    print(f"{record['workload']}  seed {record['seed']}  "
          f"params {json.dumps(record['params'])}")
    print(f"  machine: {ident['cpu_count']} cores, Python {ident['python']}, "
          f"numpy {ident['numpy']}, scipy {ident['scipy']}, "
          f"BLAS env {ident['blas_env']}, git {ident['git_commit']}, "
          f"src {ident['src_sha256']}")
    res = record["result"]
    print(f"  attempted {res['attempted']}  failed {res['failed']}  "
          f"fail_frac {record['fail_frac']:g}  "
          f"elapsed {record['elapsed_s']:.1f} s")
    for key, row in record["table"].items():
        unit = row["unit"]
        if "min" in row:
            print(f"  {key:<34} {unit:<5} median {row['median']:<12.6g} "
                  f"min {row['min']:<12.6g} max {row['max']:<12.6g} "
                  f"n {row['n']}")
        else:
            print(f"  {key:<34} {unit:<5} {row['median']:<14.6g} "
                  f"n {row['n']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "etacurv" / "__init__.py").is_file():
        sys.exit(f"no etacurv sources under {ROOT / 'src'}; run from a "
                 "checkout of the repository")
    OUT.mkdir(exist_ok=True)
    # One CPU for run.py and its workers, so the probes see the worker's.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench(name, args.seed, args.seconds, args.trace)
               for name in names}
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))


if __name__ == "__main__":
    main()
