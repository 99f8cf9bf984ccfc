"""Record the reference answers of every workload variant.

    python3 benchmarks/record_reference.py [WORKLOAD ...]

Solves each data variant once and writes ``reference.json`` next to this
file: the monitor values each workload's check compares against. All
variants of a workload must do the same work (homotopy steps and Newton
iterations per solve), or seeds would change the measured cost; the
script refuses to write the file if they do not.
The committed file was recorded from the code the benchmark was added
for; re-record it only when an intended change of the answer is accepted.
"""

import json
import sys
import time

import worker
from workloads import WORKLOADS


def record(workload):
    refs, work = {}, {}
    outdir = str(worker.ROOT / ".bench_out" / "work" / workload.name)
    for v in workload.reference_seeds:
        rec = worker.run_sample(workload, v, False, outdir, None,
                                time.perf_counter())
        refs[str(v)] = dict(rec["reference"], params=rec["params"])
        work[v] = (rec["answer"]["accepted_steps"],
                   rec["answer"]["newton_iterations"])
        print(f"{workload.name} variant {v}: {rec['params']} "
              f"steps {work[v][0]} solve {rec['solve_wall_s']:.2f}s",
              file=sys.stderr)
    if len(set(json.dumps(w) for w in work.values())) != 1:
        raise SystemExit(f"{workload.name}: variants do different work: "
                         f"{work}")
    return refs


def main():
    names = sys.argv[1:] or [name for name, w in WORKLOADS.items()
                             if w.reference_seeds]
    recorded = {name: record(WORKLOADS[name]) for name in names}
    path = worker.HERE / "reference.json"
    try:
        with open(path) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table.update(recorded)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
