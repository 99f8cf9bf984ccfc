"""Mutation audit of the numerical kernels: which one-operator changes does
the test suite miss?

Each mutant changes one operator inside one of the FUNCTIONS below: a
binary ``+`` to ``-`` or back, ``*`` to ``/`` or back, or a unary minus
dropped. The suite runs once per mutant (``pytest -x -q tests``) in a copy
of the checkout; a mutant that passes every test survives, and each
survivor is printed as ``file:line`` with the mutated source line. A
survivor is either a test gap or an equivalent mutant (one that cannot
change what the program computes, or changes only a difference step).

Not a test and not collected by pytest (its name does not start with
``test_``). The whole audit runs some 360 mutants; 300 of them took about
20 minutes on two cores with ``--jobs 2``. Run from the checkout's root:

    python3 tests/mutation_audit.py --jobs 2
    python3 tests/mutation_audit.py --only solver.py:homotopy_f
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from queue import Queue

FUNCTIONS = {
    "solver.py": ["_jac_f_term", "_jac_full", "_jac_axisym", "residual",
                  "homotopy_f"],
    "geometry.py": ["_jet_full", "_fundamental_forms", "_jet_axisym",
                    "_principal_curvatures", "_finish_jet", "_build_ops"],
    "flatcase.py": ["flat_jacobian", "build_flat_state", "flat_residual"],
    "newton.py": ["form_residual", "SlotTable.form_matrix",
                  "fd_data_derivs"],
    "symm.py": ["newton_tensor_batch", "sigma_excl_batch"],
    "verify.py": ["identity_check"],
    "_multifrontal.py": ["FrontalPlan.__init__", "FrontalPlan._blocks",
                         "FrontalPlan.factor", "FrontalPlan._solver",
                         "_moves"],
}
SWAP = {ast.Add: (b"+", b"-"), ast.Sub: (b"-", b"+"),
        ast.Mult: (b"*", b"/"), ast.Div: (b"/", b"*")}


def _offset(lines, lineno, col):
    # ast's column offsets count UTF-8 bytes.
    return sum(len(line) for line in lines[:lineno - 1]) + col


def _function(tree, qualname):
    body = tree.body
    for name in qualname.split("."):
        node = next(n for n in body if getattr(n, "name", None) == name)
        body = node.body
    return node


def mutants(source, qualname):
    """(offset, old, new) edits of the UTF-8 bytes of source, one per
    mutant, in source order."""
    lines = source.splitlines(keepends=True)
    out = []
    for node in ast.walk(_function(ast.parse(source), qualname)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            old, new = SWAP[type(node.op)]
            start = _offset(lines, node.left.end_lineno,
                            node.left.end_col_offset)
            stop = _offset(lines, node.right.lineno, node.right.col_offset)
            gap = source[start:stop]
            # The operator is the gap's one character outside comments.
            code = b"".join(part.split(b"#")[0] for part in
                            gap.splitlines(keepends=True))
            out.append((start + code.index(old), old, new))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            out.append((_offset(lines, node.lineno, node.col_offset), b"-",
                        b""))
    return sorted(out)


def run_suite(root, timeout):
    """True if the suite passes in the checkout at root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "tests"], cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--only", action="append", metavar="FILE:FUNC",
                        help="audit only these functions (repeatable)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds per suite run; a timeout kills")
    args = parser.parse_args()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pkg = os.path.join(repo, "src", "etacurv")
    todo = []
    for fname, funcs in FUNCTIONS.items():
        with open(os.path.join(pkg, fname), "rb") as fh:
            source = fh.read()
        for func in funcs:
            if args.only and f"{fname}:{func}" not in args.only:
                continue
            todo += [(fname, source, m) for m in mutants(source, func)]
    print(f"{len(todo)} mutants", flush=True)

    def audit(item):
        fname, source, (at, old, new) = item
        root = copies.get()
        path = os.path.join(root, "src", "etacurv", fname)
        try:
            with open(path, "wb") as fh:
                fh.write(source[:at] + new + source[at + len(old):])
            survived = run_suite(root, args.timeout)
        finally:
            with open(path, "wb") as fh:
                fh.write(source)
            copies.put(root)
        line = source.count(b"\n", 0, at) + 1
        text = source.splitlines()[line - 1].decode().strip()
        return survived, (f"{fname}:{line} {old.decode()!r} -> "
                          f"{new.decode()!r}: {text}")

    work = tempfile.mkdtemp(prefix="mutation_audit_")
    copies = Queue()
    try:
        for j in range(args.jobs):
            root = os.path.join(work, str(j))
            shutil.copytree(repo, root, ignore=shutil.ignore_patterns(
                ".git", ".bench_out", ".hypothesis", ".pytest_cache",
                "__pycache__"))
            copies.put(root)
        if not run_suite(root, args.timeout):
            sys.exit("the suite fails without a mutant")
        with ThreadPoolExecutor(args.jobs) as pool:
            results = list(pool.map(audit, todo))
    finally:
        shutil.rmtree(work)
    survivors = [desc for survived, desc in results if survived]
    print(f"{len(todo) - len(survivors)} killed, {len(survivors)} survived")
    for desc in survivors:
        print("SURVIVED", desc)


if __name__ == "__main__":
    main()
