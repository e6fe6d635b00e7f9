"""Definitions of the currentlab package that no workload calls.

    python3 tools/reach.py
    python3 tools/reach.py --suite group

The workloads are `check all` (default workers), each CLI command (with
`--config` and `--out`), and one round of each benchmark workload of
bench/workloads.py, which the script imports and does not change, with the
fixed-speed stub of tools/peak_memory.py in place of the machine-speed
reference.  A
sys.setprofile hook (threading.setprofile for the check runner's worker
threads) records the code object of every Python call.  It is installed
before currentlab is imported, so the calls made at import time (the
registry's decorator registering each check) count.  Every function
definition in src/currentlab (methods and nested functions included) is
matched to its code object by file and first line; a decorated function's
code object starts at its first decorator, so that line is the key.

The script prints the definitions no workload calls, then those that only
the benchmark workloads call.  With --suite it runs `check SUITE` alone,
which makes a quick probe of one suite's reach.  Run it from the root of a
source checkout.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "currentlab")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]


class Calls:
    """The code objects of the Python calls made since the last take."""

    def __init__(self):
        self.codes = set()

    def hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def install(self) -> None:
        sys.setprofile(self.hook)
        threading.setprofile(self.hook)

    def take(self) -> set:
        """(file, first line) of each package function called, and start afresh."""
        codes, self.codes = self.codes, set()
        return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes
                if os.path.realpath(c.co_filename).startswith(PACKAGE + os.sep)}


def definitions() -> dict:
    """(file, first line) -> (module file name, def line, qualified name) for
    every function definition of the package; the first line of a decorated
    one is its first decorator's."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, name))
        with open(path) as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[path, first] = (name, child.lineno, prefix + child.name)
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def _cli_commands(tmp: str) -> list:
    """One argument list per CLI command, every option that changes the path
    taken included."""
    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        json.dump({"seed": 7, "tolerances": {"v-half-exponential": 1e-12}}, fh)
    out = os.path.join(tmp, "out")
    commands = [["specfun", "eval", "--fn", fn, "--x", "0.7"] for fn in ("K", "V", "g", "psi")]
    commands += [
        ["check", "specfun", "--config", config, "--out", out + ".json"],
        ["check", "specfun", "--format", "csv", "--out", out + ".csv"],
        ["sample", "marginal", "--count", "3", "--out", out + ".jsonl"],
        ["sample", "process", "--count", "2", "--out", out + ".jsonl"],
        ["kernel", "tabulate", "--grid", "0.5,-1.0", "--out", out + ".csv"],
        ["rep", "apply", "--g", "z:1.0|s|d:2.0", "--grid", "10,16"],
        ["rep", "apply", "--n", "3", "--g", "z:0.3,0.2|s|d:2.0", "--grid", "8,8",
         "--out", out + ".json"],
        ["group", "check", "--n", "3", "--trials", "20"],
    ]
    commands += [["measure", "density", "--which", which, "--xi", "0.3,0.4"]
                 for which in ("mu", "nu", "v")]
    commands += [["rep", "check", "--suite", suite]
                 for suite in ("unitarity", "involution", "tau", "spherical", "cocycle")]
    return commands


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--suite", default=None,
                    help="run `check SUITE` alone, not the CLI and the benchmark")
    args = ap.parse_args(argv)

    calls = Calls()
    calls.install()
    from currentlab import cli  # noqa: E402  (after the hook, so import-time calls count)

    program = set()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        commands = [["check", args.suite]] if args.suite else \
            [["check", "all"]] + _cli_commands(tmp)
        failed = [c for c in commands if cli.main(c) != 0]
        program |= calls.take()
        bench = set()
        if not args.suite:
            import workloads
            from peak_memory import FixedSpeed

            for name, workload in workloads.WORKLOADS.items():
                run = workload(1)
                ops = workloads.Ops(FixedSpeed())
                failed += [[name, msg] for msg in run.round(ops, 0) + run.finish()]
            bench = calls.take()
    sys.setprofile(None)
    threading.setprofile(None)

    defs = definitions()
    unreached = sorted(where for key, where in defs.items() if key not in program | bench)
    bench_only = sorted(where for key, where in defs.items() if key in bench - program)
    runs = f"check {args.suite}" if args.suite else \
        "check all, each CLI command and each benchmark workload"
    print(f"{len(defs)} definitions in src/currentlab; workloads: {runs}")
    for cmd in failed:
        print(f"failed: {' '.join(cmd)}")
    print(f"unreached: {len(unreached)}")
    for name, line, qualname in unreached:
        print(f"  {name}:{line} {qualname}")
    if not args.suite:
        print(f"reached only by the benchmark: {len(bench_only)}")
        for name, line, qualname in bench_only:
            print(f"  {name}:{line} {qualname}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
