"""Peak resident memory of a benchmark workload, round by round, in one
process.

    python3 tools/peak_memory.py --workload sampling --rounds 3
    python3 tools/peak_memory.py --workload check-all --rounds 2

The memory counterpart of tools/check_times.py.  The script builds the
workload of bench/workloads.py, which it imports and does not change, and
runs its rounds as bench/run.py's measured child does, but with a stub in
place of the machine-speed reference (so it needs no mpmath; the scaled
times it would give are not read).  ru_maxrss is the process's peak
resident memory, a high-water mark.  After each round the script prints it
and charges the round's rise to where it happened: to each kind of program
call (the kinds of workloads.Ops.call, a check-all suite call to its
suite's name), to each of the benchmark's checks (the functions of
bench/checks.py, a nested one charged to the outermost) and, for the rest
(the workload's own code between them), to "other".  A call or check that
stays below an earlier high-water mark reads 0, so the first round shows
what a cold run pays and the later ones what each round adds to it.  Run it
from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import resource
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402

WORKLOADS = ("sampling", "check-all")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class FixedSpeed:
    """Stands in for bench/machine.Reference: every speed sample reads 1 and
    a time scales to itself."""

    def sample(self) -> float:
        return 1.0

    @staticmethod
    def scaled(seconds: float, before: float, after: float) -> float:
        return seconds


class Rises:
    """The rise of ru_maxrss in MB per label; a charged call made inside
    another is charged to the outer one."""

    def __init__(self):
        self.mb = defaultdict(float)
        self.depth = 0

    def charge(self, label: str, fn, *args, **kwargs):
        if self.depth:
            return fn(*args, **kwargs)
        self.depth += 1
        before = _peak_rss_mb()
        try:
            return fn(*args, **kwargs)
        finally:
            self.depth -= 1
            self.mb[label] += _peak_rss_mb() - before


class MeteredOps(workloads.Ops):
    """workloads.Ops with each program call's rise charged to its kind, and
    a check-all suite call (run_suite(config, name)) to its suite's name."""

    def __init__(self, reference, rises: Rises):
        super().__init__(reference)
        self.rises = rises

    def call(self, kind: str, units: int, fn, *args, ops: int = 1, **kwargs):
        label = f"suite {args[1]}" if kind == "suite" else f"call {kind}"
        return self.rises.charge(label, super().call, kind, units, fn, *args,
                                 ops=ops, **kwargs)


def meter_checks(rises: Rises) -> None:
    """Charge every public function of bench/checks.py (workloads.C) to its
    name, by replacing the module attributes the workloads call."""
    checks = workloads.C
    for name, fn in list(vars(checks).items()):
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != checks.__name__):
            continue
        setattr(checks, name, functools.partial(rises.charge, f"check {name}", fn))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    workload = workloads.WORKLOADS[args.workload](args.seed)
    rises = Rises()
    meter_checks(rises)
    ops = MeteredOps(FixedSpeed(), rises)
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds in one process; "
          f"MB: ru_maxrss {_peak_rss_mb():.1f} after set-up, and each round's rise "
          "charged to where it happened")
    failed = 0
    for index in range(args.rounds):
        rises.mb.clear()
        before = _peak_rss_mb()
        failures = workload.round(ops, index)
        after = _peak_rss_mb()
        failed += len(failures)
        print(f"round {index}: ru_maxrss {after:.1f} (+{after - before:.2f}), "
              f"{len(failures)} failed checks")
        for label, mb in rises.mb.items():
            print(f"  {label:36s} {mb:+8.2f}")
        print(f"  {'other':36s} {after - before - sum(rises.mb.values()):+8.2f}")
    failed += len(workload.finish())
    print(f"peak {_peak_rss_mb():.1f} MB; {failed} failed checks in all")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
